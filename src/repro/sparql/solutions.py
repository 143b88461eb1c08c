"""Solution mappings and the operations on sets of mappings.

Sect. IV-A of the paper adopts the semantics of Pérez, Arenas & Gutierrez
("Semantics and complexity of SPARQL", TODS 2009): a *solution mapping* µ
is a partial function from variables V to RDF terms U; two mappings are
*compatible* when every shared variable has the same value; and for sets
of mappings Ω1, Ω2:

* join:        Ω1 ⋈ Ω2 = { µ1 ∪ µ2 | µ1 ∈ Ω1, µ2 ∈ Ω2, µ1 ~ µ2 }
* union:       Ω1 ∪ Ω2 = { µ | µ ∈ Ω1 or µ ∈ Ω2 }
* difference:  Ω1 − Ω2 = { µ ∈ Ω1 | ∀ µ' ∈ Ω2: µ and µ' not compatible }
* left join:   Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2)

This module implements those operations with set semantics, exactly as the
paper states them, and they are exercised by property-based tests for the
algebraic laws (associativity/commutativity of ⋈ and ∪) that the paper's
distributed optimizations rely on.

Representation: a mapping is a *schema* (an interned tuple of variables in
name order) plus a parallel tuple of term values. Schemas are shared
across every mapping with the same domain, so the hot operations —
compatibility, merge, projection, join-key extraction — compile down to
cached index plans over small tuples instead of per-row dict work. RDF
terms are interned (:mod:`repro.rdf.terms`), which makes every value
comparison inside those kernels a pointer check.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional,
    Set, Tuple,
)

from ..rdf.terms import RDFTerm, Variable
from ..rdf.triple import Triple, TriplePattern

__all__ = [
    "SolutionMapping",
    "SolutionSet",
    "EMPTY_MAPPING",
    "canonical_key",
    "compatible",
    "merge",
    "join",
    "union",
    "minus",
    "left_outer_join",
    "conditional_left_outer_join",
    "combine_sets",
    "match_pattern",
]


class _Schema:
    """An interned domain: variables in name order plus lookup tables.

    Two mappings with equal domains share one schema object, so schema
    comparison inside the kernels is an identity check and every derived
    plan (merge / projection / compatibility) can be cached per schema
    pair instead of recomputed per row.
    """

    __slots__ = ("vars", "domain", "index", "hash")

    _cache: Dict[Tuple[Variable, ...], "_Schema"] = {}

    @classmethod
    def of(cls, vars_tuple: Tuple[Variable, ...]) -> "_Schema":
        schema = cls._cache.get(vars_tuple)
        if schema is None:
            schema = object.__new__(cls)
            schema.vars = vars_tuple
            schema.domain = frozenset(vars_tuple)
            schema.index = {v: i for i, v in enumerate(vars_tuple)}
            schema.hash = hash(vars_tuple)
            cls._cache[vars_tuple] = schema
        return schema


_EMPTY_SCHEMA = _Schema.of(())

#: (left schema, right schema) → (output schema, ((take_left, index), ...)).
_MERGE_PLANS: Dict[Tuple[_Schema, _Schema], Tuple[_Schema, Tuple[Tuple[bool, int], ...]]] = {}

#: (schema, kept domain) → (output schema, value indices).
_PROJECT_PLANS: Dict[Tuple[_Schema, FrozenSet[Variable]], Tuple[_Schema, Tuple[int, ...]]] = {}

#: (schema A, schema B) → index pairs of the variables they share.
_COMPAT_PLANS: Dict[Tuple[_Schema, _Schema], Tuple[Tuple[int, int], ...]] = {}

#: (row schema, shared-variable schema) → (key sub-schema, value indices).
_KEY_PLANS: Dict[Tuple[_Schema, _Schema], Tuple[_Schema, Tuple[int, ...]]] = {}


def _name_key(pair):
    return pair[0].name


class SolutionMapping:
    """An immutable partial function µ : V → U.

    Hashable so that solution *sets* deduplicate naturally, as required by
    the set semantics of the paper.
    """

    __slots__ = ("_schema", "_values", "_hash", "_size", "_skey")

    def __init__(self, bindings: Optional[Mapping[Variable, RDFTerm]] = None) -> None:
        if bindings:
            for var in bindings:
                if not isinstance(var, Variable):
                    raise TypeError(f"mapping keys must be Variables, got {var!r}")
            pairs = sorted(bindings.items(), key=_name_key)
            schema = _Schema.of(tuple([v for v, _ in pairs]))
            values: Tuple[RDFTerm, ...] = tuple([t for _, t in pairs])
        else:
            schema = _EMPTY_SCHEMA
            values = ()
        self._schema = schema
        self._values = values
        self._hash = schema.hash ^ hash(values)
        self._size = None  # wire-size cache (repro.net.sizes)
        self._skey = None  # canonical sort-key cache (canonical_key)

    #: (schema, values) → canonical instance. Mappings are immutable, so
    #: the kernels intern them: the same row scanned or merged twice is
    #: one object, and its wire-size / sort-key caches survive re-shipping
    #: along aggregation chains.
    _intern: Dict[Tuple["_Schema", Tuple[RDFTerm, ...]], "SolutionMapping"] = {}

    @classmethod
    def _make(cls, schema: _Schema, values: Tuple[RDFTerm, ...]) -> "SolutionMapping":
        """Internal fast constructor: *values* must align with *schema*."""
        key = (schema, values)
        self = cls._intern.get(key)
        if self is None:
            self = object.__new__(cls)
            self._schema = schema
            self._values = values
            self._hash = schema.hash ^ hash(values)
            self._size = None
            self._skey = None
            cls._intern[key] = self
        return self

    # ------------------------------------------------------------- access

    def domain(self) -> FrozenSet[Variable]:
        """dom(µ): the variables on which µ is defined."""
        return self._schema.domain

    def get(self, var: Variable) -> Optional[RDFTerm]:
        i = self._schema.index.get(var)
        return None if i is None else self._values[i]

    def __getitem__(self, var: Variable) -> RDFTerm:
        i = self._schema.index.get(var)
        if i is None:
            raise KeyError(var)
        return self._values[i]

    def __contains__(self, var: Variable) -> bool:
        return var in self._schema.index

    def items(self) -> Iterator[Tuple[Variable, RDFTerm]]:
        return zip(self._schema.vars, self._values)

    def as_dict(self) -> Dict[Variable, RDFTerm]:
        return dict(zip(self._schema.vars, self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolutionMapping):
            return NotImplemented
        return self._schema is other._schema and self._values == other._values

    def __reduce__(self):
        # Re-intern schemas (and terms) on unpickle.
        return (SolutionMapping, (self.as_dict(),))

    def project(self, variables: Iterable[Variable]) -> "SolutionMapping":
        schema = self._schema
        keep = variables if isinstance(variables, frozenset) else frozenset(variables)
        plan = _PROJECT_PLANS.get((schema, keep))
        if plan is None:
            idxs = tuple([i for i, v in enumerate(schema.vars) if v in keep])
            out_schema = _Schema.of(tuple([schema.vars[i] for i in idxs]))
            plan = _PROJECT_PLANS[(schema, keep)] = (out_schema, idxs)
        out_schema, idxs = plan
        values = self._values
        return SolutionMapping._make(out_schema, tuple([values[i] for i in idxs]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"?{v.name}={t.n3()}" for v, t in self.items())
        return f"µ{{{inner}}}"


EMPTY_MAPPING = SolutionMapping()
SolutionMapping._intern[(_EMPTY_SCHEMA, ())] = EMPTY_MAPPING

#: A set of solution mappings Ω.
SolutionSet = Set[SolutionMapping]


def canonical_key(mu: SolutionMapping):
    """Canonical, deterministic ordering of solution mappings — for
    output that must not depend on set iteration order. Cached on the
    mapping: the same rows are ordered again by every query they answer.
    """
    key = mu._skey
    if key is None:
        key = mu._skey = tuple((v.name, t.n3()) for v, t in mu.items())
    return key


def _compat_plan(s1: _Schema, s2: _Schema) -> Tuple[Tuple[int, int], ...]:
    plan = _COMPAT_PLANS.get((s1, s2))
    if plan is None:
        index2 = s2.index
        plan = tuple(
            (i, index2[v]) for i, v in enumerate(s1.vars) if v in index2
        )
        _COMPAT_PLANS[(s1, s2)] = plan
    return plan


def compatible(mu1: SolutionMapping, mu2: SolutionMapping) -> bool:
    """µ1 ~ µ2: every shared variable is bound to the same term."""
    s1 = mu1._schema
    s2 = mu2._schema
    if s1 is s2:
        return mu1._values == mu2._values
    v1 = mu1._values
    v2 = mu2._values
    for i, j in _compat_plan(s1, s2):
        # Terms are interned: equality is identity.
        if v1[i] is not v2[j]:
            return False
    return True


def _merge_plan(s1: _Schema, s2: _Schema):
    plan = _MERGE_PLANS.get((s1, s2))
    if plan is None:
        merged: Dict[Variable, Tuple[bool, int]] = {
            v: (True, i) for i, v in enumerate(s1.vars)
        }
        # Right side wins on shared variables (callers guarantee
        # compatibility, so the values agree anyway).
        for j, v in enumerate(s2.vars):
            merged[v] = (False, j)
        ordered = sorted(merged, key=lambda v: v.name)
        out_schema = _Schema.of(tuple(ordered))
        ops = tuple(merged[v] for v in ordered)
        plan = _MERGE_PLANS[(s1, s2)] = (out_schema, ops)
    return plan


def merge(mu1: SolutionMapping, mu2: SolutionMapping) -> SolutionMapping:
    """µ1 ∪ µ2 for compatible mappings (caller must ensure compatibility)."""
    s1 = mu1._schema
    s2 = mu2._schema
    if s2 is _EMPTY_SCHEMA:
        return mu1
    if s1 is _EMPTY_SCHEMA or s1 is s2:
        return mu2
    out_schema, ops = _merge_plan(s1, s2)
    v1 = mu1._values
    v2 = mu2._values
    return SolutionMapping._make(
        out_schema, tuple([v1[i] if left else v2[i] for left, i in ops])
    )


def _key_plan(schema: _Schema, shared_schema: _Schema):
    """How *schema* projects onto the join key: the sub-schema of shared
    variables it actually binds, plus the value indices to extract."""
    plan = _KEY_PLANS.get((schema, shared_schema))
    if plan is None:
        index = schema.index
        bound = [v for v in shared_schema.vars if v in index]
        sub = _Schema.of(tuple(bound))
        idxs = tuple(index[v] for v in bound)
        plan = _KEY_PLANS[(schema, shared_schema)] = (sub, idxs)
    return plan


def join(omega1: Iterable[SolutionMapping], omega2: Iterable[SolutionMapping]) -> SolutionSet:
    """Ω1 ⋈ Ω2 with a hash-join on the shared variables.

    Falls back to a nested-loop cross product when the inputs share no
    variables (every pair is then compatible by definition). Rows that
    leave some shared variable unbound (partial µ) are grouped by their
    key sub-schema and probed with cached compatibility plans.
    """
    left = list(omega1)
    right = list(omega2)
    if not left or not right:
        return set()

    dom1: Set[Variable] = set()
    for schema in {mu._schema for mu in left}:
        dom1 |= schema.domain
    dom2: Set[Variable] = set()
    for schema in {mu._schema for mu in right}:
        dom2 |= schema.domain
    shared = dom1 & dom2
    if not shared:
        return {merge(m1, m2) for m1 in left for m2 in right}

    # Hash the smaller side on its projection onto the shared variables.
    if len(right) < len(left):
        left, right = right, left
    shared_schema = _Schema.of(tuple(sorted(shared, key=lambda v: v.name)))

    # Buckets grouped by key sub-schema: in the common case every row
    # binds every shared variable and there is exactly one group.
    groups: Dict[_Schema, Dict[Tuple[RDFTerm, ...], List[SolutionMapping]]] = {}
    for mu in left:
        sub, idxs = _key_plan(mu._schema, shared_schema)
        values = mu._values
        key = tuple([values[i] for i in idxs])
        group = groups.get(sub)
        if group is None:
            group = groups[sub] = {}
        bucket = group.get(key)
        if bucket is None:
            group[key] = [mu]
        else:
            bucket.append(mu)

    full_group = groups.get(shared_schema)
    has_partial = len(groups) > (1 if full_group is not None else 0)

    out: SolutionSet = set()
    add = out.add
    for mu2 in right:
        sub2, idxs2 = _key_plan(mu2._schema, shared_schema)
        values2 = mu2._values
        key2 = tuple([values2[i] for i in idxs2])
        if sub2 is shared_schema:
            if full_group is not None:
                bucket = full_group.get(key2)
                if bucket is not None:
                    for mu1 in bucket:
                        add(merge(mu1, mu2))
            if has_partial:
                # Also any bucket with a *smaller* domain whose bound key
                # values agree with this row's.
                for sub, group in groups.items():
                    if sub is shared_schema:
                        continue
                    plan = _compat_plan(sub, sub2)
                    for key, mus in group.items():
                        if all(key[i] is key2[j] for i, j in plan):
                            for mu1 in mus:
                                add(merge(mu1, mu2))
        else:
            # Partial probe row: every bucket with compatible bound shared
            # variables may join.
            for sub, group in groups.items():
                plan = _compat_plan(sub, sub2)
                for key, mus in group.items():
                    if all(key[i] is key2[j] for i, j in plan):
                        for mu1 in mus:
                            add(merge(mu1, mu2))
    return out


def union(omega1: Iterable[SolutionMapping], omega2: Iterable[SolutionMapping]) -> SolutionSet:
    """Ω1 ∪ Ω2."""
    return set(omega1) | set(omega2)


def minus(omega1: Iterable[SolutionMapping], omega2: Iterable[SolutionMapping]) -> SolutionSet:
    """Ω1 − Ω2: mappings of Ω1 compatible with *no* mapping of Ω2.

    Hashed per schema pair, like :func:`join`: two rows are compatible
    exactly when they agree on the variables their schemas share, so each
    right-hand schema contributes one key set and every left row one
    probe into it. A pair sharing no variable is compatible outright.
    """
    right: Dict[_Schema, List[Tuple[RDFTerm, ...]]] = {}
    for nu in omega2:
        right.setdefault(nu._schema, []).append(nu._values)
    left: Dict[_Schema, List[SolutionMapping]] = {}
    for mu in omega1:
        left.setdefault(mu._schema, []).append(mu)
    out: SolutionSet = set()
    for s1, survivors in left.items():
        for s2, rows in right.items():
            plan = _compat_plan(s1, s2)
            if not plan:
                survivors = []
                break
            taken = {tuple([values[j] for _, j in plan]) for values in rows}
            survivors = [
                mu for mu in survivors
                if tuple([mu._values[i] for i, _ in plan]) not in taken
            ]
        out.update(survivors)
    return out


def left_outer_join(
    omega1: Iterable[SolutionMapping], omega2: Iterable[SolutionMapping]
) -> SolutionSet:
    """Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2) (paper, Sect. IV-E)."""
    left = list(omega1)
    right = list(omega2)
    return join(left, right) | minus(left, right)


def conditional_left_outer_join(
    omega1: Iterable[SolutionMapping],
    omega2: Iterable[SolutionMapping],
    passes: Callable[[SolutionMapping], bool],
) -> SolutionSet:
    """Ω1 ⟕_C Ω2: joined solutions must satisfy *passes*; a left solution
    with no passing partner survives unextended (the spec's LeftJoin with
    an embedded condition, paper footnote 16).

    *passes* is a plain predicate so this module stays independent of the
    expression evaluator; callers wrap their condition with
    :func:`repro.sparql.expr.filter_passes`.
    """
    out: SolutionSet = set()
    right = list(omega2)
    for mu in omega1:
        extended = False
        for nu in join([mu], right):
            if passes(nu):
                out.add(nu)
                extended = True
        if not extended:
            out.add(mu)
    return out


def combine_sets(
    op: str,
    omega1: Iterable[SolutionMapping],
    omega2: Iterable[SolutionMapping],
    passes: Optional[Callable[[SolutionMapping], bool]] = None,
) -> SolutionSet:
    """The combine operator every join site runs: op ∈ {join, union,
    minus, leftjoin} with an optional condition predicate.

    For leftjoin the condition is part of the operator semantics
    (:func:`conditional_left_outer_join`); for the other ops it is a
    post-selection over the combined set.
    """
    if op == "leftjoin":
        if passes is None:
            return left_outer_join(omega1, omega2)
        return conditional_left_outer_join(omega1, omega2, passes)
    if op == "join":
        out = join(omega1, omega2)
    elif op == "union":
        out = union(omega1, omega2)
    elif op == "minus":
        out = minus(omega1, omega2)
    else:
        raise ValueError(f"unknown combine op {op!r}")
    if passes is not None:
        out = {mu for mu in out if passes(mu)}
    return out


def compile_extractor(terms, keep: Optional[Iterable[Variable]] = None):
    """A row builder for term tuples already known to match a pattern.

    *terms* is the pattern's (s, p, o) with anything but a variable —
    a constant, or None for a position bound upstream — skipped.
    :meth:`repro.rdf.graph.Graph.scan` verifies concrete positions and
    repeated-variable consistency during the index walk, so per-match
    work reduces to picking the variable positions out of the tuple;
    *keep* (projection pushdown) picks only those variables. The schema
    and position plan are computed once; the returned callable builds
    each mapping with the fast constructor.
    """
    seen: Dict[Variable, int] = {}
    for i, term in enumerate(terms):
        if (type(term) is Variable and term not in seen
                and (keep is None or term in keep)):
            seen[term] = i
    if not seen:
        return lambda row: EMPTY_MAPPING
    pairs = sorted(seen.items(), key=_name_key)
    schema = _Schema.of(tuple([v for v, _ in pairs]))
    make = SolutionMapping._make
    if len(pairs) == 1:
        only = pairs[0][1]
        return lambda row: make(schema, (row[only],))
    pick = itemgetter(*[i for _, i in pairs])
    return lambda row: make(schema, pick(row))


def match_pattern(pattern: TriplePattern, triple: Triple) -> Optional[SolutionMapping]:
    """The µ with dom(µ) = var(t) and µ(t) = triple, or None.

    This is the paper's (clarified) base case of graph pattern evaluation:
    consistent bindings are required when a variable repeats.
    """
    bindings: Dict[Variable, RDFTerm] = {}
    for pat, val in ((pattern.s, triple.s), (pattern.p, triple.p), (pattern.o, triple.o)):
        if type(pat) is Variable:
            bound = bindings.get(pat)
            if bound is None:
                bindings[pat] = val
            elif bound is not val:  # interned terms: identity is equality
                return None
        elif pat is not val:
            return None
    if not bindings:
        return EMPTY_MAPPING
    pairs = sorted(bindings.items(), key=_name_key)
    return SolutionMapping._make(
        _Schema.of(tuple([v for v, _ in pairs])),
        tuple([t for _, t in pairs]),
    )
