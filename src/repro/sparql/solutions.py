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
cached ``itemgetter`` plans per schema or schema pair. The kernels run
as batch passes: rows are grouped by schema, keys and output values are
picked by those getters, and output rows are looked up in the schema's
intern table through ``map``, so per-row work is C calls, not Python
frames.

**Identity contract.** Mappings are interned like terms
(:mod:`repro.rdf.terms`): every construction path — the public
``SolutionMapping(bindings)``, the fast ``_make`` (the schema's intern
table, which the kernels map over whole batches), pickling and
``copy``/``deepcopy`` — returns the one instance for its schema and
values. Equal means identical, so the class defines no ``__eq__`` or
``__hash__`` and set and dict probes hash the address in C. Iteration
order over a set of rows is therefore process history: output order
comes from :func:`canonical_key`, and no sort, tie-break or digest may
depend on iteration order.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter, itemgetter, not_
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
    "project",
    "value_tuples",
    "match_pattern",
]

_schema_of = attrgetter("_schema")
_values_of = attrgetter("_values")
_var_name = attrgetter("name")


def _name_key(pair):
    return pair[0].name


class _Rows(dict):
    """A schema's intern table: values tuple → its one mapping."""

    __slots__ = ("schema",)

    def __missing__(self, values: Tuple[RDFTerm, ...]) -> "SolutionMapping":
        mu = object.__new__(SolutionMapping)
        mu._schema = self.schema
        mu._values = values
        mu._size = None  # wire-size cache (repro.net.sizes)
        mu._skey = None  # canonical sort-key cache (canonical_key)
        self[values] = mu
        return mu


class _Schema:
    """An interned domain: variables in name order plus lookup tables.

    Two mappings with equal domains share one schema object, so schema
    comparison inside the kernels is an identity check and every derived
    plan (pair / projection) can be cached per schema instead of
    recomputed per row. ``make`` maps a values tuple to its interned
    mapping in one C call.
    """

    __slots__ = ("vars", "domain", "index", "make")

    _cache: Dict[Tuple[Variable, ...], "_Schema"] = {}

    @classmethod
    def of(cls, vars_tuple: Tuple[Variable, ...]) -> "_Schema":
        schema = cls._cache.get(vars_tuple)
        if schema is None:
            schema = object.__new__(cls)
            schema.vars = vars_tuple
            schema.domain = frozenset(vars_tuple)
            schema.index = {v: i for i, v in enumerate(vars_tuple)}
            rows = _Rows()
            rows.schema = schema
            schema.make = rows.__getitem__
            cls._cache[vars_tuple] = schema
        return schema


_EMPTY_SCHEMA = _Schema.of(())

#: (schema A, schema B) → (output schema, key getter over A's values,
#: key getter over B's values, output getter over ``a + b``). The key
#: getters are None when the schemas share no variable.
_PAIR_PLANS: Dict[Tuple[_Schema, _Schema], tuple] = {}

#: (schema, kept domain) → (output schema, value getter).
_PROJECT_PLANS: Dict[Tuple[_Schema, FrozenSet[Variable]], tuple] = {}

#: (schema, variables in a caller's order) → value getter.
_PICK_PLANS: Dict[Tuple[_Schema, Tuple[Variable, ...]], Callable] = {}


def _getter(idxs) -> Callable[[tuple], tuple]:
    """values → ``tuple(values[i] for i in idxs)`` as one C call
    (``itemgetter`` returns a bare item for one index, a slice does not)."""
    if len(idxs) == 1:
        return itemgetter(slice(idxs[0], idxs[0] + 1))
    return itemgetter(*idxs) if idxs else itemgetter(slice(0, 0))


class SolutionMapping:
    """An immutable partial function µ : V → U.

    Interned, so that solution *sets* deduplicate by identity, as the set
    semantics of the paper requires.
    """

    __slots__ = ("_schema", "_values", "_size", "_skey")

    def __new__(cls, bindings: Optional[Mapping[Variable, RDFTerm]] = None
                ) -> "SolutionMapping":
        if not bindings:
            return _EMPTY_SCHEMA.make(())
        for var in bindings:
            if not isinstance(var, Variable):
                raise TypeError(f"mapping keys must be Variables, got {var!r}")
        pairs = sorted(bindings.items(), key=_name_key)
        return _Schema.of(tuple([v for v, _ in pairs])).make(
            tuple([t for _, t in pairs]))

    @staticmethod
    def _make(schema: _Schema, values: Tuple[RDFTerm, ...]) -> "SolutionMapping":
        """Internal fast constructor: *values* must align with *schema*."""
        return schema.make(values)

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

    def __reduce__(self):
        # Re-intern schemas (and terms) on unpickle and on copy.
        return (SolutionMapping, (self.as_dict(),))

    def project(self, variables: Iterable[Variable]) -> "SolutionMapping":
        out, pick = _project_plan(self._schema, variables)
        return out.make(pick(self._values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"?{v.name}={t.n3()}" for v, t in self.items())
        return f"µ{{{inner}}}"


EMPTY_MAPPING = SolutionMapping()

#: A set of solution mappings Ω.
SolutionSet = Set[SolutionMapping]


def canonical_key(mu: SolutionMapping) -> str:
    """Canonical, deterministic ordering of solution mappings — for
    output that must not depend on set iteration order. Cached on the
    mapping: the same rows are ordered again by every query they answer.

    The key is the tuple ``((name, n3), ...)`` flattened into one string,
    which sorts faster: each part has ``\\x00`` escaped as ``\\x00\\x01``
    and the parts are joined with ``\\x00\\x00``, which sorts below any
    escaped character, so the string order is the tuple order for any
    content, ``\\x00`` included.
    """
    key = mu._skey
    if key is None:
        key = mu._skey = "\x00\x00".join([
            part.replace("\x00", "\x00\x01")
            for v, t in mu.items() for part in (v.name, t.n3())])
    return key


def _pair_plan(sa: _Schema, sb: _Schema):
    """How rows of *sa* and *sb* combine: see :data:`_PAIR_PLANS`."""
    plan = _PAIR_PLANS.get((sa, sb))
    if plan is None:
        index_b = sb.index
        shared = [v for v in sa.vars if v in index_b]
        key_a = itemgetter(*[sa.index[v] for v in shared]) if shared else None
        key_b = itemgetter(*[index_b[v] for v in shared]) if shared else None
        # Slots into ``a + b``; the values of a shared variable agree.
        width = len(sa.vars)
        slots = dict(sa.index)
        for v, j in index_b.items():
            slots.setdefault(v, width + j)
        out_vars = tuple(sorted(slots, key=_var_name))
        plan = _PAIR_PLANS[(sa, sb)] = (
            _Schema.of(out_vars), key_a, key_b,
            _getter([slots[v] for v in out_vars]))
    return plan


def _project_plan(schema: _Schema, variables: Iterable[Variable]):
    keep = variables if isinstance(variables, frozenset) else frozenset(variables)
    plan = _PROJECT_PLANS.get((schema, keep))
    if plan is None:
        idxs = [i for i, v in enumerate(schema.vars) if v in keep]
        plan = _PROJECT_PLANS[(schema, keep)] = (
            _Schema.of(tuple([schema.vars[i] for i in idxs])), _getter(idxs))
    return plan


def compatible(mu1: SolutionMapping, mu2: SolutionMapping) -> bool:
    """µ1 ~ µ2: every shared variable is bound to the same term."""
    _, key1, key2, _ = _pair_plan(mu1._schema, mu2._schema)
    return key1 is None or key1(mu1._values) == key2(mu2._values)


def merge(mu1: SolutionMapping, mu2: SolutionMapping) -> SolutionMapping:
    """µ1 ∪ µ2 for compatible mappings (caller must ensure compatibility)."""
    out, _, _, pick = _pair_plan(mu1._schema, mu2._schema)
    return out.make(pick(mu1._values + mu2._values))


def _groups(omega: Iterable[SolutionMapping]) -> Dict[_Schema, List[tuple]]:
    """Ω as {schema: [values, ...]}: usually one schema, found in C."""
    rows = omega if isinstance(omega, (list, set, frozenset)) else list(omega)
    schemas = set(map(_schema_of, rows))
    if len(schemas) == 1:
        return {schemas.pop(): list(map(_values_of, rows))}
    groups: Dict[_Schema, List[tuple]] = {schema: [] for schema in schemas}
    for mu in rows:
        groups[mu._schema].append(mu._values)
    return groups


def _buckets(rows: List[tuple], key) -> Dict[object, List[tuple]]:
    index: Dict[object, List[tuple]] = {}
    for k, row in zip(map(key, rows), rows):
        bucket = index.get(k)
        if bucket is None:
            index[k] = [row]
        else:
            bucket.append(row)
    return index


def _probe_unique(sa: _Schema, rows_a: List[tuple], sb: _Schema,
                  rows_b: List[tuple]) -> Optional[Iterator[SolutionMapping]]:
    """The pair's joined rows if *rows_a*'s keys are unique, else None:
    one dict over *rows_a*, probed by every row of *rows_b*, all in C."""
    out, key_a, key_b, pick = _pair_plan(sa, sb)
    unique = dict(zip(map(key_a, rows_a), rows_a))
    if len(unique) < len(rows_a):
        return None
    # Keyed rows bind at least one variable, so a hit is never a falsy ().
    found = list(map(unique.get, map(key_b, rows_b)))
    return map(out.make, map(pick, map(tuple.__add__, compress(found, found),
                                       compress(rows_b, found))))


def _join_pair(sa: _Schema, rows_a: List[tuple], sb: _Schema,
               rows_b: List[tuple]) -> Iterator[SolutionMapping]:
    """Ω_a ⋈ Ω_b for one schema pair. Two rows are compatible exactly
    when they agree on the variables the schemas share, so this is a hash
    join on that key — or, sharing nothing, the cross product. A side
    with unique keys is probed in C; else the smaller side is bucketed."""
    if len(rows_b) < len(rows_a):
        sa, rows_a, sb, rows_b = sb, rows_b, sa, rows_a
    out, key_a, key_b, pick = _pair_plan(sa, sb)
    if key_a is None:
        merged = [a + b for a in rows_a for b in rows_b]
    else:
        joined = (_probe_unique(sa, rows_a, sb, rows_b)
                  or _probe_unique(sb, rows_b, sa, rows_a))
        if joined is not None:
            return joined
        index = _buckets(rows_a, key_a)
        merged = []
        append = merged.append
        for b, bucket in zip(rows_b, map(index.get, map(key_b, rows_b))):
            if bucket is not None:
                for a in bucket:
                    append(a + b)
    return map(out.make, map(pick, merged))


def join(omega1: Iterable[SolutionMapping], omega2: Iterable[SolutionMapping]) -> SolutionSet:
    """Ω1 ⋈ Ω2, one hash join per pair of schemas (:func:`_join_pair`).

    Rows that leave some variable of the other side unbound (partial µ,
    as OPTIONAL produces) simply form their own schema, whose pairs key
    on fewer variables.
    """
    out: SolutionSet = set()
    right = _groups(omega2)
    for sa, rows_a in _groups(omega1).items():
        for sb, rows_b in right.items():
            out.update(_join_pair(sa, rows_a, sb, rows_b))
    return out


def union(omega1: Iterable[SolutionMapping], omega2: Iterable[SolutionMapping]) -> SolutionSet:
    """Ω1 ∪ Ω2."""
    return set(omega1) | set(omega2)


def minus(omega1: Iterable[SolutionMapping], omega2: Iterable[SolutionMapping]) -> SolutionSet:
    """Ω1 − Ω2: mappings of Ω1 compatible with *no* mapping of Ω2.

    Hashed per schema pair, like :func:`join`: each right-hand schema
    contributes one key set and every left row one probe into it. A pair
    sharing no variable is compatible outright.
    """
    right = _groups(omega2)
    out: SolutionSet = set()
    for sa, rows in _groups(omega1).items():
        for sb, rows_b in right.items():
            _, key_a, key_b, _ = _pair_plan(sa, sb)
            if key_a is None:
                rows = []
                break
            taken = set(map(key_b, rows_b))
            rows = list(compress(rows, map(not_, map(taken.__contains__,
                                                     map(key_a, rows)))))
        out.update(map(sa.make, rows))
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
    expression evaluator; callers compile their condition with
    :func:`repro.sparql.expr.row_predicate`.
    """
    right = _groups(omega2)
    out: SolutionSet = set()
    for sa, rows_a in _groups(omega1).items():
        extended = set()
        for sb, rows_b in right.items():
            schema, key_a, key_b, pick = _pair_plan(sa, sb)
            index = None if key_a is None else _buckets(rows_b, key_b)
            for a in rows_a:
                for b in rows_b if index is None else index.get(key_a(a), ()):
                    nu = schema.make(pick(a + b))
                    if passes(nu):
                        out.add(nu)
                        extended.add(a)
        out.update(map(sa.make, [a for a in rows_a if a not in extended]))
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


def project(rows: Iterable[SolutionMapping],
            variables: Iterable[Variable]) -> List[SolutionMapping]:
    """Each mapping of the collection *rows* restricted to *variables*,
    in order: one C pass when the rows share a schema, as they usually
    do, else one plan lookup per row."""
    variables = frozenset(variables)
    schemas = set(map(_schema_of, rows))
    if len(schemas) != 1:
        return [mu.project(variables) for mu in rows]
    out, pick = _project_plan(schemas.pop(), variables)
    return list(map(out.make, map(pick, map(_values_of, rows))))


def value_tuples(rows: Iterable[SolutionMapping],
                 variables: Tuple[Variable, ...]) -> List[tuple]:
    """Each mapping's values for *variables*, in that order: one cached
    getter per schema, mapped over the schema's rows in C."""
    out: List[tuple] = []
    for schema, values in _groups(rows).items():
        pick = _PICK_PLANS.get((schema, variables)) or _PICK_PLANS.setdefault(
            (schema, variables), _getter([schema.index[v] for v in variables]))
        out.extend(map(pick, values))
    return out


def compile_extractor(terms, keep: Optional[Iterable[Variable]] = None,
                      base: _Schema = _EMPTY_SCHEMA):
    """A batch row builder for term tuples already known to match a pattern.

    *terms* is the pattern's (s, p, o) with anything but a variable —
    a constant, or None for a position bound upstream — skipped.
    :meth:`repro.rdf.graph.Graph.scan` verifies concrete positions and
    repeated-variable consistency during the index walk, so the work per
    scan reduces to picking the variable positions out of each tuple;
    *keep* (projection pushdown) picks only those variables. The returned
    ``extract(rows, prefix=())`` maps a whole scan to mappings in one
    pass; with *base*, the schema of an upstream mapping µ whose values
    are *prefix*, each row becomes µ ∪ the row's bindings.
    """
    width = len(base.vars)
    slots = dict(base.index)
    for i, term in enumerate(terms):
        if (type(term) is Variable and term not in slots
                and (keep is None or term in keep)):
            slots[term] = width + i
    out_vars = tuple(sorted(slots, key=_var_name))
    make = _Schema.of(out_vars).make
    pick = _getter([slots[v] for v in out_vars])
    if not width:
        return lambda rows, prefix=(): map(make, map(pick, rows))
    return lambda rows, prefix: map(make, map(pick, map(prefix.__add__, rows)))


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
    return SolutionMapping(bindings)
