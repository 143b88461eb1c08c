"""Compact wire formats for shipped solution sets (transmission PR).

"Minimizing the total amount of intersite data transmission" is the
paper's principal optimization criterion (Sect. IV-C). The executor's
plain encoding charges every solution mapping its full structural size,
so a term repeated across a thousand rows is paid a thousand times. This
module provides the two payload types that cut that cost:

* :class:`SolutionBatch` — dictionary-delta encoding of a solution set:
  variables and terms are tabled once, rows become small index pairs.
  ``wire_size()`` is exact and *adaptive*: when the dictionary would be
  larger than the naive list (tiny sets with no repetition), the batch is
  charged at the naive size behind a one-byte mode flag instead, so a
  batch never costs more than ``naive + PLAIN_HEADER_BYTES``. It is the
  default wire for every shipped solution set. The size is the model:
  payloads travel by reference inside the simulator, so the format is
  priced, not built.
* :class:`JoinDigest` — a semijoin pre-filter: the projection of a
  resident solution set onto the prospective join variables, shipped as
  an exact key set when small and as a counting-free Bloom filter above
  a threshold (deterministic seeded hashing via
  :func:`repro.chord.hashing.hash_terms_seeded`). False positives only
  cost bytes (the join still filters); false negatives are impossible.

Both types implement ``wire_size()`` and therefore integrate with
:func:`repro.net.sizes.size_of` wherever they are embedded in payloads.
:func:`shed` is the one reduction every site applies to rows before they
ship (digest filter, then projection).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain, compress
from operator import attrgetter, itemgetter
from typing import (
    AbstractSet, Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple,
)

from ..chord.hashing import hash_terms_seeded
from ..rdf.terms import RDFTerm, Variable
from ..sparql.solutions import (
    SolutionMapping, _getter, _groups, _schema_of, _values_of,
    canonical_key as mapping_sort_key, project,
)
from .sizes import (
    _CONTAINER_OVERHEAD, _DISPATCH, _PER_ITEM_OVERHEAD, size_of,
)

__all__ = [
    "SolutionBatch",
    "JoinDigest",
    "FilteredResult",
    "BATCH_HEADER_BYTES",
    "PLAIN_HEADER_BYTES",
    "DIGEST_HEADER_BYTES",
    "bloom_size",
    "PRUNED_COUNTER_BYTES",
    "as_solution_set",
    "encode_solutions",
    "merge_solutions",
    "rebound_batch",
    "shipped_rows",
    "mapping_sort_key",
    "shed",
]

#: Fixed envelope of a dictionary-mode batch: the mode flag and the three
#: table lengths.
BATCH_HEADER_BYTES = 6

#: A plain-mode batch is the naive row list behind the mode flag alone
#: (the bounded header of the "never larger than naive" guarantee).
PLAIN_HEADER_BYTES = 1

#: Fixed digest envelope: mode flag, variable count, key/bit count.
DIGEST_HEADER_BYTES = 8

#: A digest-filtered reply carries how many rows the sender dropped, so
#: the initiator's report can attribute the semijoin's effect. One fixed
#: counter, part of the documented digest overhead bound.
PRUNED_COUNTER_BYTES = 4


#: The intern table of :meth:`JoinDigest.build`, by (row set, variables,
#: exact threshold, bits per key): equal inputs give the very same
#: digest, so a provider's memo keyed by the digest's identity
#: (``StorageNode._answer``) sheds a repeated sub-query once. Nothing
#: mutates a digest. Cleared when it holds this many digests.
_DIGESTS: Dict[tuple, "JoinDigest"] = {}
_MAX_DIGESTS = 256

#: Bloom key tuple -> its seeded SHA-1 values before any modulus
#: (:func:`~repro.chord.hashing.hash_terms_seeded`), one per seed. A
#: digest of any size reduces them by its own bit count, so every bit
#: position is the one a fresh hash gives. Cleared when full.
_HASHES: Dict[Tuple[RDFTerm, ...], Tuple[int, ...]] = {}
_MAX_HASHES = 4096


def bloom_size(keys: float, bits_per_key: int) -> int:
    """The bit count of a Bloom digest over *keys* keys: *bits_per_key*
    per key, at least 64, rounded up to whole bytes."""
    nbits = max(64, keys * bits_per_key)
    return int(-(-nbits // 8)) * 8


def _seeded_hashes(key: Tuple[RDFTerm, ...], nhashes: int) -> Tuple[int, ...]:
    """The raw hashes of *key* for seeds 0 to *nhashes* - 1, memoized
    (:data:`_HASHES`); a digest reduces each by its bit count."""
    hashes = _HASHES.get(key)
    if hashes is None or len(hashes) != nhashes:
        if len(_HASHES) >= _MAX_HASHES:
            _HASHES.clear()
        hashes = _HASHES[key] = tuple(
            [hash_terms_seeded(key, seed) for seed in range(nhashes)])
    return hashes


def _index_width(count: int) -> int:
    if count <= 0xFF:
        return 1
    if count <= 0xFFFF:
        return 2
    return 4


_domain_of = attrgetter("domain")
#: The three empty tables' containers and the dictionary-mode header.
_DICT_FIXED = BATCH_HEADER_BYTES + 3 * _CONTAINER_OVERHEAD


class SolutionBatch:
    """A solution set charged at its dictionary-delta wire size.

    The modelled format tables every variable and RDF term once and
    writes each row as (variable index, term index) pairs. Nothing here
    leaves the process, so no table is ever built: ``encode`` derives the
    exact size of that format from the distinct term and variable sets,
    the row and pair counts and the cached per-term sizes, and hands the
    rows over by reference. A batch is an immutable value, interned by
    its row set like terms and mappings (:data:`_BATCHES`), so rows that
    ship again are priced once, and a chain step's merge is priced from
    the accumulated batch's counts (:meth:`extend`). Receivers
    merge ``rows`` into their own container; ``decode`` hands a fresh
    set to a caller that mutates.
    """

    __slots__ = ("rows", "mode", "_wire", "_naive", "_pairs", "_vars",
                 "_table", "_terms")

    def __init__(self, rows: FrozenSet[SolutionMapping], naive: int,
                 pairs: int, nterms: int, variables: FrozenSet[Variable],
                 table: int, terms: Optional[AbstractSet[RDFTerm]] = None) -> None:
        self.rows = rows
        # What the price is derived from, kept for extend(): the naive
        # list's size, the pair count, the distinct variables and the
        # bytes of every table entry, and the distinct terms (never
        # mutated) while _BATCHES does not keep the batch: a chain step's
        # batch is extended by the next step.
        self._naive, self._pairs = naive, pairs
        self._vars, self._table, self._terms = variables, table, terms
        nvars = len(variables)
        plain = PLAIN_HEADER_BYTES + naive
        full = (_DICT_FIXED + table
                + _PER_ITEM_OVERHEAD * (nvars + nterms + len(rows))
                + pairs * (_index_width(nvars) + _index_width(nterms)))
        if full <= plain:
            self.mode, self._wire = "dict", full
        else:
            self.mode, self._wire = "plain", plain

    @classmethod
    def encode(cls, solutions: Iterable[SolutionMapping]) -> "SolutionBatch":
        rows = frozenset(solutions)
        batch = _BATCHES.get(rows)
        if batch is None:
            return _BATCHES.keep(cls._price(rows))
        return batch

    @classmethod
    def _price(cls, rows: FrozenSet[SolutionMapping]) -> "SolutionBatch":
        """The batch of *rows*; a single row that repeats no term takes
        an exact fast path past the table scan."""
        if len(rows) == 1:
            (mu,) = rows
            values = mu._values
            terms = set(values)
            if len(terms) == len(values):
                # The tables hold exactly this row's variables and terms,
                # whose bytes its own size holds beside its overheads.
                # The dictionary then costs the naive list plus 14 bytes
                # and 4 per pair: it cannot win.
                size = mu._size or size_of(mu)
                return cls(rows, _CONTAINER_OVERHEAD + _PER_ITEM_OVERHEAD + size,
                           len(values), len(values), mu._schema.domain,
                           size - _CONTAINER_OVERHEAD
                           - _PER_ITEM_OVERHEAD * len(values), terms)
        return cls._scanned(rows)

    @classmethod
    def _scanned(cls, rows: FrozenSet[SolutionMapping]) -> "SolutionBatch":
        """The batch of *rows*, its tables scanned from every row."""
        naive, pairs, terms, variables = _scan(rows)
        return cls(rows, naive, pairs, len(terms), variables,
                   _bytes_of(terms) + _bytes_of(variables), terms)

    def extend(self, solutions: AbstractSet[SolutionMapping]) -> "SolutionBatch":
        """The batch of these rows and *solutions* (one chain step's
        merge): this batch's counts plus what the rows not already here
        add to them. Only the distinct terms are re-derived from every
        row, and only for a batch :data:`_BATCHES` keeps, which drops
        its term set; that still costs about 60% of a scan of the union.
        Interned like :meth:`encode`, since a repeated query's chain
        accumulates the same rows again."""
        mine = self.rows
        rows = mine.union(solutions)
        if len(rows) == len(mine):
            return self
        batch = _BATCHES.get(rows)
        if batch is not None:
            return batch
        if len(rows) != len(mine) + len(solutions):
            solutions = rows.difference(mine)
        naive, pairs, fresh, variables = _scan(solutions)
        terms = self._terms
        if terms is None:
            terms = set(chain.from_iterable(map(_values_of, mine)))
        fresh.difference_update(terms)
        table = self._table
        if fresh:
            terms = terms.union(fresh)
            table += _bytes_of(fresh)
        known = self._vars
        if variables <= known:
            variables = known
        else:
            table += _bytes_of(variables.difference(known))
            variables = known.union(variables)
        return _BATCHES.keep(SolutionBatch(
            rows, self._naive + naive - _CONTAINER_OVERHEAD,
            self._pairs + pairs, len(terms), variables, table, terms))

    def decode(self) -> Set[SolutionMapping]:
        return set(self.rows)

    def wire_size(self) -> int:
        return self._wire

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SolutionBatch {len(self.rows)} rows, {self.mode}, {self._wire}B>"


#: A batch's wire size is its price, read straight off the slot wherever
#: :func:`~repro.net.sizes.size_of` meets one.
_DISPATCH[SolutionBatch] = attrgetter("_wire")


def _scan(rows: AbstractSet[SolutionMapping]):
    """The naive list size, the pair count, the distinct terms (a fresh
    set) and the distinct variables (a frozenset) of *rows*, in C
    passes. Sizing them caches the size of every term and variable they
    hold."""
    naive = size_of(rows)
    terms = set(chain.from_iterable(map(_values_of, rows)))
    schemas = set(map(_schema_of, rows))
    if len(schemas) == 1:
        # Every row binds the one schema's variables.
        schema = schemas.pop()
        return naive, len(rows) * len(schema.vars), terms, schema.domain
    return (naive, sum(map(len, map(_values_of, rows))), terms,
            frozenset(chain.from_iterable(map(_domain_of, schemas))))


def _bytes_of(entries: AbstractSet) -> int:
    """The summed cached sizes of table *entries*."""
    size = 0
    for entry in entries:
        size += entry._size
    return size


#: A batch of at most this many rows is priced afresh each time it
#: ships, never kept: keeping every 1-8-row point answer held about
#: 1.5 MiB on ``point_lookup``, and one short scan costs less.
_UNKEPT_ROWS = 8

#: The bound of :data:`_BATCHES`: rows held by its batches between them.
_MAX_BATCH_ROWS = 8192


class _BatchTable:
    """The intern table of :meth:`SolutionBatch.encode`, by row set.

    Mappings hash by address, so an equal key holds the very same rows
    and a kept batch is never stale. Bounded by the rows its batches
    hold between them (:data:`_MAX_BATCH_ROWS`), not by their count: one
    batch of a big join weighs what hundreds of point answers do. The
    least recently used batches make room for a new one; a batch of a
    few rows (:data:`_UNKEPT_ROWS`), or of more than the whole bound, is
    not kept (DESIGN.md §4).
    """

    __slots__ = ("batches", "rows")

    def __init__(self) -> None:
        self.batches: "OrderedDict[FrozenSet[SolutionMapping], SolutionBatch]" = OrderedDict()
        self.rows = 0  # held by the kept batches between them

    def get(self, rows: FrozenSet[SolutionMapping]) -> Optional[SolutionBatch]:
        """The kept batch of *rows*, now the most recently used, or None."""
        if len(rows) <= _UNKEPT_ROWS:
            return None
        batch = self.batches.get(rows)
        if batch is not None:
            self.batches.move_to_end(rows)
        return batch

    def keep(self, batch: SolutionBatch) -> SolutionBatch:
        """Keep *batch*, dropping the least recently used batches until
        its rows fit the bound, and return it."""
        count = len(batch.rows)
        if count <= _UNKEPT_ROWS or count > _MAX_BATCH_ROWS:
            return batch
        held = self.rows + count
        while held > _MAX_BATCH_ROWS:
            held -= len(self.batches.popitem(last=False)[1].rows)
        self.batches[batch.rows] = batch
        self.rows = held
        # A kept batch holds no term set: extend() re-derives it on a
        # miss, which a repeated chain, the reason the batch is kept,
        # does not have.
        batch._terms = None
        return batch

    def clear(self) -> None:
        self.batches.clear()
        self.rows = 0


_BATCHES = _BatchTable()


class JoinDigest:
    """A compact summary of the join-key values present in a resident
    solution set, used to pre-filter the other operand before it ships.

    ``prunable`` is False when some resident row does not bind every
    digest variable — such a row is compatible with *any* sender row on
    those variables, so no pruning is sound and ``allows`` admits
    everything. Likewise a sender row missing a digest variable is always
    admitted. Exact mode stores the projected key tuples themselves;
    Bloom mode stores a bit array with ``nhashes`` seeded positions per
    key (no false negatives, bounded false positives). A digest is an
    immutable value, interned by what it was built from (:data:`_DIGESTS`).
    """

    __slots__ = ("variables", "mode", "keys", "nbits", "nhashes", "bits", "prunable")

    def __init__(
        self,
        variables: Tuple[Variable, ...],
        mode: str,
        keys: FrozenSet[Tuple[RDFTerm, ...]],
        nbits: int,
        nhashes: int,
        bits: int,
        prunable: bool,
    ) -> None:
        self.variables = variables
        self.mode = mode
        self.keys = keys
        self.nbits = nbits
        self.nhashes = nhashes
        self.bits = bits
        self.prunable = prunable

    # ------------------------------------------------------------- building

    @classmethod
    def build(
        cls,
        solutions: Iterable[SolutionMapping],
        variables: Sequence[Variable],
        exact_threshold: int = 64,
        bloom_bits: int = 10,
    ) -> "JoinDigest":
        ordered_vars = tuple(sorted(set(variables), key=lambda v: v.name))
        rows = frozenset(solutions)
        memo = (rows, ordered_vars, exact_threshold, bloom_bits)
        digest = _DIGESTS.get(memo)
        if digest is None:
            if len(_DIGESTS) >= _MAX_DIGESTS:
                _DIGESTS.clear()
            digest = _DIGESTS[memo] = cls._build(rows, ordered_vars,
                                                 exact_threshold, bloom_bits)
        return digest

    @classmethod
    def _build(cls, rows, ordered_vars, exact_threshold: int,
               bloom_bits: int) -> "JoinDigest":
        if not ordered_vars:
            return cls(ordered_vars, "exact", frozenset(), 0, 0, 0, False)
        keys: Set[Tuple[RDFTerm, ...]] = set()
        for mu in rows:
            values = tuple(mu.get(v) for v in ordered_vars)
            if any(t is None for t in values):
                # A resident row that does not bind every digest variable
                # is compatible with anything: pruning is unsound.
                return cls(ordered_vars, "exact", frozenset(), 0, 0, 0, False)
            keys.add(values)
        if len(keys) <= exact_threshold:
            return cls(ordered_vars, "exact", frozenset(keys), 0, 0, 0, True)
        nbits = bloom_size(len(keys), bloom_bits)
        nhashes = max(1, min(8, round(0.693 * bloom_bits)))
        bits = 0
        for key in keys:
            for value in _seeded_hashes(key, nhashes):
                bits |= 1 << value % nbits
        return cls(ordered_vars, "bloom", frozenset(), nbits, nhashes, bits, True)

    # ------------------------------------------------------------ filtering

    def allows(self, mu: SolutionMapping) -> bool:
        """May *mu* join some resident row? (Never a false negative.)"""
        if not self.prunable:
            return True
        values = tuple(mu.get(v) for v in self.variables)
        if any(t is None for t in values):
            return True
        return self._admits(values)

    def _admits(self, values: Tuple[RDFTerm, ...]) -> bool:
        if self.mode == "exact":
            return values in self.keys
        bits, nbits = self.bits, self.nbits
        for value in _seeded_hashes(values, self.nhashes):
            if not (bits >> value % nbits) & 1:
                return False
        return True

    def filter(self, solutions: Iterable[SolutionMapping]) -> Set[SolutionMapping]:
        """The rows :meth:`allows` admits. Rows of one schema hold the
        digest variables at the same slots, so slots are found once per
        schema, and each schema's rows are tested in one C pass."""
        if not self.prunable:
            return set(solutions)
        kept: Set[SolutionMapping] = set()
        for schema, values in _groups(solutions).items():
            slots = [schema.index.get(v) for v in self.variables]
            if None in slots:
                kept.update(map(schema.make, values))  # a missing variable joins anything
                continue
            if self.mode == "bloom":
                admits, pick = self._admits, _getter(slots)
            elif len(slots) == 1:
                # Probe the bare terms: no 1-tuple is built per row.
                admits = frozenset([key[0] for key in self.keys]).__contains__
                pick = itemgetter(*slots)
            else:
                admits, pick = self.keys.__contains__, itemgetter(*slots)
            kept.update(map(schema.make, compress(values, map(admits, map(pick, values)))))
        return kept

    # ---------------------------------------------------------------- misc

    def wire_size(self) -> int:
        base = DIGEST_HEADER_BYTES + sum(
            size_of(v) + _PER_ITEM_OVERHEAD for v in self.variables
        )
        if self.mode == "bloom":
            return base + self.nbits // 8
        return base + sum(
            sum(size_of(t) for t in key) + _PER_ITEM_OVERHEAD for key in self.keys
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = (f"{len(self.keys)} keys" if self.mode == "exact"
                 else f"{self.nbits} bits")
        return f"<JoinDigest {self.mode} {inner}, {self.wire_size()}B>"


class FilteredResult:
    """A shipped solution set plus the count of rows a digest dropped at
    the sender — the provider-side reply format of the semijoin path.
    Costs exactly the payload plus the fixed pruned counter."""

    __slots__ = ("data", "pruned")

    def __init__(self, data, pruned: int) -> None:
        self.data = data
        self.pruned = pruned

    def wire_size(self) -> int:
        return size_of(self.data) + PRUNED_COUNTER_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FilteredResult {self.pruned} pruned>"


# ------------------------------------------------------------------ helpers


def shed(rows, digest: Optional[JoinDigest], keep):
    """The receiver-side reduction applied before a solution set ships:
    drop the rows *digest* rejects, then project onto *keep*.

    Returns ``(rows, pruned)``; *pruned* is None without a digest, else
    the number of rows it dropped. Either directive may be None.
    """
    pruned = None
    if digest is not None:
        kept = digest.filter(rows)
        pruned = len(rows) - len(kept)
        rows = kept
    if keep is not None:
        rows = set(project(rows, keep))
    return rows, pruned


def encode_solutions(solutions: Iterable[SolutionMapping], plain=None):
    """The on-wire representation of a solution set: a
    :class:`SolutionBatch`, or with *plain* (the request's ``plain``
    field: dictionary encoding is off) the rows themselves, charged as
    the plain list of mappings they model. A batch is already encoded."""
    if plain:
        return frozenset(solutions)
    if type(solutions) is SolutionBatch:
        return solutions
    return SolutionBatch.encode(solutions)


def rebound_batch(rows: AbstractSet[SolutionMapping], entry) -> SolutionBatch:
    """The batch of *rows*: the term tuples of result-cache *entry* (a
    :class:`~repro.cache.result_cache.CacheEntry`) bound to a requester's
    variables (:func:`~repro.cache.keys.rebind_rows`), all of them.

    No row is scanned. Every row binds the same variables, so the naive
    list is the entry's own size (``nbytes``) plus each row's variable
    names, and the tables hold those names and the entry's distinct
    terms, counted once per entry (``entry.terms``). The batch is not
    kept: the entry is the memo."""
    rows = frozenset(rows)
    if not rows:
        return SolutionBatch.encode(rows)
    if entry.terms is None:
        terms = set(chain.from_iterable(entry.value))
        entry.terms = (len(terms), sum(map(size_of, terms)))
    nterms, term_bytes = entry.terms
    schema = next(iter(rows))._schema
    names = sum(map(size_of, schema.vars))
    return SolutionBatch(rows, entry.nbytes + len(rows) * names,
                         len(rows) * len(schema.vars), nterms, schema.domain,
                         names + term_bytes)


def merge_solutions(solutions: FrozenSet[SolutionMapping], acc, plain=None):
    """The on-wire representation of *solutions* merged into *acc*, the
    rows a chain step received: a batch is extended by the rows it
    lacks (:meth:`SolutionBatch.extend`); the chain's first step, which
    received an empty list, encodes its own rows."""
    if plain:
        return solutions.union(shipped_rows(acc))
    if type(acc) is SolutionBatch:
        return acc.extend(solutions)
    return SolutionBatch.encode(solutions.union(acc) if acc else solutions)


def shipped_rows(data):
    """The rows of whatever arrived on the wire, by reference: a batch's
    frozen rows, else the shipped container itself. Read-only — a
    receiver merges them into a container of its own."""
    if isinstance(data, SolutionBatch):
        return data.rows
    return data


def as_solution_set(data) -> Set[SolutionMapping]:
    """Decode whatever arrived on the wire into a fresh solution set, for
    a caller that mutates it or keeps it as a mailbox."""
    if isinstance(data, SolutionBatch):
        return data.decode()
    return set(data)
