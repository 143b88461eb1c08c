"""Cross-query result caching with delta-exact invalidation (S13).

The engine re-ships the same hot sub-results for every query that asks
for them: the only reuse mechanism below this package is the *per-query*
lookup memo in :mod:`repro.query.executor`. This package adds a per-site
semantic result cache in the spirit of PHD-Store's workload-adaptive
placement and Peng et al.'s reusable partial results:

* :mod:`repro.cache.epoch` — the one freshness rule: data epochs advance
  where a location-table row is written, and the lookup memo and this
  cache both reuse an entry only while its stamp (membership epoch plus
  per-key epochs, taken before the value was computed) is current; a
  stale stamp can only ever produce a *miss*.
* :mod:`repro.cache.keys` — canonical cache keys for triple patterns and
  BGPs (variables numbered by first occurrence), so key equality implies
  structural equivalence up to variable renaming.
* :mod:`repro.cache.result_cache` — the per-node store: frequency-gated
  admission, a byte budget, LFU-tie-broken-LRU eviction.
* :mod:`repro.cache.runtime` — executor-side probing for the
  ``CacheProbe`` physical operator.

Everything is off unless ``ExecutionOptions.result_cache`` is set; with
it off the engine is byte-identical to a build without this package.
"""

from .epoch import DataEpochLedger, Stamp
from .keys import bgp_cache_key, pattern_cache_key
from .result_cache import CacheEntry, ResultCache

__all__ = [
    "DataEpochLedger",
    "Stamp",
    "pattern_cache_key",
    "bgp_cache_key",
    "CacheEntry",
    "ResultCache",
]
