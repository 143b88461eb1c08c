"""The per-query memo of two-level index consultations."""


from repro.query import DistributedExecutor
from repro.query.executor import ExecutionContext, ExecutionReport
from repro.rdf import Variable
from repro.rdf.namespaces import FOAF
from repro.rdf.triple import TriplePattern

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

#: Both patterns key the index by the same predicate, so one query
#: consults the same location-table row twice.
REPEAT_QUERY = """SELECT ?x ?z WHERE {
    ?x foaf:knows ?y . ?y foaf:knows ?z . }"""


def make_ctx(system, initiator="D1", **options):
    executor = DistributedExecutor(system, **options)
    return ExecutionContext(
        system, initiator, executor.options, ExecutionReport(), executor.load
    )


def locate(system, ctx, pattern):
    def proc():
        return (yield from ctx.locate(pattern, None))

    return system.sim.run_process(proc())


class TestWithinQuery:
    def test_repeated_pattern_hits(self, paper_system):
        executor = DistributedExecutor(paper_system)
        _, report = executor.execute(REPEAT_QUERY, initiator="D1")
        assert report.lookup_cache_hits >= 1
        assert report.lookup_cache_misses >= 1

    def test_cached_locate_returns_same_entries(self, paper_system):
        ctx = make_ctx(paper_system)
        pattern = TriplePattern(X, FOAF.knows, Y)
        first = locate(paper_system, ctx, pattern)
        second = locate(paper_system, ctx, pattern)
        assert [e.storage_id for e in first.entries] == \
               [e.storage_id for e in second.entries]
        assert ctx.report.lookup_cache_hits == 1
        assert ctx.report.lookup_cache_misses == 1


class TestInvalidation:
    def test_membership_epoch_tracks_churn(self, paper_system):
        net = paper_system.network
        before = net.membership_epoch
        net.fail_node("D2")
        assert net.membership_epoch == before + 1
        net.recover_node("D2")
        assert net.membership_epoch == before + 2

    def test_churn_clears_the_cache(self, paper_system):
        ctx = make_ctx(paper_system)
        pattern = TriplePattern(X, FOAF.knows, Y)
        locate(paper_system, ctx, pattern)
        paper_system.network.fail_node("D4")
        try:
            locate(paper_system, ctx, pattern)
        finally:
            paper_system.network.recover_node("D4")
        assert ctx.report.lookup_cache_hits == 0
        assert ctx.report.lookup_cache_misses == 2

    def test_memo_keeps_every_key(self, paper_system):
        ctx = make_ctx(paper_system)
        knows = TriplePattern(X, FOAF.knows, Y)
        name = TriplePattern(X, FOAF.name, Z)
        locate(paper_system, ctx, knows)
        locate(paper_system, ctx, name)
        locate(paper_system, ctx, knows)
        assert ctx.report.lookup_cache_hits == 1
        assert ctx.report.lookup_cache_misses == 2
