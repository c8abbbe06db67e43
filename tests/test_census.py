import pytest

from dicrit.budget import Budget
from dicrit.census import (
    _candidate_arc_sets,
    census,
    load_record,
    save_records,
)
from dicrit.colouring import is_k_dicritical
from dicrit.digraph import DigraphError, directed_cycle
from dicrit.iso import find_isomorphism

from .oracles import (
    oracle_candidate_stream,
    oracle_census_candidates,
    oracle_is_k_dicritical,
)

#: census(k, 5) per k: d_k(n) and o_k(n) for n = 2..5.
TABLES_N5 = {
    2: ((2, 3, 4, 5), (None, 3, 4, 5)),
    3: ((None, 6, 9, 10), (None,) * 4),
    4: ((None, None, 12, 17), (None,) * 4),
}
#: Budget.used ceilings for census(k, 5).  Later changes may only lower them.
NODE_CEILINGS_N5 = {2: 774, 3: 2_863, 4: 7_884}


def assert_candidates_match(n, m, k, oriented):
    got = [frozenset(arcs) for arcs in _candidate_arc_sets(n, m, k, oriented)]
    assert len(got) == len(set(got)), f"an arc set was generated twice at m={m}"
    assert set(got) == oracle_census_candidates(n, m, k, oriented), f"m={m}"


class TestCandidates:
    @pytest.mark.parametrize("n", (2, 3, 4))
    @pytest.mark.parametrize("k", (2, 3, 4))
    @pytest.mark.parametrize("oriented", (False, True))
    def test_matches_the_filtered_scan(self, n, k, oriented):
        for m in range(n * (n - 1) + 1):
            assert_candidates_match(n, m, k, oriented)

    # Every arc count census(k, 5) scans at n = 5, from 5(k - 1) up to d_k(5);
    # above m = 10 there is no oriented candidate.
    @pytest.mark.parametrize("k, m", [(2, 5), (3, 10), (4, 15), (4, 16), (4, 17)])
    @pytest.mark.parametrize("oriented", (False, True))
    def test_matches_the_filtered_scan_n5(self, k, m, oriented):
        assert_candidates_match(5, m, k, oriented)

    # The census keeps the first witness of each isomorphism class, so the
    # order of the stream, not just its set, fixes what the census reports.
    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    @pytest.mark.parametrize("k", (2, 3, 4))
    @pytest.mark.parametrize("oriented", (False, True))
    def test_stream_order_is_pinned(self, n, k, oriented):
        for m in range(n * (k - 1), n * (k - 1) + 4):
            got = list(_candidate_arc_sets(n, m, k, oriented))
            assert got == list(oracle_candidate_stream(n, m, k, oriented)), f"m={m}"

class TestCensus:
    def test_k2_minima_are_directed_cycles(self):
        table = census(2, 4)
        for n in (2, 3, 4):
            assert table.d_min[n] == n
            assert any(
                find_isomorphism(rec.digraph, directed_cycle(n)) is not None
                for rec in table.witnesses[n]
            )
        assert table.o_min[2] is None  # the only 2-dicritical digraph is a digon
        assert table.o_min[3] == 3

    def test_k3_n3(self):
        table = census(3, 3)
        assert table.d_min[3] == 6
        assert table.d_min[2] is None
        rec = table.witnesses[3][0]
        assert rec.digraph.is_bidirected() and rec.digraph.m == 6

    def test_k4_n4(self):
        table = census(4, 4)
        assert table.d_min[4] == 12
        assert table.d_min[3] is None
        assert table.o_min[4] is None

    def test_sharding_agrees(self):
        def summary(table):
            return table.to_json(), [
                {n: [rec.digraph.sorted_arcs() for rec in recs]
                 for n, recs in records.items()}
                for records in (table.witnesses, table.oriented_witnesses)
            ]

        for k in (2, 3, 4):
            whole = summary(census(k, 5))
            for nshards in (2, 3):
                assert summary(census(k, 5, nshards=nshards)) == whole, (k, nshards)

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_full_n5_table(self, k):
        budget = Budget(50_000_000)
        table = census(k, 5, budget)
        d_min, o_min = TABLES_N5[k]
        assert [table.d_min[n] for n in range(2, 6)] == list(d_min)
        assert [table.o_min[n] for n in range(2, 6)] == list(o_min)
        for n in range(2, 6):
            for records, value in (
                (table.witnesses[n], table.d_min[n]),
                (table.oriented_witnesses[n], table.o_min[n]),
            ):
                assert len(records) == (value is not None)
                for rec in records:
                    assert rec.digraph.n == n and rec.arc_count == value
                    assert oracle_is_k_dicritical(rec.digraph, k)
        assert all(rec.oriented for recs in table.oriented_witnesses.values()
                   for rec in recs)
        assert budget.used <= NODE_CEILINGS_N5[k]
        assert table.stats["nodes"] == budget.used
        assert table.stats["dicritical"] >= sum(
            len(recs) for recs in table.witnesses.values()
        )

    def test_stats(self):
        table = census(2, 3)
        # n = 2: the digon; n = 3: the two directed triangles, plain and oriented.
        assert table.stats["dicritical"] == 5
        assert table.stats["candidates"] >= table.stats["dicritical"]
        assert table.stats["nodes"] > 0
        assert table.to_json()["stats"] == table.stats
        budget = Budget(10**6)
        budget.spend(100)
        assert census(2, 3, budget).stats == table.stats

    def test_bounds_validated(self):
        with pytest.raises(DigraphError):
            census(2, 6)
        with pytest.raises(DigraphError):
            census(1, 3)

    @pytest.mark.parametrize("nshards", [0, -2])
    def test_needs_a_shard(self, nshards):
        # with no shard nothing would be scanned and every minimum read None
        with pytest.raises(DigraphError, match=f"got {nshards}"):
            census(3, 4, nshards=nshards)


class TestPersistence:
    def test_roundtrip_and_reverify(self, tmp_path):
        table = census(3, 3)
        paths = save_records(table.witnesses[3], tmp_path)
        assert paths
        rec = load_record(paths[0])
        assert rec.verified_dicritical
        assert is_k_dicritical(rec.digraph, 3).verdict

    def test_stale_record_rejected(self, tmp_path):
        table = census(2, 3)
        paths = save_records(table.witnesses[3], tmp_path)
        # corrupt the blob: a path is not 2-dicritical
        paths[0].write_text("n 3 m 2\n0 1\n1 2\n")
        with pytest.raises(DigraphError):
            load_record(paths[0])
