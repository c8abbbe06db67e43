import itertools
import json
from collections import Counter

import pytest

from dicrit.budget import Budget
from dicrit.census import (
    MAX_CENSUS_N,
    _choice_table,
    _scan_arc_sets,
    _stream,
    census,
    load_record,
    save_records,
)
from dicrit.colouring import _BASE_SIZE, is_k_dicritical
from dicrit.digraph import Digraph, DigraphError, bits, directed_cycle
from dicrit.iso import canonical_form, find_isomorphism

from .oracles import (
    oracle_candidate_stream,
    oracle_census_candidates,
    oracle_follows_labelling_rule,
    oracle_ie_is_k_dicritical,
    oracle_is_k_dicritical,
)

#: census(k, 5) per k: d_k(n) and o_k(n) for n = 2..5.
TABLES_N5 = {
    2: ((2, 3, 4, 5), (None, 3, 4, 5)),
    3: ((None, 6, 9, 10), (None,) * 4),
    4: ((None, None, 12, 17), (None,) * 4),
}
#: Budget.used ceilings for census(k, 5).  Later changes may only lower them.
NODE_CEILINGS_N5 = {2: 212, 3: 233, 4: 486}
#: census(k, 5).stats per k as (candidates, dicritical, reused, nodes).  A
#: change to the candidate stream or the search shows here as a diff, even
#: one that stays under the ceilings.
STATS_N5 = {2: (25, 19, 0, 212), 3: (55, 5, 32, 233), 4: (97, 3, 54, 486)}
#: census(k, 6) per k: d_k(6), o_k(6), and the arcs of the one witness of
#: each, in the census's labelling.  No oriented graph on fewer than 7
#: vertices is 3-dichromatic (Neumann-Lara), hence o_3(6) = o_4(6) = None.
CYCLE_6 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
TABLES_N6 = {
    2: (6, 6, CYCLE_6, CYCLE_6),
    3: (13, None, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (2, 0), (2, 4), (3, 0),
                   (3, 5), (4, 1), (4, 5), (5, 3), (5, 4)], None),
    4: (20, None, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 0), (1, 2), (1, 3),
                   (2, 0), (2, 1), (2, 4), (3, 0), (3, 1), (3, 5), (4, 0), (4, 2),
                   (4, 5), (5, 0), (5, 3), (5, 4)], None),
}
#: Budget.used ceilings for census(k, 6).  Later changes may only lower them.
NODE_CEILINGS_N6 = {2: 1_118, 3: 12_963, 4: 43_682}
#: census(k, 6).stats per k, as ``STATS_N5``.
STATS_N6 = {
    2: (110, 67, 0, 1_118),
    3: (4_709, 17, 3_555, 12_963),
    4: (28_073, 15, 24_391, 43_682),
}
STATS_KEYS = ("candidates", "dicritical", "reused", "nodes")


def candidate_arc_sets(n, m, k, oriented):
    """The census's candidate stream of order n, each candidate as a tuple
    of arcs in lexicographic order."""
    for out in _stream(_choice_table(n), m, k, oriented):
        yield tuple((u, v) for u, targets in enumerate(out) for v in bits(targets))


def census_streams():
    """(n, m, k, oriented) for every candidate stream census(k, 5) scans: m
    from n(k - 1) up to the minimum, or up to the most arcs if there is none."""
    for k, (d_min, o_min) in TABLES_N5.items():
        for n in range(2, 6):
            for oriented, minima in ((False, d_min), (True, o_min)):
                top = minima[n - 2] or n * (n - 1) // (2 if oriented else 1)
                for m in range(max(1, n * (k - 1)), top + 1):
                    yield n, m, k, oriented


def assert_candidates_match(n, m, k, oriented):
    got = [frozenset(arcs) for arcs in candidate_arc_sets(n, m, k, oriented)]
    assert len(got) == len(set(got)), f"an arc set was generated twice at m={m}"
    expected = {
        arcs for arcs in oracle_census_candidates(n, m, k, oriented)
        if oracle_follows_labelling_rule(n, arcs)
    }
    assert set(got) == expected, f"m={m}"


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
            got = list(candidate_arc_sets(n, m, k, oriented))
            expected = [
                arcs for arcs in oracle_candidate_stream(n, m, k, oriented)
                if oracle_follows_labelling_rule(n, arcs)
            ]
            assert got == expected, f"m={m}"

    # The labelling rule drops labellings, never classes.  At n = 6 the scan
    # of all m-subsets of the 30 arcs is out of reach, so the first generator
    # stands in for it; there every candidate is 2-regular, and only the pin
    # on vertex 0's out-neighbourhood cuts.
    @pytest.mark.parametrize("n, m, k, oriented", [*census_streams(), (6, 12, 3, False)])
    def test_every_class_appears(self, n, m, k, oriented):
        def forms(stream):
            return {canonical_form(Digraph(n, arcs)) for arcs in stream}

        oracle = oracle_census_candidates if n <= 5 else oracle_candidate_stream
        got = forms(candidate_arc_sets(n, m, k, oriented))
        assert got == forms(oracle(n, m, k, oriented))

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
        assert table.stats == dict(zip(STATS_KEYS, STATS_N5[k]))
        assert table.stats["nodes"] == budget.used
        assert table.stats["dicritical"] >= sum(
            len(recs) for recs in table.witnesses.values()
        )

    # Every stream census(k, 5) scans, in census order: the scan yields
    # exactly the candidates the oracle calls k-dicritical, while the stored
    # colouring carries over from stream to stream within one order.
    @pytest.mark.parametrize("k", (3, 4))
    def test_scan_yields_the_oracle_dicritical(self, k):
        stats = Counter()
        streams = [s for s in census_streams() if s[2] == k]
        for n, group in itertools.groupby(streams, key=lambda s: s[0]):
            choices, classes = _choice_table(n), []
            for _, m, _, oriented in group:
                got = [d.sorted_arcs() for d in _scan_arc_sets(
                    choices, m, k, Budget(10**6), oriented, stats, classes
                )]
                expected = [
                    list(arcs) for arcs in candidate_arc_sets(n, m, k, oriented)
                    if oracle_ie_is_k_dicritical(Digraph(n, arcs), k)
                ]
                assert got == expected, (n, m, oriented)
        assert 0 < stats["reused"] < stats["candidates"]

    def test_stats(self):
        table = census(2, 3)
        # n = 2: the digon; n = 3: the directed triangle 0 -> 1 -> 2 -> 0,
        # plain and oriented.  Its other labelling, 0 -> 2 -> 1 -> 0, breaks
        # the labelling rule (vertex 0's out-neighbour must be 1).
        assert table.stats["dicritical"] == 3
        assert table.stats["candidates"] >= table.stats["dicritical"]
        assert table.stats["nodes"] > 0
        assert table.stats["reused"] == 0  # k = 2 has no stored colouring
        assert table.to_json()["stats"] == table.stats
        budget = Budget(10**6)
        budget.spend(100)
        assert census(2, 3, budget).stats == table.stats

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_n6_row(self, k):
        budget = Budget(50_000_000)
        table = census(k, 6, budget)
        d_min, o_min = TABLES_N5[k]
        assert [table.d_min[n] for n in range(2, 6)] == list(d_min)
        assert [table.o_min[n] for n in range(2, 6)] == list(o_min)
        d6, o6, d_arcs, o_arcs = TABLES_N6[k]
        assert (table.d_min[6], table.o_min[6]) == (d6, o6)
        for records, arcs in ((table.witnesses[6], d_arcs),
                              (table.oriented_witnesses[6], o_arcs)):
            assert [rec.digraph.sorted_arcs() for rec in records] == (
                [arcs] if arcs else []
            )
            for rec in records:
                assert oracle_ie_is_k_dicritical(rec.digraph, k)
        assert budget.used <= NODE_CEILINGS_N6[k]
        assert table.stats == dict(zip(STATS_KEYS, STATS_N6[k]))

    # Every stream below d_3(6) and d_4(6): m starts at 6(k - 1).  The
    # labelling rule drops no class (docs/decisions.md, section 11), so no
    # k-dicritical digraph on 6 vertices has fewer arcs.
    @pytest.mark.parametrize("k, m", [(3, 12), (4, 18), (4, 19)])
    def test_n6_minimum_agrees_with_the_oracle(self, k, m):
        assert m < TABLES_N6[k][0]
        assert not any(
            oracle_ie_is_k_dicritical(Digraph(6, arcs), k)
            for arcs in candidate_arc_sets(6, m, k, False)
        )

    def test_bounds_validated(self):
        with pytest.raises(DigraphError):
            census(2, 7)
        # the scan reads the plain search's assignment off every "yes"
        assert MAX_CENSUS_N <= _BASE_SIZE
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
        # corrupt the blob, keeping what the sidecar states about it: the
        # transitive tournament is acyclic, so not 2-dicritical
        paths[0].write_text("n 3 m 3\n0 1\n1 2\n0 2\n")
        with pytest.raises(DigraphError, match="no longer verifies"):
            load_record(paths[0])

    @pytest.mark.parametrize("rewrite", [
        # the sidecar disagrees with the blob
        {"n": 9}, {"arc_count": 2}, {"oriented": True},
        {"n": 9, "arc_count": 2, "oriented": True},
        # k is not an integer of at least 2
        {"k": "3"}, {"k": 3.0}, {"k": None}, {"k": True}, {"k": 1},
        # not a JSON object
        "{", "[3]",
    ])
    def test_bad_sidecar_rejected(self, tmp_path, rewrite):
        paths = save_records(census(3, 3).witnesses[3], tmp_path)
        sidecar = paths[0].with_suffix(".json")
        if isinstance(rewrite, dict):
            rewrite = json.dumps({**json.loads(sidecar.read_text()), **rewrite})
        sidecar.write_text(rewrite)
        with pytest.raises(DigraphError, match=sidecar.name):
            load_record(paths[0])
