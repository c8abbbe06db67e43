import itertools
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from dicrit.digraph import (
    Digraph,
    DigraphError,
    ParseError,
    bidirected_complete,
    bidirected_from_edges,
    boundary,
    digon_masks,
    directed_cycle,
    induced,
    parse,
    restrict,
    serialize,
    two_cut_sides,
    underlying_masks,
)
from dicrit.ore import generate_4ore

from .oracles import oracle_adjacency, oracle_components, reversed_digraph


@st.composite
def digraphs(draw, max_n=6, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    if possible:
        arcs = draw(st.sets(st.sampled_from(possible)))
    else:
        arcs = set()
    return Digraph(n, arcs)


@st.composite
def mixed_digraphs(draw, max_n=9, min_n=1):
    """Each vertex pair gets no arc, one arc either way, or a digon; digons
    are drawn half the time, so degree-6 vertices, bidirected triangles and
    near-K4s are common."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    arcs = []
    for u, v in itertools.combinations(range(n), 2):
        kind = draw(st.sampled_from(("none", "forward", "back", "digon", "digon", "digon")))
        if kind in ("forward", "digon"):
            arcs.append((u, v))
        if kind in ("back", "digon"):
            arcs.append((v, u))
    return Digraph(n, arcs)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(DigraphError):
            Digraph(0)

    def test_rejects_self_loop(self):
        with pytest.raises(DigraphError):
            Digraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DigraphError):
            Digraph(2, [(0, 2)])

    def test_rejects_duplicate(self):
        with pytest.raises(DigraphError):
            Digraph(2, [(0, 1), (0, 1)])

    def test_digons(self, k4):
        assert len(k4.digons()) == 6
        assert k4.is_bidirected()
        assert not k4.is_oriented()

    def test_builders(self, c3):
        assert c3.without_arcs([(0, 1)]).m == 2
        assert c3.with_arcs([(1, 0)]).has_digon(0, 1)
        assert reversed_digraph(c3).arcs == {(1, 0), (2, 1), (0, 2)}

    @settings(max_examples=150)
    @given(digraphs(max_n=9), st.data())
    def test_arc_deletion_matches_a_rebuild(self, d, data):
        # the deletion builders go through the one constructor; they must
        # produce exactly the digraph a construction from the arc set gives
        def assert_rebuilt(fast, removed):
            slow = Digraph(d.n, d.arcs - set(removed))
            assert fast == slow and hash(fast) == hash(slow) and fast.m == slow.m
            for v in slow.vertices():
                assert fast.out_neighbours(v) == slow.out_neighbours(v)
                assert fast.in_neighbours(v) == slow.in_neighbours(v)
            assert fast.out_masks == slow.out_masks and fast.in_masks == slow.in_masks

        pairs = [(u, v) for u in range(d.n) for v in range(d.n) if u != v]
        removed = data.draw(st.lists(st.sampled_from(pairs))) if pairs else []
        absent = [a for a in pairs if a not in d.arcs]
        for r in (removed, [], absent, absent + sorted(d.arcs)[:2]):
            assert_rebuilt(d.without_arcs(r), r)


    @settings(max_examples=150)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda a: a[0] != a[1]),
            unique=True,
        ))
    ))
    def test_arc_set_is_the_arcs_given(self, case):
        # the arc set is derived from the out-neighbour tuples on first read
        n, arcs = case
        d = Digraph(n, arcs)
        assert d.m == len(arcs)
        assert d.arcs == frozenset(arcs)
        assert d.arcs is d.arcs
        assert d.sorted_arcs() == sorted(arcs)

    def test_arc_set_read_from_many_threads(self):
        # threads that race on the first read of arcs may each build the
        # set; every one of them must see the digraph's arcs
        rng = random.Random(5)
        pool = [(u, v) for u in range(12) for v in range(12) if u != v]
        graphs = [Digraph(12, rng.sample(pool, 40)) for _ in range(300)]
        seen = [[] for _ in range(8)]
        threads = [threading.Thread(target=lambda out=out: out.extend(d.arcs for d in graphs))
                   for out in seen]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        expected = [frozenset(d.sorted_arcs()) for d in graphs]
        assert all(out == expected for out in seen)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_vertices_outside_have_no_arcs(self, n):
        # out_masks[-1] would read vertex n - 1, which in the bidirected
        # complete digraph has an arc and a digon to every other vertex
        d = bidirected_complete(n)
        outside = [-n - 1, -1, n, n + 2]
        for u, v in itertools.product(outside + list(range(n)), repeat=2):
            if u in outside or v in outside:
                assert not d.has_arc(u, v), (u, v)
                assert not d.has_digon(u, v), (u, v)
        assert all(d.has_digon(u, v) for u, v in itertools.permutations(range(n), 2))


def assert_adjacency_matches_the_arcs(d):
    vs = d.vertices()
    for u in vs:
        for v in vs:
            assert bool(d.out_masks[u] >> v & 1) == ((u, v) in d.arcs)
            assert bool(d.in_masks[v] >> u & 1) == ((u, v) in d.arcs)
    assert max(d.out_masks + d.in_masks) < 1 << d.n
    expected = oracle_adjacency(d)
    for name in ("out_neighbours", "in_neighbours", "neighbours", "out_degree",
                 "in_degree", "degree", "digon_count_at"):
        assert [getattr(d, name)(v) for v in vs] == expected[name], name
    assert [[d.has_digon(u, v) for v in vs] for u in vs] == expected["has_digon"]
    assert not d.has_digon(d.n, 0) and not d.has_digon(0, d.n)
    for name in ("digons", "is_bidirected", "is_oriented"):
        assert getattr(d, name)() == expected[name], name
    assert underlying_masks(d) == expected["underlying_masks"]
    assert digon_masks(d) == expected["digon_masks"]


class TestAdjacency:
    """The stored bitsets and every accessor read off them equal their
    definitions on the arc set."""

    @settings(max_examples=200)
    @given(mixed_digraphs(max_n=9))
    def test_mixed_digraphs(self, d):
        assert_adjacency_matches_the_arcs(d)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((4, 7, 10, 13, 16)), st.integers(0, 10_000))
    def test_4ore_digraphs(self, n, seed):
        assert_adjacency_matches_the_arcs(generate_4ore(n, seed=seed)[0])


class TestParse:
    def test_digon(self):
        d = parse("n 2 m 2\n0 1\n1 0\n")
        assert d.n == 2 and d.digons() == [(0, 1)]

    def test_directed_triangle(self):
        d = parse("n 3 m 3\n0 1\n1 2\n2 0\n")
        assert d == directed_cycle(3)

    def test_single_vertex(self):
        d = parse("n 1 m 0\n")
        assert d.n == 1 and d.m == 0

    def test_comments_and_blanks(self):
        d = parse("# a comment\n\nn 2 m 1\n# another\n0 1\n")
        assert d.m == 1

    @pytest.mark.parametrize(
        "text, line",
        [
            ("n 2 x 1\n0 1\n", 1),
            ("n 2 m 1\n0 5\n", 2),
            ("n 2 m 1\n1 1\n", 2),
            ("# lead\nn 2 m 2\n0 1\n0 1\n", 4),
            ("n 3 m 3\n0 1\n1 2\n# note\n2 2\n", 5),
            ("n 0 m 0", 1),  # vertex count must be positive
            ("n 2 m -1", 1),  # arc count must be non-negative
            ("n two m 1", 1),  # malformed header
            ("# only", 1),  # missing header
            ("n 2 m 1\n0 1 1", 2),  # expected an arc line
            ("n 2 m 1\n0 1\n1 0", 3),  # more arcs than announced
            # the self-loop is reported before the extra arc after it
            ("n 2 m 1\n0 0\n0 1", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line

    def test_arc_count_mismatch(self):
        with pytest.raises(ParseError):
            parse("n 2 m 2\n0 1\n")

    @settings(max_examples=150)
    @given(digraphs())
    def test_roundtrip(self, d):
        assert parse(serialize(d)) == d
        assert d.sorted_arcs() == sorted(d.arcs)


class TestInduced:
    def test_k4_triple(self, k4):
        sub, _ = induced(k4, [0, 1, 3])
        assert sub == bidirected_complete(3)

    def test_c3_pair(self, c3):
        sub, mapping = induced(c3, [0, 1])
        assert sub.arcs == {(mapping[0], mapping[1])}

    def test_identity(self, c3):
        sub, mapping = induced(c3, range(3))
        assert sub == c3 and mapping == {0: 0, 1: 1, 2: 2}

    def test_empty_rejected(self, c3):
        with pytest.raises(DigraphError):
            induced(c3, [])

    @settings(max_examples=150, deadline=None)
    @given(mixed_digraphs(max_n=9), st.data())
    def test_restrict_matches_induced(self, d, data):
        subset = sorted(data.draw(st.sets(st.sampled_from(range(d.n)), min_size=1)))
        sub, _ = induced(d, subset)
        assert restrict(d.out_masks, subset) == list(sub.out_masks)
        assert restrict(underlying_masks(d), subset) == underlying_masks(sub)


class TestBoundary:
    def test_joined_vertex_only(self):
        # isolated digon {0,1} plus vertex 2 joined to 3 outward
        d = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert boundary(d, [0, 1, 2]) == {2}

    def test_directed_triangle(self, c3):
        assert boundary(c3, [0, 1]) == {0, 1}

    def test_disjoint_digons(self):
        d = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert boundary(d, [0, 1]) == frozenset()

    def test_whole_set_rejected(self, c3):
        with pytest.raises(DigraphError):
            boundary(c3, [0, 1, 2])

    @pytest.mark.parametrize("subset", [[], [0, 3], [-1, 0]])
    def test_empty_or_outside_rejected(self, c3, subset):
        with pytest.raises(DigraphError):
            boundary(c3, subset)

    @settings(max_examples=100)
    @given(digraphs(), st.data())
    def test_boundary_inside_subset(self, d, data):
        if d.n < 2:
            return
        size = data.draw(st.integers(1, d.n - 1))
        subset = data.draw(
            st.sets(st.sampled_from(range(d.n)), min_size=size, max_size=size)
        )
        bd = boundary(d, subset)
        assert bd <= subset
        crossing = any(
            (u in subset) != (v in subset) for u, v in d.arcs
        )
        assert bool(bd) == crossing
        assert bd == {
            w for arc in d.arcs for w, x in (arc, arc[::-1])
            if w in subset and x not in subset
        }


class TestTwoCutSides:
    @settings(max_examples=150, deadline=None)
    @given(digraphs(max_n=9))
    @example(Digraph(7, [(1, 5), (2, 6), (6, 1)]))
    @example(bidirected_from_edges(5, [(i, i + 1) for i in range(4)]))
    def test_agrees_with_trying_every_cut(self, d):
        # The reference removes every set of one or two vertices and floods
        # the rest over adjacency sets.
        expected = {}
        for size in (1, 2):
            for cut in itertools.combinations(d.vertices(), size):
                comps = oracle_components(d, cut)
                if len(comps) > 1:
                    expected[cut] = sorted(sum(1 << v for v in c) for c in comps)
        found = list(two_cut_sides(underlying_masks(d)))
        assert {cut: sorted(sides) for cut, sides in found} == expected
        assert [cut for cut, _ in found] == sorted(expected, key=lambda c: (c[0], len(c), c))

    def test_single_vertex_has_no_cut(self):
        assert list(two_cut_sides([0])) == []
