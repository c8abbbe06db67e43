import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from dicrit.digraph import (
    Digraph,
    DigraphError,
    ParseError,
    bidirected_complete,
    bidirected_path,
    boundary,
    digon_masks,
    directed_cycle,
    identify,
    induced,
    is_k_connected,
    parse,
    profiles,
    restrict,
    serialize,
    two_cut_sides,
    underlying_masks,
)
from dicrit.ore import generate_4ore

from .oracles import oracle_adjacency, oracle_components, reversed_digraph


@st.composite
def digraphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    if possible:
        arcs = draw(st.sets(st.sampled_from(possible)))
    else:
        arcs = set()
    return Digraph(n, arcs)


@st.composite
def mixed_digraphs(draw, max_n=9):
    """Each vertex pair gets no arc, one arc either way, or a digon; digons
    are drawn half the time, so degree-6 vertices, bidirected triangles and
    near-K4s are common."""
    n = draw(st.integers(min_value=1, max_value=max_n))
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
        # the deletion builders skip re-validation; they must still produce
        # exactly the digraph a full construction gives
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
    ps = profiles(d)
    assert [p.vertex for p in ps] == list(vs)
    for v, p in enumerate(ps):
        nbrs = expected["neighbours"][v]
        assert (p.in_degree, p.out_degree, p.degree, p.neighbour_count) == (
            expected["in_degree"][v], expected["out_degree"][v], expected["degree"][v], len(nbrs)
        )
        assert p.simple_neighbours == tuple(w for w in nbrs if not expected["has_digon"][v][w])


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


class TestProfiles:
    def test_k4(self, k4):
        for p in profiles(k4):
            assert p.degree == 6 and p.neighbour_count == 3
            assert p.simple_neighbours == ()

    def test_c3(self, c3):
        for p in profiles(c3):
            assert p.degree == 2 and p.neighbour_count == 2
            assert len(p.simple_neighbours) == 2

    def test_digon(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        for p in profiles(d):
            assert p.degree == 2 and p.neighbour_count == 1
            assert p.simple_neighbours == ()

    @settings(max_examples=100)
    @given(digraphs())
    def test_degree_sums_and_digon_identity(self, d):
        ps = profiles(d)
        assert sum(p.out_degree for p in ps) == d.m
        assert sum(p.in_degree for p in ps) == d.m
        for p in ps:
            assert p.degree == p.neighbour_count + d.digon_count_at(p.vertex)


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


class TestIdentify:
    def test_fold_triangle_to_digon(self, c3):
        folded, _ = identify(c3, [{0, 1}])
        assert folded.n == 2 and folded.arcs == {(0, 1), (1, 0)}

    def test_singletons_are_identity(self, k4):
        same, mapping = identify(k4, [{0}, {1}])
        assert same == k4
        assert mapping == {v: v for v in range(4)}

    def test_digon_plus_isolated_folds_to_digon(self):
        # identify(digon [0,1] plus isolated 2, {{0,2}}): arc folding keeps
        # exactly the digon, now on 2 vertices.
        d = Digraph(3, [(0, 1), (1, 0)])
        folded, mapping = identify(d, [{0, 2}])
        assert folded.n == 2
        assert folded.arcs == {(mapping[0], mapping[1]), (mapping[1], mapping[0])}

    def test_overlap_rejected(self, k4):
        with pytest.raises(DigraphError):
            identify(k4, [{0, 1}, {1, 2}])

    @settings(max_examples=60)
    @given(digraphs())
    def test_singleton_blocks_always_identity(self, d):
        same, _ = identify(d, [{v} for v in range(d.n)])
        assert same == d


class TestConnectivity:
    def test_k4_three_connected(self, k4):
        assert is_k_connected(k4, 3) == (True, None)

    def test_path_cut_vertex(self):
        ok, cut = is_k_connected(bidirected_path(3), 2)
        assert not ok and cut == {1}

    def test_c5_two_not_three(self, c5_bi):
        assert is_k_connected(c5_bi, 2)[0]
        ok, cut = is_k_connected(c5_bi, 3)
        assert not ok and len(cut) == 2

    def test_too_small_rejected(self, k3):
        with pytest.raises(DigraphError):
            is_k_connected(k3, 3)


class TestTwoCutSides:
    @settings(max_examples=150, deadline=None)
    @given(digraphs(max_n=9))
    @example(Digraph(7, [(1, 5), (2, 6), (6, 1)]))
    @example(bidirected_path(5))
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
