import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dicrit.digraph import Digraph, bidirected_cycle, directed_cycle
from dicrit.iso import canonical_form, canonical_labelling, find_isomorphism

from .oracles import oracle_canonical_form


def relabel(d: Digraph, perm) -> Digraph:
    return Digraph(d.n, ((perm[u], perm[v]) for u, v in d.arcs))


def cycle_union(lengths, bidirected: bool, hub: bool) -> Digraph:
    """Disjoint directed or bidirected cycles, with an optional hub vertex
    joined by digons to every cycle vertex."""
    arcs, start = set(), 0
    for length in lengths:
        for i in range(length):
            u, v = start + i, start + (i + 1) % length
            arcs |= {(u, v), (v, u)} if bidirected else {(u, v)}
        start += length
    if hub:
        arcs |= {(start, v) for v in range(start)} | {(v, start) for v in range(start)}
    return Digraph(start + hub, arcs)


@st.composite
def typed_digraphs(draw, n: int):
    """A digraph on n vertices that is oriented, bidirected or mixed."""
    kind = draw(st.sampled_from(("oriented", "bidirected", "mixed")))
    ways = {"oriented": ("fwd", "back"), "bidirected": ("both",),
            "mixed": ("fwd", "back", "both")}[kind]
    arcs = set()
    for u, v in itertools.combinations(range(n), 2):
        way = draw(st.sampled_from((None,) + ways))
        if way in ("fwd", "both"):
            arcs.add((u, v))
        if way in ("back", "both"):
            arcs.add((v, u))
    return Digraph(n, arcs)


@st.composite
def digraph_pairs(draw, max_n: int = 7):
    """Two digraphs of one order: the second a relabelling of the first,
    sometimes with one arc reversed or one arc moved, so that isomorphic
    and non-isomorphic pairs both occur."""
    n = draw(st.integers(1, max_n))
    a = draw(typed_digraphs(n))
    b = relabel(a, draw(st.permutations(range(n))))
    arcs = sorted(b.arcs)
    edit = draw(st.sampled_from(("none", "reverse", "move")))
    if edit != "none" and arcs:
        u, v = draw(st.sampled_from(arcs))
        free = [(x, y) for x in range(n) for y in range(n)
                if x != y and (x, y) not in b.arcs]
        if edit == "reverse" and (v, u) not in b.arcs:
            b = Digraph(n, (b.arcs - {(u, v)}) | {(v, u)})
        elif edit == "move" and free:
            b = Digraph(n, (b.arcs - {(u, v)}) | {draw(st.sampled_from(free))})
    return a, b


class TestCanonicalLabelling:
    @settings(max_examples=100, deadline=None)
    @given(digraph_pairs())
    def test_agrees_with_oracle(self, pair):
        a, b = pair
        isomorphic = oracle_canonical_form(a) == oracle_canonical_form(b)
        assert (canonical_form(a) == canonical_form(b)) == isomorphic
        mapping = find_isomorphism(a, b)
        if not isomorphic:
            assert mapping is None
            return
        assert mapping is not None
        assert sorted(mapping) == list(range(a.n))
        assert sorted(mapping.values()) == list(range(b.n))
        assert {(mapping[u], mapping[v]) for u, v in a.arcs} == set(b.arcs)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.tuples(typed_digraphs(n), st.permutations(range(n)))))
    def test_form_invariant_under_relabelling(self, drawn):
        d, perm = drawn
        form, labelling = canonical_labelling(d)
        assert sorted(labelling) == list(range(d.n))
        assert form == tuple(sorted((labelling[u], labelling[v]) for u, v in d.arcs))
        assert canonical_form(relabel(d, perm)) == form

    @pytest.mark.parametrize("lengths", [(6, 3, 3), (8, 4, 4)])
    @pytest.mark.parametrize("bidirected", [True, False])
    @pytest.mark.parametrize("hub", [False, True])
    def test_cycle_unions_that_refinement_cannot_split(self, lengths, bidirected, hub):
        # Colour refinement sees every cycle vertex alike, so these forms
        # rest on individualisation and on pruning only by automorphisms
        # that are really there.
        d = cycle_union(lengths, bidirected, hub)
        rng = random.Random(sum(lengths) + 2 * bidirected + hub)
        form = canonical_form(d)
        for _ in range(8):
            perm = list(range(d.n))
            rng.shuffle(perm)
            other = relabel(d, perm)
            assert canonical_form(other) == form
            mapping = find_isomorphism(d, other)
            assert {(mapping[u], mapping[v]) for u, v in d.arcs} == set(other.arcs)
        twin = cycle_union((sum(lengths) // 2,) * 2, bidirected, hub)
        assert canonical_form(twin) != form
        assert find_isomorphism(d, twin) is None

    def test_beyond_the_exhaustive_range(self):
        # n = 8 was refused while the form was an n! scan.
        a = bidirected_cycle(8)
        b = relabel(a, [3, 7, 1, 0, 5, 2, 6, 4])
        assert canonical_form(a) == canonical_form(b)
        mapping = find_isomorphism(a, b)
        assert {(mapping[u], mapping[v]) for u, v in a.arcs} == set(b.arcs)
        assert canonical_form(directed_cycle(8)) != canonical_form(
            Digraph(8, [(i, (i + 1) % 8) for i in range(7)] + [(0, 7)]))
