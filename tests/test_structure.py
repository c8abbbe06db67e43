import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dicrit.colouring import is_k_dicolourable
from dicrit.digraph import Digraph, DigraphError, bidirected_complete, induced
from dicrit.packing import max_packing
from dicrit.potential import (
    REFERENCE_PARAMS,
    ZERO_PARAMS,
    PotentialParams,
    potential,
    potential_with_packing_value,
)
from dicrit.structure import (
    d6_components,
    d6_vertices,
    dicritical_extension,
    discharge,
    find_chelou_arcs,
    is_collapsible,
    neighbourhood_valency,
    phi_identify,
    valency8,
)

from dicrit.ore import generate_4ore

from .oracles import (
    oracle_components,
    oracle_d6_components,
    oracle_discharge,
    oracle_find_chelou_arcs,
    reversed_digraph,
    underlying_edges,
    valid_dicolouring,
)
from .test_digraph import digraphs, mixed_digraphs
from .test_ore import swapped_4ore

F = Fraction

#: Feasible and infeasible pairs alike: the ledger is defined for any
#: non-negative parameters.
PARAMS = (
    REFERENCE_PARAMS,
    ZERO_PARAMS,
    PotentialParams(F(1, 10), F(0)),
    PotentialParams(F(1, 30), F(1, 5)),
)


def chelou_pattern() -> Digraph:
    """The out-chelou pattern built clause by clause: arc (0,1) with
    d+(0) = 3, d-(1) = 3 and z = 2 an in- but not out-neighbour of 1."""
    arcs = [
        (0, 1), (0, 4), (0, 5),          # out-neighbours of x = 0
        (2, 1), (3, 1),                  # other in-neighbours of y = 1
        (1, 6), (1, 7), (1, 8),          # out-neighbours of y
    ]
    return Digraph(9, arcs)


class TestChelou:
    def test_constructed_pattern(self):
        out_chelou, _ = find_chelou_arcs(chelou_pattern())
        assert out_chelou == [(0, 1)]

    def test_bidirected_has_none(self, k4):
        assert find_chelou_arcs(k4) == ([], [])

    def test_c3_has_none(self, c3):
        assert find_chelou_arcs(c3) == ([], [])

    def test_in_chelou_via_reversal(self):
        rev = reversed_digraph(chelou_pattern())
        _, in_chelou = find_chelou_arcs(rev)
        assert in_chelou == [(1, 0)]

    @settings(max_examples=200, deadline=None)
    @given(mixed_digraphs(max_n=9))
    def test_matches_the_reversal_definition(self, d):
        assert find_chelou_arcs(d) == oracle_find_chelou_arcs(d)

    @settings(max_examples=60)
    @given(digraphs(max_n=6))
    def test_duality(self, d):
        out_chelou, in_chelou = find_chelou_arcs(d)
        rev_out, rev_in = find_chelou_arcs(reversed_digraph(d))
        assert sorted((y, x) for x, y in in_chelou) == rev_out
        assert sorted((y, x) for x, y in out_chelou) == rev_in


def path2_host() -> Digraph:
    """A digon [0,1] whose endpoints reach degree 6 via four extra simple
    arcs each; all the helpers have low degree."""
    arcs = [(0, 1), (1, 0)]
    arcs += [(0, 2), (0, 3), (4, 0), (5, 0)]
    arcs += [(1, 6), (1, 7), (8, 1), (9, 1)]
    return Digraph(10, arcs)


@st.composite
def digon_trees(draw):
    """A path or star of digons on 2-4 vertices, each padded to degree 6 by
    digons or single arcs to fresh light vertices or to up to three heavy
    hubs.  The hubs are joined to one another at random and given pendant
    arcs up to degree at least 8, so path3 and star4 components come with
    both outcomes of the valency condition.  Labels are shuffled."""
    size = draw(st.integers(2, 4))
    star = size == 4 and draw(st.booleans())
    edges = [(0, w) for w in (1, 2, 3)] if star else [(w, w + 1) for w in range(size - 1)]
    hubs = range(size, size + draw(st.integers(0, 3)))
    arcs = {a for u, v in edges for a in ((u, v), (v, u))}
    for a, b in itertools.combinations(hubs, 2):
        arcs.update(draw(st.sampled_from(((), [(a, b)], [(b, a)], [(a, b), (b, a)]))))
    n = hubs.stop
    for v in range(size):
        need = 6 - 2 * sum(v in e for e in edges)
        free = list(hubs)
        while need:
            w = draw(st.sampled_from(free + [n]))
            if w == n:
                n += 1
            else:
                free.remove(w)
            if need >= 2 and draw(st.booleans()):
                arcs.update(((v, w), (w, v)))
                need -= 2
            else:
                arcs.add(draw(st.sampled_from(((v, w), (w, v)))))
                need -= 1
    for h in hubs:
        pendants = max(0, 8 - sum(h in a for a in arcs)) + draw(st.integers(0, 1))
        for w in range(n, n + pendants):
            arcs.add(draw(st.sampled_from(((h, w), (w, h)))))
        n += pendants
    label = draw(st.permutations(range(n)))
    return Digraph(n, [(label[u], label[v]) for u, v in arcs])


def assert_matches_the_oracles(d: Digraph) -> None:
    assert [c.to_json() for c in d6_components(d)] == [
        c.to_json() for c in oracle_d6_components(d)
    ]
    for params in PARAMS:
        assert discharge(d, params).to_json() == oracle_discharge(d, params).to_json()


class TestD6:
    def test_k4_is_one_other_component(self, k4):
        comps = d6_components(k4)
        assert len(comps) == 1
        assert comps[0].vertices == (0, 1, 2, 3)
        assert comps[0].klass == "other"

    def test_oriented_graph_empty(self, c3):
        assert d6_components(c3) == []

    def test_path2(self):
        comps = d6_components(path2_host())
        assert [(c.vertices, c.klass) for c in comps] == [((0, 1), "path2")]

    def test_star4_reports_the_leaf_valencies(self):
        # Centre 0 joined by digons to the leaves 1, 2, 3; each leaf reaches
        # degree 6 through four simple arcs.  Leaf 1's go to 4 and 5, which
        # share a digon and reach degree 8 through pendant arcs, so
        # nu_N(1) = nu(4) + nu(5) = 4; leaves 2 and 3 have light neighbours.
        arcs = [a for leaf in (1, 2, 3) for a in ((0, leaf), (leaf, 0))]
        arcs += [(1, 4), (1, 5), (6, 1), (7, 1)]
        arcs += [(leaf, w) for leaf in (2, 3) for w in (6, 7)]
        arcs += [(w, leaf) for leaf in (2, 3) for w in (8, 9)]
        arcs += [(4, 5), (5, 4)] + [(4, w) for w in range(10, 15)]
        arcs += [(5, w) for w in range(15, 20)]
        d = Digraph(20, arcs)
        assert d6_vertices(d) == [0, 1, 2, 3]
        assert neighbourhood_valency(d, 1) == 4
        (comp,) = d6_components(d)
        assert comp.to_json() == {
            "vertices": [0, 1, 2, 3], "class": "star4",
            "valency_condition": {1: True, 2: False, 3: False},
        }

    def test_degree6_without_digon_excluded(self):
        # degree 6 from six simple arcs: not in D6
        arcs = [(0, i) for i in range(1, 4)] + [(i, 0) for i in range(4, 7)]
        assert d6_components(Digraph(7, arcs)) == []

    @staticmethod
    def _flooded_d6(d: Digraph) -> list[tuple[int, ...]]:
        # The reference copies D[D6] out and floods its adjacency sets.
        verts = d6_vertices(d)
        if not verts:
            return []
        sub, mapping = induced(d, verts)
        back = {new: old for old, new in mapping.items()}
        return [tuple(sorted(back[v] for v in c)) for c in oracle_components(sub)]

    @settings(max_examples=150, deadline=None)
    @given(mixed_digraphs(max_n=9))
    def test_matches_induced_flood(self, d):
        found = [c.vertices for c in d6_components(d)]
        assert found == self._flooded_d6(d)

    @settings(max_examples=150, deadline=None)
    @given(mixed_digraphs(max_n=9))
    def test_components_and_ledgers_match_the_oracles(self, d):
        assert_matches_the_oracles(d)

    @settings(max_examples=150, deadline=None)
    @given(digon_trees())
    def test_digon_trees_match_the_oracles(self, d):
        assert_matches_the_oracles(d)

    @pytest.mark.parametrize("n", [7, 13, 19, 25])
    def test_matches_induced_flood_on_4ore(self, n):
        for seed in range(5):
            d, _ = generate_4ore(n, seed=seed)
            found = [c.vertices for c in d6_components(d)]
            assert found == self._flooded_d6(d), (n, seed)


class TestValencies:
    def test_all_low_degree(self, k4):
        assert all(valency8(k4, v) == 0 for v in range(4))

    def test_digon_to_heavy_neighbour_counts_two(self):
        # 0 has degree 6 (digons to 1, 2, 3); 1 is inflated to degree 8
        arcs = []
        for w in (1, 2, 3):
            arcs += [(0, w), (w, 0)]
        arcs += [(1, 4), (4, 1), (1, 5), (5, 1), (1, 6), (6, 1)]
        d = Digraph(7, arcs)
        assert d.degree(1) == 8
        assert valency8(d, 0) == 2
        assert neighbourhood_valency(d, 0) == valency8(d, 1)

    def test_star_centre_with_three_heavy_single_arcs(self):
        # nu counts arcs to 8+ vertices: three single arcs give 3
        arcs = [(0, 1), (0, 2), (0, 3)]
        hub = 4
        for heavy in (1, 2, 3):
            for leaf in range(hub, hub + 4):
                arcs += [(heavy, leaf), (leaf, heavy)]
            hub += 4
        d = Digraph(16, arcs)
        assert all(d.degree(h) == 9 for h in (1, 2, 3))
        assert valency8(d, 0) == 3

    def test_nu_n_requires_d6_membership(self, c3):
        with pytest.raises(DigraphError):
            neighbourhood_valency(c3, 0)

    @pytest.mark.parametrize("v", [-1, 7])
    def test_nu_n_rejects_vertices_outside_the_digraph(self, v):
        # vertex 6 is in D6: degree 6 with three digons
        d = Digraph(7, [(6, u) for u in range(3)] + [(u, 6) for u in range(3)])
        assert neighbourhood_valency(d, 6) == 0
        with pytest.raises(DigraphError):
            neighbourhood_valency(d, v)
        with pytest.raises(DigraphError):
            valency8(d, v)


class TestDischarge:
    def test_k4_worked_ledger(self, k4):
        ledger = discharge(k4, REFERENCE_PARAMS)
        for v in range(4):
            assert ledger.sigma[v] == F(1, 34)
            assert ledger.initial[v] == F(11, 34)
        assert ledger.transfers == []
        assert ledger.total_initial() == F(22, 17)
        assert ledger.total_initial() >= potential(k4, REFERENCE_PARAMS) == F(20, 17)

    def test_heavy_vertices_without_a_d6_neighbour(self):
        # Every vertex of bidirected K5..K8 has degree at least 8 and only
        # such neighbours, so d(u) - nu(u) = 0: no R2 amount may be computed.
        for n in range(5, 9):
            d = bidirected_complete(n)
            ledger = discharge(d, REFERENCE_PARAMS)
            assert ledger.transfers == []
            assert ledger.to_json() == oracle_discharge(d, REFERENCE_PARAMS).to_json()

    def test_low_degree_no_transfers(self, c5_bi):
        ledger = discharge(c5_bi, REFERENCE_PARAMS)
        assert ledger.transfers == []
        for v in range(5):
            assert ledger.initial[v] == F(10, 3) + F(1, 51) - F(4, 2)

    def test_r1_sends_six_shares(self):
        # degree-6 digon-free hub: R1 fires to all six neighbours
        arcs = [(0, i) for i in range(1, 4)] + [(i, 0) for i in range(4, 7)]
        d = Digraph(7, arcs)
        ledger = discharge(d, REFERENCE_PARAMS)
        r1 = [t for t in ledger.transfers if t.rule == "R1" and t.source == 0]
        assert len(r1) == 6
        assert all(t.amount == F(1, 12) - F(1, 51) / 8 for t in r1)

    def test_r2_fires_toward_heavy_neighbour(self):
        arcs = []
        for w in (1, 2, 3):
            arcs += [(0, w), (w, 0)]
        arcs += [(1, 4), (4, 1), (1, 5), (5, 1), (1, 6), (6, 1)]
        d = Digraph(7, arcs)
        ledger = discharge(d, REFERENCE_PARAMS)
        r2 = [t for t in ledger.transfers if t.rule == "R2" and t.target == 1]
        assert r2, "degree-6 digon vertex must discharge into its 8+ neighbour"
        divisor = d.degree(1) - valency8(d, 1)
        per_arc = (F(-10, 3) + F(8, 2) - F(1, 51)) / divisor
        assert sum(t.amount for t in r2 if t.source == 0) == 2 * per_arc

    def test_r3_direction(self):
        # degree-7 vertex with in-degree 3 sends to its in-neighbours
        arcs = [(i, 0) for i in (1, 2, 3)] + [(0, i) for i in (4, 5, 6, 7)]
        d = Digraph(8, arcs)
        ledger = discharge(d, REFERENCE_PARAMS)
        r3 = [t for t in ledger.transfers if t.rule == "R3"]
        assert sorted(t.target for t in r3) == [1, 2, 3]

    @pytest.mark.parametrize("n", range(13, 32, 3))
    def test_4ore_ledgers_match_the_oracle(self, n):
        # Inputs the size of the analyse and negative benchmark jobs, under
        # PARAMS and a pair whose denominators 7 and 11 divide none of the
        # others, so that L is no denominator of the inputs' own.
        for seed in range(10):
            for d in (generate_4ore(n, seed=seed)[0], swapped_4ore(n, seed)):
                for params in (*PARAMS, PotentialParams(F(1, 7), F(3, 11))):
                    ledger = discharge(d, params)
                    assert ledger.to_json() == oracle_discharge(d, params).to_json()
                    assert ledger.total_initial() == ledger.total_final()

    @settings(max_examples=60)
    @given(digraphs(max_n=7))
    def test_conservation_exact(self, d):
        # holds for any non-negative parameters, feasible or not
        for params in PARAMS:
            ledger = discharge(d, params)
            assert ledger.total_initial() == ledger.total_final()

    @settings(max_examples=40)
    @given(digraphs(max_n=6))
    def test_total_charge_dominates_potential(self, d):
        t = max_packing(d).value
        rho = potential_with_packing_value(d, REFERENCE_PARAMS, t)
        assert discharge(d, REFERENCE_PARAMS).total_initial() >= rho


class TestPhiIdentify:
    def test_class_sizes_2_1_1(self, seven_vertex_composition):
        d = seven_vertex_composition
        phi = {0: 1, 1: 1, 2: 2, 3: 3}  # 0,1 nonadjacent after composition
        result = phi_identify(d, [0, 1, 2, 3], phi)
        assert result.digraph.n == d.n - 1
        xs = result.class_vertices
        for a, b in itertools.combinations(xs, 2):
            assert result.digraph.has_digon(a, b)

    def test_empty_class_still_creates_vertex(self, seven_vertex_composition):
        # {0,1} and {2,4} are both non-adjacent pairs, so two colours cover R
        d = seven_vertex_composition
        phi = {0: 1, 1: 1, 2: 2, 4: 2}
        result = phi_identify(d, [0, 1, 2, 4], phi)
        x3 = result.class_vertices[2]
        assert set(result.digraph.neighbours(x3)) == set(result.class_vertices[:2])

    def test_identification_not_3_dicolourable(self, seven_vertex_composition):
        d = seven_vertex_composition
        sub, mapping = induced(d, [0, 1, 2, 3])
        col = is_k_dicolourable(sub, 3)
        phi = {v: col.colours[mapping[v]] for v in [0, 1, 2, 3]}
        result = phi_identify(d, [0, 1, 2, 3], phi)
        assert is_k_dicolourable(result.digraph, 3) is None

    def test_identification_not_3_dicolourable_larger_host(self):
        # same property on a 10-vertex 4-dicritical host, several subsets
        from dicrit.ore import generate_4ore
        d, _ = generate_4ore(10, seed=2)
        checked = 0
        for subset in itertools.combinations(range(d.n), 4):
            sub, mapping = induced(d, subset)
            col = is_k_dicolourable(sub, 3)
            if col is None:
                continue
            phi = {v: col.colours[mapping[v]] for v in subset}
            result = phi_identify(d, subset, phi)
            assert result.digraph.n <= 13
            assert is_k_dicolourable(result.digraph, 3) is None
            checked += 1
            if checked >= 5:
                break
        assert checked == 5

    def test_invalid_phi_rejected(self, seven_vertex_composition):
        with pytest.raises(DigraphError):
            # 2 and 3 share a digon, same colour is not a dicolouring
            phi_identify(seven_vertex_composition, [0, 1, 2, 3], {0: 1, 1: 2, 2: 3, 3: 3})

    def test_non_integer_colour_rejected(self, seven_vertex_composition):
        # 1.0 == 1, so only its type tells it from a colour in 1..3
        phi = {0: 1.0, 1: 1, 2: 2, 3: 3}
        with pytest.raises(DigraphError, match="integer colours"):
            phi_identify(seven_vertex_composition, [0, 1, 2, 3], phi)

    def test_vertex_count_formula(self, seven_vertex_composition):
        d = seven_vertex_composition
        for r_size in (4, 5):
            for subset in itertools.combinations(range(d.n), r_size):
                sub, mapping = induced(d, subset)
                col = is_k_dicolourable(sub, 3)
                if col is None:
                    continue
                phi = {v: col.colours[mapping[v]] for v in subset}
                result = phi_identify(d, subset, phi)
                assert result.digraph.n == d.n - r_size + 3
                break


class TestDicriticalExtension:
    def test_core_bounds_and_dicritical_extender(self, seven_vertex_composition):
        d = seven_vertex_composition
        sub, mapping = induced(d, [0, 1, 2, 3])
        col = is_k_dicolourable(sub, 3)
        phi = {v: col.colours[mapping[v]] for v in [0, 1, 2, 3]}
        ext = dicritical_extension(d, [0, 1, 2, 3], phi)
        assert 1 <= len(ext.core) <= 3
        from dicrit.colouring import is_k_dicritical
        assert is_k_dicritical(ext.extender, 4).verdict

    def test_extension_potential_dominates(self, seven_vertex_composition):
        d = seven_vertex_composition
        sub, mapping = induced(d, [0, 1, 2, 3])
        col = is_k_dicolourable(sub, 3)
        phi = {v: col.colours[mapping[v]] for v in [0, 1, 2, 3]}
        ext = dicritical_extension(d, [0, 1, 2, 3], phi)
        assert potential(ext.extension, ZERO_PARAMS) >= potential(d, ZERO_PARAMS)

    def test_k4_extender_when_identification_is_k4(self, seven_vertex_composition):
        # pick R = everything but one vertex and a phi that sees all three
        # colours in its neighbourhood: the identification is K4 itself, so
        # the peeled extender must be that K4 with a full core.
        d = seven_vertex_composition
        target = None
        for v0 in range(d.n):
            rest = [w for w in range(d.n) if w != v0]
            sub, mapping = induced(d, rest)
            for col in itertools.product(range(1, 4), repeat=sub.n):
                if not valid_dicolouring(sub, col):
                    continue
                nbr_colours = {col[mapping[u]] for u in d.neighbours(v0)}
                if nbr_colours == {1, 2, 3}:
                    target = (v0, rest, {w: col[mapping[w]] for w in rest})
                    break
            if target:
                break
        assert target is not None
        v0, rest, phi = target
        ext = dicritical_extension(d, rest, phi)
        assert ext.identified == bidirected_complete(4)
        assert len(ext.core) == 3
        assert ext.extension_vertices == frozenset(range(d.n))


    @pytest.mark.parametrize("n, seed", [(10, 0), (13, 1)])
    def test_peel_matches_a_digraph_per_trial(self, monkeypatch, n, seed):
        # the peel clears one bit of the bitsets per trial; its extender is
        # the one that rebuilding a Digraph per trial and asking
        # is_k_dicolourable gives, and it rebuilds none
        d = generate_4ore(n, seed)[0]
        r = list(range(6))
        sub, mapping = induced(d, r)
        col = is_k_dicolourable(sub, 3)
        phi = {v: col.colours[mapping[v]] for v in r}
        current = h = phi_identify(d, r, phi).digraph
        for arc in h.sorted_arcs():
            trial = current.without_arcs([arc])
            if is_k_dicolourable(trial, 3) is None:
                current = trial
        kept = tuple(v for v in current.vertices() if current.degree(v) > 0)

        def no_rebuild(*args):
            raise AssertionError("the peel rebuilt a digraph")

        monkeypatch.setattr(Digraph, "without_arcs", no_rebuild)
        ext = dicritical_extension(d, r, phi)
        assert ext.extender_vertices == kept
        assert ext.extender == induced(current, kept)[0]


class TestCollapsible:
    def test_bidirected_p4_in_seven_vertex_host(self, seven_vertex_composition):
        d = seven_vertex_composition
        quad = None
        for cand in itertools.combinations(range(d.n), 4):
            s, _ = induced(d, cand)
            degs = sorted(len(s.neighbours(v)) for v in range(4))
            if s.is_bidirected() and len(underlying_edges(s)) == 3 and degs == [1, 1, 2, 2]:
                quad = cand
                break
        assert quad is not None
        ok, witness = is_collapsible(d, quad)
        assert not ok
        assert witness is not None and set(witness) == set(quad)
