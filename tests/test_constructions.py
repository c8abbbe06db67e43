import itertools
import random
from dataclasses import replace
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from dicrit import constructions
from dicrit.budget import Budget
from dicrit.colouring import dichromatic_number
from dicrit.constructions import (
    ConstructionSpec,
    all_gadgets,
    build_g3,
    build_gk,
    certify_dicritical_composition,
    gadget_forces_distinct,
    predicted_counts,
)
from dicrit.digraph import Digraph, DigraphError, induced
from dicrit.packing import max_packing

from .oracles import valid_dicolouring


class TestBuildG3:
    @pytest.mark.parametrize("n0, n, m", [(1, 12, 30), (2, 20, 50), (3, 28, 70)])
    def test_counts(self, n0, n, m):
        g, _ = build_g3(n0)
        assert (g.n, g.m) == (n, m)

    def test_oriented_and_packing_free(self):
        g, _ = build_g3(1)
        assert g.is_oriented()
        assert max_packing(g).value == 0

    def test_seeded_orientation_still_counts(self):
        g, layout = build_g3(2, orientation_seed=7)
        assert (g.n, g.m) == (20, 50)
        assert g.is_oriented()
        assert len(list(all_gadgets(layout))) == 5

    def test_bad_n0(self):
        with pytest.raises(DigraphError):
            build_g3(0)


class TestBuildGk:
    def test_g4_counts(self):
        g, layout = build_gk(4, ConstructionSpec(k=4))
        assert (g.n, g.m) == (76, 330)
        assert g.is_oriented()
        assert len(layout.tournament_arcs) == 6

    def test_g4_n0_2_counts(self):
        g, _ = build_gk(4, ConstructionSpec(k=4, n0=2))
        assert (g.n, g.m) == (124, 546)

    def test_ratio_bound_k4(self):
        g, _ = build_gk(4, ConstructionSpec(k=4))
        # m_k <= (2k - 7/2) n_k, here 330 <= 9/2 * 76 = 342
        assert 2 * g.m <= 9 * g.n

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_count_recurrences(self, k, n0):
        g, _ = build_gk(k, ConstructionSpec(k=k, n0=n0))
        assert (g.n, g.m) == predicted_counts(k, n0)
        assert 2 * g.m <= (4 * k - 7) * g.n

    def test_largest_instance_pinned(self):
        assert predicted_counts(6, 3) == (25881, 217815)

    def test_custom_tournament(self):
        cyclic = ((0, 1), (1, 2), (2, 0))
        spec = ConstructionSpec(k=4, tournaments={3: cyclic})
        with pytest.raises(DigraphError):
            # a 3-cycle is not a tournament on 4 vertices
            build_gk(4, ConstructionSpec(k=4, tournaments={4: cyclic}))
        g, _ = build_gk(4, spec)  # level-3 override is ignored by level 4
        assert (g.n, g.m) == (76, 330)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(3, 5),
        st.integers(1, 2),
        st.none() | st.integers(0, 10_000),
        st.integers(0, 10_000),
    )
    def test_layout_indexes_the_wiring(self, k, n0, orientation_seed, seed):
        # gadget i and copy i are found by index alone; the arc set of the
        # built digraph must wire each one as its arc says
        spec = replace(_random_spec(k, seed), n0=n0, cycle_orientation_seed=orientation_seed)
        g, layout = build_gk(k, spec)

        gadgets = list(all_gadgets(layout))
        assert len({v for gadget in gadgets for v in gadget.triangle}) == 3 * len(gadgets)
        copies = prod(comb(level, 2) for level in range(4, k + 1))
        assert len(gadgets) == (2 * n0 + 1) * copies
        for gadget in gadgets:
            a, b, c = gadget.triangle
            assert g.has_arc(gadget.tail, gadget.head)
            assert g.has_arc(a, b) and g.has_arc(b, c) and g.has_arc(c, a)
            for t in gadget.triangle:
                assert g.has_arc(gadget.head, t) and g.has_arc(t, gadget.tail)

        if k == 3:
            return
        n_sub = layout.sub_digraph.n
        assert layout.copy_offset(len(layout.tournament_arcs)) == g.n
        for i, (x, y) in enumerate(layout.tournament_arcs):
            block = range(k + i * n_sub, k + (i + 1) * n_sub)
            assert layout.copy_offset(i) == block[0]
            assert g.has_arc(x, y)
            assert all(g.has_arc(y, t) and g.has_arc(t, x) for t in block)
            assert induced(g, block)[0] == layout.sub_digraph


class TestGadget:
    def test_every_gadget_in_g3_forces(self):
        g, layout = build_g3(1)
        gadgets = list(all_gadgets(layout))
        assert len(gadgets) == 3
        for gadget in gadgets:
            assert gadget_forces_distinct(g, gadget.tail, gadget.head, gadget.triangle)

    def test_broken_gadget_fails(self):
        g, layout = build_g3(1)
        gadget = next(all_gadgets(layout))
        broken = g.without_arcs([(gadget.triangle[0], gadget.tail)])
        assert not gadget_forces_distinct(
            broken, gadget.tail, gadget.head, gadget.triangle
        )

    def test_degenerate_inputs_rejected(self):
        g, layout = build_g3(1)
        gadget = next(all_gadgets(layout))
        with pytest.raises(DigraphError):
            gadget_forces_distinct(g, gadget.tail, gadget.tail, gadget.triangle)
        with pytest.raises(DigraphError):
            gadget_forces_distinct(g, gadget.triangle[0], gadget.head, gadget.triangle)


class TestCertify:
    def test_k3_full_solver_certificate(self):
        report = certify_dicritical_composition(3)
        assert report.ok()
        assert report.lower_bound_method == "solver"
        assert report.witnesses_checked == report.witnesses_total == 30
        assert not report.sampled and not report.assumed

    def test_k4_compositional_certificate_all_arcs(self):
        report = certify_dicritical_composition(4)
        assert report.ok()
        assert report.lower_bound_method == "compositional"
        assert report.witnesses_checked == report.witnesses_total == 330
        assert not report.sampled and not report.assumed
        assert report.sub_certificate.lower_bound_method == "solver"

    def test_k4_sampled_certificate_flags_sampling(self):
        report = certify_dicritical_composition(4, witness_sample=30, seed=1)
        assert report.ok()
        assert report.sampled
        assert report.witnesses_checked == 30

    @pytest.mark.parametrize("sample", [0, -3])
    def test_sample_must_be_positive(self, sample):
        # a sample of 0 would check no witness above level 3 and still be ok
        with pytest.raises(DigraphError, match=f"witness_sample must be at least 1, got {sample}"):
            certify_dicritical_composition(4, witness_sample=sample)

    def test_k5_certificate_checks_every_obligation(self):
        # every witness, the connection arcs' included, is built from the
        # construction and checked; nothing is left assumed
        report = certify_dicritical_composition(5, witness_sample=40, seed=2)
        assert report.ok()
        assert report.lower_bound_method == "compositional"
        assert report.assumed == []
        assert report.witnesses_checked == 40
        level = report.sub_certificate
        assert level.k == 4
        while level is not None:
            considered = 40 if level.sampled else level.witnesses_total
            assert level.witnesses_checked == considered
            assert level.assumed == [] and level.witness_failures == []
            level = level.sub_certificate

    def test_builds_the_construction_once(self, monkeypatch):
        # every level certifies the sub-digraph its parent's layout holds
        calls = []
        real_build = constructions.build_g3

        def counting_build(*args):
            calls.append(args)
            return real_build(*args)

        monkeypatch.setattr(constructions, "build_g3", counting_build)
        assert certify_dicritical_composition(5, witness_sample=40, seed=2).ok()
        assert len(calls) == 1

    def test_level_below_3_is_rejected(self):
        with pytest.raises(DigraphError, match="constructions start at k = 3"):
            certify_dicritical_composition(2, ConstructionSpec(k=4))

    @pytest.mark.parametrize("k, spec_k", [(4, 5), (5, 4), (3, 4)])
    def test_spec_for_another_level_is_rejected(self, k, spec_k):
        with pytest.raises(DigraphError, match=f"with a spec for k = {spec_k}"):
            certify_dicritical_composition(k, ConstructionSpec(k=spec_k))

    def test_level_above_the_spec_is_rejected(self):
        with pytest.raises(DigraphError, match="level 5 lies above the spec's k = 4"):
            build_gk(5, ConstructionSpec(k=4))
        with pytest.raises(DigraphError, match="constructions start at k = 3"):
            build_gk(2, ConstructionSpec(k=4))
        # levels below the spec's k are the ones its own recursion builds
        assert build_gk(3, ConstructionSpec(k=4))[0] == build_g3(1)[0]

    @pytest.mark.parametrize("case", ["tournament", "head to copy", "copy to tail"])
    def test_missing_wiring_fails_the_premises(self, case):
        # every witness still checks on the digraph minus one more arc, so
        # only the structural premises can catch the missing wiring
        g, layout = build_gk(4, ConstructionSpec(k=4))
        x, y = layout.tournament_arcs[2]
        t = layout.copy_offset(2) + 5
        arc = {"tournament": (x, y), "head to copy": (y, t), "copy to tail": (t, x)}[case]
        report = constructions._certify_level(
            g.without_arcs([arc]), layout, Budget(), None, random.Random(0)
        ).report
        assert not report.structural_ok and not report.lower_bound_ok
        assert report.witness_failures == []
        assert not report.ok()

    def test_g3_is_3_dicritical_end_to_end(self):
        g, _ = build_g3(1)
        assert dichromatic_number(g) == 3
        assert certify_dicritical_composition(3).witness_failures == []


def _random_spec(k, seed):
    """Seeded random tournaments at every level and a seeded cycle
    orientation."""
    rng = random.Random(seed)
    tournaments = {
        level: tuple(
            (u, v) if rng.random() < 0.5 else (v, u)
            for u, v in itertools.combinations(range(level), 2)
        )
        for level in range(4, k + 1)
    }
    return ConstructionSpec(k=k, cycle_orientation_seed=seed, tournaments=tournaments)


def _record_checks(monkeypatch):
    """Every (digraph, colouring) the certifier hands to its checker; a
    check of D minus an arc is recorded with that digraph rebuilt."""
    checked = []
    real_check = constructions.check_dicolourings

    def recording_check(d, checks):
        checks = list(checks)
        for colouring, removed in checks:
            if removed is None:
                checked.append((d, colouring))
            else:
                assert d.has_arc(*removed)
                checked.append((Digraph(d.n, d.arcs - {removed}), colouring))
        return real_check(d, checks)

    monkeypatch.setattr(constructions, "check_dicolourings", recording_check)
    return checked


class TestWitnessOracle:
    """Every deletion witness the certifier checks also passes the
    Kahn-peeling oracle, which shares no code with the package's cycle
    search, on the digraph minus exactly one arc."""

    @pytest.mark.parametrize(
        "k, seed, sample", [(4, 1, None), (4, 2, None), (4, 3, None), (5, 4, 40)]
    )
    def test_witnesses_pass_the_oracle(self, monkeypatch, k, seed, sample):
        spec = _random_spec(k, seed)
        checked = _record_checks(monkeypatch)
        report = certify_dicritical_composition(k, spec, witness_sample=sample)
        assert report.ok()

        for d, colouring in checked:
            assert valid_dicolouring(Digraph(d.n, d.arcs), colouring.colours)
        level = report
        while level.k > 3:
            g, _ = build_gk(level.k, spec)
            deleted = []
            for d, colouring in checked:
                if d.n == g.n and d != g:
                    assert colouring.k == level.k - 1
                    (arc,) = g.arcs - d.arcs
                    assert d.arcs == g.arcs - {arc}
                    deleted.append(arc)
            considered = sample if level.sampled else g.m
            assert len(set(deleted)) == len(deleted) == considered
            assert level.witnesses_checked == considered
            assert level.assumed == []
            level = level.sub_certificate
        assert level.assumed == [] and level.witnesses_checked == 30

    @pytest.mark.parametrize("k", [4, 5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_references_are_composed(self, monkeypatch, k, seed):
        # every level below the top gets one reference, checked once on its
        # own graph: a chi-dicolouring with vertex 0 alone in colour chi
        spec = _random_spec(k, seed)
        checked = _record_checks(monkeypatch)
        assert certify_dicritical_composition(k, spec, witness_sample=40).ok()
        for chi in range(3, k):
            g, _ = build_gk(chi, spec)
            (reference,) = [colouring for d, colouring in checked if d == g]
            colours = reference.colours
            assert reference.k == chi
            assert valid_dicolouring(Digraph(g.n, g.arcs), colours)
            assert set(colours) == set(range(1, chi + 1))
            assert [v for v, c in enumerate(colours) if c == chi] == [0]


class TestWitnessMutation:
    """A witness recoloured at one vertex so that it closes a monochromatic
    cycle fails its check, and only that witness does."""

    @pytest.mark.parametrize("k, sample", [(4, None), (5, 40)])
    def test_recoloured_witness_fails(self, monkeypatch, k, sample):
        spec = _random_spec(k, 1)
        g, layout = build_gk(k, spec)
        triangles = [gadget.triangle for gadget in all_gadgets(layout)]
        real = constructions._deletion_witness
        mutated = []

        def recolouring(level, arc):
            witness = real(level, arc)
            if mutated or level.digraph.n != g.n:
                return witness
            colours = list(witness.colours)
            # A gadget triangle t0 -> t1 -> t2 -> t0 that avoids the arc and
            # has two ends of one colour: the third end takes that colour.
            for t in triangles:
                ends = {t[0]: t[1], t[1]: t[2], t[2]: t[0]}
                if ends.get(arc[0]) == arc[1] or len({colours[v] for v in t}) != 2:
                    continue
                odd = next(v for v in t if [colours[w] for w in t].count(colours[v]) == 1)
                colours[odd] = next(colours[v] for v in t if v != odd)
                break
            mutated.append(arc)
            assert not valid_dicolouring(Digraph(g.n, g.arcs - {arc}), colours)
            return replace(witness, colours=tuple(colours))

        monkeypatch.setattr(constructions, "_deletion_witness", recolouring)
        report = certify_dicritical_composition(k, spec, witness_sample=sample)
        considered = sample or g.m
        assert report.witness_failures == mutated
        assert report.witnesses_checked == considered - 1
        assert not report.ok()
        assert report.sub_certificate.ok()
