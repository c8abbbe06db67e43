import itertools
import random
from dataclasses import replace
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from dicrit import colouring, constructions
from dicrit.budget import Budget
from dicrit.colouring import Colouring, check_dicolourings, dichromatic_number, is_k_dicritical
from dicrit.constructions import (
    ConstructionSpec,
    G3Layout,
    GkLayout,
    all_gadgets,
    build_g3,
    build_gk,
    certify_dicritical_composition,
    gadget_forces_distinct,
)
from dicrit.digraph import Digraph, DigraphError, induced
from dicrit.packing import max_packing

from .oracles import oracle_build_gk, valid_dicolouring


def predicted_counts(k, n0):
    """(n_k, m_k) from the recurrences of the constructions module's
    docstring, exactly."""
    n, m = 4 * (2 * n0 + 1), 10 * (2 * n0 + 1)
    for level in range(4, k + 1):
        pairs = comb(level, 2)
        n, m = level + pairs * n, pairs + pairs * 2 * n + pairs * m
    return n, m


def _with_tournament(last_arc):
    """G_4 over the transitive tournament with its arc (2, 3) replaced."""
    arcs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), last_arc)
    return build_gk(4, ConstructionSpec(k=4, tournaments={4: arcs}))


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

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ConstructionSpec(k=2), "constructions start at k = 3"),
            (lambda: ConstructionSpec(k=4, n0=0), "n0 must be at least 1"),
            (lambda: _with_tournament((2, 4)), r"invalid tournament arc \(2, 4\)"),
            (lambda: _with_tournament((2, 2)), r"invalid tournament arc \(2, 2\)"),
            (lambda: _with_tournament((3, 1)), r"two arcs on pair \(1, 3\)"),
            (
                lambda: gadget_forces_distinct(build_g3(1)[0], 0, 1, (3, 4)),
                "exactly three vertices",
            ),
        ],
        ids=["k2", "n0", "arc-out-of-range", "loop", "pair-twice", "two-gadget-vertices"],
    )
    def test_invalid_input_is_rejected(self, build, message):
        with pytest.raises(DigraphError, match=message):
            build()

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

    @pytest.mark.parametrize("seed", [None, 3, 11])
    @pytest.mark.parametrize("n0", [1, 2])
    @pytest.mark.parametrize("k", [4, 5])
    def test_rows_equal_the_listed_arcs(self, k, n0, seed):
        # build_gk shifts the sub-level's rows; the digraph must be the one
        # its arcs, listed copy by copy, give to the validating constructor
        spec = ConstructionSpec(k=k, n0=n0)
        if seed is not None:
            spec = replace(_random_spec(k, seed), n0=n0)
        built, _ = build_gk(k, spec)
        n, arcs = oracle_build_gk(k, spec)
        listed = Digraph(n, arcs)
        assert built.n == listed.n == n
        assert built.m == listed.m == len(arcs)
        assert built.sorted_arcs() == listed.sorted_arcs() == sorted(arcs)
        assert built.out_masks == listed.out_masks
        assert built.in_masks == listed.in_masks
        assert [built.out_neighbours(v) for v in range(n)] == [
            listed.out_neighbours(v) for v in range(n)
        ]
        assert built.arcs == listed.arcs == frozenset(arcs)
        assert built == listed and hash(built) == hash(listed)


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
        assert report.lower_bound_method == "gadgets"
        assert report.witnesses_checked == report.witnesses_total == 30
        assert not report.sampled and not report.assumed

    def test_k4_compositional_certificate_all_arcs(self):
        report = certify_dicritical_composition(4)
        assert report.ok()
        assert report.lower_bound_method == "compositional"
        assert report.witnesses_checked == report.witnesses_total == 330
        assert not report.sampled and not report.assumed
        assert report.sub_certificate.lower_bound_method == "gadgets"

    def test_k4_sampled_certificate_flags_sampling(self):
        report = certify_dicritical_composition(4, witness_sample=30, seed=1)
        assert report.ok()
        assert report.sampled
        assert report.witnesses_checked == 30

    def test_sample_draws_the_listed_arcs(self, monkeypatch):
        # the sample is drawn by index, with the draws that sampling the
        # list of sorted arcs makes
        g, layout = build_gk(4, ConstructionSpec(k=4))
        arcs = g.sorted_arcs()
        decided = _spy_decided(monkeypatch)
        for seed in range(40):
            decided.clear()
            constructions._certify_level(g, layout, 30, random.Random(seed))
            assert decided[4] == sorted(random.Random(seed).sample(arcs, 30))

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

    def test_levels_above_3_list_no_arcs(self, monkeypatch):
        # every level above 3 is composed from the rows below it, and
        # neither build_gk nor the certifier reads its arc set
        built = []
        real_build = constructions.build_gk

        def recording_build(level, spec):
            d, layout = real_build(level, spec)
            built.append(d)
            return d, layout

        sizes = []
        real_init = Digraph.__init__

        def counting_init(self, n, arcs=()):
            sizes.append(n)
            real_init(self, n, arcs)

        monkeypatch.setattr(constructions, "build_gk", recording_build)
        monkeypatch.setattr(Digraph, "__init__", counting_init)
        report = certify_dicritical_composition(5)
        assert report.ok() and report.witnesses_checked == 4830
        assert [d.n for d in built] == [12, 76, 765]
        assert all(d._arcs is None for d in built[1:])
        assert sizes and set(sizes) == {12}

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
            g.without_arcs([arc]), layout, None, random.Random(0)
        ).report
        assert not report.structural_ok and not report.lower_bound_ok
        assert report.witness_failures == []
        assert not report.ok()

    def test_g3_is_3_dicritical_end_to_end(self):
        g, _ = build_g3(1)
        assert dichromatic_number(g) == 3
        assert certify_dicritical_composition(3).witness_failures == []


def _wired_g3(n0, cycle_arcs):
    """The base construction's digraph over any ``cycle_arcs``, wired as
    build_g3 wires its own: gadget i on vertices 2 n0 + 1 + 3i onwards."""
    length = 2 * n0 + 1
    arcs = list(cycle_arcs)
    for i, (x, y) in enumerate(cycle_arcs):
        t = [length + 3 * i + j for j in range(3)]
        arcs += [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])]
        arcs += [(y, w) for w in t] + [(w, x) for w in t]
    return Digraph(4 * length, arcs)


def _wired_gk(k, tournament_arcs, sub):
    """The level-k construction over any ``sub`` digraph, wired as
    build_gk wires its copies."""
    arcs = list(tournament_arcs)
    for i, (x, y) in enumerate(tournament_arcs):
        block = range(k + i * sub.n, k + (i + 1) * sub.n)
        arcs += [(u + block[0], v + block[0]) for u, v in sub.sorted_arcs()]
        arcs += [(y, w) for w in block] + [(w, x) for w in block]
    return Digraph(k + len(tournament_arcs) * sub.n, arcs)


class TestGadgetCertificate:
    """Level 3 is certified from the construction's own argument: the
    premises on the bitsets, the lower bound from the gadgets and the odd
    cycle, and one constructed witness per arc, each still peeled."""

    @pytest.mark.parametrize("n0", [1, 2, 3, 4])
    def test_witnesses_agree_with_the_solver(self, n0):
        for seed in [None, *range(10)]:
            g, layout = build_g3(n0, seed)
            assert is_k_dicritical(g, 3).verdict
            assert constructions._g3_premises(g, layout)
            witnesses = constructions._g3_witnesses(layout)
            assert list(witnesses) == g.sorted_arcs()
            for arc, witness in witnesses.items():
                assert witness.k == 2
                assert valid_dicolouring(Digraph(g.n, g.arcs - {arc}), witness.colours)
            for gadget in all_gadgets(layout):
                assert gadget_forces_distinct(g, gadget.tail, gadget.head, gadget.triangle)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_certify_runs_no_search(self, monkeypatch, k):
        def no_search(*args):
            raise AssertionError("the solver searched")

        monkeypatch.setattr(colouring, "_first_assignment", no_search)
        budget = Budget()
        report = certify_dicritical_composition(k, budget=budget)
        assert report.ok() and budget.used == 0
        while report.k > 3:
            report = report.sub_certificate
        assert report.lower_bound_method == "gadgets"

    @pytest.mark.parametrize("n0, seed", [(1, None), (2, 3)])
    @pytest.mark.parametrize(
        "case", ["extra arc", "cycle arc", "triangle arc", "head to triangle", "triangle to tail"]
    )
    def test_broken_premises_decide_nothing(self, n0, seed, case):
        g, layout = build_g3(n0, seed)
        gadget = next(all_gadgets(layout))
        x, y, (t0, t1, _) = gadget.tail, gadget.head, gadget.triangle
        if case == "extra arc":
            # from x into a triangle of a gadget it does not serve: (0, 6)
            # on build_g3(1)
            other = next(h for h in all_gadgets(layout) if x not in (h.tail, h.head))
            broken = g.with_arcs([(x, other.triangle[0])])
        else:
            arc = {
                "cycle arc": (x, y),
                "triangle arc": (t0, t1),
                "head to triangle": (y, t0),
                "triangle to tail": (t0, x),
            }[case]
            broken = g.without_arcs([arc])
        report = constructions._certify_level(
            broken, layout, None, random.Random(0)
        ).report
        assert not report.structural_ok and not report.lower_bound_ok
        assert report.witnesses_checked == 0 and report.witness_failures == []
        assert not report.ok()

    def test_cycle_that_is_not_the_labelled_one_fails(self):
        # wired exactly as its layout says, but the arc on {3, 4} moved to
        # the chord {1, 3}: the arcs no longer join i and i + 1 mod L
        arcs = tuple(sorted([(0, 1), (1, 2), (2, 3), (1, 3), (4, 0)]))
        report = constructions._certify_level(
            _wired_g3(2, arcs), G3Layout(2, arcs), None, random.Random(0)
        ).report
        assert not report.structural_ok and report.witnesses_checked == 0
        assert not report.ok()
        # the same wiring over the labelled cycle passes
        good = tuple(sorted([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
        assert _wired_g3(2, good) == build_g3(2)[0]
        assert constructions._certify_level(
            _wired_g3(2, good), G3Layout(2, good), None, random.Random(0)
        ).report.ok()

    def test_layout_of_another_order_fails(self):
        g, _ = build_g3(1)
        _, layout = build_g3(2)
        report = constructions._certify_level(g, layout, None, random.Random(0)).report
        assert not report.structural_ok and not report.ok()

    def test_failed_sub_level_fails_its_parent(self):
        # the sub-level's premises fail, so it has no witness to compose a
        # reference from and peels nothing: the parent decides no witness
        # and raises nothing
        g3, l3 = build_g3(1)
        g4, l4 = build_gk(4, ConstructionSpec(k=4))
        layout = GkLayout(4, l4.tournament_arcs, g3.without_arcs([(0, 1)]), l3)
        level = constructions._certify_level(g4, layout, None, random.Random(0))
        assert not level.sub.report.structural_ok
        assert level.sub.witnesses == {} and level.sub.rejected == level.sub.cold == set()
        report = level.report
        assert report.witnesses_checked == 0 and report.witness_failures == []
        assert not report.lower_bound_ok and not report.ok()

    @pytest.mark.parametrize("sample", [None, 40])
    def test_failed_level_3_fails_every_level_above(self, sample):
        # level 4 is built over a level 3 missing a triangle arc, so its own
        # premises hold; neither it nor level 5 decides a witness
        _, l5 = build_gk(5, ConstructionSpec(k=5))
        l4 = l5.sub_layout
        g3, l3 = l4.sub_digraph, l4.sub_layout
        t0, t1, _ = next(all_gadgets(l3)).triangle
        bad3 = g3.without_arcs([(t0, t1)])
        bad4 = _wired_gk(4, l4.tournament_arcs, bad3)
        layout = GkLayout(5, l5.tournament_arcs, bad4, GkLayout(4, l4.tournament_arcs, bad3, l3))
        top = constructions._certify_level(
            _wired_gk(5, l5.tournament_arcs, bad4), layout, sample, random.Random(0)
        )
        assert [lv.report.structural_ok for lv in _levels(top)] == [True, True, False]
        for lv in _levels(top):
            assert lv.report.witnesses_checked == 0 and lv.report.witness_failures == []
            assert not lv.report.lower_bound_ok and not lv.report.ok()
            assert lv.rejected == lv.cold == set()


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


def _record_calls(monkeypatch):
    """Every call the certifier makes to its checker, as the digraph and
    the list of (colouring, removed arc) pairs it was handed."""
    calls = []
    real_check = constructions.check_dicolourings

    def recording_check(d, checks):
        checks = list(checks)
        calls.append((d, checks))
        return real_check(d, checks)

    monkeypatch.setattr(constructions, "check_dicolourings", recording_check)
    return calls


def _spy_decided(monkeypatch):
    """Level -> the arcs the certifier hands ``_decide_witnesses``, in order."""
    decided = {}
    real_decide = constructions._decide_witnesses

    def recording_decide(level, arcs):
        decided[level.chi] = arcs = list(arcs)
        return real_decide(level, arcs)

    monkeypatch.setattr(constructions, "_decide_witnesses", recording_decide)
    return decided


def _certify(k, spec, sample=None):
    """The certified top level, with every level below it."""
    d, layout = build_gk(k, spec)
    return constructions._certify_level(d, layout, sample, random.Random(0))


def _levels(top):
    """The levels of a certificate from the top down to level 3."""
    level = top
    while level is not None:
        yield level
        level = level.sub


def _considered(top, sample):
    """Level -> the arcs its witness loop considers, drawn as the certifier
    has always drawn them: a sample of the listed sorted arcs, bottom up,
    from one generator seeded 0."""
    rng = random.Random(0)
    arcs = {}
    for level in reversed(list(_levels(top))[:-1]):
        g = level.digraph
        arcs[level.chi] = (
            sorted(rng.sample(g.sorted_arcs(), sample))
            if sample is not None and sample < g.m
            else g.sorted_arcs()
        )
    return arcs


def _reference_cold(level):
    """Does the base's reference fail, and with it every witness of this
    level, which lies above the base?"""
    *_, base = _levels(level)
    return base is not level and 0 in base.cold


def _rejected(level, arcs):
    """The arcs whose witness the level's sets fail: rejected, or above a
    base whose reference is cold."""
    every = _reference_cold(level)
    return [arc for arc in arcs if every or arc in level.rejected]


def _cold(level):
    """The vertices t whose ``_gamma(level, t)`` the level's sets fail."""
    every = _reference_cold(level)
    return [t for t in range(level.digraph.n) if every or t in level.cold]


def _cold_by_peel(level):
    """The vertices t whose ``_gamma(level, t)`` a peel on the level's
    graph rejects."""
    g, chi = level.digraph, level.chi
    gammas = [(Colouring(chi, constructions._gamma(level, t)), None) for t in range(g.n)]
    return [t for t, (ok, _) in enumerate(check_dicolourings(g, gammas)) if not ok]


def _full_failures(level, arcs):
    """The arcs whose composed witness the full check rejects on the
    level's graph minus the arc."""
    checked = check_dicolourings(
        level.digraph, [(constructions._deletion_witness(level, arc), arc) for arc in arcs]
    )
    return [arc for arc, (ok, _) in zip(arcs, checked) if not ok]


def _close_a_triangle(colours, triangle):
    """The colours with the odd end of the two-coloured ``triangle`` given
    the colour of its other two ends, which makes it monochromatic."""
    colours = list(colours)
    odd = next(v for v in triangle if [colours[w] for w in triangle].count(colours[v]) == 1)
    colours[odd] = next(colours[v] for v in triangle if v != odd)
    return tuple(colours)


class TestWitnessOracle:
    """Every deletion witness the certifier decides is also a dicolouring
    by the Kahn-peeling oracle, which shares no code with the package, on
    the digraph minus exactly one arc."""

    @pytest.mark.parametrize(
        "k, seed, sample", [(4, 1, None), (4, 2, None), (4, 3, None), (5, 4, 40)]
    )
    def test_witnesses_pass_the_oracle(self, monkeypatch, k, seed, sample):
        spec = _random_spec(k, seed)
        decided = _spy_decided(monkeypatch)
        top = _certify(k, spec, sample)
        assert top.report.ok()
        considered = _considered(top, sample)
        for level in _levels(top):
            g = level.digraph
            report = level.report
            assert report.assumed == [] and report.witness_failures == []
            assert level.rejected == level.cold == set()
            if level.sub is None:
                assert report.witnesses_checked == 30
                for arc, witness in level.witnesses.items():
                    assert valid_dicolouring(Digraph(g.n, g.arcs - {arc}), witness.colours)
                break
            arcs = considered[level.chi]
            assert len(set(arcs)) == len(arcs) == (sample if report.sampled else g.m)
            assert report.witnesses_checked == len(arcs)
            for arc in arcs:
                witness = constructions._deletion_witness(level, arc)
                assert witness.k == level.chi - 1
                assert valid_dicolouring(Digraph(g.n, g.arcs - {arc}), witness.colours)
            assert decided[level.chi] == arcs

    @pytest.mark.parametrize("k", [4, 5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_references_are_composed(self, k, seed):
        # every level below the top composes one reference, _gamma(sub, 0):
        # a chi-dicolouring with vertex 0 alone in colour chi, which the
        # lemma accepts
        top = _certify(k, _random_spec(k, seed), 40)
        assert top.report.ok()
        for level in list(_levels(top))[1:]:
            chi, g = level.chi, level.digraph
            colours = constructions._gamma(level, 0)
            assert valid_dicolouring(Digraph(g.n, g.arcs), colours)
            assert set(colours) == set(range(1, chi + 1))
            assert [v for v, c in enumerate(colours) if c == chi] == [0]
            assert 0 not in level.cold and not _reference_cold(level)

    @pytest.mark.parametrize("k", [4, 5, 6])
    @pytest.mark.parametrize("seed", [None, 5])
    def test_checker_sees_only_the_base(self, monkeypatch, k, seed):
        # above level 3 no colouring is built and none reaches
        # check_dicolourings: the lemma decides every witness and every
        # reference from one call, which peels level 3's constructed
        # witnesses and its _gamma colourings
        spec = ConstructionSpec(k=k) if seed is None else _random_spec(k, seed)
        g3, _ = build_gk(3, spec)
        calls = _record_calls(monkeypatch)
        sizes = []
        real_colouring = constructions.Colouring

        def recording_colouring(k, colours):
            sizes.append(len(colours))
            return real_colouring(k, colours)

        monkeypatch.setattr(constructions, "Colouring", recording_colouring)
        report = certify_dicritical_composition(k, spec)
        assert report.ok() and report.witnesses_checked == report.m
        assert sizes and set(sizes) == {g3.n}
        ((d, leaves),) = calls
        assert d == g3
        witnesses = {arc: colouring.colours for colouring, arc in leaves if arc}
        assert sorted(witnesses) == g3.sorted_arcs()
        gammas = [colouring.colours for colouring, arc in leaves if arc is None]
        for t, colours in enumerate(gammas):
            first = witnesses[t, g3.out_neighbours(t)[0]]
            assert colours == first[:t] + (3,) + first[t + 1:]
        assert len(gammas) == g3.n


class TestLemma:
    """The lemma's verdict on every arc equals the full check: the composed
    witness handed to check_dicolourings on the graph minus the arc."""

    @pytest.mark.parametrize("k, n0, seed", [(4, 1, 1), (4, 1, 2), (4, 2, 3), (4, 2, 4), (5, 1, 6)])
    def test_verdicts_match_the_full_check(self, monkeypatch, k, n0, seed):
        spec = replace(_random_spec(k, seed), n0=n0)
        decided = _spy_decided(monkeypatch)
        top = _certify(k, spec)
        assert top.report.ok()
        rng = random.Random(seed)
        for level in _levels(top):
            g = level.digraph
            arcs = g.sorted_arcs()
            assert decided[level.chi] == arcs
            assert _rejected(level, arcs) == _full_failures(level, arcs) == []
            assert _cold(level) == _cold_by_peel(level) == []
            for arc in rng.sample(arcs, 20):
                witness = constructions._deletion_witness(level, arc).colours
                assert valid_dicolouring(Digraph(g.n, g.arcs - {arc}), witness)

    @pytest.mark.parametrize("k", [4, 5])
    def test_quotients_match_the_full_check(self, k):
        # a colouring that puts the reference, which shows colour k - 1, in
        # the copy between the two tournament vertices of colour k - 1
        # closes a cycle through that copy, unless their arc is deleted; the
        # proof that condition (ii) always holds rests on this
        top = _certify(k, _random_spec(k, 7), 40)
        reference = constructions._gamma(top.sub, 0)
        assert set(reference) == set(range(1, k))
        for copy, arc in enumerate(top.layout.tournament_arcs):
            colouring = constructions._compose(top, arc, copy, reference)
            for removed in (None, arc):
                ((full, _),) = check_dicolourings(top.digraph, [(colouring, removed)])
                assert full == bool(removed)

    @pytest.mark.parametrize("k, seed", [(4, 1), (5, 2)])
    def test_witnesses_above_the_base_show_every_colour(self, k, seed):
        # a deletion witness at a level S >= 4 shows all of 1..S-1, from its
        # tournament alone
        top = _certify(k, _random_spec(k, seed))
        for level in list(_levels(top))[:-1]:
            full = set(range(1, level.chi))
            for arc in level.digraph.sorted_arcs():
                colours = constructions._deletion_witness(level, arc).colours
                assert set(colours[:level.chi]) == set(colours) == full

    @pytest.mark.parametrize("k, seed", [(4, 1), (4, 2), (5, 3)])
    def test_no_copy_joins_the_special_pair(self, k, seed):
        # the proof that condition (ii) of the lemma always holds, read off
        # the digraph and the composed colouring alone: the tournament shows
        # colour chi - 1 on two vertices x -> y and every other colour on
        # one, and a vertex of colour chi - 1 with both arcs y -> w -> x
        # left in G minus the arc appears exactly when x -> y is the arc
        top = _certify(k, _random_spec(k, seed))
        for level in list(_levels(top))[:-1]:
            g, chi = level.digraph, level.chi
            for arc in g.sorted_arcs():
                colours = constructions._deletion_witness(level, arc).colours
                pair = [w for w in range(chi) if colours[w] == chi - 1]
                assert len(pair) == 2 and len(set(colours[:chi])) == chi - 1
                x, y = pair if g.has_arc(*pair) else pair[::-1]
                # the vertices off the tournament with y -> w -> x in G minus the arc
                between = g.out_masks[y] & g.in_masks[x] & ~((1 << chi) - 1)
                if arc[0] == y:
                    between &= ~(1 << arc[1])
                if arc[1] == x:
                    between &= ~(1 << arc[0])
                shown = set()
                while between:
                    w = (between & -between).bit_length() - 1
                    shown.add(colours[w])
                    between &= between - 1
                assert (chi - 1 in shown) == (arc == (x, y)), arc

    def test_k6_every_witness_decided(self):
        report = certify_dicritical_composition(6)
        assert report.ok()
        assert (report.n, report.m) == (11_481, 95_415) == predicted_counts(6, 1)
        assert report.witnesses_checked == report.witnesses_total == 95_415
        assert not report.sampled and report.assumed == []


class TestWitnessMutation:
    """A constructed level-3 witness recoloured so that it closes a
    monochromatic triangle fails the certifier's own peel, and only that
    witness does; at every level above, exactly the arcs whose composed
    witness the full check rejects fail."""

    @pytest.mark.parametrize("k, sample", [(4, None), (5, 40), (5, None)])
    def test_recoloured_witness_fails(self, monkeypatch, k, sample):
        spec = _random_spec(k, 1)
        g3, layout3 = build_gk(3, spec)
        gadgets = list(all_gadgets(layout3))
        t0, t1, t2 = gadgets[0].triangle
        first = gadgets[1].triangle[0]
        cases = {
            # a triangle arc, with another gadget's triangle closed: no
            # _gamma colouring comes from its witness
            "triangle arc": ((t0, t1), gadgets[1].triangle),
            # a vertex's first out-arc, with its own triangle closed:
            # _gamma moves the vertex to a colour of its own and opens the
            # triangle again, so the copies' wiring arcs at it still pass
            "first out-arc": ((first, g3.out_neighbours(first)[0]), gadgets[1].triangle),
            # vertex 0's first out-arc: its _gamma is the reference, which
            # every composed witness above holds in some copy
            "reference arc": ((0, g3.out_neighbours(0)[0]), gadgets[0].triangle),
            # cycle vertex 1's first out-arc, with a gadget's triangle
            # closed: its _gamma fails too, and with it the copies' wiring
            # arcs at the vertex, while the tournament arcs, which follow
            # vertex 0, pass
            "gamma arc": ((1, g3.out_neighbours(1)[0]), gadgets[0].triangle),
        }
        real = constructions._g3_witnesses
        for case, (leaf, triangle) in cases.items():

            def patched(layout):
                witnesses = dict(real(layout))
                colours = _close_a_triangle(witnesses[leaf].colours, triangle)
                witnesses[leaf] = Colouring(2, colours)
                return witnesses

            monkeypatch.setattr(constructions, "_g3_witnesses", patched)
            top = _certify(k, spec, sample)
            assert not top.report.ok(), case
            considered = _considered(top, sample)
            *above, base = _levels(top)
            assert base.report.witness_failures == [leaf] == list(base.rejected)
            assert base.report.witnesses_checked == 29
            assert _cold(base) == _cold_by_peel(base)
            for level in above:
                # the sets' verdict on every arc and every _gamma of the
                # level, considered or not, is exact
                every = level.digraph.sorted_arcs()
                rejected = _full_failures(level, every)
                assert rejected == _rejected(level, every)
                assert _cold(level) == _cold_by_peel(level)
                arcs, failing = considered[level.chi], set(rejected)
                failures = [arc for arc in arcs if arc in failing]
                # a sample of 40 may miss the few arcs derived from a leaf
                assert failures or sample and case != "reference arc", case
                assert level.report.witness_failures == failures
                assert level.report.witnesses_checked == len(arcs) - len(failures)
            # in every copy the leaf's image fails and the wiring arcs at its
            # tail pass, unless the tail's _gamma fails too
            level4 = above[-1]
            if case in ("first out-arc", "gamma arc") and sample is None:
                wiring_fails = case == "gamma arc"
                for i, (x, y) in enumerate(level4.layout.tournament_arcs):
                    off = level4.layout.copy_offset(i)
                    t = off + leaf[0]
                    assert ((t, x) in level4.report.witness_failures) == wiring_fails
                    assert ((y, t) in level4.report.witness_failures) == wiring_fails
                    assert (t, off + leaf[1]) in level4.report.witness_failures
                    assert (x, y) not in level4.report.witness_failures
            top_arcs = considered[k]
            if case == "reference arc":
                assert top.report.witness_failures == top_arcs
            elif sample is None:
                assert len(top.report.witness_failures) < len(top_arcs)

    @pytest.mark.parametrize("k, sample", [(4, None), (5, 40)])
    def test_recoloured_reference_fails(self, monkeypatch, k, sample):
        # the base's reference _gamma(base, 0) with a gadget triangle closed:
        # every level's reference unrolls to it, and every composed witness
        # above the base holds a reference in some copy, so every one fails
        spec = _random_spec(k, 2)
        real = constructions._gamma
        triangle = next(all_gadgets(build_gk(3, spec)[1])).triangle

        def recolouring(sub, t):
            colours = real(sub, t)
            if t == 0 and sub.chi == 3:
                colours = _close_a_triangle(colours, triangle)
            return colours

        monkeypatch.setattr(constructions, "_gamma", recolouring)
        top = _certify(k, spec, sample)
        *above, base = _levels(top)
        assert base.report.ok() and base.rejected == set() and base.cold == {0}
        considered = _considered(top, sample)
        for level in above:
            assert _reference_cold(level)
            arcs = considered[level.chi]
            assert level.report.witness_failures == _full_failures(level, arcs) == arcs
            assert level.report.witnesses_checked == 0 and not level.report.ok()
        every = list(range(top.digraph.n))
        assert _cold(top) == _cold_by_peel(top) == every

    @pytest.mark.parametrize("case", ["copy to copy", "copy to tournament", "tournament to copy"])
    def test_extra_arc_fails_the_premises(self, case):
        # the lemma needs every copy wired to the rest through its two ends
        # only; a level whose premises fail decides no witness
        g, layout = build_gk(4, ConstructionSpec(k=4))
        (x, y), (x1, _) = layout.tournament_arcs[0], layout.tournament_arcs[1]
        t = layout.copy_offset(0) + 5
        z = next(w for w in range(4) if w not in (x, y))
        arc = {
            "copy to copy": (t, layout.copy_offset(1) + 5),
            "copy to tournament": (t, z),
            "tournament to copy": (z, t),
        }[case]
        report = constructions._certify_level(
            g.with_arcs([arc]), layout, None, random.Random(0)
        ).report
        assert not report.structural_ok and not report.lower_bound_ok
        assert report.witnesses_checked == 0 and report.witness_failures == []
        assert not report.ok()
