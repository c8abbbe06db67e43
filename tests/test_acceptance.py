"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 2 is split into clauses.  The arc-count identity 3m = 10n - 4
holds on the whole corpus.  The packing clause checks the floor
T(D) >= (n+2)/3 and the statement its proof inducts on, T(D - p - q) >=
(n-1)/3 for every digon [p,q]; the potential clause checks the bound
rho(D) <= 4/3 + eps n - delta (n+2)/3 that follows from the floor and the
identity.  Both bounds are tight at K4.  The stronger floor 2(n-1)/3 is
false from n = 13 on: ``test_criterion_2_counterexample_is_genuine`` pins a
13-vertex 4-Ore digraph with T = 7 < 8 and re-derives every fact about it
with independent brute force.  ``docs/decisions.md`` holds the refutation
and the proof of the corrected floor.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from dicrit.census import census
from dicrit.colouring import is_k_dicolourable, is_k_dicritical
from dicrit.constructions import (
    ConstructionSpec,
    all_gadgets,
    build_g3,
    build_gk,
    certify_dicritical_composition,
    gadget_forces_distinct,
)
from dicrit.digraph import (
    bidirected_complete,
    directed_cycle,
    induced,
    parse,
)
from dicrit.iso import find_isomorphism
from dicrit.ore import generate_4ore, is_4ore, j_vertices, ore_compose, replay
from dicrit.packing import max_packing
from dicrit.potential import (
    REFERENCE_PARAMS,
    audit_params,
    check_4ore_arc_identity,
    check_oriented_bound,
    potential_with_packing_value,
)
from dicrit.structure import discharge

from .conftest import random_digraph, random_bidirected
from .oracles import oracle_chromatic_number, oracle_max_packing_value, underlying_edges

F = Fraction

#: A 13-vertex 4-Ore digraph with T(D) = 7 < 8 = 2(n-1)/3, frozen from
#: generate_4ore(13, seed=13): it refutes the floor T(D) >= 2(n-1)/3, while
#: the proved floor (n+2)/3 = 5 holds (docs/decisions.md).
COUNTEREXAMPLE_DG = """\
n 13 m 42
0 2
0 3
0 12
1 2
1 3
1 9
1 11
2 0
2 1
2 5
3 0
3 1
3 4
3 6
4 3
4 5
4 6
5 2
5 4
5 6
6 3
6 4
6 5
7 8
7 9
7 10
8 7
8 9
8 10
9 1
9 7
9 8
9 12
10 7
10 8
10 11
11 1
11 10
11 12
12 0
12 9
12 11
"""


def _pass(criterion: str, started: float, message: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS ({time.time() - started:.2f}s): {message}")


@pytest.fixture(scope="module")
def corpus_packing(ore_corpus):
    """T(D) for every corpus instance (exact, shared by criteria 2 and 8)."""
    return {seed: max_packing(d).value for seed, d, _ in ore_corpus}


def test_criterion_1_small_dicritical_instances():
    t0 = time.time()
    k4_report = is_k_dicritical(bidirected_complete(4), 4)
    assert k4_report.verdict and len(k4_report.witnesses) == 12
    assert is_k_dicritical(bidirected_complete(3), 3).verdict
    for n in range(2, 8):
        assert is_k_dicritical(directed_cycle(n), 2).verdict
    _pass("1", t0, "K4 (12 witnesses), K3, and directed n-cycles (n <= 7) verified")


def test_criterion_2_arc_identity(ore_corpus):
    t0 = time.time()
    for seed, d, _ in ore_corpus:
        assert check_4ore_arc_identity(d), f"identity fails at seed {seed}"
    _pass("2 (arc identity)", t0, "3m = 10n - 4 exact on all 200 instances")


def test_criterion_2_packing_lower_bound(ore_corpus, corpus_packing):
    # T(D) >= (n+2)/3 on every instance, with equality at K4, and the
    # induction statement T(D - p - q) >= (n-1)/3 for every digon [p,q] of
    # every instance with n <= 13.  Proof: docs/decisions.md.
    t0 = time.time()
    violations = []
    for seed, d, _ in ore_corpus:
        t = corpus_packing[seed]
        if 3 * t < d.n + 2:
            violations.append((seed, d.n, t))
        if d.n == 4:
            assert 3 * t == d.n + 2, f"T(K4) = {t}, expected 2 (seed {seed})"
    if violations:
        seed, n, t = violations[0]
        pytest.fail(
            f"T(D) >= (n+2)/3 fails on {len(violations)}/200 corpus instances "
            f"(first: seed={seed}, n={n}, T={t} < {F(n + 2, 3)}).  The floor is "
            f"proved in docs/decisions.md, so the packing search is at fault."
        )
    deletions = 0
    for seed, d, _ in ore_corpus:
        if d.n > 13:
            continue
        for p, q in d.digons():
            rest, _ = induced(d, [w for w in range(d.n) if w not in (p, q)])
            t = max_packing(rest).value
            assert 3 * t >= d.n - 1, (
                f"T(D - p - q) >= (n-1)/3 fails at seed={seed}, n={d.n}, "
                f"digon [{p},{q}]: T={t}.  The statement is proved in "
                f"docs/decisions.md."
            )
            deletions += 1
    _pass(
        "2 (packing bound)", t0,
        f"T(D) >= (n+2)/3 on all 200 instances (tight at K4), "
        f"T(D - p - q) >= (n-1)/3 on {deletions} digon deletions (n <= 13)",
    )


def test_criterion_2_potential_bound(ore_corpus, corpus_packing):
    # rho(D) <= 4/3 + eps n - delta (n+2)/3 at (1/51, 2/17), exact rationals:
    # the packing floor under the arc identity.  At the reference pair the
    # bound is 4/3 - (n+4)/51, which equals rho(K4) = 20/17 at n = 4.
    t0 = time.time()
    eps, delta = REFERENCE_PARAMS.eps, REFERENCE_PARAMS.delta
    violations = []
    for seed, d, _ in ore_corpus:
        rho = potential_with_packing_value(d, REFERENCE_PARAMS, corpus_packing[seed])
        bound = F(4, 3) + eps * d.n - delta * F(d.n + 2, 3)
        if rho > bound:
            violations.append((seed, d.n, rho, bound))
        if d.n == 4:
            assert rho == bound == F(20, 17), f"seed {seed}: rho(K4) = {rho}"
    if violations:
        seed, n, rho, bound = violations[0]
        pytest.fail(
            f"rho <= 4/3 + eps n - delta (n+2)/3 fails on {len(violations)}/200 "
            f"instances (first: seed={seed}, n={n}, rho={rho} > {bound}).  "
            f"See docs/decisions.md."
        )
    _pass(
        "2 (potential bound)", t0,
        "rho(D) <= 4/3 - (n+4)/51 on all 200 instances, equality at K4",
    )


def test_criterion_2_counterexample_is_genuine():
    """The refutation of T(D) >= 2(n-1)/3: every fact about the pinned
    13-vertex instance re-derived with independent brute force."""
    t0 = time.time()
    d = parse(COUNTEREXAMPLE_DG)
    assert d.n == 13 and d.is_bidirected()
    assert check_4ore_arc_identity(d)
    # Independent packing value: exhaustive recursion, no shared code with
    # the branch-and-bound.  T = 7 while the refuted bound needs 8.
    assert oracle_max_packing_value(d) == 7
    assert max_packing(d).value == 7
    # The underlying graph is 4-critical: brute-force proper colouring.
    edges = sorted(underlying_edges(d))
    assert oracle_chromatic_number(d.n, edges) == 4
    for gone in edges:
        assert oracle_chromatic_number(d.n, [e for e in edges if e != gone]) == 3
    # Exact solver concurs, and the decomposition search finds a 4-Ore trace.
    assert is_k_dicritical(d, 4).verdict
    assert is_4ore(d) is not None
    _pass(
        "2 (counterexample)", t0,
        "pinned 13-vertex 4-Ore instance has T = 7 < 8, verified independently",
    )


def test_criterion_3_solver_confirms_corpus_dicriticality(ore_corpus):
    t0 = time.time()
    checked = 0
    for seed, d, _ in ore_corpus:
        if d.n <= 11:
            assert is_k_dicritical(d, 4).verdict, f"seed {seed} not 4-dicritical"
            checked += 1
    assert checked >= 50
    _pass("3", t0, f"solver confirmed 4-dicriticality of {checked} instances (n <= 11)")


def test_criterion_4_packing_lemma_suite():
    t0 = time.time()
    # exhaustive-oracle equality plus the vertex-deletion Lipschitz property
    for seed in range(500):
        d = random_digraph(seed, max_n=9)
        t = oracle_max_packing_value(d)
        assert max_packing(d).value == t, f"seed {seed}"
        for v in range(d.n):
            rest, _ = induced(d, [w for w in range(d.n) if w != v])
            assert oracle_max_packing_value(rest) >= t - 1, f"seed {seed}, vertex {v}"
    # superadditivity under Ore-composition, strengthened when a side is K4
    rng = random.Random(12345)
    k4 = bidirected_complete(4)
    composed = 0
    strengthened = 0
    while composed < 100:
        if composed % 3 == 0:
            d1 = k4 if composed % 6 == 0 else random_bidirected(rng, rng.randint(4, 8))
            d2 = random_bidirected(rng, rng.randint(4, 8)) if composed % 6 == 0 else k4
        else:
            d1 = random_bidirected(rng, rng.randint(4, 8))
            d2 = random_bidirected(rng, rng.randint(4, 8))
        if not d1.digons():
            continue
        z = rng.randrange(d2.n)
        nbrs = list(d2.neighbours(z))
        if len(nbrs) < 2:
            continue
        rng.shuffle(nbrs)
        cut = rng.randrange(1, len(nbrs))
        x, y = rng.choice(d1.digons())
        d, _ = ore_compose(d1, (x, y), d2, z, nbrs[:cut], nbrs[cut:])
        t, t1, t2 = (max_packing(g).value for g in (d, d1, d2))
        assert t >= t1 + t2 - 2
        if d1 == k4 or d2 == k4:
            assert t >= t1 + t2 - 1
            strengthened += 1
        composed += 1
    assert strengthened >= 30
    _pass(
        "4", t0,
        f"500 oracle equalities + Lipschitz, 100 compositions "
        f"({strengthened} with a K4 side)",
    )


def test_criterion_5_subdigraph_potential(ore_corpus):
    t0 = time.time()
    scanned = 0
    for seed, d, _ in ore_corpus:
        if d.n > 9:
            continue
        for size in range(1, d.n):
            for subset in itertools.combinations(range(d.n), size):
                sub, _ = induced(d, subset)
                assert F(10, 3) * sub.n - sub.m >= F(10, 3), (seed, subset)
        scanned += 1
    assert scanned >= 25
    _pass("5", t0, f"exhaustive proper-subdigraph scan over {scanned} instances (n <= 9)")


def test_criterion_6_constructions():
    t0 = time.time()
    g3, layout3 = build_g3(1)
    assert (g3.n, g3.m) == (12, 30)
    base_report = certify_dicritical_composition(3)
    assert base_report.ok() and base_report.lower_bound_method == "solver"
    assert base_report.witnesses_checked == 30

    g4, layout4 = build_gk(4, ConstructionSpec(k=4))
    assert (g4.n, g4.m) == (76, 330)
    ok, slack = check_oriented_bound(g4)
    assert ok and slack == F(1295, 17)
    assert 330 <= F(9, 2) * 76
    gadgets = list(all_gadgets(layout4))
    assert len(gadgets) == 18
    for gadget in gadgets:
        assert gadget_forces_distinct(g4, gadget.tail, gadget.head, gadget.triangle)

    report = certify_dicritical_composition(4, witness_sample=30, seed=0)
    assert report.ok()
    assert report.lower_bound_method == "compositional"
    assert report.sampled and report.witnesses_checked == 30
    assert not report.assumed
    _pass(
        "6", t0,
        "G3 fully solver-certified; G4 = 76/330, slack 1295/17, 18 gadgets "
        "force, compositional certificate + 30 sampled witnesses",
    )


def test_criterion_7_parameter_audit():
    t0 = time.time()
    rows = audit_params(REFERENCE_PARAMS)
    failures = [label for label, ok in rows if not ok]
    assert not failures, failures
    _pass("7", t0, f"all {len(rows)} catalogue rows hold exactly at (1/51, 2/17)")


def test_criterion_8_discharging(ore_corpus, corpus_packing):
    t0 = time.time()
    k4 = bidirected_complete(4)
    ledger = discharge(k4, REFERENCE_PARAMS)
    assert all(ledger.sigma[v] == F(1, 34) for v in range(4))
    assert all(ledger.initial[v] == F(11, 34) for v in range(4))
    assert ledger.total_initial() == F(22, 17)
    assert ledger.total_initial() >= potential_with_packing_value(
        k4, REFERENCE_PARAMS, 2
    ) == F(20, 17)
    for seed, d, _ in ore_corpus:
        led = discharge(d, REFERENCE_PARAMS)
        assert led.total_initial() == led.total_final(), f"seed {seed}"
        rho = potential_with_packing_value(d, REFERENCE_PARAMS, corpus_packing[seed])
        assert led.total_initial() >= rho, f"seed {seed}"
    _pass("8", t0, "conservation and charge/potential domination exact on 200 + K4")


def test_criterion_9_census():
    t0 = time.time()
    table2 = census(2, 5)
    for n in range(2, 6):
        assert table2.d_min[n] == n
        assert any(
            find_isomorphism(rec.digraph, directed_cycle(n)) is not None
            for rec in table2.witnesses[n]
        )
    table3 = census(3, 3)
    assert table3.d_min[3] == 6
    assert any(
        find_isomorphism(rec.digraph, bidirected_complete(3)) is not None
        for rec in table3.witnesses[3]
    )
    table4 = census(4, 4)
    assert table4.d_min[4] == 12
    assert any(
        find_isomorphism(rec.digraph, bidirected_complete(4)) is not None
        for rec in table4.witnesses[4]
    )
    for n, records in table4.witnesses.items():
        for rec in records:
            assert F(rec.arc_count) >= F(10, 3) * rec.n - F(4, 3)
    _pass("9", t0, "d_2(n) = n (cycle witnesses), d_3(3) = 6, d_4(4) = 12")


def test_criterion_10_recognition_roundtrip(ore_corpus):
    t0 = time.time()
    checked = 0
    for seed, d, _ in ore_corpus:
        if d.n > 13:
            continue
        trace = is_4ore(d)
        assert trace is not None, f"seed {seed} not recognised"
        assert find_isomorphism(replay(trace), d) is not None, f"seed {seed} replay mismatch"
        checked += 1
    assert checked >= 75
    _pass("10", t0, f"{checked} recognition round-trips (n <= 13), replay isomorphic")


def test_criterion_11_base_clique_colour_suite():
    t0 = time.time()
    digon_cases = vertex_cases = 0
    for n in (4, 7, 10):
        for seed in range(8):
            d, trace = generate_4ore(n, seed=seed, j_preserving=True)
            base = j_vertices(trace)
            assert base == (0, 1, 2, 3)
            jset = set(base)
            for u, v in d.digons():
                if u in jset and v in jset:
                    col = is_k_dicolourable(d.without_arcs([(u, v), (v, u)]), 3)
                    assert col is not None
                    assert len({col.colours[j] for j in base}) == 3
                    assert col.colours[u] == col.colours[v]
                    digon_cases += 1
            for v in base:
                rest, mapping = induced(d, [w for w in range(d.n) if w != v])
                col = is_k_dicolourable(rest, 3)
                assert col is not None
                assert len({col.colours[mapping[j]] for j in base if j != v}) == 3
                vertex_cases += 1
    assert digon_cases >= 24 and vertex_cases == 96
    _pass(
        "11", t0,
        f"{digon_cases} digon-deleted and {vertex_cases} vertex-deleted "
        f"colourings keep the base clique rainbow",
    )
