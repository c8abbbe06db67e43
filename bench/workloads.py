"""The four benchmark workloads: seeded corpora, jobs and answer checks.

A corpus is a list of rounds.  Every round holds one job per entry of the
workload's ``kinds``, drawn from its own ``random.Random`` seeded by the
workload name, the workload seed and the round index, so any prefix of
rounds has the same mix and the first rounds of a long corpus equal a
short one.  A job's inputs are DG-v1 texts (plus plain parameters); what
the check needs to know is kept apart in ``expect`` and never reaches the
program.

``run`` calls only public functions of ``dicrit.*``, looked up on the
module at call time so the tracer's wrappers are seen.  ``check`` returns
an error string (None when the answer is right) and a dict of counts taken
from the answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

import checks

#: The potential parameters every ore-analyse job uses, written out here
#: rather than read from the package: (eps, delta) = (1/51, 2/17).
EPS, DELTA = Fraction(1, 51), Fraction(2, 17)

#: census(k, 5) tables of the seed commit.  tests/test_census.py and the
#: acceptance tests assert the subset d_2(n) = n, o_2(2) = None,
#: o_2(3) = 3, d_3(3) = 6, d_4(4) = 12, o_4(4) = None.  Per k:
#: d_min, o_min, and the number of d / o witnesses, indexed by n = 2..5.
CENSUS_TABLES = {
    2: ((2, 3, 4, 5), (None, 3, 4, 5), (1, 1, 1, 1), (0, 1, 1, 1)),
    3: ((None, 6, 9, 10), (None, None, None, None), (0, 1, 1, 1), (0, 0, 0, 0)),
    4: ((None, None, 12, 17), (None, None, None, None), (0, 0, 1, 1), (0, 0, 0, 0)),
}


@dataclass
class Job:
    kind: str
    texts: tuple[str, ...]
    params: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)

    def key(self) -> tuple:
        return (self.kind, self.texts, tuple(sorted(self.params.items())))


# -- helpers shared by the corpus builders -----------------------------------


def _relabel(lib, n: int, arcs, rng: random.Random, first=()) -> tuple[str, dict]:
    """DG-v1 text of the digraph under a random relabelling, and the
    relabelling; the vertices in ``first`` go to 0, 1, ... in order."""
    rest = [v for v in range(n) if v not in first]
    rng.shuffle(rest)
    perm = {v: i for i, v in enumerate([*first, *rest])}
    new = [(perm[u], perm[v]) for u, v in arcs]
    return lib.digraph.serialize(lib.digraph.Digraph(n, new)), perm


def _gen_4ore(lib, n: int, rng: random.Random):
    d, _ = lib.ore.generate_4ore(n, seed=rng.randrange(2**31))
    return d


def _bidirected_swap(lib, d, rng: random.Random):
    """A degree-preserving swap of two digons: {a,b},{c,e} -> {a,e},{c,b}."""
    edges = sorted((u, v) for u, v in d.arcs if u < v)
    while True:
        (a, b), (c, e) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, e = e, c
        if len({a, b, c, e}) < 4 or d.has_arc(a, e) or d.has_arc(c, b):
            continue
        arcs = set(d.arcs) - {(a, b), (b, a), (c, e), (e, c)}
        arcs |= {(a, e), (e, a), (c, b), (b, c)}
        return lib.digraph.Digraph(d.n, arcs)


def _budget(lib, limit: int, what: str):
    return lib.budget.Budget(limit, what)


# -- crit-ore -------------------------------------------------------------------


class CritOre:
    name = "crit-ore"
    why = ("is_k_dicritical on 4-Ore and G3 digraphs and near misses: the "
           "dicolouring solver works hardest here")
    # Ordered by cost, a round is 8 near misses below 5 ms, 4 g3-1 jobs
    # near 12 ms, and 8 heavier jobs, the top 3 of them g3-2.  The median
    # then falls in the middle of the g3-1 jobs, whose cost varies little,
    # and p90 inside the g3-2 jobs: each percentile falls inside one
    # kind, not in a gap between two.
    kinds = ("minus-16", "minus-16", "minus-16", "minus-16",
             "minus-19", "minus-19", "minus-19", "minus-19",
             "g3-1", "g3-1", "g3-1", "g3-1",
             "4ore-16", "4ore-19", "plus-22", "4ore-22", "4ore-25",
             "g3-2", "g3-2", "g3-2")
    tail_pct = 90
    corpus_rounds = 24
    trace_rounds = 4

    def job(self, lib, kind: str, rng: random.Random) -> Job:
        family, size = kind.split("-")
        size = int(size)
        if family == "g3":
            d, _ = lib.constructions.build_g3(size, orientation_seed=rng.randrange(2**31))
            text, _ = _relabel(lib, d.n, d.arcs, rng)
            return Job(kind, (text,), {"k": 3}, {"verdict": True})
        d = _gen_4ore(lib, size, rng)
        if family == "4ore":
            # The generator's own labels, as `dicrit ore gen` writes them.
            # The solver orders vertices by degree with ties by label, and
            # random labels make its cost heavy-tailed (a mean of 2.1 s
            # with standard deviation 1.1 s at n = 25, against 0.3 s).
            return Job(kind, (lib.digraph.serialize(d),), {"k": 4}, {"verdict": True})
        if family == "minus":
            # D - a is 3-dicolourable because D is 4-dicritical, so the
            # check stops at its first question.
            arc = rng.choice(sorted(d.arcs))
            text, _ = _relabel(lib, d.n, d.arcs - {arc}, rng)
            return Job(kind, (text,), {"k": 4}, {"verdict": False, "failure_arc": None})
        # plus: a new arc between two non-adjacent vertices, relabelled to
        # (0, 1) so it is the first arc checked; D + a - a = D refutes.
        pairs = [(x, y) for x in range(d.n) for y in range(d.n)
                 if x != y and not d.has_arc(x, y) and not d.has_arc(y, x)]
        x, y = rng.choice(pairs)
        text, _ = _relabel(lib, d.n, [*d.arcs, (x, y)], rng, first=(x, y))
        return Job(kind, (text,), {"k": 4}, {"verdict": False, "failure_arc": (0, 1)})

    def run(self, lib, job: Job):
        d = lib.digraph.parse(job.texts[0])
        budget = _budget(lib, lib.budget.DEFAULT_SOLVER_NODES, "dicriticality check")
        return lib.colouring.is_k_dicritical(d, job.params["k"], budget)

    def check(self, lib, job: Job, report):
        n, arcs = checks.read_dg(job.texts[0])
        k = job.params["k"]
        if report.verdict != job.expect["verdict"]:
            return f"verdict {report.verdict}", {}
        if not report.verdict:
            if report.failure_arc != job.expect["failure_arc"] or report.witnesses:
                return f"failure arc {report.failure_arc}", {}
            return None, {}
        if set(report.witnesses) != set(arcs):
            return "witnesses do not cover the arcs", {}
        for arc, w in report.witnesses.items():
            if w.k != k - 1 or any(not 1 <= c <= k - 1 for c in w.colours):
                return f"witness for {arc} uses more than {k - 1} colours", {}
            if not checks.classes_acyclic(n, arcs, w.colours, removed=arc):
                return f"witness for {arc} has a monochromatic cycle", {}
        return None, {}

    def warmup(self, lib, rng):
        return self.job(lib, "minus-16", rng)

    def baseline_rows(self, lib):
        """ROADMAP baseline instances: (label, ROADMAP nodes, budget spent)."""
        rows = []
        for label, nodes, d, k in (
            ("is_k_dicritical(generate_4ore(25, seed=3), 4)", 46_000,
             lib.ore.generate_4ore(25, seed=3)[0], 4),
            ("is_k_dicritical(build_g3(1), 3)", 4_200, lib.constructions.build_g3(1)[0], 3),
            ("is_k_dicritical(build_g3(2), 3)", 238_000, lib.constructions.build_g3(2)[0], 3),
        ):
            budget = _budget(lib, lib.budget.DEFAULT_SOLVER_NODES, "baseline")
            lib.colouring.is_k_dicritical(d, k, budget)
            rows.append((label, nodes, budget.used))
        return rows


# -- certify --------------------------------------------------------------------


def _level_counts(k: int, n0: int) -> dict[int, tuple[int, int]]:
    """(n, m) of every level 3..k, from the construction's recurrences."""
    n, m = 4 * (2 * n0 + 1), 10 * (2 * n0 + 1)
    counts = {3: (n, m)}
    for level in range(4, k + 1):
        pairs = level * (level - 1) // 2
        n, m = level + pairs * n, pairs + 2 * pairs * n + pairs * m
        counts[level] = (n, m)
    return counts


class Certify:
    name = "certify"
    why = ("certify_dicritical_composition for k = 4 and 5: Digraph rebuilds and "
           "cycle checks per witness take most of the time; the solver runs at level 3 only")
    # p50 and p75 both fall inside the cluster of k5 jobs.
    kinds = ("k4-1", "k4-1", "k5-1", "k5-1", "k5-1", "k5-1", "k4-2")
    witness_sample = 60
    tail_pct = 75
    corpus_rounds = 30
    trace_rounds = 3

    def job(self, lib, kind: str, rng: random.Random) -> Job:
        k, n0 = (int(x) for x in kind[1:].split("-"))
        texts = []
        for level in range(4, k + 1):
            arcs = [(i, j) if rng.random() < 0.5 else (j, i)
                    for i in range(level) for j in range(i + 1, level)]
            texts.append(lib.digraph.serialize(lib.digraph.Digraph(level, arcs)))
        params = {"k": k, "n0": n0, "orientation_seed": rng.randrange(2**31)}
        if k == 5:
            params["witness_sample"] = self.witness_sample
            params["seed"] = rng.randrange(2**31)
        return Job(kind, tuple(texts), params, {"levels": _level_counts(k, n0)})

    def run(self, lib, job: Job):
        p = job.params
        tournaments = {
            level: tuple(lib.digraph.parse(text).sorted_arcs())
            for level, text in enumerate(job.texts, start=4)
        }
        spec = lib.constructions.ConstructionSpec(
            k=p["k"], n0=p["n0"], cycle_orientation_seed=p["orientation_seed"],
            tournaments=tournaments,
        )
        budget = _budget(lib, lib.budget.DEFAULT_SOLVER_NODES, "construction certificate")
        return lib.constructions.certify_dicritical_composition(
            p["k"], spec, budget,
            witness_sample=p.get("witness_sample"), seed=p.get("seed", 0),
        )

    def check(self, lib, job: Job, report):
        sample = job.params.get("witness_sample")
        counts = {"witnesses_checked": 0, "assumed": 0, "arcs_considered": 0}
        if not report.ok():
            return "certificate not ok", counts
        level = report
        for k in range(job.params["k"], 2, -1):
            if level is None or level.k != k:
                return f"certificate chain lacks level {k}", counts
            n, m = job.expect["levels"][k]
            if (level.n, level.m, level.witnesses_total) != (n, m, m):
                return f"level {k} has n={level.n}, m={level.m}", counts
            if not (level.lower_bound_ok and level.structural_ok) or level.witness_failures:
                return f"level {k} certificate fails", counts
            sampled = k > 3 and sample is not None and sample < m
            considered = sample if sampled else m
            if level.sampled != sampled:
                return f"level {k} sampling flag {level.sampled}", counts
            if level.witnesses_checked + len(level.assumed) != considered:
                return (f"level {k}: {level.witnesses_checked} checked + "
                        f"{len(level.assumed)} assumed != {considered} arcs"), counts
            counts["witnesses_checked"] += level.witnesses_checked
            counts["assumed"] += len(level.assumed)
            counts["arcs_considered"] += considered
            level = level.sub_certificate
        if level is not None:
            return "certificate chain continues below level 3", counts
        return None, counts

    def warmup(self, lib, rng):
        return self.job(lib, "k4-1", rng)

    def baseline_rows(self, lib):
        return []


# -- ore-analyse ------------------------------------------------------------------


class OreAnalyse:
    name = "ore-analyse"
    why = ("4-Ore recognition, packing, potential, discharging, isomorphism and "
           "the collapsible scan, with no dicolouring search inside a job")
    kinds = ("analyse-13", "analyse-16", "analyse-19", "analyse-22", "analyse-25",
             "analyse-28", "analyse-31", "negative-19", "negative-25",
             "collapsible-13", "collapsible-16", "iso-25", "iso-31")
    collapsible_cap = 7
    # p95 falls inside the collapsible-16 jobs, the heaviest kind.
    tail_pct = 95
    corpus_rounds = 60
    trace_rounds = 6

    def job(self, lib, kind: str, rng: random.Random) -> Job:
        family, size = kind.split("-")
        d = _gen_4ore(lib, int(size), rng)
        if family == "negative":
            # Certified non-4-Ore: a 3-dicolouring, while every 4-Ore
            # digraph has dichromatic number 4.
            while True:
                swapped = _bidirected_swap(lib, d, rng)
                colouring = lib.colouring.is_k_dicolourable(swapped, 3)
                if colouring is not None:
                    break
            text, perm = _relabel(lib, d.n, swapped.arcs, rng)
            n, arcs = checks.read_dg(text)
            colours = [0] * n
            for old, new in perm.items():
                colours[new] = colouring.colours[old]
            if not checks.classes_acyclic(n, arcs, colours):
                raise RuntimeError(f"{kind}: the 3-dicolouring certificate fails")
            return Job(kind, (text,), {}, {"ore": False})
        if family == "iso":
            text_a, _ = _relabel(lib, d.n, d.arcs, rng)
            text_b, _ = _relabel(lib, d.n, d.arcs, rng)
            return Job(kind, (text_a, text_b))
        text, _ = _relabel(lib, d.n, d.arcs, rng)
        if family == "collapsible":
            return Job(kind, (text,), {"cap": self.collapsible_cap})
        return Job(kind, (text,), {}, {"ore": True})

    def run(self, lib, job: Job):
        family = job.kind.split("-")[0]
        if family == "iso":
            a = lib.digraph.parse(job.texts[0])
            b = lib.digraph.parse(job.texts[1])
            return lib.iso.find_isomorphism(a, b)
        d = lib.digraph.parse(job.texts[0])
        limit = lib.budget.DEFAULT_RECOGNITION_NODES
        if family == "collapsible":
            budget = _budget(lib, limit, "Ore-collapsible scan")
            return lib.ore.find_ore_collapsible(d, job.params["cap"], budget)
        params = lib.potential.REFERENCE_PARAMS
        trace = lib.ore.is_4ore(d, _budget(lib, limit, "4-Ore recognition"))
        packing_limit = lib.budget.DEFAULT_PACKING_NODES
        packing = lib.packing.max_packing(d, _budget(lib, packing_limit, "packing search"))
        rho = lib.potential.potential(d, params, _budget(lib, packing_limit, "packing search"))
        ledger = lib.structure.discharge(d, params)
        chelou = lib.structure.find_chelou_arcs(d)
        return SimpleNamespace(trace=trace, packing=packing, rho=rho,
                               ledger=ledger, chelou=chelou)

    def check(self, lib, job: Job, result):
        family = job.kind.split("-")[0]
        if family == "iso":
            n, arcs_a = checks.read_dg(job.texts[0])
            _, arcs_b = checks.read_dg(job.texts[1])
            if not checks.is_isomorphism(n, arcs_a, arcs_b, result):
                return "not an isomorphism", {}
            return None, {}
        n, arcs = checks.read_dg(job.texts[0])
        d = lib.digraph.parse(job.texts[0])
        if family == "collapsible":
            for subset, (u, v) in result:
                if checks.boundary(n, arcs, subset) != {u, v}:
                    return f"boundary of {sorted(subset)} is not {{{u}, {v}}}", {}
                if not 4 <= len(subset) <= job.params["cap"]:
                    return f"subset of size {len(subset)}", {}
                h_n, h_arcs = checks.with_digon(arcs, subset, u, v)
                h = lib.digraph.Digraph(h_n, h_arcs)
                error = _check_recognition(lib, h, h_n, h_arcs)
                if error:
                    return f"collapsible {sorted(subset)}: {error}", {}
            return None, {}
        if job.expect["ore"]:
            error = _check_recognition(lib, d, n, arcs)
            if error:
                return error, {}
        elif result.trace is not None:
            return "a certified non-4-Ore digraph was recognised", {}
        value = checks.packing_value(n, arcs)
        packing = result.packing
        if not (packing.optimal and lib.packing.verify_packing(d, packing)):
            return "packing invalid or not optimal", {}
        if packing.value != value:
            return f"packing value {packing.value}, expected {value}", {}
        if result.rho != checks.potential(n, len(arcs), value, EPS, DELTA):
            return f"potential {result.rho}", {}
        if result.ledger.total_initial() != result.ledger.total_final():
            return "discharging does not conserve charge", {}
        if result.chelou != ([], []):
            return "chelou arcs in a bidirected digraph", {}
        return None, {}

    def warmup(self, lib, rng):
        return self.job(lib, "analyse-13", rng)

    def baseline_rows(self, lib):
        return []


def _check_recognition(lib, d, n: int, arcs) -> str | None:
    """is_4ore finds a trace whose replay is isomorphic to d."""
    trace = lib.ore.is_4ore(d)
    if trace is None:
        return "a 4-Ore digraph was not recognised"
    replayed = lib.ore.replay(trace)
    mapping = lib.iso.find_isomorphism(replayed, d)
    if not checks.is_isomorphism(n, sorted(replayed.arcs), arcs, mapping):
        return "the recognition trace does not replay to the input"
    return None


# -- census ----------------------------------------------------------------------


class Census:
    name = "census"
    why = ("census(k, 5) for k = 2..4 over 1..3 shards: many tiny digraphs; the "
           "census module's own enumeration dominates")
    kinds = tuple(f"census-{k}-{s}" for k in (2, 3, 4) for s in (1, 2, 3))
    n_max = 5
    # census(3, 5) is the heaviest third of the round; p75 falls inside it.
    tail_pct = 75
    corpus_rounds = 16
    trace_rounds = 1

    def __init__(self):
        self._verified: dict[tuple, bool] = {}

    def job(self, lib, kind: str, rng: random.Random, n_max: int | None = None) -> Job:
        # census takes parameters, not a digraph: a round holds each (k,
        # shards) pair once, so inputs repeat across rounds.
        _, k, s = kind.split("-")
        return Job(kind, (), {"k": int(k), "nshards": int(s), "n_max": n_max or self.n_max})

    def run(self, lib, job: Job):
        p = job.params
        budget = _budget(lib, 50_000_000, "census")
        return lib.census.census(p["k"], p["n_max"], budget, nshards=p["nshards"])

    def check(self, lib, job: Job, table):
        k, n_max = job.params["k"], job.params["n_max"]
        d_min, o_min, d_count, o_count = CENSUS_TABLES[k]
        sizes = range(2, n_max + 1)
        expected = {n: (d_min[n - 2], o_min[n - 2], d_count[n - 2], o_count[n - 2])
                    for n in sizes}
        got = {n: (table.d_min.get(n), table.o_min.get(n),
                   len(table.witnesses.get(n, ())), len(table.oriented_witnesses.get(n, ())))
               for n in sizes}
        if got != expected or table.k != k:
            return f"census table {got}", {}
        for n in sizes:
            for oriented, records, m in ((False, table.witnesses[n], d_min[n - 2]),
                                         (True, table.oriented_witnesses[n], o_min[n - 2])):
                for rec in records:
                    arcs = tuple(sorted(rec.digraph.arcs))
                    if rec.n != n or rec.k != k or len(arcs) != m or rec.arc_count != m:
                        return f"witness for n={n} has the wrong size", {}
                    if oriented and any((v, u) in set(arcs) for u, v in arcs):
                        return f"oriented witness for n={n} has a digon", {}
                    key = (n, k, arcs)
                    if key not in self._verified:
                        self._verified[key] = checks.is_k_dicritical(n, arcs, k)
                    if not self._verified[key]:
                        return f"witness for n={n} is not {k}-dicritical", {}
        return None, {}

    def warmup(self, lib, rng):
        return self.job(lib, "census-2-1", rng, n_max=4)

    def baseline_rows(self, lib):
        budget = _budget(lib, 50_000_000, "baseline")
        lib.census.census(3, 5, budget)
        return [("census(3, 5)", 3_700, budget.used)]


WORKLOADS = {w.name: w for w in (CritOre(), Certify(), OreAnalyse(), Census())}


def round_rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def build_corpus(lib, workload, seed: int, rounds: int) -> list[list[Job]]:
    """``rounds`` rounds of jobs, each round one job per kind in a seeded order."""
    corpus = []
    for r in range(rounds):
        rng = round_rng(workload.name, seed, r)
        jobs = [workload.job(lib, kind, rng) for kind in workload.kinds]
        rng.shuffle(jobs)
        corpus.append(jobs)
    return corpus
