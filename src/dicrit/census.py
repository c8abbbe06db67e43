"""Tiny-n census of the minimum arc counts of k-dicritical digraphs.

For each order n the census scans arc counts m upward from n(k - 1) and,
at each m, tests k-dicriticality exactly on one labelling of every
candidate class.  A candidate is an m-arc digraph on n vertices whose in-
and out-degrees are all at least k - 1; relabelling changes neither that
nor dicriticality, so only candidates whose labels follow one rule are
generated: vertex 0 has the largest out-degree d0 and the out-neighbours
1..d0, and out-degrees do not increase along 1..d0, nor along d0 + 1..n - 1
(docs/decisions.md, section 11).  Candidates are generated vertex by
vertex, so arc sets that break the degree condition or the rule are never
built, and each (n, m) stream is generated once.  The ``nshards`` argument
of :func:`census` has no effect.

The candidate set, and with it every minimum the census reports, rests on
one lemma: every k-dicritical digraph D has minimum in- and out-degree at
least k - 1.  Proof: let v be a vertex.  D has no isolated vertex, so v
lies on an arc a, and D - v is a subdigraph of the (k-1)-dicolourable
D - a; take a (k-1)-dicolouring of D - v.  If v had fewer than k - 1
out-neighbours, some colour class would hold none of them, and v could
join that class without closing a directed cycle (a cycle through v leaves
it along an arc to an out-neighbour).  That would (k-1)-dicolour D,
contradicting chi(D) = k.  The in-degree case is symmetric, since a cycle
through v also enters it from an in-neighbour.  Hence m >= n(k - 1), and
the scan starts there.

Witnesses found at the minimum are deduplicated by their canonical form
(:func:`dicrit.iso.canonical_form`, colour refinement plus
individualisation) and persisted as one canonical DG-v1 blob plus a JSON
sidecar per record; records re-verify on load.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .budget import Budget, DEFAULT_SOLVER_NODES, ensure_budget
from .colouring import is_k_dicritical
from .digraph import Digraph, DigraphError, parse, serialize
from .iso import canonical_form

MAX_CENSUS_N = 5


@dataclass(frozen=True)
class CensusRecord:
    n: int
    k: int
    digraph: Digraph
    arc_count: int
    oriented: bool
    verified_dicritical: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "arc_count": self.arc_count,
            "oriented": self.oriented,
            "verified_dicritical": self.verified_dicritical,
        }


@dataclass
class CensusTable:
    k: int
    d_min: dict[int, int | None]  # n -> d_k(n), None when no witness exists
    o_min: dict[int, int | None]  # n -> o_k(n) over oriented graphs
    witnesses: dict[int, list[CensusRecord]]
    oriented_witnesses: dict[int, list[CensusRecord]]
    # candidates: arc sets tested; dicritical: digraphs found before dedupe;
    # nodes: budget spent inside the call.  No wall time, so the tables of
    # two runs with the same arguments compare equal.
    stats: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "d": {str(n): v for n, v in sorted(self.d_min.items())},
            "o": {str(n): v for n, v in sorted(self.o_min.items())},
            "stats": dict(self.stats),
        }


def _candidate_arc_sets(n: int, m: int, k: int, oriented_only: bool):
    """The m-arc digraphs on ``range(n)`` whose in- and out-degrees are all
    at least k - 1 and whose labels follow the census's rule, each once, as
    tuples of arcs in lexicographic order; with ``oriented_only``, only
    those without a digon.  The rule: vertex 0 has the largest out-degree d0
    and the out-neighbourhood {1, ..., d0}, and out-degrees do not increase
    along 1..d0, nor along d0 + 1..n - 1.  Every isomorphism class of such
    digraphs has at least one labelling that follows it, often several
    (docs/decisions.md, section 11).

    Vertices choose their out-neighbourhoods (of size at least k - 1) in the
    order 0, 1, ..., n - 1, and the stream follows that order; vertex 0 takes
    only the first neighbourhood of each size, and every later vertex at most
    d0 arcs, at most as many as the vertex before it inside its group.  A
    branch is cut when the r vertices still to place cannot take the arcs
    left, which needs between (k - 1)r and d0 r of them, or when some vertex w
    could no longer reach in-degree k - 1 even if every unplaced vertex other
    than w chose it.  In the oriented case v never chooses an earlier u that
    already chose v, so no digon is built.
    """
    # choices[v][size]: (mask, chosen, arcs) for every out-neighbourhood of v
    # of that size, in lexicographic order; sizes below k - 1 are never read.
    choices = []
    for v in range(n):
        others = [w for w in range(n) if w != v]
        choices.append([
            [(sum(1 << w for w in chosen), chosen, tuple((v, w) for w in chosen))
             for chosen in itertools.combinations(others, size)]
            for size in range(n)
        ])
    # Vertex 0 takes only {1, ..., size}, the first of each size.
    choices[0] = [by_size[:1] for by_size in choices[0]]
    return _extend(
        choices, k - 1, oriented_only, 0, m, 0, n - 1, [0] * n, [0] * n, [()] * n
    )


def _extend(
    choices,
    low: int,
    oriented_only: bool,
    v: int,
    left: int,
    top: int,
    cap: int,
    indeg: list[int],
    masks: list[int],
    picked: list[tuple],
):
    """The arc tuples that give vertices v, v + 1, ... their out-neighbourhoods
    with ``left`` arcs in all.  ``cap`` is the most arcs v may choose and,
    for v > 0, ``top`` is vertex 0's out-degree d0.  For each u < v,
    ``masks[u]`` and ``picked[u]`` are the bitset and arcs of the
    out-neighbourhood u chose, and ``indeg[w]`` counts the u < v that chose
    w; the lists are updated in place and restored on the way back.  A plain
    function, not a closure over the tables, so that no reference cycle keeps
    them alive until the next collection."""
    n = len(choices)
    rest = n - 1 - v
    # After v chooses, every w needs in-degree at least low - rest, one more
    # if w is still to place.  One short, v must choose w; more, or w == v,
    # and the branch is dead.
    need = low - rest
    required = 0
    for w, count in enumerate(indeg):
        short = need + (w > v) - count
        if short > 0:
            if short > 1 or w == v:
                return
            required |= 1 << w
    banned = 0
    if oriented_only:
        bit = 1 << v
        for u in range(v):
            if masks[u] & bit:
                banned |= 1 << u
    if v:
        floor = left - top * rest
    else:
        # d0 is the largest of n out-degrees summing to m, so at least m / n.
        floor = -(-left // n)
    by_size = choices[v]
    for size in range(max(low, floor), min(cap, left - low * rest) + 1):
        if not v:
            top = size
        # Vertex d0 + 1 starts the second group, capped by d0 again.
        nxt = top if v == top else size
        for mask, chosen, arcs in by_size[size]:
            if mask & required != required or mask & banned:
                continue
            picked[v] = arcs
            if not rest:
                yield sum(picked, ())
                continue
            masks[v] = mask
            for w in chosen:
                indeg[w] += 1
            yield from _extend(
                choices, low, oriented_only, v + 1, left - size, top, nxt,
                indeg, masks, picked,
            )
            for w in chosen:
                indeg[w] -= 1


def _scan_arc_sets(
    n: int,
    m: int,
    k: int,
    budget: Budget,
    oriented_only: bool,
    stats: Counter,
):
    """The size-m candidate stream: yields the k-dicritical digraphs found,
    in stream order, and adds the number of arc sets tested to
    ``stats["candidates"]``."""
    for arcs in _candidate_arc_sets(n, m, k, oriented_only):
        stats["candidates"] += 1
        d = Digraph(n, arcs)
        if is_k_dicritical(d, k, budget).verdict:
            yield d


def _dedupe(found: list[Digraph]) -> list[Digraph]:
    seen = set()
    unique = []
    for d in found:
        key = canonical_form(d)
        if key not in seen:
            seen.add(key)
            unique.append(d)
    return unique


def _minimum_for(
    n: int, k: int, budget: Budget, oriented_only: bool, stats: Counter
) -> tuple[int | None, list[Digraph]]:
    max_m = n * (n - 1) // (2 if oriented_only else 1)
    for m in range(max(1, n * (k - 1)), max_m + 1):
        found = list(_scan_arc_sets(n, m, k, budget, oriented_only, stats))
        if found:
            stats["dicritical"] += len(found)
            return m, _dedupe(found)
    return None, []


def census(
    k: int,
    n_max: int,
    budget: Budget | int | None = None,
    nshards: int = 1,
) -> CensusTable:
    """Exact d_k(n) and o_k(n) for 2 <= n <= n_max (n_max at most 5).

    Each candidate stream is scanned once, in stream order.  ``nshards`` has
    no effect; it must still be at least 1."""
    if not 2 <= n_max <= MAX_CENSUS_N:
        raise DigraphError(f"census supports 2 <= n_max <= {MAX_CENSUS_N}")
    if k < 2:
        raise DigraphError("census needs k >= 2")
    if nshards < 1:
        raise DigraphError(f"census needs at least one shard, got {nshards}")
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "census")
    start = budget.used
    stats: Counter = Counter(candidates=0, dicritical=0)
    table = CensusTable(k, {}, {}, {}, {})
    for n in range(2, n_max + 1):
        d_min, d_wit = _minimum_for(n, k, budget, oriented_only=False, stats=stats)
        o_min, o_wit = _minimum_for(n, k, budget, oriented_only=True, stats=stats)
        table.d_min[n] = d_min
        table.o_min[n] = o_min
        table.witnesses[n] = [
            CensusRecord(n, k, w, w.m, w.is_oriented(), True) for w in d_wit
        ]
        table.oriented_witnesses[n] = [
            CensusRecord(n, k, w, w.m, w.is_oriented(), True) for w in o_wit
        ]
    table.stats = {**stats, "nodes": budget.used - start}
    return table


# -- persistence ---------------------------------------------------------------


def save_records(records: list[CensusRecord], directory: str | Path) -> list[Path]:
    """One canonical DG-v1 blob plus a JSON sidecar per record."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, rec in enumerate(records):
        stem = f"census_k{rec.k}_n{rec.n}_{i:03d}"
        blob = directory / f"{stem}.dg"
        sidecar = directory / f"{stem}.json"
        blob.write_text(serialize(rec.digraph))
        sidecar.write_text(json.dumps(rec.to_json(), indent=2) + "\n")
        paths.append(blob)
    return paths


def load_record(
    blob_path: str | Path, budget: Budget | int | None = None
) -> CensusRecord:
    """Load one record and re-verify its dicriticality (no stale corpus).

    The sidecar must be a JSON object giving an integer k >= 2 and the
    blob's order, arc count and orientedness; otherwise ``DigraphError``
    names the sidecar."""
    blob_path = Path(blob_path)
    sidecar = blob_path.with_suffix(".json")
    try:
        meta = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise DigraphError(f"{sidecar}: {exc}") from None
    if not isinstance(meta, dict):
        raise DigraphError(f"{sidecar}: expected a JSON object")
    d = parse(blob_path.read_text())
    k = meta.get("k")
    if type(k) is not int or k < 2:
        raise DigraphError(f"{sidecar}: k must be an integer >= 2, got {k!r}")
    stored = {key: meta.get(key) for key in ("n", "arc_count", "oriented")}
    actual = {"n": d.n, "arc_count": d.m, "oriented": d.is_oriented()}
    if stored != actual:
        raise DigraphError(f"{sidecar}: sidecar gives {stored}, blob has {actual}")
    report = is_k_dicritical(d, k, budget)
    if not report.verdict:
        raise DigraphError(
            f"{blob_path}: stored digraph no longer verifies as "
            f"{k}-dicritical ({report.failure_reason})"
        )
    return CensusRecord(
        n=d.n,
        k=k,
        digraph=d,
        arc_count=d.m,
        oriented=d.is_oriented(),
        verified_dicritical=True,
    )
