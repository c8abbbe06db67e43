"""Recursive builders for sparse k-dicritical oriented graphs.

The base graph takes an oriented odd cycle and hangs a directed-triangle
gadget on every arc xy (all arcs from y into the triangle and from the
triangle back to x); the gadget forces x and y apart in every
2-dicolouring.  The level-k graph takes a tournament on k vertices and
replaces every arc xy by a fresh copy of the level-(k-1) graph wired the
same way.  Exact counts:

    n_3 = 4(2 n0 + 1)        m_3 = 10(2 n0 + 1)
    n_k = k + C(k,2) n_{k-1}
    m_k = C(k,2) + 2 C(k,2) n_{k-1} + C(k,2) m_{k-1}

The certification pipeline mirrors the structure of the dicriticality
argument.  The solver runs once, in the base level's criticality check;
higher levels get a compositional lower-bound certificate.  Every colouring
above that check, each level's reference and each arc-deletion witness, is
composed from the construction by one composer and checked, the witnesses
against the digraph minus their arc.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import comb
from typing import Union

from .budget import Budget, DEFAULT_SOLVER_NODES, ensure_budget
from .colouring import Colouring, check_dicolouring, is_k_dicritical
from .digraph import Digraph, DigraphError, induced


@dataclass(frozen=True)
class ConstructionSpec:
    """Choices pinning down one concrete construction.

    ``cycle_orientation_seed`` orients the base odd cycle (None keeps the
    all-forward orientation); ``tournaments`` optionally overrides the
    transitive tournament at any level with an explicit arc list.
    """

    k: int
    n0: int = 1
    cycle_orientation_seed: int | None = None
    tournaments: dict[int, tuple[tuple[int, int], ...]] | None = None

    def __post_init__(self):
        if self.k < 3:
            raise DigraphError("constructions start at k = 3")
        if self.n0 < 1:
            raise DigraphError("n0 must be at least 1")

    def tournament_for(self, level: int) -> tuple[tuple[int, int], ...]:
        if self.tournaments and level in self.tournaments:
            arcs = tuple(self.tournaments[level])
        else:
            arcs = tuple((i, j) for i in range(level) for j in range(i + 1, level))
        _validate_tournament(level, arcs)
        return arcs


def _validate_tournament(k: int, arcs: tuple[tuple[int, int], ...]) -> None:
    seen = set()
    for u, v in arcs:
        if not (0 <= u < k and 0 <= v < k) or u == v:
            raise DigraphError(f"invalid tournament arc ({u}, {v})")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise DigraphError(f"tournament has two arcs on pair {pair}")
        seen.add(pair)
    if len(seen) != comb(k, 2):
        raise DigraphError("tournament must orient every pair exactly once")


@dataclass(frozen=True)
class Gadget:
    """One forcing gadget: triangle fed by ``head``, feeding ``tail``."""

    tail: int  # x of the host arc xy: receives all arcs from the triangle
    head: int  # y of the host arc xy: sends all arcs into the triangle
    triangle: tuple[int, int, int]


@dataclass(frozen=True)
class G3Layout:
    """The base construction's choices: the odd cycle on vertices
    0..2 n0, by its sorted arcs.  Gadget i serves ``cycle_arcs[i]``, and its
    triangle sits on vertices 2 n0 + 1 + 3i onwards."""

    n0: int
    cycle_arcs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GkLayout:
    """The level-k construction's choices: the tournament on vertices
    0..k-1, by its sorted arcs, and the level below.  Copy i of
    ``sub_digraph`` replaces ``tournament_arcs[i]`` and sits on vertices
    ``copy_offset(i)`` = k + i n_sub onwards, n_sub = ``sub_digraph.n``."""

    k: int
    tournament_arcs: tuple[tuple[int, int], ...]
    sub_digraph: Digraph
    sub_layout: Union["GkLayout", G3Layout]

    def copy_offset(self, i: int) -> int:
        return self.k + i * self.sub_digraph.n


Layout = Union[GkLayout, G3Layout]


def predicted_counts(k: int, n0: int) -> tuple[int, int]:
    """(n_k, m_k) from the recurrences, exactly."""
    n, m = 4 * (2 * n0 + 1), 10 * (2 * n0 + 1)
    for level in range(4, k + 1):
        pairs = comb(level, 2)
        n, m = level + pairs * n, pairs + pairs * 2 * n + pairs * m
    return n, m


def build_g3(
    n0: int, orientation_seed: int | None = None
) -> tuple[Digraph, G3Layout]:
    """The base construction: 4(2 n0 + 1) vertices, 10(2 n0 + 1) arcs,
    digon-free.  The default orientation of the odd cycle is all-forward;
    a seed draws a random orientation instead."""
    if n0 < 1:
        raise DigraphError("n0 must be at least 1")
    length = 2 * n0 + 1
    rng = random.Random(orientation_seed) if orientation_seed is not None else None
    cycle_arcs = []
    for i in range(length):
        u, v = i, (i + 1) % length
        if rng is not None and rng.random() < 0.5:
            u, v = v, u
        cycle_arcs.append((u, v))
    cycle_arcs.sort()
    arcs = list(cycle_arcs)
    for i, (x, y) in enumerate(cycle_arcs):
        base = length + 3 * i
        t = (base, base + 1, base + 2)
        arcs += [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])]
        arcs += [(y, g) for g in t]
        arcs += [(g, x) for g in t]
    return Digraph(4 * length, arcs), G3Layout(n0, tuple(cycle_arcs))


def build_gk(k: int, spec: ConstructionSpec) -> tuple[Digraph, Layout]:
    """The level-k construction over the spec's tournament choices."""
    if k == 3:
        return build_g3(spec.n0, spec.cycle_orientation_seed)
    if k < 3:
        raise DigraphError("constructions start at k = 3")
    sub_digraph, sub_layout = build_gk(k - 1, spec)
    t_arcs = tuple(sorted(spec.tournament_for(k)))
    layout = GkLayout(k, t_arcs, sub_digraph, sub_layout)
    arcs: list[tuple[int, int]] = list(t_arcs)
    for i, (x, y) in enumerate(t_arcs):
        offset = layout.copy_offset(i)
        block = range(offset, offset + sub_digraph.n)
        arcs += [(u + offset, v + offset) for (u, v) in sub_digraph.arcs]
        arcs += [(y, t) for t in block]
        arcs += [(t, x) for t in block]
    return Digraph(layout.copy_offset(len(t_arcs)), arcs), layout


def all_gadgets(layout: Layout, offset: int = 0):
    """Every embedded forcing gadget, in global vertex coordinates."""
    if isinstance(layout, G3Layout):
        base = offset + 2 * layout.n0 + 1
        for i, (x, y) in enumerate(layout.cycle_arcs):
            t = base + 3 * i
            yield Gadget(tail=x + offset, head=y + offset, triangle=(t, t + 1, t + 2))
        return
    for i in range(len(layout.tournament_arcs)):
        yield from all_gadgets(layout.sub_layout, offset + layout.copy_offset(i))


def gadget_forces_distinct(d: Digraph, x: int, y: int, gadget_vertices) -> bool:
    """True iff every 2-colouring of {x, y} + gadget with x, y equal leaves
    a monochromatic directed cycle inside the induced subdigraph.
    Exhaustive over the 32 assignments."""
    triangle = tuple(sorted(set(gadget_vertices)))
    if len(triangle) != 3:
        raise DigraphError("gadget must consist of exactly three vertices")
    if x == y or x in triangle or y in triangle:
        raise DigraphError("x, y must be two vertices outside the gadget")
    sub, mapping = induced(d, (x, y) + triangle)
    xi, yi = mapping[x], mapping[y]
    for assignment in itertools.product((1, 2), repeat=5):
        if assignment[xi] != assignment[yi]:
            continue
        ok, _ = check_dicolouring(sub, Colouring(2, assignment))
        if ok:
            return False
    return True


# -- certification ------------------------------------------------------------


@dataclass
class CertificateReport:
    """A dicriticality certificate for one constructed level.

    ``lower_bound_method`` is "solver" when the dichromatic-number lower
    bound comes from exhaustive refutation and "compositional" when it rests
    on the structural premises plus the sub-certificate.  Every witness is
    constructed and checked, so ``assumed`` is always empty; it stays in the
    report and its JSON for readers that still look for it.
    """

    k: int
    n: int
    m: int
    lower_bound_method: str
    lower_bound_ok: bool
    structural_ok: bool
    witnesses_total: int
    witnesses_checked: int
    witness_failures: list = field(default_factory=list)
    sampled: bool = False
    assumed: list[str] = field(default_factory=list)
    sub_certificate: "CertificateReport | None" = None

    def ok(self) -> bool:
        sub_ok = self.sub_certificate.ok() if self.sub_certificate else True
        return (
            self.lower_bound_ok
            and self.structural_ok
            and not self.witness_failures
            and sub_ok
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "lower_bound_method": self.lower_bound_method,
            "lower_bound_ok": self.lower_bound_ok,
            "structural_ok": self.structural_ok,
            "witnesses_total": self.witnesses_total,
            "witnesses_checked": self.witnesses_checked,
            "witness_failures": [list(a) for a in self.witness_failures],
            "sampled": self.sampled,
            "assumed": list(self.assumed),
            "ok": self.ok(),
            "sub_certificate": (
                self.sub_certificate.to_json() if self.sub_certificate else None
            ),
        }


@dataclass
class _Level:
    """Internal: one certified level plus the data its parent reuses.

    Level 3 keeps the solver's deletion witnesses; a higher level keeps its
    sub-level.  ``reference`` is set only on a level that has a parent, to
    ``_gamma(level, 0)``."""

    digraph: Digraph
    layout: Layout
    report: CertificateReport
    witnesses: dict[tuple[int, int], Colouring] | None = None
    sub: "_Level | None" = None
    reference: tuple[int, ...] = ()

    @property
    def chi(self) -> int:
        return self.report.k


def _compose(
    level: _Level,
    special: tuple[int, int],
    copy: int | None,
    local: tuple[int, ...],
) -> Colouring:
    """A (chi-1)-colouring of the level's graph: distinct colours on the
    tournament except the pair ``special``, which shares chi-1; ``local`` in
    copy number ``copy`` and the sub-level's reference in every other
    copy."""
    k = level.chi
    others = iter(range(1, k - 1))
    colours = [k - 1 if w in special else next(others) for w in range(k)]
    reference = level.sub.reference
    for i in range(len(level.layout.tournament_arcs)):  # back to back from vertex k
        colours += local if i == copy else reference
    return Colouring(k - 1, tuple(colours))


def _deletion_witness(level: _Level, arc: tuple[int, int]) -> Colouring:
    """A (chi-1)-dicolouring of the level's graph minus one arc, built the
    way the dicriticality argument does, down to the solver's level-3
    witnesses."""
    if level.sub is None:
        return level.witnesses[arc]
    k = level.chi
    u, v = arc
    if u < k and v < k:
        return _compose(level, arc, None, ())
    # Every other arc has an end in exactly one copy: inside it, or joining
    # it to the tournament.
    w = max(u, v)
    copy = (w - k) // level.sub.digraph.n
    off = level.layout.copy_offset(copy)
    if min(u, v) >= k:
        local = _deletion_witness(level.sub, (u - off, v - off)).colours
    else:
        local = _gamma(level.sub, w - off)
    return _compose(level, level.layout.tournament_arcs[copy], copy, local)


def _gamma(sub: _Level, t: int) -> tuple[int, ...]:
    """A chi-dicolouring of the sub-construction in which the local vertex
    t is the only one coloured chi.  With t = 0 it is the reference that
    the parent puts in every copy the witness leaves alone.

    The deletion witness of an arc at t is a (chi-1)-dicolouring of a
    supergraph of the sub-construction minus t, so giving t a colour of its
    own leaves every colour class acyclic.  The sub-construction is
    dicritical, so t has out-degree at least chi-1 and an out-arc to use."""
    arc = (t, sub.digraph.out_neighbours(t)[0])
    colours = list(_deletion_witness(sub, arc).colours)
    colours[t] = sub.chi
    return tuple(colours)


def _certify_level(
    d: Digraph,
    layout: Layout,
    budget: Budget,
    witness_sample: int | None,
    rng: random.Random,
) -> _Level:
    if isinstance(layout, G3Layout):
        crit = is_k_dicritical(d, 3, budget)
        report = CertificateReport(
            k=3,
            n=d.n,
            m=d.m,
            lower_bound_method="solver",
            lower_bound_ok=crit.verdict,
            structural_ok=True,
            witnesses_total=d.m,
            witnesses_checked=len(crit.witnesses),
            witness_failures=[crit.failure_arc] if crit.failure_arc else [],
        )
        return _Level(d, layout, report, witnesses=crit.witnesses)

    k = layout.k
    sub = _certify_level(layout.sub_digraph, layout.sub_layout, budget, witness_sample, rng)
    sub.reference = _gamma(sub, 0)
    ok, cycle = check_dicolouring(sub.digraph, Colouring(sub.chi, sub.reference))
    if not ok:
        raise AssertionError(f"reference colouring invalid: {cycle}")

    # Structural premises of the pigeonhole lower bound, on the bitsets: a
    # complete tournament, and complete wiring from every arc head into its
    # copy's vertex block and from the block back to the arc tail.
    tournament = (1 << k) - 1
    block = (1 << layout.sub_digraph.n) - 1
    structural_ok = all(
        tournament & ~(d.out_masks[a] | d.in_masks[a] | 1 << a) == 0
        for a in range(k)
    ) and all(
        block << layout.copy_offset(i) & ~(d.out_masks[y] & d.in_masks[x]) == 0
        for i, (x, y) in enumerate(layout.tournament_arcs)
    )

    report = CertificateReport(
        k=k,
        n=d.n,
        m=d.m,
        lower_bound_method="compositional",
        lower_bound_ok=structural_ok and sub.report.lower_bound_ok,
        structural_ok=structural_ok,
        witnesses_total=d.m,
        witnesses_checked=0,
        sub_certificate=sub.report,
    )

    level = _Level(d, layout, report, sub=sub)
    arcs = d.sorted_arcs()
    if witness_sample is not None and witness_sample < len(arcs):
        arcs = sorted(rng.sample(arcs, witness_sample))
        report.sampled = True
    for arc in arcs:
        witness = _deletion_witness(level, arc)
        valid, _ = check_dicolouring(d, witness, arc)
        if valid:
            report.witnesses_checked += 1
        else:
            report.witness_failures.append(arc)
    return level


def certify_dicritical_composition(
    k: int,
    spec: ConstructionSpec | None = None,
    budget: Budget | int | None = None,
    witness_sample: int | None = None,
    seed: int = 0,
) -> CertificateReport:
    """Certify that the constructed level-k graph is k-dicritical.

    Level 3 is certified exhaustively by the solver.  Higher levels combine
    (a) the compositional lower bound (structural premises checked here, the
    dichromatic lower bound inherited from the sub-certificate), (b) a
    constructed (k-1)-dicolouring of the graph minus each arc, for all arcs,
    or a seeded sample when ``witness_sample`` is given (the report flags
    sampling), and (c) a check of every such witness against the digraph
    minus its arc, so nothing is assumed.
    """
    if witness_sample is not None and witness_sample < 1:
        raise DigraphError(
            f"witness_sample must be at least 1, got {witness_sample}"
        )
    d, layout = build_gk(k, spec or ConstructionSpec(k=k))
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "construction certificate")
    return _certify_level(d, layout, budget, witness_sample, random.Random(seed)).report
