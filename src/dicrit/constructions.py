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
argument, and nothing in it searches.  The base level's lower bound
comes from its gadgets and its odd cycle, under premises that fix every
vertex's out-arcs to build_g3's wiring, and each of its arcs gets a
deletion witness by one rule of docs/decisions.md, section 23; higher
levels get a compositional lower-bound certificate.  The certifier's one
``check_dicolourings`` call peels the base witnesses and a ``_gamma``
colouring per base vertex t, the witness of t's first out-arc with t
alone in colour 3.  Above the base, an arc-deletion witness is the
tournament's colouring, one copy's local colouring and the sub-level's
reference, its Gamma(0), in every other copy; it is decided without
being composed, by the lemma of docs/decisions.md, section 20, under
premises that fix every vertex's out-arcs to build_gk's wiring, so
``_gamma`` is built at level 3 only.  Each level lifts the sub-level's
rejected arcs and cold vertices (those whose Gamma fails) into its
copies once, and a witness fails when its arc is rejected or the base's
reference, to which every level's reference unrolls, is cold.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import partial
from math import comb
from typing import Union

from .budget import Budget, DEFAULT_SOLVER_NODES, ensure_budget
from .colouring import Colouring, check_dicolourings
from .digraph import Digraph, DigraphError


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
    """The level-k construction over the spec's tournament choices, for any
    level from 3 up to ``spec.k``."""
    if k < 3:
        raise DigraphError("constructions start at k = 3")
    if k > spec.k:
        raise DigraphError(f"level {k} lies above the spec's k = {spec.k}")
    if k == 3:
        return build_g3(spec.n0, spec.cycle_orientation_seed)
    sub, sub_layout = build_gk(k - 1, spec)
    t_arcs = tuple(sorted(spec.tournament_for(k)))
    layout = GkLayout(k, t_arcs, sub, sub_layout)
    # Row by row, the digraph on the tournament arcs, every copy's arcs and
    # its wiring (docs/decisions.md, section 21).  The sub-level and the
    # tournament are validated and the copies' offsets disjoint, so the
    # rows need no check of their own.
    block = (1 << sub.n) - 1
    out_masks, in_masks = [0] * k, [0] * k
    for i, (x, y) in enumerate(t_arcs):
        off, x_bit, y_bit = layout.copy_offset(i), 1 << x, 1 << y
        out_masks[x] |= y_bit
        in_masks[y] |= x_bit
        out_masks[y] |= block << off  # y sends an arc to every vertex of copy i
        in_masks[x] |= block << off  # and every vertex of copy i one to x
        out_masks += [mask << off | x_bit for mask in sub.out_masks]
        in_masks += [mask << off | y_bit for mask in sub.in_masks]
    m = len(t_arcs) * (1 + 2 * sub.n + sub.m)
    return Digraph._from_rows(out_masks, in_masks, m, partial(_gk_rows, layout)), layout


def _gk_rows(layout: GkLayout) -> list[tuple[int, ...]]:
    """The sorted out-neighbour tuples of the level-k construction, from
    the sub-level's shifted (docs/decisions.md, section 21): building them
    off the bitsets took three times as long."""
    k, sub = layout.k, layout.sub_digraph
    t_out: list[list[int]] = [[] for _ in range(k)]  # tournament out-neighbours
    copied: list[list[int]] = [[] for _ in range(k)]  # vertices of the copies headed
    copies: list[tuple[int, ...]] = []
    for i, (x, y) in enumerate(layout.tournament_arcs):
        off = layout.copy_offset(i)
        t_out[x].append(y)
        copied[y] += range(off, off + sub.n)
        copies += [(x,) + tuple([v + off for v in row]) for row in sub._out]
    return [tuple(t_out[v] + copied[v]) for v in range(k)] + copies


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


# -- certification ------------------------------------------------------------


@dataclass
class CertificateReport:
    """A dicriticality certificate for one constructed level.

    ``lower_bound_method`` is "gadgets" at level 3, where the
    dichromatic-number lower bound comes from the gadgets and the odd cycle
    under the premises of docs/decisions.md, section 23, and
    "compositional" above it, where it rests on the structural premises
    plus the sub-certificate.  Every witness considered is decided: level
    3's by the certifier's one peel, each one above by one lookup in the
    arcs that the peel's failures reject there (the lemma of
    docs/decisions.md, section 20).  ``witness_failures`` is that set of
    rejected arcs, sorted, or every arc when the base's reference fails,
    and the level's arcs are listed in that last case only; a sampled
    level keeps those whose rank in sorted order was drawn.
    ``witnesses_checked`` is the number considered minus the failures.
    ``assumed`` is always empty and stays for readers that still look for
    it.  A level whose premises fail, or that sits above one whose
    premises fail, decides no witness.
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

    Level 3 keeps its constructed deletion witnesses; a higher level keeps
    its sub-level.  ``rejected`` holds the arcs whose deletion witness
    fails and ``cold`` the vertices t whose Gamma(t) fails (``_gamma`` at
    level 3), as the peel found them at level 3 and as lifted from the
    sub-level above it.  The lift leaves out the base's reference: when
    vertex 0 is cold at level 3, every witness above fails
    (docs/decisions.md, section 20)."""

    digraph: Digraph
    layout: Layout
    report: CertificateReport
    witnesses: dict[tuple[int, int], Colouring] | None = None
    sub: "_Level | None" = None
    rejected: set[tuple[int, int]] = field(default_factory=set)
    cold: set[int] = field(default_factory=set)

    @property
    def chi(self) -> int:
        return self.report.k


def _gamma(base: _Level, t: int) -> tuple[int, ...]:
    """A 3-dicolouring of the base construction in which vertex t is the
    only one coloured 3: the constructed witness of t's first out-arc, with
    t recoloured.  With t = 0 it is the base's reference, to which the
    reference of every level above unrolls (docs/decisions.md, section 20).

    The witness is a 2-dicolouring of a supergraph of the base minus t, so
    giving t a colour of its own leaves every colour class acyclic.  The
    base is dicritical, so t has out-degree at least 2 and an out-arc to
    use."""
    colours = list(base.witnesses[t, base.digraph.out_neighbours(t)[0]].colours)
    colours[t] = 3
    return tuple(colours)


def _g3_premises(d: Digraph, layout: G3Layout) -> bool:
    """The premises of docs/decisions.md, section 23, on the bitsets: L =
    2 n0 + 1 vertices on an odd cycle whose arcs join exactly the pairs i,
    i + 1 mod L, 4L vertices in all, and every vertex's out-arcs as
    build_g3 wires them, which fixes the arc set."""
    length = 2 * layout.n0 + 1
    cycle = layout.cycle_arcs
    if not (
        length >= 3
        and length % 2
        and d.n == 4 * length
        and len(cycle) == length
        and set(map(frozenset, cycle))
        == {frozenset((i, (i + 1) % length)) for i in range(length)}
    ):
        return False
    wired = [0] * d.n
    for i, (x, y) in enumerate(cycle):
        t = length + 3 * i
        wired[x] |= 1 << y
        wired[y] |= 0b111 << t
        for j in range(3):
            wired[t + j] = 1 << (t + (j + 1) % 3) | 1 << x
    return d.out_masks == tuple(wired)


def _g3_witnesses(layout: G3Layout) -> dict[tuple[int, int], Colouring]:
    """A 2-colouring of the base construction per arc, in sorted arc
    order, by the rules of docs/decisions.md, section 23: each is a
    dicolouring of the digraph minus its arc when the premises hold.  The
    ten arcs of gadget i share five colourings, which colour the cycle by
    distance from x along the path that avoids the edge {x, y}, so x and y
    both get colour 1, and every other gadget's triangle (1, 2, 2)."""
    length = 2 * layout.n0 + 1
    witnesses = {}
    for i, (x, y) in enumerate(layout.cycle_arcs):
        step = 1 if y == (x - 1) % length else -1  # away from y
        cycle = [0] * length
        for dist in range(length):
            cycle[(x + step * dist) % length] = 1 + dist % 2
        before, after = cycle + [1, 2, 2] * i, [1, 2, 2] * (length - 1 - i)

        def colouring(own: list[int]) -> Colouring:
            return Colouring(2, tuple(before + own + after))

        witnesses[x, y] = colouring([1, 2, 2])
        t = length + 3 * i
        triangle = colouring([2, 2, 2])  # no triangle arc closes a cycle
        for j in range(3):
            witnesses[t + j, t + (j + 1) % 3] = triangle
            # t + j alone in x's and y's colour: neither arc at it closes one
            witnesses[y, t + j] = witnesses[t + j, x] = colouring(
                [1 if h == j else 2 for h in range(3)]
            )
    return dict(sorted(witnesses.items()))


def _certify_level(
    d: Digraph,
    layout: Layout,
    witness_sample: int | None,
    rng: random.Random,
) -> _Level:
    if isinstance(layout, G3Layout):
        premises_ok = _g3_premises(d, layout)
        report = CertificateReport(
            k=3,
            n=d.n,
            m=d.m,
            lower_bound_method="gadgets",
            lower_bound_ok=premises_ok,
            structural_ok=premises_ok,
            witnesses_total=d.m,
            witnesses_checked=0,
        )
        level = _Level(d, layout, report, witnesses={})
        if premises_ok:
            level.witnesses = _g3_witnesses(layout)
            # The certifier's one peel: every constructed witness on D minus
            # its arc and, for the wiring arcs above, every _gamma on D.
            pairs = [(w, arc) for arc, w in level.witnesses.items()]
            pairs += [(Colouring(3, _gamma(level, t)), None) for t in range(d.n)]
            results = [ok for ok, _ in check_dicolourings(d, pairs)]
            level.rejected = {arc for arc, ok in zip(level.witnesses, results) if not ok}
            level.cold = {t for t, ok in enumerate(results[len(level.witnesses):]) if not ok}
        return _decide_witnesses(level, None)

    k = layout.k
    sub = _certify_level(layout.sub_digraph, layout.sub_layout, witness_sample, rng)

    # The premises, on the bitsets: the lower bound's complete tournament,
    # and for the lemma of docs/decisions.md, section 20, every vertex's
    # out-arcs exactly as build_gk wires them, which fixes the arc set.
    t_arcs = layout.tournament_arcs
    sub_rows, n_sub = layout.sub_digraph.out_masks, layout.sub_digraph.n
    block = (1 << n_sub) - 1
    wired = [0] * k
    for i, (x, y) in enumerate(t_arcs):
        wired[x] |= 1 << y
        wired[y] |= block << layout.copy_offset(i)
    tournament = (1 << k) - 1
    structural_ok = (
        d.n == layout.copy_offset(len(t_arcs))
        and d.out_masks[:k] == tuple(wired)
        and all(
            tournament & ~(d.out_masks[a] | d.in_masks[a] | 1 << a) == 0
            for a in range(k)
        )
        and all(
            d.out_masks[off:off + n_sub] == tuple([mask << off | 1 << x for mask in sub_rows])
            for i, (x, _) in enumerate(t_arcs)
            for off in (layout.copy_offset(i),)
        )
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
    drawn = None  # every arc
    if witness_sample is not None and witness_sample < d.m:
        # The same draws as sampling the list of sorted arcs, by rank.
        drawn = set(rng.sample(range(d.m), witness_sample))
        report.sampled = True
    # The sub-level's rejected arcs and cold vertices in every copy, and the
    # wiring arcs at each cold vertex (docs/decisions.md, section 20).
    level = _Level(d, layout, report, sub=sub)
    for i, (x, y) in enumerate(t_arcs):
        off = layout.copy_offset(i)
        level.rejected.update((u + off, v + off) for u, v in sub.rejected)
        for t in sub.cold:
            level.rejected.update(((y, t + off), (t + off, x)))
        level.cold.update(t + off for t in sub.cold)
    return _decide_witnesses(level, drawn)


def _decide_witnesses(level: _Level, drawn: set[int] | None) -> _Level:
    """Count every arc of the level, or those whose rank in sorted order
    was ``drawn``, checked or failing, if the lower bound holds: an arc
    fails when the level rejects it and, above the base, every arc fails
    when vertex 0 is cold at the base, whose reference every witness above
    it holds in some copy (docs/decisions.md, section 20).  Under the
    premises the level rejects only its own arcs, so the arcs are listed
    only when they all fail, and a sample keeps the failures whose rank,
    read off the out-bitsets, it drew."""
    report = level.report
    if report.lower_bound_ok:
        base = level
        while base.sub is not None:
            base = base.sub
        every = base is not level and 0 in base.cold
        failures = level.digraph.sorted_arcs() if every else sorted(level.rejected)
        considered = report.m
        if drawn is not None:
            if failures:
                rows = level.digraph.out_masks
                starts = list(itertools.accumulate(map(int.bit_count, rows), initial=0))
                failures = [
                    (u, v) for u, v in failures
                    if starts[u] + (rows[u] & ((1 << v) - 1)).bit_count() in drawn
                ]
            considered = len(drawn)
        report.witness_failures = failures
        report.witnesses_checked = considered - len(failures)
    return level


def certify_dicritical_composition(
    k: int,
    spec: ConstructionSpec | None = None,
    budget: Budget | int | None = None,
    witness_sample: int | None = None,
    seed: int = 0,
) -> CertificateReport:
    """Certify that the constructed level-k graph is k-dicritical.

    Level 3 is certified from the construction's own argument, with no
    search: premises checked on the bitsets, the lower bound from the
    gadgets and the odd cycle, and one constructed witness per arc
    (docs/decisions.md, section 23).  Higher levels combine
    (a) the compositional lower bound (structural premises checked here, the
    dichromatic lower bound inherited from the sub-certificate), (b) a
    constructed (k-1)-dicolouring of the graph minus each arc, for all arcs,
    or a seeded sample when ``witness_sample`` is given (the report flags
    sampling), and (c) a decision on every such witness against the
    digraph minus its arc, so nothing is assumed: level 3's witnesses by
    the certifier's one peel, the only ``check_dicolourings`` call for any
    k, and each one above by the failures of that peel, lifted through
    the copies once per level (the lemma of docs/decisions.md, section
    20).  ``budget`` is still accepted, and nothing charges it.
    """
    if witness_sample is not None and witness_sample < 1:
        raise DigraphError(f"witness_sample must be at least 1, got {witness_sample}")
    if k < 3:
        raise DigraphError("constructions start at k = 3")
    if spec is not None and spec.k != k:
        raise DigraphError(f"certifying level {k} with a spec for k = {spec.k}")
    d, layout = build_gk(k, spec or ConstructionSpec(k=k))
    ensure_budget(budget, DEFAULT_SOLVER_NODES, "construction certificate")
    return _certify_level(d, layout, witness_sample, random.Random(seed)).report
