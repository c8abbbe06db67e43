"""Exact dicolouring: decision, dichromatic number, dicriticality.

A k-dicolouring assigns each vertex a colour in 1..k so that every colour
class induces an acyclic subdigraph.  The solver searches over vertices in
a connectivity order (a vertex of highest degree first, then always the
vertex with the most neighbours already placed; ties by degree, then id),
trying colours lowest first, and rejects an assignment as soon as it closes
a directed cycle inside one colour class.  That test runs on Python-int
bitsets: one per colour class, and the out- and in-neighbourhood of each
vertex.  Symmetry is broken by allowing colour j+1 only once colour j has
appeared, which in particular pins the first branching vertex to colour 1.
Runs are deterministic and reproducible.

The kernel, ``_first_assignment``, answers one question: the first valid
assignment, or None.  It runs on the digraph relabelled once per question
so that vertex i is the i-th in the order (``_branching``).  On a dead end
it jumps back by conflict-directed backjumping: each depth keeps the bitset
of earlier depths that ruled out its colours, and the search resumes at the
deepest of them, skipping only subtrees that hold no solution.  It
therefore returns the first assignment of chronological backtracking, or
refutes, from a subset of its nodes (docs/decisions.md, section 8).  It
makes no call per node: the cycle test, the conflict sets and the node
count are inline, and the count reaches the budget when the kernel returns
or runs out.

Whether D is c-dicolourable at all, without a witness, is decided for
``is_k_dicritical`` (its step "D is not (k-1)-dicolourable") and for
``dichromatic_number`` by the plain search first, with an allowance of
about 2 c n^2 nodes; if that runs out, a 2-separator reduction takes over.
It replaces one side A of a separator {u, v} of the underlying graph at a
time by a gadget of at most c - 1 vertices (nothing, a digon, an arc, a
bidirected K_{c-1} that forces c(u) = c(v), or that K_{c-1} plus an arc),
chosen by two to four recursive queries on digraphs smaller than D, and it
runs the search only on pieces of at most 9 vertices or where no side can
be replaced.  The proof is in docs/decisions.md, section 6.

``check_dicolouring`` runs its own DFS over adjacency lists and shares no
code with the solver, so every witness the solver returns is checked
independently.  Given an arc ``removed`` it checks D minus that arc on D
itself: its DFS skips that arc, so no per-arc digraph is rebuilt.

Budgets count decision nodes; an exhausted budget raises
:class:`~dicrit.budget.BudgetExceeded` rather than returning a silent "no".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

from .budget import Budget, BudgetExceeded, DEFAULT_SOLVER_NODES, ensure_budget
from .digraph import Digraph, bits, restrict, serialize, two_cut_sides


class ColouringError(ValueError):
    pass


@dataclass(frozen=True)
class Colouring:
    """A total colour assignment; ``colours[v]`` is in 1..k."""

    k: int
    colours: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ColouringError("k must be at least 1")
        if self.colours and not 1 <= min(self.colours) <= max(self.colours) <= self.k:
            raise ColouringError("colours must lie in 1..k")

    def to_json(self) -> dict:
        return {"k": self.k, "colours": list(self.colours)}


def _find_monochromatic_cycle(
    d: Digraph, colours: tuple[int, ...], removed: tuple[int, int] | None
) -> list[int] | None:
    """A directed cycle of D - removed inside one colour class, as a vertex
    list, or None."""
    tail, head = removed if removed is not None else (-1, -1)
    out = d._out  # the sorted out-neighbour tuples, read with no call per vertex
    state = [0] * d.n  # 0 unvisited, 1 on stack, 2 done
    for root in range(d.n):
        if state[root]:
            continue
        c = colours[root]
        # Iterative DFS restricted to the colour class of the root: one
        # iterator over out-neighbours per vertex of the path, in step.
        state[root] = 1
        path = [root]
        stack = [iter(out[root])]
        while stack:
            v = path[-1]
            for u in stack[-1]:
                if colours[u] != c or (v == tail and u == head):
                    continue
                if state[u] == 1:
                    return path[path.index(u):]
                if not state[u]:
                    state[u] = 1
                    path.append(u)
                    stack.append(iter(out[u]))
                    break
            else:
                state[v] = 2
                path.pop()
                stack.pop()
    return None


def check_dicolouring(
    d: Digraph, colouring: Colouring, removed: tuple[int, int] | None = None
) -> tuple[bool, list[int] | None]:
    """True iff every colour class of D - removed is acyclic; else a
    monochromatic cycle.  The verdict and the cycle are those on the digraph
    rebuilt without ``removed``; an arc not in D removes nothing."""
    if len(colouring.colours) != d.n:
        raise ColouringError(
            f"assignment covers {len(colouring.colours)} vertices, digraph has {d.n}"
        )
    cycle = _find_monochromatic_cycle(d, colouring.colours, removed)
    return (cycle is None), cycle


def _branching(
    out: Sequence[int], inn: Sequence[int], arcs: Iterable[tuple[int, int]]
) -> tuple[list[int], list[int], list[int]]:
    """The digraph with out- and in-bitsets ``out``/``inn`` and arc list
    ``arcs`` relabelled into its connectivity order, for the kernel.

    The order puts a vertex of highest degree first, then always the vertex
    with the most neighbours already placed (ties by degree, then id).  Each
    vertex carries one integer score, written in base n with its id as the
    last digit, so ``max`` picks the vertex as well as the score; placing a
    vertex adds ``step`` to the score of each neighbour not yet placed, and
    ``step`` exceeds every degree-and-id key, so the placed-neighbour count
    always dominates the tie-breaks.  A placed vertex's score drops to -1.

    Returns ``position``, where ``position[v]`` is the depth of vertex v,
    and the out- and in-bitsets with depth i as vertex i, both built in one
    pass over ``arcs``: on the census's digraphs of at most 5 vertices that
    is cheaper than walking the bits of ``out``.
    """
    n = len(out)
    score = [
        ((out[v].bit_count() + inn[v].bit_count()) * n + n - 1 - v) * n + v for v in range(n)
    ]
    step = 2 * n * n * n
    position = [0] * n
    placed = 0
    for i in range(n):
        v = max(score) % n
        score[v] = -1
        position[v] = i
        placed |= 1 << v
        ahead = (out[v] | inn[v]) & ~placed
        while ahead:
            low = ahead & -ahead
            score[low.bit_length() - 1] += step
            ahead ^= low
    ordered_out, ordered_inn = [0] * n, [0] * n
    for u, v in arcs:
        i, j = position[u], position[v]
        ordered_out[i] |= 1 << j
        ordered_inn[j] |= 1 << i
    return position, ordered_out, ordered_inn


def _first_assignment(
    out: list[int],
    inn: list[int],
    k: int,
    budget: Budget,
    pin: tuple[int, int] | None = None,
) -> tuple[int, ...] | None:
    """The first valid k-dicolouring assignment of the search, or None if
    there is none (backtracking core).

    ``out``/``inn`` are the bitset adjacency of the digraph, labelled in
    branching order: depth i colours vertex i.  ``pin = (a, b)``, a < b,
    restricts the search to assignments with c(a) = c(b): b gets a's colour
    and no other.

    Dead ends jump back by conflict-directed backjumping.  Each depth keeps
    a conflict bitset of earlier depths: the ``seen`` set of every colour
    the cycle test rejected (it holds the monochromatic path), the anchor
    at the pinned depth, and every earlier depth where symmetry breaking cut
    the colour range.  A dead end resumes the deepest depth in its set and
    merges the rest of the set into that depth's.  Only subtrees without a
    solution are skipped, so the answer is the first assignment of the
    chronological search, or its refutation (docs/decisions.md, section 8).

    Each colour tried is one node.  The count lives in a local and reaches
    ``budget.used`` when the kernel returns and before ``BudgetExceeded``
    (then ``used == limit + 1``, as ``Budget.spend`` leaves it).
    """
    n = len(out)
    colour = [0] * n
    members = [0] * (k + 1)  # members[c]: bitset of the depths above coloured c
    conflict = [0] * n
    anchor, pinned = pin if pin is not None else (-1, -1)
    top = [0] * (n + 1)  # top[i]: the highest colour among depths 0..i-1
    cut = k - 1
    limit, used = budget.limit, budget.used
    i = c = 0  # c: the colour depth i resumes after, 0 on arrival from above
    while i < n:
        t = top[i]
        if i == pinned:
            last = colour[anchor]
            if c:
                why = conflict[i]
            else:
                c, why = last - 1, 1 << anchor
        elif t < cut:
            last, why = t + 1, (1 << i) - 1
        else:
            last, why = k, conflict[i] if c else 0
        out_i, inn_i = out[i], inn[i]
        while c < last:
            c += 1
            used += 1
            if used > limit:
                budget.used = used
                raise BudgetExceeded(budget.what, limit)
            # A cycle through i inside the class is a path from an
            # out-neighbour of i to an in-neighbour of i; none exists unless
            # i has both.
            cls = members[c]
            targets = inn_i & cls
            if not targets:
                break
            frontier = seen = out_i & cls
            while frontier:
                if frontier & targets:
                    break
                low = frontier & -frontier
                frontier ^= low
                fresh = out[low.bit_length() - 1] & cls & ~seen
                seen |= fresh
                frontier |= fresh
            else:
                break
            why |= seen
        else:
            # Dead end: resume the deepest depth in conflict and hand it the
            # rest of the set.  With none, no solution exists.
            if not why:
                budget.used = used
                return None
            h = why.bit_length() - 1
            conflict[h] |= why ^ (1 << h)
            while i > h:
                i -= 1
                members[colour[i]] ^= 1 << i
            c = colour[h]
            continue
        conflict[i] = why
        colour[i] = c
        members[c] |= 1 << i
        top[i + 1] = c if c > t else t
        i += 1
        c = 0
    budget.used = used
    return tuple(colour)


# -- deciding dicolourability by 2-separator reduction -------------------------

#: Digraphs of at most this many vertices go straight to the search: on them
#: a cut scan and its side queries cost more than the search itself.
_BASE_SIZE = 9

#: The plain search for c colours on n vertices gets this many times c n^2
#: nodes before the reduction takes over.  Measured on the crit-ore corpus
#: (seed 1), one reduction takes as long as the plain search spends on a
#: median 3.3-4.7 n^2 nodes for G3 inputs (c = 2) and 7.0-8.3 n^2 for 4-Ore
#: inputs and their near misses (c = 3), by input kind.  Trying the search
#: first for that long costs at most about twice the cheaper of the two
#: routes, and keeps inputs the search settles quickly (every 4-Ore input
#: and near miss there, up to n = 25, and all but 4 of the 72 g3-2 inputs)
#: off the reduction, which costs them several times as much.
_PLAIN_NODES_PER_CN2 = 2


@dataclass
class RefutationStats:
    """How a dicolourability question was decided.

    ``plain_nodes`` were spent by the plain search before it finished or ran
    out of its allowance; ``reduced`` says whether the 2-separator reduction
    then ran, ``sides_replaced`` counts the sides it replaced by gadgets
    (inside side queries too) and ``piece_solves`` the searches it ran on
    pieces that it could not reduce further.
    """

    plain_nodes: int = 0
    reduced: bool = False
    sides_replaced: int = 0
    piece_solves: int = 0


def _in_masks(out: list[int]) -> list[int]:
    inn = [0] * len(out)
    for u, targets in enumerate(out):
        for v in bits(targets):
            inn[v] |= 1 << u
    return inn


def _attach(out: list[int], u: int, v: int, gadget: tuple[bool, bool, bool], c: int) -> None:
    """Add ``gadget = (uv, vu, forcer)`` between u and v, in place: the arc
    u->v if ``uv``, the arc v->u if ``vu``, and if ``forcer`` a bidirected
    K_{c-1} joined by digons to u and v, which forces c(u) = c(v)."""
    uv, vu, forcer = gadget
    if uv:
        out[u] |= 1 << v
    if vu:
        out[v] |= 1 << u
    if forcer:
        first = len(out)
        clique = ((1 << (c - 1)) - 1) << first
        for i in range(first, first + c - 1):
            out.append(clique ^ (1 << i) | 1 << u | 1 << v)
        out[u] |= clique
        out[v] |= clique


_NOTHING, _DIGON, _FORCER = (False, False, False), (True, True, False), (False, False, True)
#: ``_side_gadget``'s answer when the side admits no boundary state at all.
_REFUTED = "refuted"


def _side_gadget(
    out: list[int], inn: list[int], side: int, u: int, v: int, c: int,
    budget: Budget, stats: RefutationStats,
):
    """The gadget that can replace ``side`` at the separator {u, v}: a
    ``(uv, vu, forcer)`` triple for ``_attach``, ``_REFUTED`` when no
    c-dicolouring of H = D[side + {u, v}] - {uv, vu} exists, or None when H
    admits same-colour states with u->v paths and with v->u paths but none
    without a path (no small gadget has that state set).  The boundary
    states and the gadgets are proved in docs/decisions.md.
    """
    members = list(bits(side))
    a = len(members)
    h = restrict(out, members + [u, v])
    h[a] &= ~(1 << (a + 1))
    h[a + 1] &= ~(1 << a)

    def query(gadget) -> bool:
        q = h.copy()
        _attach(q, a, a + 1, gadget, c)
        return _colourable(q, c, budget, stats)

    # EQ0: c(u) = c(v) with no monochromatic path between them, that is,
    # H with v merged into u is c-dicolourable.
    merged = h[:a + 1]
    merged[a] |= h[a + 1]
    for w in range(a):
        if merged[w] >> (a + 1) & 1:
            merged[w] = merged[w] & ~(1 << (a + 1)) | 1 << a
    if _colourable(merged, c, budget, stats):
        return _NOTHING if query(_DIGON) else _FORCER
    # A monochromatic u->v path leaves u by an arc u->x and enters v by an
    # arc y->v, x and y in the side; if either arc lies in a digon, that
    # digon is monochromatic.  So without both kinds of arc no such path.
    free_out_u, free_in_u = out[u] & ~inn[u] & side, inn[u] & ~out[u] & side
    free_out_v, free_in_v = out[v] & ~inn[v] & side, inn[v] & ~out[v] & side
    uv = bool(free_out_u and free_in_v) and query((True, False, True))
    vu = bool(free_out_v and free_in_u) and query((False, True, True))
    if uv and vu:
        return None
    if query(_DIGON):
        return (not vu, not uv, False)
    if uv or vu:
        return (uv, vu, True)
    return _REFUTED


def _colourable(out: Sequence[int], c: int, budget: Budget, stats: RefutationStats) -> bool:
    """Is the digraph with out-neighbour bitsets ``out`` c-dicolourable?

    Each pass scans the 2-separators {u, v} of the underlying graph and
    offers every component A of G - {u, v} but the largest as a side,
    smallest first, if its queries are smaller than D (|A| + c + 1 < n) and
    it meets no side already replaced in this pass nor its boundary.  A side
    is replaced when its gadget has fewer vertices.  Digraphs of at most
    ``_BASE_SIZE`` vertices, and those where no side is replaced, go to the
    search.
    """
    while len(out) > _BASE_SIZE:
        n = len(out)
        inn = _in_masks(out)
        offers = []
        for cut, sides in two_cut_sides([o | i for o, i in zip(out, inn)]):
            if len(cut) == 2:
                sides.sort(key=int.bit_count)
                offers.extend((side.bit_count(), side, *cut) for side in sides[:-1])
        offers.sort()
        gone = closed = 0
        tried = set()
        gadgets = []
        for size, side, u, v in offers:
            ends = 1 << u | 1 << v
            if size + c + 1 >= n or side & closed or ends & gone or side in tried:
                continue
            tried.add(side)
            gadget = _side_gadget(out, inn, side, u, v, c, budget, stats)
            if gadget is _REFUTED:
                return False
            if gadget is None or (gadget[2] and size <= c - 1):
                continue
            gone |= side
            closed |= side | ends
            gadgets.append((u, v, gadget))
        if not gadgets:
            break
        stats.sides_replaced += len(gadgets)
        kept = [w for w in range(n) if not gone >> w & 1]
        index = {w: i for i, w in enumerate(kept)}
        out = restrict(out, kept)
        for u, v, gadget in gadgets:
            _attach(out, index[u], index[v], gadget, c)
    stats.piece_solves += 1
    arcs = [(u, v) for u, targets in enumerate(out) for v in bits(targets)]
    _, ordered_out, ordered_inn = _branching(out, _in_masks(out), arcs)
    return _first_assignment(ordered_out, ordered_inn, c, budget) is not None


def _decide(
    out: Sequence[int], ordered_out: list[int], ordered_inn: list[int], c: int,
    budget: Budget, stats: RefutationStats,
) -> bool:
    """Is the digraph with out-bitsets ``out`` c-dicolourable?  The plain
    search on the same digraph in branching order (``ordered_out`` and
    ``ordered_inn``, from ``_branching``) runs first, with an allowance of
    ``_PLAIN_NODES_PER_CN2`` c n^2 nodes; only if that runs out does the
    2-separator reduction decide, on ``out``.  Every node is charged to
    ``budget``."""
    n = len(out)
    before = budget.used
    if n <= _BASE_SIZE:
        found = _first_assignment(ordered_out, ordered_inn, c, budget) is not None
        stats.plain_nodes += budget.used - before
        return found
    allowance = Budget(
        max(1, min(_PLAIN_NODES_PER_CN2 * c * n * n, budget.remaining())), budget.what
    )
    try:
        found = _first_assignment(ordered_out, ordered_inn, c, allowance) is not None
    except BudgetExceeded:
        found = None
    # This raises when it was the caller's limit, not the allowance, that ran out.
    budget.spend(allowance.used)
    stats.plain_nodes += allowance.used
    if found is not None:
        return found
    stats.reduced = True
    return _colourable(out, c, budget, stats)


def is_k_dicolourable(
    d: Digraph, k: int, budget: Budget | int | None = None
) -> Colouring | None:
    """A valid k-dicolouring if one exists, else None (exhaustively correct).

    Raises BudgetExceeded when the node budget runs out before the search
    finishes; that outcome is "unknown", never "no".
    """
    if k < 1:
        raise ColouringError("k must be at least 1")
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dicolouring search")
    position, out, inn = _branching(d.out_masks, d.in_masks, d.arcs)
    found = _first_assignment(out, inn, k, budget)
    return None if found is None else Colouring(k, tuple(map(found.__getitem__, position)))


def dichromatic_number(d: Digraph, budget: Budget | int | None = None) -> int:
    """The least k for which D is k-dicolourable, each k decided like the
    refutation step of :func:`is_k_dicritical`."""
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dichromatic number")
    _, ordered_out, ordered_inn = _branching(d.out_masks, d.in_masks, d.arcs)
    stats = RefutationStats()
    for k in range(1, d.n + 1):
        if _decide(d.out_masks, ordered_out, ordered_inn, k, budget, stats):
            return k
    raise AssertionError("n colours always suffice")  # pragma: no cover


@dataclass
class CriticalityReport:
    """Outcome of a k-dicriticality check with per-arc witness colourings.

    ``nodes`` is the budget spent inside the check.  Of the witnesses,
    ``solved`` came from a fresh search and ``reused`` were taken from an
    earlier arc.  ``refutation`` tells how "D is not (k-1)-dicolourable"
    was decided.
    """

    digraph: Digraph
    k: int
    verdict: bool
    witnesses: dict[tuple[int, int], Colouring]
    failure_arc: tuple[int, int] | None = None
    failure_reason: str | None = None
    nodes: int = 0
    solved: int = 0
    refutation: RefutationStats = field(default_factory=RefutationStats)

    @property
    def reused(self) -> int:
        return len(self.witnesses) - self.solved

    def to_json(self) -> dict:
        return {
            "digraph": serialize(self.digraph),
            "k": self.k,
            "verdict": self.verdict,
            "witnesses": {
                f"{u} {v}": w.to_json() for (u, v), w in sorted(self.witnesses.items())
            },
            "failure_arc": list(self.failure_arc) if self.failure_arc else None,
            "failure_reason": self.failure_reason,
            "stats": {
                "nodes": self.nodes, "solved": self.solved, "reused": self.reused,
                **asdict(self.refutation),
            },
        }


def _reuse_fits(out: list[int], cls: int, x: int, y: int, u: int, v: int) -> bool:
    """Does the witness found for D - xy, whose class of x is the bitset
    ``cls``, also dicolour D - uv?  ``out`` holds D's out-bitsets, in any
    labelling that ``cls`` and the four vertices share.  Valid
    when D is not dicoloured by the witness: then every monochromatic cycle
    of D runs through xy, so for uv != xy the answer is yes iff u and v lie
    in ``cls`` and D[cls] - uv has no y->x path (docs/decisions.md,
    section 7)."""
    if not (cls >> u & 1 and cls >> v & 1):
        return False
    if u == x and v == y:
        return True
    target = 1 << x
    frontier = seen = 1 << y
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        w = low.bit_length() - 1
        step = out[w] & cls
        if w == u:
            step &= ~(1 << v)
        if step & target:
            return False
        step &= ~seen
        seen |= step
        frontier |= step
    return True


def is_k_dicritical(
    d: Digraph, k: int, budget: Budget | int | None = None
) -> CriticalityReport:
    """Check that the dichromatic number is k and drops below k on every
    proper subdigraph.

    Arc deletions suffice once no vertex is isolated (a vertex-deleted
    subdigraph sits inside some arc-deleted one), so the check is: D is not
    (k-1)-dicolourable, D has no isolated vertex, and D minus any single
    arc is (k-1)-dicolourable.  One witness colouring per arc is returned.
    The first step needs no witness: the plain search, then, if it runs
    long, the 2-separator reduction decides it (see the module docstring).

    Every search runs in one connectivity order computed for D, on D
    relabelled into it once; each fresh witness is mapped back to D's
    labels, and the screen below runs in the relabelled digraph.  Once D is
    known not to be (k-1)-dicolourable, the search for D - uv only tries
    colourings with c(u) = c(v), which loses nothing: a (k-1)-dicolouring c
    of D - uv with c(u) != c(v) would also dicolour D, because every cycle
    of D that is not a cycle of D - uv uses the arc uv and so meets both
    colours.

    Earlier fresh witnesses are tried before a search, newest first.  A
    witness w found for D - xy serves D - uv exactly when u and v lie in
    x's colour class C and D[C] - uv has no y->x path: since D is not
    (k-1)-dicolourable, every monochromatic cycle of D under w runs through
    xy (docs/decisions.md, section 7).  ``_reuse_fits`` tests that with one
    search on bitsets.  The accepted witness, fresh or reused, then passes
    ``check_dicolouring`` on D - uv, once, before it enters the report.
    """
    if k < 2:
        raise ColouringError("dicriticality is only checked for k >= 2")
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dicriticality check")
    start = budget.used
    out, inn = d.out_masks, d.in_masks
    if d.n > 1 and 0 in map(int.__or__, out, inn):
        for v in d.vertices():
            if not out[v] | inn[v]:
                return CriticalityReport(
                    d, k, False, {},
                    failure_reason=f"vertex {v} is isolated, so D-{v} is a proper "
                    f"subdigraph with the same dichromatic number",
                )
    position, ordered_out, ordered_inn = _branching(out, inn, d.arcs)
    refutation = RefutationStats()
    if _decide(out, ordered_out, ordered_inn, k - 1, budget, refutation):
        return CriticalityReport(
            d, k, False, {}, failure_reason=f"digraph is {k - 1}-dicolourable",
            nodes=budget.used - start, refutation=refutation,
        )
    witnesses: dict[tuple[int, int], Colouring] = {}
    # Each fresh witness with the arc xy it was found for and x's colour
    # class; the arc and the class are in branching order.
    fresh: list[tuple[Colouring, int, int, int]] = []
    for arc in d.sorted_arcs():
        u, v = position[arc[0]], position[arc[1]]
        for w, x, y, cls in reversed(fresh):
            if _reuse_fits(ordered_out, cls, x, y, u, v):
                break
        else:
            out_minus, inn_minus = ordered_out.copy(), ordered_inn.copy()
            out_minus[u] &= ~(1 << v)
            inn_minus[v] &= ~(1 << u)
            pin = (u, v) if u < v else (v, u)
            found = _first_assignment(out_minus, inn_minus, k - 1, budget, pin)
            if found is None:
                return CriticalityReport(
                    d, k, False, witnesses, failure_arc=arc,
                    failure_reason=f"deleting arc {arc} keeps the dichromatic number at {k}",
                    nodes=budget.used - start, solved=len(fresh), refutation=refutation,
                )
            w = Colouring(k - 1, tuple(map(found.__getitem__, position)))
            cls = sum(1 << x for x, c in enumerate(found) if c == found[u])
            fresh.append((w, u, v, cls))
        ok, _ = check_dicolouring(d, w, arc)
        if not ok:  # pragma: no cover - the search and the screen are exact
            raise AssertionError(f"witness for arc {arc} fails check_dicolouring")
        witnesses[arc] = w
    return CriticalityReport(
        d, k, True, witnesses, nodes=budget.used - start, solved=len(fresh),
        refutation=refutation,
    )
