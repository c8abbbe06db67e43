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

Whether D is c-dicolourable is decided in one place, ``_decide``, for
``is_k_dicolourable``, ``dichromatic_number`` and the step "D is not
(k-1)-dicolourable" of ``is_k_dicritical``: by the plain search first, with
an allowance of about 2 c n^2 nodes, keeping the assignment it finds; if
that runs out, a 2-separator reduction takes over.
It replaces one side A of a separator {u, v} of the underlying graph at a
time by a gadget of at most c - 1 vertices (nothing, a digon, an arc, a
bidirected K_{c-1} that forces c(u) = c(v), or that K_{c-1} plus an arc),
chosen by two to four recursive queries on digraphs smaller than D, and it
runs the search only on pieces of at most 9 vertices or where no side can
be replaced.  The proof is in docs/decisions.md, section 6.  After a "yes"
from the reduction, ``is_k_dicolourable`` runs the plain search to the end
for its witness.

``is_k_dicritical`` derives most per-arc witnesses from a few fresh ones,
on every digraph (docs/decisions.md, section 24).  A witness w for D - uv
colours u and v alike, say a, and serves every arc on every v->u path
inside the class A of a (rule 1).  For each other colour b, exchanging a
and b on v's side of an arc on every v->u path of the arcs between A and
the class of b gives the witness for that arc (rule 2, a directed Kempe
swap).  ``_bridges`` finds those arcs and v's sides in one pass along one
path, and each witness so derived is expanded in turn, so a few fresh
searches usually serve every arc.

The witness checker shares no code with the solver, so every witness the
solver returns is checked independently.  ``check_dicolourings`` takes
many (colouring, removed arc) pairs on one digraph and decides them
together: each vertex holds one small cell per pair with the bit of its
colour set, and a peel over D's out-neighbour lists clears, pass by pass,
the bits of vertices with no monochromatic out-neighbour left, so a pair
keeps a bit exactly when its colour classes have a cycle in D minus its
arc (docs/decisions.md, section 17).  The removed arc is skipped on D
itself, so no per-arc digraph is rebuilt.  Only for a pair that fails
does a DFS (``_find_monochromatic_cycle``) find the cycle, and the two
must agree.  ``check_dicolouring`` is the same check for one pair, and
``_classes_acyclic`` the same peel for one colouring given as class
bitsets, with no removed arc and no cycle (the census's pre-check).

Budgets count decision nodes; an exhausted budget raises
:class:`~dicrit.budget.BudgetExceeded` rather than returning a silent "no".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import filterfalse, islice
from operator import or_
from typing import Iterable, Iterator, Sequence

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
    return check_dicolourings(d, [(colouring, removed)])[0]


#: check_dicolourings decides this many (colouring, removed arc) pairs per
#: peel.  On the 7,708 checks of 28 seed-1 certify jobs, best of 7, the
#: checks took 95 ms at 128 pairs, 104 ms at 64, 113 ms at 256 and 131 ms
#: at 512, against 790 ms for a DFS per pair.
_PAIRS_PER_PEEL = 128


def _postorder(out: Sequence[Sequence[int]]) -> list[int]:
    """The vertices in the order a DFS over the out-neighbour lists ``out``
    finishes them.  Every arc but a back arc points from a vertex to one
    that comes earlier."""
    state = [False] * len(out)
    order = []
    for root in range(len(out)):
        if state[root]:
            continue
        state[root] = True
        path = [root]
        stack = [iter(out[root])]
        while stack:
            for u in stack[-1]:
                if not state[u]:
                    state[u] = True
                    path.append(u)
                    stack.append(iter(out[u]))
                    break
            else:
                order.append(path.pop())
                stack.pop()
    return order


def _cells(colourings: list[tuple[int, ...]], n: int) -> tuple[list[int], int]:
    """Per vertex v, one cell of ``width`` bits per colouring, colouring p
    in bits p * width onwards; v's colour c sets bit c - 1 of its cell."""
    top = max(map(max, colourings))
    if top <= 8:
        # One byte per cell: the colourings as rows of bytes, colour c
        # translated to the byte 1 << c - 1, read off column by column.
        one_hot = bytes.maketrans(b"\1\2\3\4\5\6\7\10", b"\1\2\4\10\20\40\100\200")
        rows = b"".join(map(bytes, colourings)).translate(one_hot)
        return [int.from_bytes(rows[v::n], "little") for v in range(n)], 8
    cells = [0] * n
    for p, colours in enumerate(colourings):
        for v, c in enumerate(colours):
            cells[v] |= 1 << p * top + c - 1
    return cells, top


def _peel(d: Digraph, order: list[int], chunk: list) -> list[bool]:
    """For each pair of ``chunk``, does its colouring keep a monochromatic
    cycle in D minus its arc?  Decided for all pairs at once by the peel
    of docs/decisions.md, section 17, visiting the vertices in ``order``."""
    n = d.n
    for colouring, _ in chunk:
        if len(colouring.colours) != n:
            raise ColouringError(
                f"assignment covers {len(colouring.colours)} vertices, digraph has {n}"
            )
    try:
        alive, width = _cells([colouring.colours for colouring, _ in chunk], n)
    except TypeError:
        raise ColouringError("colours must be integers") from None
    full = (1 << width) - 1
    # A removed arc ab no longer passes to a the bit of its pair at a's
    # colour: b leaves a's plain out-neighbours and passes to a masked.
    cut: dict[int, dict[int, int]] = {}
    for p, (_, removed) in enumerate(chunk):
        if removed is not None and d.has_arc(*removed):
            a, b = removed
            heads = cut.setdefault(a, {})
            heads[b] = heads.get(b, 0) | alive[a] & full << p * width
    plain = list(d._out)
    masked = {}
    for a, heads in cut.items():
        plain[a] = tuple(filterfalse(heads.__contains__, plain[a]))
        masked[a] = [(b, ~bit) for b, bit in heads.items()]
    # alive[v] &= OR of alive[u] over the out-neighbours u of v: a bit of v
    # survives while v has a live out-neighbour of its colour in that pair.
    live = alive.__getitem__
    changed = True
    while changed:
        changed = False
        for v in order:
            have = alive[v]
            if have:
                reach = reduce(or_, map(live, plain[v]), 0)
                if v in masked:
                    for b, keep in masked[v]:
                        reach |= alive[b] & keep
                if have & reach != have:
                    alive[v] = have & reach
                    changed = True
    left = reduce(or_, alive, 0)
    return [bool(left >> p * width & full) for p in range(len(chunk))]


def check_dicolourings(
    d: Digraph, checks: Iterable[tuple[Colouring, tuple[int, int] | None]]
) -> list[tuple[bool, list[int] | None]]:
    """``check_dicolouring(d, colouring, removed)`` for every pair of
    ``checks``, in order, decided together by one bit-parallel peel per
    ``_PAIRS_PER_PEEL`` pairs (docs/decisions.md, section 17).

    ``checks`` is read lazily, so memory stays within one chunk of pairs.
    Only for a pair the peel rejects does ``_find_monochromatic_cycle``
    look for the cycle, and finding none raises ``AssertionError``: the
    peel and the DFS check each other.
    """
    checks = iter(checks)
    chunk = list(islice(checks, _PAIRS_PER_PEEL))
    order = _postorder(d._out) if chunk else []
    results = []
    while chunk:
        for (colouring, removed), cyclic in zip(chunk, _peel(d, order, chunk)):
            if not cyclic:
                results.append((True, None))
                continue
            cycle = _find_monochromatic_cycle(d, colouring.colours, removed)
            if cycle is None:
                raise AssertionError(
                    f"the peel rejects pair {len(results)}, but the DFS finds no "
                    f"monochromatic cycle"
                )
            results.append((False, cycle))
        chunk = list(islice(checks, _PAIRS_PER_PEEL))
    return results


def _classes_acyclic(out: Sequence[int], classes: Iterable[int]) -> bool:
    """Does every vertex bitset of ``classes`` induce an acyclic subdigraph
    of the digraph with out-bitsets ``out``?  Each class is peeled as one
    pair of ``_peel`` is (docs/decisions.md, section 17): a vertex with no
    out-neighbour left in the class is dropped, until a pass drops nothing,
    and the class is acyclic exactly when nothing is left."""
    for cls in classes:
        dropped = True
        while cls and dropped:
            dropped = False
            rest = cls
            while rest:
                low = rest & -rest
                rest ^= low
                if not out[low.bit_length() - 1] & cls:
                    cls ^= low
                    dropped = True
        if cls:
            return False
    return True


def _branching(
    out: Sequence[int], inn: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """The digraph with out- and in-bitsets ``out``/``inn`` relabelled into
    its connectivity order, for the kernel.

    The order puts a vertex of highest degree first, then always the vertex
    with the most neighbours already placed (ties by degree, then id).  Each
    vertex carries one integer score, written in base n with its id as the
    last digit, so ``max`` picks the vertex as well as the score; placing a
    vertex adds ``step`` to the score of each neighbour not yet placed, and
    ``step`` exceeds every degree-and-id key, so the placed-neighbour count
    always dominates the tie-breaks.  A placed vertex's score drops to -1.

    Returns ``position``, where ``position[v]`` is the depth of vertex v,
    and the out- and in-bitsets with depth i as vertex i, both built in one
    pass over the bits of ``out``.
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
    for u, targets in enumerate(out):
        i = position[u]
        for v in bits(targets):
            j = position[v]
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
    _, ordered_out, ordered_inn = _branching(out, _in_masks(out))
    return _first_assignment(ordered_out, ordered_inn, c, budget) is not None


def _decide(
    out: Sequence[int], ordered_out: list[int], ordered_inn: list[int], c: int,
    budget: Budget, stats: RefutationStats,
) -> tuple[int, ...] | bool | None:
    """Is the digraph with out-bitsets ``out`` c-dicolourable?  The plain
    search on the same digraph in branching order (``ordered_out`` and
    ``ordered_inn``, from ``_branching``) runs first, with an allowance of
    ``_PLAIN_NODES_PER_CN2`` c n^2 nodes; only if that runs out does the
    2-separator reduction decide, on ``out``.  Returns the assignment the
    plain search found, in branching order, True when the reduction decided
    "yes", or None for "no".  Every node is charged to ``budget``."""
    n = len(out)
    before = budget.used
    if n <= _BASE_SIZE:
        found = _first_assignment(ordered_out, ordered_inn, c, budget)
        stats.plain_nodes += budget.used - before
        return found
    allowance = Budget(
        max(1, min(_PLAIN_NODES_PER_CN2 * c * n * n, budget.remaining())), budget.what
    )
    try:
        found = _first_assignment(ordered_out, ordered_inn, c, allowance)
    except BudgetExceeded:
        found = False
    # This raises when it was the caller's limit, not the allowance, that ran out.
    budget.spend(allowance.used)
    stats.plain_nodes += allowance.used
    if found is not False:
        return found
    stats.reduced = True
    return _colourable(out, c, budget, stats) or None


def is_k_dicolourable(
    d: Digraph, k: int, budget: Budget | int | None = None
) -> Colouring | None:
    """A valid k-dicolouring if one exists, else None (exhaustively correct).

    Decided by ``_decide``; after a "yes" from the reduction the plain
    search runs to the end for the witness, which is therefore the same
    whichever route decided.  Raises BudgetExceeded when the node budget
    runs out first; that outcome is "unknown", never "no".
    """
    if k < 1:
        raise ColouringError("k must be at least 1")
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dicolouring search")
    position, out, inn = _branching(d.out_masks, d.in_masks)
    found = _decide(d.out_masks, out, inn, k, budget, RefutationStats())
    if found is True:
        found = _first_assignment(out, inn, k, budget)
    return None if found is None else Colouring(k, tuple(map(found.__getitem__, position)))


def dichromatic_number(d: Digraph, budget: Budget | int | None = None) -> int:
    """The least k for which D is k-dicolourable, each k decided like the
    refutation step of :func:`is_k_dicritical`."""
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dichromatic number")
    _, ordered_out, ordered_inn = _branching(d.out_masks, d.in_masks)
    stats = RefutationStats()
    for k in range(1, d.n + 1):
        if _decide(d.out_masks, ordered_out, ordered_inn, k, budget, stats):
            return k
    raise AssertionError("n colours always suffice")  # pragma: no cover


@dataclass
class CriticalityReport:
    """Outcome of a k-dicriticality check with per-arc witness colourings.

    ``nodes`` is the budget spent inside the check.  Of the distinct
    witnesses, ``solved`` came from a fresh search and ``swapped`` from a
    directed Kempe swap (rule 2 of docs/decisions.md, section 24).
    ``reused`` counts the arcs whose witness an earlier arc already holds:
    when every arc has a witness, the arcs that rule 1 served.
    ``refutation`` tells how "D is not (k-1)-dicolourable" was decided.
    """

    digraph: Digraph
    k: int
    verdict: bool
    witnesses: dict[tuple[int, int], Colouring]
    failure_arc: tuple[int, int] | None = None
    failure_reason: str | None = None
    nodes: int = 0
    solved: int = 0
    swapped: int = 0
    refutation: RefutationStats = field(default_factory=RefutationStats)

    @property
    def reused(self) -> int:
        return len(self.witnesses) - self.solved - self.swapped

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
                "nodes": self.nodes, "solved": self.solved, "swapped": self.swapped,
                "reused": self.reused, **asdict(self.refutation),
            },
        }


def _bridges(
    out: Sequence[int], inn: Sequence[int], one: int, two: int, v: int, u: int
) -> Iterator[tuple[int, int, int]]:
    """The arcs pq on every v->u path of H, each with v's reach set in
    H - pq, as (p, q, side) in path order.

    H holds D's arcs from the vertex bitset ``one`` to ``two`` and from
    ``two`` to ``one``; ``out``/``inn`` are D's out- and in-bitsets and v
    lies in ``one``.  A breadth-first search from v finds one v->u path
    P = x_0 .. x_m of H, walked back from u through the in-bitsets, and
    raises ``AssertionError`` if there is none.  Then one flood along P:
    T, the reach of x_0 .. x_i in H minus P's arcs, only grows with i, and
    x_i x_{i+1} lies on every v->u path exactly when T holds no later
    vertex of P; T is then v's reach set in H - x_i x_{i+1}
    (docs/decisions.md, section 24).
    """
    # Breadth-first layers from v; H alternates between the two sets.
    across = (one, two)
    layers = [1 << v]
    seen = 1 << v
    while not seen >> u & 1:
        layer = layers[-1]
        ahead = 0
        while layer:
            low = layer & -layer
            ahead |= out[low.bit_length() - 1]
            layer ^= low
        ahead &= across[len(layers) & 1] & ~seen
        if not ahead:
            raise AssertionError(f"no path from {v} to {u}, so D is dicolourable")
        seen |= ahead
        layers.append(ahead)
    # P, walked back from u: ``nxt`` maps each vertex of P but u to the next.
    nxt = {}
    x, rest = u, 0  # rest: the vertices of P after x_i
    for layer in reversed(layers[:-1]):
        rest |= 1 << x
        near = inn[x] & layer
        p = (near & -near).bit_length() - 1
        nxt[p] = x
        x = p
    side = 0
    while x != u:
        q = nxt[x]
        if not side >> x & 1:
            side |= 1 << x
            frontier = 1 << x
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                w = low.bit_length() - 1
                step = out[w] & (two if one >> w & 1 else one) & ~side
                if w in nxt:
                    step &= ~(1 << nxt[w])
                side |= step
                frontier |= step
        if not side & rest:
            yield x, q, side
        elif side >> u & 1:
            return
        rest ^= 1 << q
        x = q


def _closure(
    out: Sequence[int], inn: Sequence[int], u: int, v: int,
    derived: dict[tuple[int, int], Colouring], m: int,
) -> None:
    """Expand the witness ``derived[u, v]`` for D - uv by the rules of
    docs/decisions.md, section 24, until all m arcs of D have a witness in
    ``derived`` or none is left to expand.  D must not be c-dicolourable,
    c the witness's ``k``.

    Let w be a witness for D - xy, with w(x) = w(y) = a and A the class of
    a.  Rule 1 gives w every arc of D[A] on every y->x path; rule 2, for
    each other colour b, exchanges a and b on y's side of each arc that
    ``_bridges`` finds between A and B, and gives that arc the new witness.
    Each new witness takes its rule-1 arcs at once and is expanded by rule
    2, newest first, except on the two colours of the swap that made it:
    there it would find only its parent's arc and the arcs of the pass
    that found it, which all have witnesses.  When x is y's only
    out-neighbour in A, as on every bidirected D, yx is the only rule-1
    arc and needs no pass; the pair (w, yx) is then expanded as well, once
    no swap witness is left.
    """
    first = derived[u, v]
    c = first.k
    classes = [0] * (c + 1)
    for x, colour in enumerate(first.colours):
        classes[colour] |= 1 << x
    swaps, reverses = [], []

    def take(colours, classes, x, y, w, skip=0) -> None:
        cls = classes[colours[x]]
        if out[y] & cls == 1 << x:
            if (y, x) not in derived:
                derived[y, x] = w
                reverses.append((colours, classes, y, x, 0))
        else:
            for p, q, _ in _bridges(out, inn, cls, cls, y, x):
                derived.setdefault((p, q), w)
        swaps.append((colours, classes, x, y, skip))

    take(first.colours, classes, u, v, first)
    while len(derived) < m and (swaps or reverses):
        colours, classes, x, y, skip = (swaps or reverses).pop()
        a = colours[x]
        for b in range(1, c + 1):
            if b == a or b == skip:
                continue
            for p, q, side in _bridges(out, inn, classes[a], classes[b], y, x):
                if (p, q) in derived:
                    continue
                swapped = list(colours)
                rest = side
                while rest:
                    low = rest & -rest
                    rest ^= low
                    z = low.bit_length() - 1
                    swapped[z] = a + b - swapped[z]
                w = derived[p, q] = Colouring(c, tuple(swapped))
                moved = classes.copy()
                moved[a] ^= side
                moved[b] ^= side
                take(swapped, moved, p, q, w, a + b - swapped[p])
                if len(derived) == m:
                    return


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
    labels, and the closure below runs in D's own labels.  Once D is known
    not to be (k-1)-dicolourable, the search for D - uv only tries
    colourings with c(u) = c(v), which loses nothing: a (k-1)-dicolouring c
    of D - uv with c(u) != c(v) would also dicolour D, because every cycle
    of D that is not a cycle of D - uv uses the arc uv and so meets both
    colours.

    ``_closure`` expands each fresh witness into witnesses for other arcs
    (docs/decisions.md, section 24).  Under a witness w for D - uv with
    w(u) = w(v) = a, every monochromatic cycle of D is uv and a v->u path
    of D[A], A the class of a, so w also serves each arc on every such path
    (rule 1).  For each other colour b, v reaches u in the digraph H of D's
    arcs between A and B, and exchanging a and b on v's reach set in
    H - pq, for an arc pq on every v->u path of H, gives a witness for
    D - pq (rule 2).  Each rule-2 witness is expanded in turn, newest
    first, until every arc has a witness.  An arc takes a derived witness
    if it has one, else a fresh pinned search.  The arcs are still visited
    in sorted order, so ``failure_arc`` and the witness keys are those of
    a fresh search per arc.

    Every witness in every report, fresh, derived or reused, is checked
    once on D minus its arc: the arc loop collects them, and one
    ``check_dicolourings`` call checks them all before any report with
    witnesses is returned, a report with a ``failure_arc`` included.
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
    position, ordered_out, ordered_inn = _branching(out, inn)
    refutation = RefutationStats()
    if _decide(out, ordered_out, ordered_inn, k - 1, budget, refutation):
        return CriticalityReport(
            d, k, False, {}, failure_reason=f"digraph is {k - 1}-dicolourable",
            nodes=budget.used - start, refutation=refutation,
        )
    witnesses: dict[tuple[int, int], Colouring] = {}
    # Every witness so far, fresh or derived, keyed by its arc.
    derived: dict[tuple[int, int], Colouring] = {}
    solved = 0
    failure_arc = None
    for arc in d.sorted_arcs():
        w = derived.get(arc)
        if w is None:
            u, v = position[arc[0]], position[arc[1]]
            out_minus, inn_minus = ordered_out.copy(), ordered_inn.copy()
            out_minus[u] &= ~(1 << v)
            inn_minus[v] &= ~(1 << u)
            pin = (u, v) if u < v else (v, u)
            found = _first_assignment(out_minus, inn_minus, k - 1, budget, pin)
            if found is None:
                failure_arc = arc
                break
            solved += 1
            w = derived[arc] = Colouring(k - 1, tuple(map(found.__getitem__, position)))
            _closure(out, inn, *arc, derived, d.m)
        witnesses[arc] = w
    checked = check_dicolourings(d, [(w, arc) for arc, w in witnesses.items()])
    for arc, (ok, _) in zip(witnesses, checked):
        if not ok:  # only a wrong search or a wrong rule gets here
            raise AssertionError(f"witness for arc {arc} fails check_dicolourings")
    return CriticalityReport(
        d, k, failure_arc is None, witnesses, failure_arc=failure_arc,
        failure_reason=None if failure_arc is None else
        f"deleting arc {failure_arc} keeps the dichromatic number at {k}",
        nodes=budget.used - start, solved=solved,
        swapped=len(set(map(id, witnesses.values()))) - solved,
        refutation=refutation,
    )
