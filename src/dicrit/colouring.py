"""Exact dicolouring: decision, dichromatic number, dicriticality.

A k-dicolouring assigns each vertex a colour in 1..k so that every colour
class induces an acyclic subdigraph.  The solver backtracks over vertices
in a connectivity order (a vertex of highest degree first, then always the
vertex with the most neighbours already placed; ties by degree, then id),
trying colours lowest first, and rejects an assignment as soon as it closes
a directed cycle inside one colour class.  That test runs on Python-int
bitsets: one per colour class, and the out- and in-neighbourhood of each
vertex.  Symmetry is broken by allowing colour j+1 only once colour j has
appeared, which in particular pins the first branching vertex to colour 1.
Runs are deterministic and reproducible.

``check_dicolouring`` runs its own DFS over adjacency lists and shares no
code with the solver, so every witness the solver returns is checked
independently.

Budgets count decision nodes; an exhausted budget raises
:class:`~dicrit.budget.BudgetExceeded` rather than returning a silent "no".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .budget import Budget, DEFAULT_SOLVER_NODES, ensure_budget
from .digraph import Digraph, serialize


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
        if any(not (1 <= c <= self.k) for c in self.colours):
            raise ColouringError("colours must lie in 1..k")

    def colour_of(self, v: int) -> int:
        return self.colours[v]

    def to_json(self) -> dict:
        return {"k": self.k, "colours": list(self.colours)}


def _find_monochromatic_cycle(d: Digraph, colours: tuple[int, ...]) -> list[int] | None:
    """A directed cycle inside one colour class, as a vertex list, or None."""
    state = [0] * d.n  # 0 unvisited, 1 on stack, 2 done
    for root in d.vertices():
        if state[root]:
            continue
        c = colours[root]
        # Iterative DFS restricted to the colour class of the root.
        stack: list[tuple[int, Iterator[int]]] = [(root, iter(d.out_neighbours(root)))]
        state[root] = 1
        path = [root]
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if colours[u] != c:
                    continue
                if state[u] == 1:
                    return path[path.index(u):]
                if state[u] == 0:
                    state[u] = 1
                    path.append(u)
                    stack.append((u, iter(d.out_neighbours(u))))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                path.pop()
                stack.pop()
    return None


def check_dicolouring(d: Digraph, colouring: Colouring) -> tuple[bool, list[int] | None]:
    """True iff every colour class is acyclic; else a monochromatic cycle."""
    if len(colouring.colours) != d.n:
        raise ColouringError(
            f"assignment covers {len(colouring.colours)} vertices, digraph has {d.n}"
        )
    cycle = _find_monochromatic_cycle(d, colouring.colours)
    return (cycle is None), cycle


def _masks(d: Digraph) -> tuple[list[int], list[int]]:
    """Out- and in-neighbour sets of every vertex as Python-int bitsets."""
    out, inn = [0] * d.n, [0] * d.n
    for u, v in d.arcs:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    return out, inn


def _search_order(out: list[int], inn: list[int]) -> list[int]:
    """Connectivity order: a vertex of highest degree first, then always the
    vertex with the most neighbours already placed (ties by degree, then id).

    Each vertex carries one integer score; placing a vertex adds ``step`` to
    the score of each neighbour, and ``step`` exceeds every degree-and-id key,
    so the placed-neighbour count always dominates the tie-breaks.
    """
    n = len(out)
    score = [(out[v].bit_count() + inn[v].bit_count()) * n + n - 1 - v for v in range(n)]
    step = 2 * n * n
    order: list[int] = []
    left = set(range(n))
    while left:
        v = max(left, key=score.__getitem__)
        left.remove(v)
        order.append(v)
        neighbours = out[v] | inn[v]
        while neighbours:
            low = neighbours & -neighbours
            score[low.bit_length() - 1] += step
            neighbours ^= low
    return order


def _assignments(
    out: list[int],
    inn: list[int],
    order: list[int],
    k: int,
    budget: Budget,
    symmetry: bool,
    pin: tuple[int, int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every valid k-dicolouring assignment (backtracking core).

    ``out``/``inn`` are the bitset adjacency of the digraph, ``order`` the
    branching order.  ``pin = (a, b)``, with a placed before b, restricts the
    search to assignments with c(a) = c(b): b gets a's colour and no other.
    """
    n = len(order)
    colour = [0] * n
    members = [0] * (k + 1)  # members[c]: bitset of the vertices coloured c
    anchor, pinned = pin if pin is not None else (-1, -1)

    def creates_cycle(v: int, cls: int) -> bool:
        # A cycle through v inside the class is a path from an out-neighbour
        # of v to an in-neighbour of v; none exists unless v has both.
        targets = inn[v] & cls
        if not targets:
            return False
        frontier = seen = out[v] & cls
        while frontier:
            if frontier & targets:
                return True
            low = frontier & -frontier
            frontier ^= low
            fresh = out[low.bit_length() - 1] & cls & ~seen
            seen |= fresh
            frontier |= fresh
        return False

    # Depth i holds order[i]; held[i] is its current colour (0: none yet)
    # and top[i] the highest colour among order[:i].
    held = [0] * n
    top = [0] * (n + 1)
    spend = budget.spend
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(colour)
            i -= 1
            continue
        v = order[i]
        c = held[i]
        if c:
            members[c] &= ~(1 << v)
        if v == pinned:
            c, last = max(c, colour[anchor] - 1), colour[anchor]
        else:
            last = k if not symmetry or top[i] >= k else top[i] + 1
        while c < last:
            c += 1
            spend()
            if not creates_cycle(v, members[c]):
                break
        else:
            held[i] = colour[v] = 0
            i -= 1
            continue
        held[i] = colour[v] = c
        members[c] |= 1 << v
        top[i + 1] = c if c > top[i] else top[i]
        i += 1


def _solve(d: Digraph, k: int, budget: Budget, symmetry: bool) -> Iterator[tuple[int, ...]]:
    """``_assignments`` on ``d`` in its connectivity order."""
    out, inn = _masks(d)
    return _assignments(out, inn, _search_order(out, inn), k, budget, symmetry)


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
    for assignment in _solve(d, k, budget, symmetry=True):
        return Colouring(k, assignment)
    return None


def enumerate_k_dicolourings(
    d: Digraph, k: int, budget: Budget | int | None = None
) -> Iterator[Colouring]:
    """All valid k-dicolourings, including colour permutations."""
    if k < 1:
        raise ColouringError("k must be at least 1")
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dicolouring enumeration")
    for assignment in _solve(d, k, budget, symmetry=False):
        yield Colouring(k, assignment)


def dichromatic_number(d: Digraph, budget: Budget | int | None = None) -> int:
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dichromatic number")
    for k in range(1, d.n + 1):
        if is_k_dicolourable(d, k, budget) is not None:
            return k
    raise AssertionError("n colours always suffice")  # pragma: no cover


@dataclass
class CriticalityReport:
    """Outcome of a k-dicriticality check with per-arc witness colourings.

    ``nodes`` is the budget spent inside the check.  Of the witnesses,
    ``solved`` came from a fresh search and ``reused`` were taken from an
    earlier arc.
    """

    digraph: Digraph
    k: int
    verdict: bool
    witnesses: dict[tuple[int, int], Colouring]
    failure_arc: tuple[int, int] | None = None
    failure_reason: str | None = None
    nodes: int = 0
    solved: int = 0

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
            "stats": {"nodes": self.nodes, "solved": self.solved, "reused": self.reused},
        }


def is_k_dicritical(
    d: Digraph, k: int, budget: Budget | int | None = None
) -> CriticalityReport:
    """Check that the dichromatic number is k and drops below k on every
    proper subdigraph.

    Arc deletions suffice once no vertex is isolated (a vertex-deleted
    subdigraph sits inside some arc-deleted one), so the check is: D is not
    (k-1)-dicolourable, D has no isolated vertex, and D minus any single
    arc is (k-1)-dicolourable.  One witness colouring per arc is returned.

    Every search runs in one connectivity order computed for D.  Once D is
    known not to be (k-1)-dicolourable, the search for D - uv only tries
    colourings with c(u) = c(v), which loses nothing: a (k-1)-dicolouring c
    of D - uv with c(u) != c(v) would also dicolour D, because every cycle
    of D that is not a cycle of D - uv uses the arc uv and so meets both
    colours.  By the same argument only earlier witnesses with c(u) = c(v)
    can serve D - uv; they are tried first, newest first.  Every witness,
    fresh or reused, passes ``check_dicolouring`` on D - uv before it enters
    the report.
    """
    if k < 2:
        raise ColouringError("dicriticality is only checked for k >= 2")
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dicriticality check")
    start = budget.used
    if d.n > 1:
        for v in d.vertices():
            if d.degree(v) == 0:
                return CriticalityReport(
                    d, k, False, {},
                    failure_reason=f"vertex {v} is isolated, so D-{v} is a proper "
                    f"subdigraph with the same dichromatic number",
                )
    out, inn = _masks(d)
    order = _search_order(out, inn)
    if next(_assignments(out, inn, order, k - 1, budget, True), None) is not None:
        return CriticalityReport(
            d, k, False, {}, failure_reason=f"digraph is {k - 1}-dicolourable",
            nodes=budget.used - start,
        )
    witnesses: dict[tuple[int, int], Colouring] = {}
    fresh: list[Colouring] = []
    for arc in d.sorted_arcs():
        u, v = arc
        minus = d.without_arcs([arc])
        w = next(
            (
                old for old in reversed(fresh)
                if old.colours[u] == old.colours[v] and check_dicolouring(minus, old)[0]
            ),
            None,
        )
        if w is None:
            out_minus, inn_minus = out.copy(), inn.copy()
            out_minus[u] &= ~(1 << v)
            inn_minus[v] &= ~(1 << u)
            pin = (u, v) if order.index(u) < order.index(v) else (v, u)
            found = next(
                _assignments(out_minus, inn_minus, order, k - 1, budget, True, pin=pin),
                None,
            )
            if found is None:
                return CriticalityReport(
                    d, k, False, witnesses, failure_arc=arc,
                    failure_reason=f"deleting arc {arc} keeps the dichromatic number at {k}",
                    nodes=budget.used - start, solved=len(fresh),
                )
            w = Colouring(k - 1, found)
            ok, _ = check_dicolouring(minus, w)
            if not ok:  # pragma: no cover - solver always returns valid colourings
                raise AssertionError("solver produced an invalid witness")
            fresh.append(w)
        witnesses[arc] = w
    return CriticalityReport(
        d, k, True, witnesses, nodes=budget.used - start, solved=len(fresh)
    )
