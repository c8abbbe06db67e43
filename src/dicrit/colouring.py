"""Exact dicolouring: decision, dichromatic number, dicriticality.

A k-dicolouring assigns each vertex a colour in 1..k so that every colour
class induces an acyclic subdigraph.  The solver backtracks over vertices
in a fixed order (decreasing degree, ties by id), trying colours lowest
first, and rejects an assignment as soon as it closes a directed cycle
inside one colour class.  Symmetry is broken by allowing colour j+1 only
once colour j has appeared, which in particular pins the first branching
vertex to colour 1.  Runs are deterministic and reproducible.

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


def _assignments(
    d: Digraph, k: int, budget: Budget, symmetry: bool
) -> Iterator[tuple[int, ...]]:
    """Yield every valid k-dicolouring assignment (backtracking core)."""
    n = d.n
    order = sorted(range(n), key=lambda v: (-d.degree(v), v))
    colour = [0] * n
    out = d.out_neighbours

    def creates_cycle(v: int, c: int) -> bool:
        stack = [u for u in out(v) if colour[u] == c]
        seen = set(stack)
        while stack:
            w = stack.pop()
            for u in out(w):
                if u == v:
                    return True
                if colour[u] == c and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return False

    def rec(i: int, max_used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(colour)
            return
        v = order[i]
        top = min(k, max_used + 1) if symmetry else k
        for c in range(1, top + 1):
            budget.spend()
            if creates_cycle(v, c):
                continue
            colour[v] = c
            yield from rec(i + 1, max_used if c <= max_used else c)
            colour[v] = 0

    yield from rec(0, 0)


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
    for assignment in _assignments(d, k, budget, symmetry=True):
        return Colouring(k, assignment)
    return None


def enumerate_k_dicolourings(
    d: Digraph, k: int, budget: Budget | int | None = None
) -> Iterator[Colouring]:
    """All valid k-dicolourings, including colour permutations."""
    if k < 1:
        raise ColouringError("k must be at least 1")
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dicolouring enumeration")
    for assignment in _assignments(d, k, budget, symmetry=False):
        yield Colouring(k, assignment)


def dichromatic_number(d: Digraph, budget: Budget | int | None = None) -> int:
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dichromatic number")
    for k in range(1, d.n + 1):
        if is_k_dicolourable(d, k, budget) is not None:
            return k
    raise AssertionError("n colours always suffice")  # pragma: no cover


@dataclass
class CriticalityReport:
    """Outcome of a k-dicriticality check with per-arc witness colourings."""

    digraph: Digraph
    k: int
    verdict: bool
    witnesses: dict[tuple[int, int], Colouring]
    failure_arc: tuple[int, int] | None = None
    failure_reason: str | None = None

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
    """
    if k < 2:
        raise ColouringError("dicriticality is only checked for k >= 2")
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dicriticality check")
    if d.n > 1:
        for v in d.vertices():
            if d.degree(v) == 0:
                return CriticalityReport(
                    d, k, False, {},
                    failure_reason=f"vertex {v} is isolated, so D-{v} is a proper "
                    f"subdigraph with the same dichromatic number",
                )
    if is_k_dicolourable(d, k - 1, budget) is not None:
        return CriticalityReport(
            d, k, False, {}, failure_reason=f"digraph is {k - 1}-dicolourable"
        )
    witnesses: dict[tuple[int, int], Colouring] = {}
    for arc in d.sorted_arcs():
        minus = d.without_arcs([arc])
        w = is_k_dicolourable(minus, k - 1, budget)
        if w is None:
            return CriticalityReport(
                d, k, False, witnesses, failure_arc=arc,
                failure_reason=f"deleting arc {arc} keeps the dichromatic number at {k}",
            )
        ok, _ = check_dicolouring(minus, w)
        if not ok:  # pragma: no cover - solver always returns valid colourings
            raise AssertionError("solver produced an invalid witness")
        witnesses[arc] = w
    return CriticalityReport(d, k, True, witnesses)
