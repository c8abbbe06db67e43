"""Maximum packings of vertex-disjoint digons and bidirected triangles.

The packing value is d + 2t for d digons and t bidirected triangles; its
maximum over all packings is the quantity every potential computation
needs.  The search is branch and bound over the candidate items (triangles
enumerated first, then digons, both in lexicographic order) with an
admissible optimistic bound, so the result is exhaustively optimal unless
the node budget runs out, in which case the best packing found so far is
returned flagged non-optimal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import Budget, DEFAULT_PACKING_NODES, BudgetExceeded, ensure_budget
from .digraph import Digraph


@dataclass(frozen=True)
class Packing:
    """Vertex-disjoint digons and bidirected triangles of one digraph."""

    digon_items: tuple[tuple[int, int], ...]
    triangle_items: tuple[tuple[int, int, int], ...]
    optimal: bool = True

    @property
    def value(self) -> int:
        return len(self.digon_items) + 2 * len(self.triangle_items)

    def vertices(self) -> frozenset[int]:
        used: set[int] = set()
        for item in self.digon_items + self.triangle_items:
            used.update(item)
        return frozenset(used)

    def to_json(self) -> dict:
        return {
            "digons": [list(p) for p in self.digon_items],
            "triangles": [list(t) for t in self.triangle_items],
            "value": self.value,
            "optimal": self.optimal,
        }


def verify_packing(d: Digraph, packing: Packing) -> bool:
    """Items pairwise disjoint, digons are digons, triples induce K3<->."""
    used: set[int] = set()
    for u, v in packing.digon_items:
        if not d.has_digon(u, v):
            return False
        if {u, v} & used:
            return False
        used.update((u, v))
    for a, b, c in packing.triangle_items:
        if not (d.has_digon(a, b) and d.has_digon(a, c) and d.has_digon(b, c)):
            return False
        if {a, b, c} & used:
            return False
        used.update((a, b, c))
    return True


def bidirected_triangles(d: Digraph) -> list[tuple[int, int, int]]:
    """All vertex triples inducing a bidirected triangle, lexicographic."""
    digon_nbrs: list[list[int]] = [[] for _ in range(d.n)]
    for u, v in d.digons():
        digon_nbrs[u].append(v)
        digon_nbrs[v].append(u)
    out = []
    for a in d.vertices():
        nbrs = [b for b in digon_nbrs[a] if b > a]
        for b, c in itertools.combinations(sorted(nbrs), 2):
            if d.has_digon(b, c):
                out.append((a, b, c))
    return out


def max_packing(d: Digraph, budget: Budget | int | None = None) -> Packing:
    """A maximum packing, exhaustively optimal within the node budget."""
    budget = ensure_budget(budget, DEFAULT_PACKING_NODES, "packing search")
    triangles = bidirected_triangles(d)
    digons = d.digons()
    items: list[tuple[int, ...]] = [*triangles, *digons]
    values = [2] * len(triangles) + [1] * len(digons)
    n_triangles = len(triangles)

    best_items: list[int] = []
    best_value = 0
    chosen: list[int] = []
    used = [False] * d.n
    free = d.n

    def bound(i: int, value: int, free_now: int) -> int:
        # Digons collect at most floor(free/2); each still-available triangle
        # can beat that rate by one, hence the surplus term.  Admissible.
        remaining_triangles = max(0, n_triangles - i)
        surplus = min(remaining_triangles, free_now // 3)
        return value + free_now // 2 + surplus

    def search(i: int, value: int) -> None:
        nonlocal best_value, best_items, free
        if value > best_value:
            best_value = value
            best_items = list(chosen)
        if i == len(items) or bound(i, value, free) <= best_value:
            return
        budget.spend()
        item = items[i]
        if all(not used[v] for v in item):
            for v in item:
                used[v] = True
            free -= len(item)
            chosen.append(i)
            search(i + 1, value + values[i])
            chosen.pop()
            free += len(item)
            for v in item:
                used[v] = False
        search(i + 1, value)

    optimal = True
    try:
        search(0, 0)
    except BudgetExceeded:
        optimal = False
    # search reaches itself through its closure cell; deleting the name
    # breaks that cycle, so nothing here waits for the cyclic collector.
    del search
    packing = Packing(
        digon_items=tuple(items[i] for i in best_items if values[i] == 1),  # type: ignore[misc]
        triangle_items=tuple(items[i] for i in best_items if values[i] == 2),  # type: ignore[misc]
        optimal=optimal,
    )
    assert verify_packing(d, packing)
    return packing


def packing_value(d: Digraph, budget: Budget | int | None = None) -> int:
    """T(D): the value of a maximum packing.  Raises if optimality is lost."""
    budget = ensure_budget(budget, DEFAULT_PACKING_NODES, "packing search")
    packing = max_packing(d, budget)
    if not packing.optimal:
        raise BudgetExceeded(budget.what, budget.limit)
    return packing.value
