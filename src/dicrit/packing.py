"""Maximum packings of vertex-disjoint digons and bidirected triangles.

The packing value is d + 2t for d digons and t bidirected triangles; its
maximum over all packings is the quantity every potential computation
needs.  Every item is a clique of the digon graph, so triangles are read
off :func:`~dicrit.digraph.digon_masks`.  The search is branch and bound
over the items as vertex bitsets (triangles first, then digons, both in
lexicographic order) with an admissible optimistic bound, so the result is
exhaustively optimal unless the node budget runs out, in which case the
best packing found so far is returned flagged non-optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import Budget, DEFAULT_PACKING_NODES, BudgetExceeded, ensure_budget
from .digraph import Digraph, bits, digon_masks


@dataclass(frozen=True)
class Packing:
    """Vertex-disjoint digons and bidirected triangles of one digraph."""

    digon_items: tuple[tuple[int, int], ...]
    triangle_items: tuple[tuple[int, int, int], ...]
    optimal: bool = True

    @property
    def value(self) -> int:
        return len(self.digon_items) + 2 * len(self.triangle_items)

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
    digon = digon_masks(d)
    out = []
    for a in d.vertices():
        later = digon[a] & ~((2 << a) - 1)  # digon neighbours above a
        for b in bits(later):
            for c in bits(later & digon[b] & ~((2 << b) - 1)):
                out.append((a, b, c))
    return out


def _search(
    masks: list[int],
    n_triangles: int,
    budget: Budget,
    best: list,
    i: int,
    value: int,
    used: int,
    free: int,
    chosen: tuple[int, ...],
) -> None:
    """Branch on items ``i..``: the first ``n_triangles`` are triangles
    worth 2, the rest digons worth 1, so an item covers its worth plus one
    vertices.  ``used`` is the bitset of covered vertices and ``free`` the
    number left; ``best`` holds the incumbent value and item indices, so it
    survives :class:`BudgetExceeded`."""
    if value > best[0]:
        best[:] = value, chosen
    # Taking item i recurses; skipping it moves on in the loop, so the
    # depth is the number of items taken, at most n/2.  The bound: digons
    # collect at most floor(free/2); each still-available triangle can
    # beat that rate by one, hence the surplus term.  Admissible.
    while i < len(masks) and (
        value + free // 2 + min(max(0, n_triangles - i), free // 3) > best[0]
    ):
        budget.spend()
        if not masks[i] & used:
            gain = 2 if i < n_triangles else 1
            _search(
                masks, n_triangles, budget, best, i + 1, value + gain,
                used | masks[i], free - gain - 1, chosen + (i,),
            )
        i += 1


def max_packing(d: Digraph, budget: Budget | int | None = None) -> Packing:
    """A maximum packing, exhaustively optimal within the node budget."""
    budget = ensure_budget(budget, DEFAULT_PACKING_NODES, "packing search")
    triangles = bidirected_triangles(d)
    items: list[tuple[int, ...]] = [*triangles, *d.digons()]
    masks = [sum(1 << v for v in item) for item in items]
    best: list = [0, ()]
    optimal = True
    try:
        _search(masks, len(triangles), budget, best, 0, 0, 0, d.n, ())
    except BudgetExceeded:
        optimal = False
    chosen = best[1]
    packing = Packing(
        digon_items=tuple(items[i] for i in chosen if i >= len(triangles)),  # type: ignore[misc]
        triangle_items=tuple(items[i] for i in chosen if i < len(triangles)),  # type: ignore[misc]
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
