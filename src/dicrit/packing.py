"""Maximum packings of vertex-disjoint digons and bidirected triangles.

The packing value is d + 2t for d digons and t bidirected triangles; its
maximum over all packings is the quantity every potential computation
needs.  Every item is a clique of the digon graph, so triangles are read
off :func:`~dicrit.digraph.digon_masks`.  The search is branch and bound
over the triangles as vertex bitsets, in lexicographic order, and then
over digons by the partner of the lowest vertex left that has one, each
with an admissible optimistic bound (a triangle adds at most half a unit
over the digon rate of one per two vertices), so the result is
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
    triangles: list[int],
    digon: list[int],
    budget: Budget,
    best: list,
    i: int,
    value: int,
    used: int,
    free: int,
    chosen: tuple[int, ...],
) -> None:
    """Branch on the triangles ``i..`` (vertex bitsets worth 2 each), then
    on digons.  ``used`` is the bitset of covered vertices and ``free`` the
    number left; ``best`` holds the incumbent value and items as bitsets,
    so it survives :class:`BudgetExceeded`.  Each item taken costs one
    budget node; a triangle that meets ``used`` is stepped over for free."""
    if value > best[0]:
        best[:] = value, chosen
    # Taking triangle i recurses; skipping it moves on in the loop, so the
    # depth is the number of items taken, at most n/2.  The bound: a
    # completion with d digons and t triangles has 2d + 3t <= free, so it
    # adds d + 2t <= (free + t) / 2, and t is at most the triangles left
    # and at most free/3.  Admissible (docs/decisions.md section 13).
    while i < len(triangles) and (
        value + (free + min(len(triangles) - i, free // 3)) // 2 > best[0]
    ):
        if not triangles[i] & used:
            budget.spend()
            _search(triangles, digon, budget, best, i + 1, value + 2,
                    used | triangles[i], free - 3, chosen + (triangles[i],))
        i += 1
    if i < len(triangles):
        return
    # Digons: the lowest uncovered vertex v with an uncovered partner takes
    # each such partner w in turn and is never left out, since a best
    # matching of the rest that misses v covers w, and swapping w's digon
    # for vw keeps its size.  At most half of these vertices get a digon.
    live = [v for v in range(len(digon)) if not used >> v & 1 and digon[v] & ~used]
    for w in bits(digon[live[0]] & ~used) if live else ():
        if value + len(live) // 2 <= best[0]:
            return
        budget.spend()
        pair = 1 << live[0] | 1 << w
        _search(triangles, digon, budget, best, i, value + 1, used | pair,
                free - 2, chosen + (pair,))


def max_packing(d: Digraph, budget: Budget | int | None = None) -> Packing:
    """A maximum packing, exhaustively optimal within the node budget."""
    budget = ensure_budget(budget, DEFAULT_PACKING_NODES, "packing search")
    triangles = [sum(1 << v for v in t) for t in bidirected_triangles(d)]
    best: list = [0, ()]
    optimal = True
    try:
        _search(triangles, digon_masks(d), budget, best, 0, 0, 0, d.n, ())
    except BudgetExceeded:
        optimal = False
    items = [tuple(bits(item)) for item in best[1]]
    packing = Packing(
        digon_items=tuple(item for item in items if len(item) == 2),  # type: ignore[misc]
        triangle_items=tuple(item for item in items if len(item) == 3),  # type: ignore[misc]
        optimal=optimal,
    )
    if not verify_packing(d, packing):
        raise AssertionError(f"packing {packing} fails verify_packing")
    return packing


def packing_value(d: Digraph, budget: Budget | int | None = None) -> int:
    """T(D): the value of a maximum packing.  Raises if optimality is lost."""
    budget = ensure_budget(budget, DEFAULT_PACKING_NODES, "packing search")
    packing = max_packing(d, budget)
    if not packing.optimal:
        raise BudgetExceeded(budget.what, budget.limit)
    return packing.value
