"""Maximum packings of vertex-disjoint digons and bidirected triangles.

The packing value is d + 2t for d digons and t bidirected triangles; its
maximum over all packings is the quantity every potential computation
needs.  Every item is a clique of the digon graph, so triangles are read
off :func:`~dicrit.digraph.digon_masks`.  The search is branch and bound
over the triangles in lexicographic order, the ones still available held
as one bitset over their indices, and then over digons by the partner of
the lowest vertex left that has one, each with an admissible optimistic
bound (a triangle adds at most half a unit over the digon rate of one per
two vertices), so the result is
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
    corners: list[tuple[int, int, int]],
    meets: list[int],
    digon: list[int],
    budget: Budget,
    best: list,
    avail: int,
    value: int,
    used: int,
    free: int,
    chosen: tuple[int, ...],
) -> None:
    """Branch on the triangles in ``avail``, a bitset over the indices of
    ``corners`` holding the triangles not yet decided that miss the covered
    vertices ``used``, then on digons.  ``meets[v]`` is the bitset of the
    triangles through v, and ``free`` is the number of vertices left;
    ``best`` holds the incumbent value and items as vertex bitsets, so it
    survives :class:`BudgetExceeded`.  Each item taken costs one budget
    node."""
    if value > best[0]:
        best[:] = value, chosen
    # Taking the lowest triangle recurses; skipping it moves on in the loop,
    # so the depth is the number of items taken, at most n/2.  The bound: a
    # completion with d digons and t triangles has 2d + 3t <= free, so it
    # adds d + 2t <= (free + t) / 2, and t is at most the triangles still
    # available and at most free/3.  Admissible (docs/decisions.md section 13).
    room = free // 3
    while avail:
        t = avail.bit_count()
        if value + (free + (t if t < room else room)) // 2 <= best[0]:
            return
        low = avail & -avail
        a, b, c = corners[low.bit_length() - 1]
        triangle = 1 << a | 1 << b | 1 << c
        budget.spend()
        _search(corners, meets, digon, budget, best,
                avail & ~(meets[a] | meets[b] | meets[c]), value + 2,
                used | triangle, free - 3, chosen + (triangle,))
        avail ^= low
    # No triangle is left, so the bound is the one at t = 0.
    if value + free // 2 <= best[0]:
        return
    rest = ~used & ((1 << len(digon)) - 1)
    live = sum(1 << v for v in bits(rest) if digon[v] & rest)
    _digons(digon, budget, best, live, value, used, chosen)


def _digons(
    digon: list[int],
    budget: Budget,
    best: list,
    live: int,
    value: int,
    used: int,
    chosen: tuple[int, ...],
) -> None:
    """Branch on digons: ``live`` is the bitset of uncovered vertices with an
    uncovered digon partner.  The lowest live vertex v takes each such
    partner w in turn and is never left out, since a best matching of the
    rest that misses v covers w, and swapping w's digon for vw keeps its
    size.  At most half of the live vertices get a digon."""
    if value > best[0]:
        best[:] = value, chosen
    if not live:
        return
    v = (live & -live).bit_length() - 1
    for w in bits(digon[v] & ~used):
        if value + live.bit_count() // 2 <= best[0]:
            return
        budget.spend()
        pair = 1 << v | 1 << w
        covered = used | pair
        # Only v's and w's neighbours can lose their last uncovered partner.
        rest = live & ~pair
        for x in bits((digon[v] | digon[w]) & rest):
            if not digon[x] & ~covered:
                rest ^= 1 << x
        _digons(digon, budget, best, rest, value + 1, covered, chosen + (pair,))


def max_packing(d: Digraph, budget: Budget | int | None = None) -> Packing:
    """A maximum packing, exhaustively optimal within the node budget."""
    budget = ensure_budget(budget, DEFAULT_PACKING_NODES, "packing search")
    corners = bidirected_triangles(d)
    meets = [0] * d.n
    for i, triangle in enumerate(corners):
        for v in triangle:
            meets[v] |= 1 << i
    best: list = [0, ()]
    optimal = True
    try:
        _search(corners, meets, digon_masks(d), budget, best,
                (1 << len(corners)) - 1, 0, 0, d.n, ())
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
