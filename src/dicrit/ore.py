"""4-Ore digraphs: Ore-composition, generation, recognition, detectors.

An Ore-composition merges a *digon side* D1 (one digon [x,y] removed) with
a *split side* D2 (one vertex z removed, its neighbourhood split between x
and y along a partition (Z1, Z2)).  The 4-Ore class is the smallest class
containing the bidirected K4 that is stable under this surgery.

Label convention for composed digraphs: the digon side keeps its labels
0..n1-1 and the split side's vertices other than z are appended in
increasing order.  Generation follows this convention exactly, so replaying
a generated trace reproduces the digraph bit for bit.  Recognition returns
a trace whose replay is isomorphic to the input (no uniqueness is implied:
a 4-Ore digraph can admit many decompositions, and the search returns the
lexicographically first one it finds).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .budget import Budget, DEFAULT_RECOGNITION_NODES, ensure_budget
from .digraph import (
    Digraph,
    DigraphError,
    bidirected_complete,
    bits,
    digon_masks,
    restrict,
    two_cut_sides,
    underlying_masks,
)
from .iso import canonical_labelling
from .packing import bidirected_triangles


# -- traces ----------------------------------------------------------------


@dataclass(frozen=True)
class OreLeaf:
    """The base case: a bidirected K4 on vertices 0..3."""

    @property
    def n(self) -> int:
        return 4


@dataclass(frozen=True)
class OreNode:
    """One composition step.

    ``digon`` lives in digon-side labels, ``split_vertex``/``z1``/``z2`` in
    split-side labels.  ``j_preserving`` records that the distinguished base
    K4 sits on the digon side of this step.  Child traces may be None for a
    bare surgery record; such a trace cannot be replayed.
    """

    digon_side: Union["OreLeaf", "OreNode", None]
    split_side: Union["OreLeaf", "OreNode", None]
    digon: tuple[int, int]
    split_vertex: int
    z1: tuple[int, ...]
    z2: tuple[int, ...]
    j_preserving: bool = False

    @property
    def n(self) -> int:
        if self.digon_side is None or self.split_side is None:
            raise DigraphError("incomplete trace has no defined order")
        return self.digon_side.n + self.split_side.n - 1


OreTrace = Union[OreLeaf, OreNode]


def replay(trace: OreTrace) -> Digraph:
    """Rebuild the digraph a trace describes, bottom-up."""
    if isinstance(trace, OreLeaf):
        return bidirected_complete(4)
    if trace.digon_side is None or trace.split_side is None:
        raise DigraphError("cannot replay a trace with missing sides")
    d1 = replay(trace.digon_side)
    d2 = replay(trace.split_side)
    composed, _ = ore_compose(
        d1, trace.digon, d2, trace.split_vertex, trace.z1, trace.z2
    )
    return composed


def j_vertices(trace: OreTrace) -> tuple[int, int, int, int] | None:
    """The image of the base K4 when every step kept it on the digon side.

    Under the label convention the digon side keeps its labels, so a fully
    J-preserving trace pins the base K4 to vertices 0..3.
    """
    if isinstance(trace, OreLeaf):
        return (0, 1, 2, 3)
    if not trace.j_preserving or trace.digon_side is None:
        return None
    return j_vertices(trace.digon_side)


def trace_to_json(trace: OreTrace | None) -> dict | None:
    if trace is None:
        return None
    if isinstance(trace, OreLeaf):
        return {"kind": "leaf"}
    return {
        "kind": "node",
        "digon_side": trace_to_json(trace.digon_side),
        "split_side": trace_to_json(trace.split_side),
        "digon": list(trace.digon),
        "split_vertex": trace.split_vertex,
        "z1": list(trace.z1),
        "z2": list(trace.z2),
        "j_preserving": trace.j_preserving,
    }


# -- composition -----------------------------------------------------------


def ore_compose(
    d1: Digraph,
    digon: tuple[int, int],
    d2: Digraph,
    z: int,
    z1,
    z2,
    digon_trace: OreTrace | None = None,
    split_trace: OreTrace | None = None,
    j_preserving: bool = False,
) -> tuple[Digraph, OreNode]:
    """Ore-composition of bidirected d1 (digon side) and d2 (split side).

    Removes the digon [x,y] from d1 and the vertex z from d2, then rewires
    the Z1 part of N(z) to x and the Z2 part to y.  Returns the composed
    digraph and the trace node recording the surgery.
    """
    x, y = digon
    if not d1.is_bidirected() or not d2.is_bidirected():
        raise DigraphError("Ore-composition requires bidirected sides")
    if not d1.has_digon(x, y):
        raise DigraphError(f"[{x},{y}] is not a digon of the digon side")
    if not 0 <= z < d2.n:
        raise DigraphError(f"split vertex {z} out of range")
    set_z1, set_z2 = set(z1), set(z2)
    nbrs = set(d2.neighbours(z))
    if not set_z1 or not set_z2 or (set_z1 & set_z2) or (set_z1 | set_z2) != nbrs:
        raise DigraphError("(Z1, Z2) must partition N(z) into non-empty sets")

    offset = {w: d1.n + i for i, w in enumerate(sorted(v for v in d2.vertices() if v != z))}
    arcs: set[tuple[int, int]] = set(d1.arcs) - {(x, y), (y, x)}
    for u, v in d2.arcs:
        if u != z and v != z:
            arcs.add((offset[u], offset[v]))
    for w in set_z1:
        if d2.has_arc(z, w):
            arcs.add((x, offset[w]))
        if d2.has_arc(w, z):
            arcs.add((offset[w], x))
    for w in set_z2:
        if d2.has_arc(z, w):
            arcs.add((y, offset[w]))
        if d2.has_arc(w, z):
            arcs.add((offset[w], y))
    composed = Digraph(d1.n + d2.n - 1, arcs)
    node = OreNode(
        digon_side=digon_trace,
        split_side=split_trace,
        digon=(x, y),
        split_vertex=z,
        z1=tuple(sorted(set_z1)),
        z2=tuple(sorted(set_z2)),
        j_preserving=j_preserving,
    )
    return composed, node


# -- generation ------------------------------------------------------------


def _check_target(n_target: int) -> None:
    if n_target < 4 or n_target % 3 != 1:
        raise DigraphError(
            f"no 4-Ore digraph has {n_target} vertices (orders are 4, 7, 10, ...)"
        )


def _random_composition(
    d: Digraph,
    trace: OreTrace,
    side: Digraph,
    side_trace: OreTrace,
    rng: random.Random,
    j_preserving: bool,
) -> tuple[Digraph, OreNode]:
    x, y = rng.choice(d.digons())
    if rng.random() < 0.5:
        x, y = y, x
    z = rng.randrange(side.n)
    nbrs = list(side.neighbours(z))
    rng.shuffle(nbrs)
    cut = rng.randrange(1, len(nbrs))
    return ore_compose(
        d, (x, y), side, z, nbrs[:cut], nbrs[cut:],
        digon_trace=trace, split_trace=side_trace, j_preserving=j_preserving,
    )


def _generate(n_target: int, rng: random.Random) -> tuple[Digraph, OreTrace]:
    if n_target == 4:
        return bidirected_complete(4), OreLeaf()
    n1 = 4 + 3 * rng.randrange((n_target - 4) // 3)
    n2 = n_target + 1 - n1
    d1, t1 = _generate(n1, rng)
    d2, t2 = _generate(n2, rng)
    return _random_composition(d1, t1, d2, t2, rng, j_preserving=False)


def generate_4ore(
    n_target: int, seed: int = 0, j_preserving: bool = False
) -> tuple[Digraph, OreTrace]:
    """A seeded random 4-Ore digraph on exactly ``n_target`` vertices.

    With ``j_preserving`` the base K4 stays on the digon side at every
    step, so its image is pinned to vertices 0..3 (see :func:`j_vertices`);
    the composition shape is otherwise drawn uniformly from the valid
    options under the seed.
    """
    _check_target(n_target)
    rng = random.Random(seed)
    if not j_preserving:
        return _generate(n_target, rng)
    d, trace = bidirected_complete(4), OreLeaf()
    while d.n < n_target:
        remaining = n_target - d.n
        side_n = 4 + 3 * rng.randrange(remaining // 3)
        side, side_trace = _generate(side_n, rng)
        d, trace = _random_composition(d, trace, side, side_trace, rng, j_preserving=True)
    return d, trace


# -- recognition -----------------------------------------------------------


def _plausible(adj: Sequence[int]) -> bool:
    # Cheap necessary conditions on a bidirected digraph, from its underlying
    # bitsets: the arc identity 3m = 10n - 4 and minimum degree 6.
    sizes = [mask.bit_count() for mask in adj]
    return 3 * sum(sizes) == 10 * len(adj) - 4 and min(sizes) >= 3


def _digon_piece(masks: Sequence[int], part: int, x: int, y: int) -> tuple[list[int], list[int]]:
    """The bitset adjacency ``masks`` induced on the bitset ``part`` plus x
    and y, with the digon [x, y] added, and the vertices it keeps in order."""
    side = [*bits(part | 1 << x | 1 << y)]
    piece = restrict(masks, side)
    i, j = side.index(x), side.index(y)
    piece[i] |= 1 << j
    piece[j] |= 1 << i
    return piece, side


def _splits(comps: list[int]) -> Iterator[tuple[int, int]]:
    """Every way of giving the components ``comps`` (bitsets) to two
    non-empty unions, as ``(a0, b0)``; each division comes in both roles."""
    for mask in range(1, (1 << len(comps)) - 1):
        a0 = b0 = 0
        for i, comp in enumerate(comps):
            if mask >> i & 1:
                a0 |= comp
            else:
                b0 |= comp
        yield a0, b0


def _labelling(adj: Sequence[int]) -> tuple:
    """The canonical form and labelling of the bidirected digraph with
    underlying bitsets ``adj``."""
    return canonical_labelling(
        Digraph(len(adj), [(u, v) for u, mask in enumerate(adj) for v in bits(mask)])
    )


def _by_form(found, labelling: Sequence[int]):
    """A search result with its map phi composed with the inverse of a
    canonical ``labelling``, so that it is indexed by canonical position."""
    if not found:
        return found
    psi = [0] * len(labelling)
    for v, p in enumerate(labelling):
        psi[p] = found[1][v]
    return found[0], psi


def _recognition_search(
    adj: tuple[int, ...], budget: Budget, memo: dict
) -> tuple[OreTrace, list[int]] | None:
    """A trace for the bidirected digraph with underlying bitsets ``adj`` and
    a map phi from its vertices onto V(replay(trace)), or None.  ``memo``
    maps each piece's bitsets to that result, and its canonical form to the
    trace and phi composed with the inverse canonical labelling (or None).
    Isomorphic pieces share their order and sorted degrees, so forms are
    computed only for pieces that share those with an earlier piece
    (docs/decisions.md section 12): ``memo`` maps the pair to the first
    piece that has it until a second one comes, and then to None."""
    budget.spend()
    # Every input has passed _plausible: 3m = 10n - 4 gives n = 1 (mod 3),
    # and at n = 4 it gives m = 12, the bidirected K4.
    if len(adj) == 4:
        return OreLeaf(), [0, 1, 2, 3]
    if adj in memo:
        return memo[adj]
    # Every digraph searched below this one is smaller, so none of them can
    # read this piece's entries before they are final, and an earlier piece
    # of this order has been searched to the end.
    memo[adj] = None
    key = len(adj), tuple(sorted(mask.bit_count() for mask in adj))
    form = labelling = None
    if key not in memo:
        memo[key] = adj
    else:
        earlier, memo[key] = memo[key], None
        if earlier is not None:
            earlier_form, earlier_labelling = _labelling(earlier)
            memo[earlier_form] = _by_form(memo[earlier], earlier_labelling)
        form, labelling = _labelling(adj)
        if form in memo:
            found = memo[form]
            if found:
                found = found[0], [found[1][p] for p in labelling]
            memo[adj] = found
            return found
        memo[form] = None
    # Above order 4 a 4-Ore digraph has the 2-cut of its last composition.
    # No 4-critical graph has a cut vertex, a 2-cut {x, y} with x ~ y, or a
    # 2-cut leaving three components (docs/decisions.md section 10).
    first = next(two_cut_sides(adj), None)
    if first is None or len(first[0]) == 1 or len(first[1]) > 2:
        return None
    (x, y), comps = first
    nx, ny = adj[x], adj[y]
    if nx >> y & 1:
        return None
    # d1 has order |a0| + 2 and d2 order |b0| + 1, with |a0| + |b0| = n - 2 =
    # 2 (mod 3).  Both orders are 1 (mod 3) iff |a0| = 2 (mod 3); then |b0| =
    # 0 (mod 3), so |a0| >= 2, |b0| >= 3, and the other role fails.  If the
    # piece is 4-Ore, this split gives two 4-Ore pieces, so any check below
    # that fails settles that it is not (docs/decisions.md section 12).
    for a0, b0 in (comps, comps[::-1]):
        budget.spend()
        if a0.bit_count() % 3 == 2:
            break
    else:
        return None
    zx = nx & b0
    zy = ny & b0
    # A split-side vertex adjacent to both x and y cannot come from a single
    # split vertex, and both parts must be non-empty.
    if not zx or not zy or (zx & zy):
        return None
    if (nx & a0).bit_count() < 2 or (ny & a0).bit_count() < 2:
        return None
    d1, side1 = _digon_piece(adj, a0, x, y)
    if not _plausible(d1):
        return None
    # d2 is D[b0] with a last vertex z joined to zx and zy.
    side2 = [*bits(b0)]
    at = {w: i for i, w in enumerate(side2)}
    d2 = restrict(adj, side2) + [sum(1 << at[w] for w in bits(zx | zy))]
    for w in bits(zx | zy):
        d2[at[w]] |= 1 << len(side2)
    if not _plausible(d2):
        return None
    found1 = _recognition_search(tuple(d1), budget, memo)
    if found1 is None:
        return None
    found2 = _recognition_search(tuple(d2), budget, memo)
    if found2 is None:
        return None
    # phi1 and phi2 carry d1 and d2 onto the replays of their traces, so they
    # translate the surgery data, and the label convention of ore_compose
    # places every vertex of d in the composed replay.
    (t1, phi1), (t2, phi2) = found1, found2
    z = phi2[-1]
    node = OreNode(
        digon_side=t1,
        split_side=t2,
        digon=(phi1[side1.index(x)], phi1[side1.index(y)]),
        split_vertex=z,
        z1=tuple(sorted(phi2[at[w]] for w in bits(zx))),
        z2=tuple(sorted(phi2[at[w]] for w in bits(zy))),
    )
    phi = [0] * len(adj)
    for v, p in zip(side1, phi1):
        phi[v] = p
    for v, p in zip(side2, phi2):
        phi[v] = len(d1) + p - (p > z)
    memo[adj] = (node, phi)
    if form is not None:
        memo[form] = _by_form(memo[adj], labelling)
    return node, phi


def is_4ore(d: Digraph, budget: Budget | int | None = None) -> OreTrace | None:
    """A composition trace iff the digraph is 4-Ore, else None.

    The input must be bidirected with n = 1 (mod 3).  Decomposition search
    on the underlying graph's bitsets undoes a composition at the first cut
    of each piece, which decides the piece (docs/decisions.md sections 10
    and 12).  Pieces are memoised by their bitsets, and by canonical form
    once an earlier piece shares their order and sorted degrees.  Replaying
    the returned trace yields a digraph isomorphic to the input.
    """
    if not d.is_bidirected():
        raise DigraphError("4-Ore digraphs are bidirected")
    if d.n % 3 != 1:
        raise DigraphError("4-Ore orders are 4, 7, 10, ... (n = 1 mod 3)")
    budget = ensure_budget(budget, DEFAULT_RECOGNITION_NODES, "4-Ore recognition")
    adj = tuple(underlying_masks(d))
    found = _plausible(adj) and _recognition_search(adj, budget, {})
    return found[0] if found else None


# -- structural detectors ----------------------------------------------------


def find_diamonds(d: Digraph) -> list[tuple[int, int, int, int]]:
    """Induced bidirected-K4-minus-a-digon subdigraphs whose two vertices
    off the missing digon have degree 6 in the host, as sorted quads in
    lexicographic order.  Exhaustive."""
    digon = digon_masks(d)
    out = []
    for a, b in d.digons():
        if d.degree(a) != 6 or d.degree(b) != 6:
            continue
        for u, v in itertools.combinations(bits(digon[a] & digon[b]), 2):
            if not d.has_arc(u, v) and not d.has_arc(v, u):
                out.append(tuple(sorted((a, b, u, v))))
    return sorted(out)


def find_emeralds(d: Digraph) -> list[tuple[int, int, int]]:
    """Induced bidirected triangles with all three vertices of degree 6."""
    return [
        t for t in bidirected_triangles(d) if all(d.degree(v) == 6 for v in t)
    ]


def find_ore_collapsible(
    d: Digraph, size_cap: int, budget: Budget | int | None = None
) -> list[tuple[frozenset[int], tuple[int, int]]]:
    """All induced R with a 2-vertex boundary {u,v} such that R + [u,v] is
    4-Ore, for n(R) <= size_cap, by order and then lexicographically.

    With both sides non-empty, boundary(R) = {u, v} exactly when R - {u, v}
    is a union of components of G - {u, v} (G the underlying graph) and u
    and v each see the rest, so the scan walks the splits of the 2-cuts
    from :func:`two_cut_sides` and keeps orders 4, 7, 10, ... (the 4-Ore
    orders); see ``docs/decisions.md`` section 9."""
    budget = ensure_budget(budget, DEFAULT_RECOGNITION_NODES, "Ore-collapsible scan")
    results = []
    adj = underlying_masks(d)
    for cut, comps in two_cut_sides(adj):
        if len(cut) == 1:
            continue
        # Unlike recognition, keep adjacent pairs: a host that is not 4-Ore
        # can have a 4-Ore R + [u, v] with u and v already joined.
        u, v = cut
        for a0, b0 in _splits(comps):
            budget.spend()
            size = a0.bit_count() + 2
            if size > size_cap or size % 3 != 1 or not (adj[u] & b0 and adj[v] & b0):
                continue
            # R + [u, v] is bidirected iff its out- and in-masks agree.
            h, subset = _digon_piece(d.out_masks, a0, u, v)
            if h == _digon_piece(d.in_masks, a0, u, v)[0] and _plausible(h) and (
                    _recognition_search(tuple(h), budget, {})):
                results.append((frozenset(subset), (u, v)))
    return sorted(results, key=lambda found: (len(found[0]), sorted(found[0])))


def split_vertex(
    d: Digraph,
    v: int,
    out_parts: tuple,
    in_parts: tuple,
) -> tuple[Digraph, int, int]:
    """Split v into v1 (keeping v's id) and v2 (the new id n).

    ``out_parts = (O1, O2)`` must partition N+(v) and ``in_parts = (I1, I2)``
    must partition N-(v); empty parts are allowed.  Returns (D', v1, v2).
    """
    if not 0 <= v < d.n:
        raise DigraphError(f"vertex {v} out of range")
    o1, o2 = set(out_parts[0]), set(out_parts[1])
    i1, i2 = set(in_parts[0]), set(in_parts[1])
    if o1 & o2 or (o1 | o2) != set(d.out_neighbours(v)):
        raise DigraphError("(O1, O2) must partition the out-neighbourhood of v")
    if i1 & i2 or (i1 | i2) != set(d.in_neighbours(v)):
        raise DigraphError("(I1, I2) must partition the in-neighbourhood of v")
    v1, v2 = v, d.n
    arcs = [(a, b) for (a, b) in d.arcs if a != v and b != v]
    arcs += [(v1, w) for w in o1]
    arcs += [(v2, w) for w in o2]
    arcs += [(w, v1) for w in i1]
    arcs += [(w, v2) for w in i2]
    return Digraph(d.n + 1, arcs), v1, v2
