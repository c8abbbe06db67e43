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
one it finds by splitting each piece at its first cut).  It spends at most
(4n - 13)/3 budget nodes on an input of order n (docs/decisions.md
section 15).

Composition, like recognition, works on the underlying graph's bitsets, and
builds a Digraph only for its result (docs/decisions.md section 14).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .budget import Budget, DEFAULT_RECOGNITION_NODES, ensure_budget
from .digraph import (
    Digraph,
    DigraphError,
    bidirected_from_edges,
    bits,
    restrict,
    two_cut_sides,
    underlying_masks,
)


# -- traces ----------------------------------------------------------------


@dataclass(frozen=True)
class OreLeaf:
    """The base case: a bidirected K4 on vertices 0..3."""


@dataclass(frozen=True)
class OreNode:
    """One composition step.

    ``digon`` lives in digon-side labels, ``split_vertex``/``z1``/``z2`` in
    split-side labels.  ``j_preserving`` records that the distinguished base
    K4 sits on the digon side of this step.  Child traces are None in the
    bare surgery record that :func:`ore_compose` returns; such a trace
    cannot be replayed.
    """

    digon_side: Union["OreLeaf", "OreNode", None]
    split_side: Union["OreLeaf", "OreNode", None]
    digon: tuple[int, int]
    split_vertex: int
    z1: tuple[int, ...]
    z2: tuple[int, ...]
    j_preserving: bool = False


OreTrace = Union[OreLeaf, OreNode]


def replay(trace: OreTrace) -> Digraph:
    """Rebuild the digraph a trace describes, bottom-up."""
    adj = _replay(trace)
    return bidirected_from_edges(len(adj), _edges(adj))


def _replay(trace: OreTrace) -> Sequence[int]:
    if isinstance(trace, OreLeaf):
        return _K4
    if trace.digon_side is None or trace.split_side is None:
        raise DigraphError("cannot replay a trace with missing sides")
    return _compose(_replay(trace.digon_side), trace.digon, _replay(trace.split_side),
                    trace.split_vertex, set(trace.z1), set(trace.z2))


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


#: The underlying bitsets of the bidirected K4 on vertices 0..3.
_K4 = (0b1110, 0b1101, 0b1011, 0b0111)


def _edges(adj: Sequence[int]) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, of the graph with bitsets ``adj``, in order."""
    return [(u, v) for u, mask in enumerate(adj) for v in bits(mask >> u + 1 << u + 1)]


def _nth_edge(adj: Sequence[int], i: int) -> tuple[int, int]:
    """``_edges(adj)[i]``, found by counting bits rather than listing edges."""
    for u, mask in enumerate(adj):
        above = mask >> u + 1 << u + 1
        count = above.bit_count()
        if i < count:
            for _ in range(i):
                above &= above - 1
            return u, (above & -above).bit_length() - 1
        i -= count


def _compose(adj1: Sequence[int], digon, adj2: Sequence[int], z: int, z1, z2) -> list[int]:
    """The underlying bitsets of :func:`ore_compose`'s digraph, from those of
    its sides, with Z1 and Z2 as sets.  Split-side vertex w becomes n1 + w -
    [w > z]: two shifts per bitset, which drop z (docs/decisions.md section 14)."""
    x, y = digon
    n1 = len(adj1)
    if not (0 <= x < n1 and 0 <= y < n1 and adj1[x] >> y & 1):
        raise DigraphError(f"[{x},{y}] is not a digon of the digon side")
    if not 0 <= z < len(adj2):
        raise DigraphError(f"split vertex {z} out of range")
    if not z1 or not z2 or (z1 & z2) or (z1 | z2) != set(bits(adj2[z])):
        raise DigraphError("(Z1, Z2) must partition N(z) into non-empty sets")
    zx = sum(1 << w for w in z1)
    zy = adj2[z] ^ zx
    below = (1 << z) - 1
    *moved, to_x, to_y = [(m & below) << n1 | m >> z + 1 << n1 + z for m in (*adj2, zx, zy)]
    # x loses y and gains Z1, y loses x and gains Z2: no bit is in both.
    adj = list(adj1)
    adj[x] ^= 1 << y | to_x
    adj[y] ^= 1 << x | to_y
    return adj + [m | (zx >> w & 1) << x | (zy >> w & 1) << y
                  for w, m in enumerate(moved) if w != z]


def ore_compose(
    d1: Digraph,
    digon: tuple[int, int],
    d2: Digraph,
    z: int,
    z1,
    z2,
) -> tuple[Digraph, OreNode]:
    """Ore-composition of bidirected d1 (digon side) and d2 (split side).

    Removes the digon [x,y] from d1 and the vertex z from d2, then rewires
    the Z1 part of N(z) to x and the Z2 part to y.  Returns the composed
    digraph and a bare surgery node: no child traces, and not marked
    J-preserving.
    """
    x, y = digon
    if not d1.is_bidirected() or not d2.is_bidirected():
        raise DigraphError("Ore-composition requires bidirected sides")
    z1, z2 = set(z1), set(z2)
    adj = _compose(underlying_masks(d1), (x, y), underlying_masks(d2), z, z1, z2)
    node = OreNode(None, None, (x, y), z, tuple(sorted(z1)), tuple(sorted(z2)))
    return bidirected_from_edges(len(adj), _edges(adj)), node


# -- generation ------------------------------------------------------------


def _random_composition(
    adj: Sequence[int], trace: OreTrace, side_n: int, rng: random.Random, j_preserving: bool
) -> tuple[list[int], OreNode]:
    """Compose a random split side of order ``side_n`` onto ``adj``, drawing from
    the lists Digraph.digons() and .neighbours(z) give (docs/decisions.md section 14)."""
    side, side_trace = _generate(side_n, rng)
    x, y = _nth_edge(adj, rng.randrange(sum(map(int.bit_count, adj)) // 2))
    if rng.random() < 0.5:
        x, y = y, x
    z = rng.randrange(len(side))
    nbrs = list(bits(side[z]))
    rng.shuffle(nbrs)
    cut = rng.randrange(1, len(nbrs))
    z1, z2 = set(nbrs[:cut]), set(nbrs[cut:])
    node = OreNode(trace, side_trace, (x, y), z, tuple(sorted(z1)), tuple(sorted(z2)),
                   j_preserving)
    return _compose(adj, (x, y), side, z, z1, z2), node


def _generate(n_target: int, rng: random.Random) -> tuple[Sequence[int], OreTrace]:
    if n_target == 4:
        return _K4, OreLeaf()
    n1 = 4 + 3 * rng.randrange((n_target - 4) // 3)
    adj1, t1 = _generate(n1, rng)
    return _random_composition(adj1, t1, n_target + 1 - n1, rng, j_preserving=False)


def generate_4ore(
    n_target: int, seed: int = 0, j_preserving: bool = False
) -> tuple[Digraph, OreTrace]:
    """A seeded random 4-Ore digraph on exactly ``n_target`` vertices.

    A step to order n draws n1 uniformly from 4, 7, ..., n - 3, a uniform
    digon, oriented by a fair coin, a uniform z, |Z1| uniformly from
    1..d(z) - 1 and then a uniform subset of N(z) of that size.  With
    ``j_preserving`` the base K4 stays on the digon side at every step, so
    its image is pinned to vertices 0..3 (see :func:`j_vertices`).
    """
    if n_target < 4 or n_target % 3 != 1:
        raise DigraphError(
            f"no 4-Ore digraph has {n_target} vertices (orders are 4, 7, 10, ...)"
        )
    rng = random.Random(seed)
    if j_preserving:
        adj, trace = _K4, OreLeaf()
        while len(adj) < n_target:
            side_n = 4 + 3 * rng.randrange((n_target - len(adj)) // 3)
            adj, trace = _random_composition(adj, trace, side_n, rng, j_preserving=True)
    else:
        adj, trace = _generate(n_target, rng)
    return bidirected_from_edges(len(adj), _edges(adj)), trace


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


def _recognition_search(adj: Sequence[int], budget: Budget) -> tuple[OreTrace, list[int]] | None:
    """A trace for the bidirected digraph with underlying bitsets ``adj`` and
    a map phi from its vertices onto V(replay(trace)), or None.  Each call
    spends one node and one or two more choosing the roles, and the two
    pieces' orders are 1 (mod 3) and sum to n + 1, so at most (4n - 13)/3
    nodes are spent in all (docs/decisions.md section 15)."""
    budget.spend()
    # Every input has passed _plausible: 3m = 10n - 4 gives n = 1 (mod 3),
    # and at n = 4 it gives m = 12, the bidirected K4.
    if len(adj) == 4:
        return OreLeaf(), [0, 1, 2, 3]
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
    found1 = _recognition_search(d1, budget)
    if found1 is None:
        return None
    found2 = _recognition_search(d2, budget)
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
    return node, phi


def is_4ore(d: Digraph, budget: Budget | int | None = None) -> OreTrace | None:
    """A composition trace iff the digraph is 4-Ore, else None.

    Every digraph gets an answer: one that is not bidirected is None at
    once, spending no node, and so is one whose order is not 1 (mod 3),
    which fails the arc count (docs/decisions.md section 16).  Decomposition
    search on the underlying graph's bitsets undoes a composition at the
    first cut of each piece, which decides the piece (sections 10 and 12),
    and spends at most (4n - 13)/3 nodes (section 15).  Replaying the
    returned trace yields a digraph isomorphic to the input.
    """
    if not d.is_bidirected():
        return None
    budget = ensure_budget(budget, DEFAULT_RECOGNITION_NODES, "4-Ore recognition")
    adj = underlying_masks(d)
    found = _plausible(adj) and _recognition_search(adj, budget)
    return found[0] if found else None


# -- structural detectors ----------------------------------------------------


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
                    _recognition_search(h, budget)):
                results.append((frozenset(subset), (u, v)))
    return sorted(results, key=lambda found: (len(found[0]), sorted(found[0])))
