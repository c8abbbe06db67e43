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
from typing import Iterator, Union

from .budget import Budget, DEFAULT_RECOGNITION_NODES, ensure_budget
from .digraph import (
    Digraph,
    DigraphError,
    bidirected_complete,
    bits,
    digon_masks,
    induced,
    two_cut_sides,
    underlying_masks,
)
from .iso import canonical_labelling
from .packing import bidirected_triangles
from .potential import check_4ore_arc_identity


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


def trace_from_json(data: dict | None) -> OreTrace | None:
    if data is None:
        return None
    if data["kind"] == "leaf":
        return OreLeaf()
    return OreNode(
        digon_side=trace_from_json(data["digon_side"]),
        split_side=trace_from_json(data["split_side"]),
        digon=tuple(data["digon"]),
        split_vertex=data["split_vertex"],
        z1=tuple(data["z1"]),
        z2=tuple(data["z2"]),
        j_preserving=data["j_preserving"],
    )


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


def _plausible_4ore(d: Digraph) -> bool:
    # Cheap necessary conditions: exact arc identity and minimum degree 6.
    if not check_4ore_arc_identity(d):
        return False
    return all(d.degree(v) >= 6 for v in d.vertices())


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


def _recognition_search(
    d: Digraph, budget: Budget, memo: dict
) -> tuple[OreTrace, list[int]] | None:
    """A trace for ``d`` and a map phi from V(d) onto V(replay(trace)), or
    None.  ``memo`` maps a canonical form to the trace found for it and phi
    composed with the inverse of the canonical labelling (or None)."""
    budget.spend()
    # Every input has passed _plausible_4ore: 3m = 10n - 4 gives n = 1
    # (mod 3), and at n = 4 it gives m = 12, the bidirected K4.
    if d.n == 4:
        return OreLeaf(), [0, 1, 2, 3]
    form, labelling = canonical_labelling(d)
    if form in memo:
        if memo[form] is None:
            return None
        trace, psi = memo[form]
        return trace, [psi[p] for p in labelling]
    # Every digraph searched below this one is smaller, so none of them can
    # read this entry before it is final.
    memo[form] = None
    adj = underlying_masks(d)
    for cut, comps in two_cut_sides(adj):
        # A composition is undone at a cut {x, y} with no arc between them.
        if len(cut) == 1:
            continue
        x, y = cut
        nx, ny = adj[x], adj[y]
        if nx >> y & 1:
            continue
        # Every component goes wholly to one side; try both roles.
        for a0, b0 in _splits(comps):
            budget.spend()
            # d1 has order |a0| + 2 and d2 order |b0| + 1, with |a0| + |b0| =
            # n - 2 = 2 (mod 3).  Both orders are 1 (mod 3) iff |a0| = 2
            # (mod 3); then |b0| = 0 (mod 3), so |a0| >= 2 and |b0| >= 3.
            if a0.bit_count() % 3 != 2:
                continue
            zx = nx & b0
            zy = ny & b0
            # A split-side vertex adjacent to both x and y cannot come from
            # a single split vertex, and both parts must be non-empty.
            if not zx or not zy or (zx & zy):
                continue
            if (nx & a0).bit_count() < 2 or (ny & a0).bit_count() < 2:
                continue
            d1_raw, map1 = induced(d, bits(a0 | 1 << x | 1 << y))
            d1 = d1_raw.with_arcs([(map1[x], map1[y]), (map1[y], map1[x])])
            if not _plausible_4ore(d1):
                continue
            d2_base, map2 = induced(d, bits(b0))
            z_id = d2_base.n
            extra = []
            for w in bits(zx | zy):
                extra.append((z_id, map2[w]))
                extra.append((map2[w], z_id))
            d2 = Digraph(z_id + 1, list(d2_base.arcs) + extra)
            if not _plausible_4ore(d2):
                continue
            found1 = _recognition_search(d1, budget, memo)
            if found1 is None:
                continue
            found2 = _recognition_search(d2, budget, memo)
            if found2 is None:
                continue
            # phi1 and phi2 carry d1 and d2 onto the replays of their traces,
            # so they translate the surgery data, and the label convention of
            # ore_compose places every vertex of d in the composed replay.
            (t1, phi1), (t2, phi2) = found1, found2
            z = phi2[z_id]
            node = OreNode(
                digon_side=t1,
                split_side=t2,
                digon=(phi1[map1[x]], phi1[map1[y]]),
                split_vertex=z,
                z1=tuple(sorted(phi2[map2[w]] for w in bits(zx))),
                z2=tuple(sorted(phi2[map2[w]] for w in bits(zy))),
            )
            phi = [0] * d.n
            for v, i in map1.items():
                phi[v] = phi1[i]
            for v, i in map2.items():
                p = phi2[i]
                phi[v] = d1.n + p - (p > z)
            psi = [0] * d.n
            for v, p in enumerate(labelling):
                psi[p] = phi[v]
            memo[form] = (node, psi)
            return node, phi
    return None


def is_4ore(d: Digraph, budget: Budget | int | None = None) -> OreTrace | None:
    """A composition trace iff the digraph is 4-Ore, else None.

    The input must be bidirected with n = 1 (mod 3); membership is decided
    by decomposition search over nonadjacent 2-cutsets, memoized by
    canonical form.  Replaying the returned trace yields a digraph isomorphic
    to the input.
    """
    if not d.is_bidirected():
        raise DigraphError("4-Ore digraphs are bidirected")
    if d.n % 3 != 1:
        raise DigraphError("4-Ore orders are 4, 7, 10, ... (n = 1 mod 3)")
    budget = ensure_budget(budget, DEFAULT_RECOGNITION_NODES, "4-Ore recognition")
    if not _plausible_4ore(d):
        return None
    found = _recognition_search(d, budget, {})
    return None if found is None else found[0]


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
            subset = [*bits(a0 | 1 << u | 1 << v)]
            r, mapping = induced(d, subset)
            h = r.with_arcs([(mapping[u], mapping[v]), (mapping[v], mapping[u])])
            if h.is_bidirected() and is_4ore(h, budget) is not None:
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
