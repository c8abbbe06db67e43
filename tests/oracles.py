"""Independent brute-force oracles.

Deliberately share no code with the package: validity of a colouring is
decided by Kahn peeling (the solver uses DFS), dicolourability by full
assignment enumeration (the solver backtracks), and packing values by
recursion over the lowest free vertex (the packing module branches over a
candidate item list with a bound), canonical forms by trying every
relabelling (the package refines colours and individualises vertices),
components by flooding adjacency sets (the package floods bitsets),
diamonds and emeralds by scanning every 4-set and 3-set (the package walks
the digon graph), and the order of the census candidate stream by the
census's first generator (rebuilt bitsets and arc tuples at every level;
the package keeps in-degree counts and joins arcs once per candidate), and
the dicolouring search's node sequence by its first kernel (a cycle-test
closure and one ``Budget.spend`` call per node; the package inlines both),
chelou arcs by the reversal in their definition (the package reads both
kinds off D in one pass), and the Ore-collapsible scan by testing subsets
of every order (the package visits only orders 1 mod 3).  The last is
written with the package's ``boundary``, ``induced`` and ``is_4ore``, so it
checks the scan's order arithmetic, not recognition.  Adjacency is
read off the arc set by its definitions (the package stores bitsets).
"""

from __future__ import annotations

import itertools
from typing import Iterator

from dicrit.budget import Budget
from dicrit.digraph import Digraph, boundary, induced
from dicrit.ore import is_4ore


def reversed_digraph(d: Digraph) -> Digraph:
    """D with every arc reversed."""
    return Digraph(d.n, [(v, u) for u, v in d.arcs])


def underlying_edges(d: Digraph) -> set[tuple[int, int]]:
    """The edges of the underlying graph, each as (low, high)."""
    return {(min(u, v), max(u, v)) for u, v in d.arcs}


def oracle_adjacency(d: Digraph) -> dict:
    """Every adjacency answer of ``Digraph`` from the arc set alone, keyed by
    the accessor's name: per-vertex lists for the neighbour and degree
    accessors, an n x n table for ``has_digon``, and the underlying and
    digon graphs as one neighbourhood bitset per vertex."""
    arcs, vs = d.arcs, range(d.n)
    out = [sorted(w for u, w in arcs if u == v) for v in vs]
    inn = [sorted(u for u, w in arcs if w == v) for v in vs]
    nbrs = [sorted(set(o) | set(i)) for o, i in zip(out, inn)]
    table = [[(u, v) in arcs and (v, u) in arcs for v in vs] for u in vs]
    return {
        "out_neighbours": [tuple(o) for o in out],
        "in_neighbours": [tuple(i) for i in inn],
        "neighbours": [tuple(x) for x in nbrs],
        "out_degree": [len(o) for o in out],
        "in_degree": [len(i) for i in inn],
        "degree": [len(o) + len(i) for o, i in zip(out, inn)],
        "digon_count_at": [sum(row) for row in table],
        "has_digon": table,
        "digons": [(u, v) for u in vs for v in vs if u < v and table[u][v]],
        "is_bidirected": all((v, u) in arcs for u, v in arcs),
        "is_oriented": not any((v, u) in arcs for u, v in arcs),
        "underlying_masks": [sum(1 << w for w in x) for x in nbrs],
        "digon_masks": [sum(1 << w for w in vs if row[w]) for row in table],
    }


def class_is_acyclic(d: Digraph, vertices: set[int]) -> bool:
    """Kahn's algorithm restricted to one colour class."""
    indeg = {v: 0 for v in vertices}
    for u, v in d.arcs:
        if u in vertices and v in vertices:
            indeg[v] += 1
    queue = [v for v in vertices if indeg[v] == 0]
    removed = 0
    while queue:
        v = queue.pop()
        removed += 1
        for w in d.out_neighbours(v):
            if w in vertices:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
    return removed == len(vertices)


def valid_dicolouring(d: Digraph, assignment) -> bool:
    classes: dict[int, set[int]] = {}
    for v, c in enumerate(assignment):
        classes.setdefault(c, set()).add(v)
    return all(class_is_acyclic(d, cls) for cls in classes.values())


def oracle_is_k_dicolourable(d: Digraph, k: int) -> bool:
    """Enumerates all k^n assignments.  Only sane for n <= 8 or so."""
    return any(
        valid_dicolouring(d, assignment)
        for assignment in itertools.product(range(k), repeat=d.n)
    )


def oracle_dichromatic_number(d: Digraph) -> int:
    for k in range(1, d.n + 1):
        if oracle_is_k_dicolourable(d, k):
            return k
    raise AssertionError


def oracle_is_k_dicritical(d: Digraph, k: int) -> bool:
    """No isolated vertex, dichromatic number exactly k, and below k after
    deleting any one arc.  Exhaustive; only sane for n <= 7 or so."""
    if any(not d.out_neighbours(v) and not d.in_neighbours(v) for v in range(d.n)):
        return False
    if oracle_is_k_dicolourable(d, k - 1) or not oracle_is_k_dicolourable(d, k):
        return False
    return all(
        oracle_is_k_dicolourable(Digraph(d.n, d.arcs - {arc}), k - 1) for arc in d.arcs
    )


def oracle_chromatic_number(n: int, edges) -> int:
    """Proper-colouring chromatic number of an undirected graph."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for k in range(1, n + 1):
        colour = [0] * n

        def backtrack(i: int) -> bool:
            if i == n:
                return True
            for c in range(1, k + 1):
                if all(colour[w] != c for w in adj[i]):
                    colour[i] = c
                    if backtrack(i + 1):
                        return True
                    colour[i] = 0
            return False

        if backtrack(0):
            return k
    raise AssertionError


def oracle_bidirected_triangles(d: Digraph) -> list[tuple[int, int, int]]:
    """Every 3-set spanning three digons, lexicographic."""
    return [
        t
        for t in itertools.combinations(range(d.n), 3)
        if all(_digon(d, u, v) for u, v in itertools.combinations(t, 2))
    ]


def oracle_max_packing_value(d: Digraph) -> int:
    """Exhaustive recursion over the lowest free vertex: skip it, pack it in
    a digon, or pack it in a bidirected triangle."""
    digons = [
        (u, v)
        for u in range(d.n)
        for v in range(u + 1, d.n)
        if (u, v) in d.arcs and (v, u) in d.arcs
    ]
    triangles = oracle_bidirected_triangles(d)
    memo: dict[frozenset, int] = {}

    def best(free: frozenset) -> int:
        if not free:
            return 0
        if free in memo:
            return memo[free]
        v = min(free)
        value = best(free - {v})
        for item in digons:
            if v in item and set(item) <= free:
                value = max(value, 1 + best(free - set(item)))
        for item in triangles:
            if v in item and set(item) <= free:
                value = max(value, 2 + best(free - set(item)))
        memo[free] = value
        return value

    return best(frozenset(range(d.n)))


def oracle_census_candidates(
    n: int, m: int, k: int, oriented_only: bool
) -> set[frozenset]:
    """Every m-arc digraph on range(n) with all in- and out-degrees at least
    k - 1, by scanning all m-subsets of the n(n - 1) arcs (or all
    orientations of all m-subsets of the pairs) and filtering on degree."""
    if oriented_only:
        pairs = list(itertools.combinations(range(n), 2))
        scan = (
            frozenset((v, u) if (mask >> i) & 1 else (u, v)
                      for i, (u, v) in enumerate(chosen))
            for chosen in itertools.combinations(pairs, m)
            for mask in range(1 << m)
        )
    else:
        all_arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
        scan = (frozenset(c) for c in itertools.combinations(all_arcs, m))
    keep = set()
    for arcs in scan:
        outdeg, indeg = [0] * n, [0] * n
        for u, v in arcs:
            outdeg[u] += 1
            indeg[v] += 1
        if min(outdeg) >= k - 1 and min(indeg) >= k - 1:
            keep.add(arcs)
    return keep


def oracle_candidate_stream(n: int, m: int, k: int, oriented_only: bool):
    """Every m-arc digraph on ``range(n)`` whose in- and out-degrees are all at
    least k - 1, each exactly once, as a tuple of arcs in lexicographic order;
    with ``oriented_only``, only those without a digon.

    Vertices choose their out-neighbourhoods (of size at least k - 1) in the
    order 0, 1, ..., n - 1, and the stream follows that order.  A branch is
    cut when the r vertices still to place cannot take the arcs left, which
    needs between (k - 1)r and (n - 1)r of them, or when some vertex w could
    no longer reach in-degree k - 1 even if every unplaced vertex other than
    w chose it.  In the oriented case v never chooses an earlier u that
    already chose v, so no digon is built.

    The census generator as first written, kept as the reference for the
    order of the stream: it rebuilds the in-neighbour bitsets and the arc
    tuple at every level.
    """
    low = k - 1
    # choices[v]: (mask, size, arcs) for every out-neighbourhood of v.
    choices = []
    for v in range(n):
        others = [w for w in range(n) if w != v]
        choices.append([
            (sum(1 << w for w in chosen), size, tuple((v, w) for w in chosen))
            for size in range(low, n)
            for chosen in itertools.combinations(others, size)
        ])
    return _extend(choices, low, oriented_only, 0, m, [0] * n)


def _extend(choices, low: int, oriented_only: bool, v: int, left: int, inn: list[int]):
    """The arc tuples that give vertices v, v + 1, ... their out-neighbourhoods
    with ``left`` arcs in all; ``inn[w]`` is the bitset of the vertices
    before v that chose w.  A plain function, not a closure over the tables,
    so that no reference cycle keeps them alive until the next collection."""
    n = len(choices)
    if v == n:
        yield ()
        return
    rest = n - 1 - v
    lo, hi = max(low, left - (n - 1) * rest), left - low * rest
    banned = inn[v] if oriented_only else 0
    bit = 1 << v
    for mask, size, arcs in choices[v]:
        if not lo <= size <= hi or mask & banned:
            continue
        nxt = [x | bit if mask >> w & 1 else x for w, x in enumerate(inn)]
        if any(x.bit_count() + rest - (w > v) < low for w, x in enumerate(nxt)):
            continue
        for tail in _extend(choices, low, oriented_only, v + 1, left - size, nxt):
            yield arcs + tail


def oracle_assignments(
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

    The dicolouring kernel as first written, kept as the chronological
    reference: the backjumping kernel must yield the same assignments in the
    same order from no more nodes.  It tests cycles in a closure, calls
    ``budget.spend()`` once per node and always backtracks one depth.
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

def oracle_canonical_form(d: Digraph) -> tuple[tuple[int, int], ...]:
    """The lexicographically least sorted arc tuple over all n! relabellings.
    Exhaustive; only sane for n <= 7."""
    if d.n > 7:
        raise ValueError("the exhaustive canonical form is capped at n = 7")
    best: tuple[tuple[int, int], ...] | None = None
    for perm in itertools.permutations(range(d.n)):
        relabelled = tuple(sorted((perm[u], perm[v]) for u, v in d.arcs))
        if best is None or relabelled < best:
            best = relabelled
    return best if best is not None else ()


def oracle_components(d: Digraph, removed=()) -> list[frozenset[int]]:
    """Components of the underlying graph of d minus ``removed``, by
    flooding adjacency sets from each unvisited vertex in increasing order."""
    adj: list[set[int]] = [set() for _ in range(d.n)]
    for u, v in d.arcs:
        adj[u].add(v)
        adj[v].add(u)
    seen = set(removed)
    comps = []
    for start in range(d.n):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            comp.add(v)
            for u in adj[v] - seen:
                seen.add(u)
                stack.append(u)
        comps.append(frozenset(comp))
    return comps


def _degree(d: Digraph, v: int) -> int:
    return sum((u == v) + (w == v) for u, w in d.arcs)


def _digon(d: Digraph, u: int, v: int) -> bool:
    return (u, v) in d.arcs and (v, u) in d.arcs


def oracle_find_emeralds(d: Digraph) -> list[tuple[int, int, int]]:
    """Every 3-set spanning three digons with all degrees 6, lexicographic."""
    return [
        t
        for t in itertools.combinations(range(d.n), 3)
        if all(_digon(d, u, v) for u, v in itertools.combinations(t, 2))
        and all(_degree(d, v) == 6 for v in t)
    ]


def oracle_find_diamonds(d: Digraph) -> list[tuple[int, int, int, int]]:
    """Every 4-set spanning five digons and one pair with no arc at all,
    whose two vertices off that pair have degree 6, lexicographic."""
    out = []
    for quad in itertools.combinations(range(d.n), 4):
        pairs = list(itertools.combinations(quad, 2))
        digons = [p for p in pairs if _digon(d, *p)]
        empty = [
            (u, v) for u, v in pairs if (u, v) not in d.arcs and (v, u) not in d.arcs
        ]
        if len(digons) == 5 and len(empty) == 1:
            others = set(quad) - set(empty[0])
            if all(_degree(d, v) == 6 for v in others):
                out.append(quad)
    return out


def oracle_find_chelou_arcs(
    d: Digraph,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Out-chelou arcs of D, and the arcs of D whose reversal is out-chelou
    in the arc-reversed digraph, each in lexicographic order."""

    def out_chelou(g: Digraph, x: int, y: int) -> bool:
        return (
            not g.has_arc(y, x)
            and g.out_degree(x) == 3
            and g.in_degree(y) == 3
            and bool(set(g.in_neighbours(y)) - set(g.out_neighbours(y)) - {x})
        )

    rev = reversed_digraph(d)
    arcs = d.sorted_arcs()
    return (
        [(x, y) for x, y in arcs if out_chelou(d, x, y)],
        [(x, y) for x, y in arcs if out_chelou(rev, y, x)],
    )


def oracle_ore_collapsible(
    d: Digraph, size_cap: int
) -> list[tuple[frozenset[int], tuple[int, int]]]:
    """Every subset R of every order 4..size_cap (below n) with boundary
    {u, v} such that R + [u, v] is bidirected of order 1 mod 3 and 4-Ore,
    by order and then lexicographically."""
    out = []
    for size in range(4, min(size_cap, d.n - 1) + 1):
        for subset in itertools.combinations(range(d.n), size):
            bd = boundary(d, subset)
            if len(bd) != 2:
                continue
            u, v = sorted(bd)
            r, mapping = induced(d, subset)
            h = r.with_arcs([(mapping[u], mapping[v]), (mapping[v], mapping[u])])
            if h.n % 3 == 1 and h.is_bidirected() and is_4ore(h) is not None:
                out.append((frozenset(subset), (u, v)))
    return out
