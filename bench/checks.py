"""Answer checks that share no code with the package under test.

Every check takes plain vertex counts, arc sets and colour tuples, so a
defect in ``dicrit`` cannot hide itself by also breaking the check.  The
checks run outside the timed and the traced regions.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
import itertools


def classes_acyclic(n: int, arcs, colours, removed=None) -> bool:
    """True iff every colour class induces an acyclic subdigraph of the
    digraph on ``0..n-1`` with ``arcs`` minus the arc ``removed``.
    Kahn peeling per class (the package's checker uses DFS)."""
    if len(colours) != n:
        return False
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        if (u, v) == removed or colours[u] != colours[v]:
            continue
        out[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    peeled = 0
    while queue:
        v = queue.pop()
        peeled += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return peeled == n


def is_isomorphism(n: int, arcs_a, arcs_b, mapping) -> bool:
    """``mapping`` is a bijection of ``0..n-1`` carrying arcs_a onto arcs_b."""
    if mapping is None or sorted(mapping) != list(range(n)):
        return False
    if sorted(mapping.values()) != list(range(n)):
        return False
    arcs_b = set(arcs_b)
    return len(arcs_a) == len(arcs_b) and all(
        (mapping[u], mapping[v]) in arcs_b for u, v in arcs_a
    )


def _bfs_order(n: int, adj: list[set[int]]) -> list[int]:
    """Cuthill-McKee style order, which keeps the packing DP frontier small."""
    order: list[int] = []
    seen = [False] * n
    for root in sorted(range(n), key=lambda v: (len(adj[v]), v)):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(adj[v], key=lambda w: (len(adj[w]), w)):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order


def packing_value(n: int, arcs) -> int:
    """Maximum d + 2t over vertex-disjoint digons and bidirected triangles.

    Dynamic programming over a vertex order: the state is the position
    plus the set of later vertices already covered, and the vertex at the
    position is either left out or covered by an item whose other vertices
    come later.  (The package branches and bounds over a list of items.)
    """
    arcs = set(arcs)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in arcs:
        if u < v and (v, u) in arcs:
            adj[u].add(v)
            adj[v].add(u)
    order = _bfs_order(n, adj)
    pos = {v: i for i, v in enumerate(order)}
    later = [sorted(pos[w] for w in adj[v] if pos[w] > pos[v]) for v in order]
    items: list[list[tuple[int, int]]] = []
    for i in range(n):
        options = [(1 << j, 1) for j in later[i]]
        for j, k in itertools.combinations(later[i], 2):
            if order[k] in adj[order[j]]:
                options.append(((1 << j) | (1 << k), 2))
        items.append(options)
    memo: dict[tuple[int, int], int] = {}

    def best(i: int, covered: int) -> int:
        while i < n and covered >> i & 1:
            i += 1
        if i == n:
            return 0
        key = (i, covered >> i)
        if key in memo:
            return memo[key]
        value = best(i + 1, covered)
        for mask, gain in items[i]:
            if not covered & mask:
                value = max(value, gain + best(i + 1, covered | mask))
        memo[key] = value
        return value

    return best(0, 0)


def potential(n: int, m: int, packing: int, eps: Fraction, delta: Fraction) -> Fraction:
    """rho(D) = (10/3 + eps) n - m - delta T(D), exactly."""
    return (Fraction(10, 3) + eps) * n - m - delta * packing


def k_dicolourable(n: int, arcs, k: int, removed=None) -> bool:
    """Exhaustive over all k^n assignments; only for tiny digraphs."""
    return any(
        classes_acyclic(n, arcs, colours, removed)
        for colours in itertools.product(range(k), repeat=n)
    )


def is_k_dicritical(n: int, arcs, k: int) -> bool:
    """Brute-force k-dicriticality of a tiny digraph without isolated vertices."""
    arcs = set(arcs)
    touched = {v for arc in arcs for v in arc}
    if n > 1 and len(touched) < n:
        return False
    if k_dicolourable(n, arcs, k - 1):
        return False
    return all(k_dicolourable(n, arcs, k - 1, removed=a) for a in arcs)


def read_dg(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and arc list of DG-v1 text written by the benchmark."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n = int(lines[0][1])
    return n, [(int(u), int(v)) for u, v in lines[1:]]


def boundary(n: int, arcs, subset) -> set[int]:
    """Vertices of ``subset`` with an in- or out-neighbour outside it."""
    inside = set(subset)
    return {u if u in inside else v for u, v in arcs if (u in inside) != (v in inside)}


def with_digon(arcs, subset, u: int, v: int) -> tuple[int, list[tuple[int, int]]]:
    """The subdigraph induced by ``subset`` plus the digon [u, v],
    relabelled in increasing vertex order."""
    index = {w: i for i, w in enumerate(sorted(subset))}
    new = {(index[a], index[b]) for a, b in arcs if a in index and b in index}
    new |= {(index[u], index[v]), (index[v], index[u])}
    return len(index), sorted(new)
