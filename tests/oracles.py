"""Independent brute-force oracles.

Deliberately share no code with the package: validity of a colouring is
decided by Kahn peeling (the solver uses DFS), dicolourability by full
assignment enumeration and by inclusion-exclusion over the acyclic vertex
sets (the solver backtracks), and packing values by
recursion over the lowest free vertex (the packing module branches over a
candidate item list with a bound), canonical forms by trying every
relabelling (the package refines colours and individualises vertices),
components by flooding adjacency sets (the package floods bitsets),
diamonds and emeralds by scanning every 4-set and 3-set (the package walks
the digon graph), and the order of the census candidate stream by the
census's first generator (rebuilt bitsets and arc tuples at every level;
the package keeps in-degree counts and joins arcs once per candidate; the
census's labelling rule is read off the out-degrees as stated, where the
package caps sizes while it generates), and
the dicolouring search's node sequence by its first kernel (a cycle-test
closure and one ``Budget.spend`` call per node; the package inlines both),
chelou arcs by the reversal in their definition (the package reads both
kinds off D in one pass), and the Ore-collapsible scan by testing subsets
of every order (the package walks the splits of 2-cuts, orders 1 mod 3
only).  The last is written with the package's ``boundary``, ``induced``
and ``is_4ore``, so it checks how the scan finds R, not recognition.
Ore-composition is computed on arc sets, relabelling the split side
through a dictionary (the package shifts underlying bitsets), and traces
are replayed with it.  The 4-Ore classes of small orders come from every
such composition of smaller classes (recognition undoes compositions);
they are deduplicated with the package's ``canonical_form``, so they check
recognition, not isomorphism.
4-Ore recognition is also checked against its definition, by trying
every non-adjacent pair and every split of the components it leaves (the
package decides each piece at its first cut).
Adjacency is read off the arc set by its definitions (the package stores
bitsets), and so are D6 components, 8+-valencies and the discharging
ledger: each component is classified by its joined vertex pairs and each
rule is applied as stated (the package counts bits within a component
and reads every degree once); the results are the package's record types,
so that their ``to_json`` can be compared.
A construction level above 3 is listed arc by arc: the tournament, every
copy's arcs shifted to its block and its wiring (the package shifts the
sub-level's bitsets and out-neighbour tuples, row by row).
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from fractions import Fraction

from dicrit.budget import Budget
from dicrit.constructions import ConstructionSpec, build_g3
from dicrit.digraph import Digraph, bidirected_complete, boundary, induced
from dicrit.iso import canonical_form
from dicrit.ore import OreLeaf, is_4ore
from dicrit.potential import PotentialParams
from dicrit.structure import ChargeLedger, D6Component, Transfer


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


def _acyclic_subset_counts(d: Digraph) -> list[int]:
    """a[X] for every vertex bitset X: how many subsets of X induce an
    acyclic subdigraph.

    S is acyclic iff it is empty, or some v in S has no out-neighbour in S
    and S - v is acyclic: an acyclic digraph has a sink, and no cycle passes
    through a sink.  The zeta transform then sums over subsets."""
    n = d.n
    out = [0] * n
    for u, v in d.arcs:
        out[u] |= 1 << v
    a = [1] + [0] * ((1 << n) - 1)
    for s in range(1, 1 << n):
        a[s] = int(any(
            s >> v & 1 and not out[v] & s and a[s ^ 1 << v] for v in range(n)
        ))
    for v in range(n):
        bit = 1 << v
        for x in range(1 << n):
            if x & bit:
                a[x] += a[x ^ bit]
    return a


def _covers(a: list[int], n: int, k: int) -> int:
    """The number of k-tuples of acyclic sets whose union is V(D), by
    inclusion-exclusion: the sum over X of (-1)^(n - |X|) a(X)^k."""
    return sum((-1) ** (n - x.bit_count()) * a[x] ** k for x in range(1 << n))


def oracle_ie_is_k_dicolourable(d: Digraph, k: int) -> bool:
    """D is k-dicolourable iff k acyclic sets cover V(D), since a subset of
    an acyclic set is acyclic (Bjoerklund, Husfeldt and Koivisto, "Set
    partitioning via inclusion-exclusion", SIAM J. Comput. 2009).  Exact
    integers, 2^n sets; sane for n <= 12 or so."""
    return _covers(_acyclic_subset_counts(d), d.n, k) > 0


def oracle_ie_dichromatic_number(d: Digraph) -> int:
    a = _acyclic_subset_counts(d)
    return next(k for k in range(1, d.n + 1) if _covers(a, d.n, k) > 0)


def oracle_ie_is_k_dicritical(d: Digraph, k: int) -> bool:
    """``oracle_is_k_dicritical`` with every dicolourability question
    answered by inclusion-exclusion: m + 2 evaluations at most."""
    if any(not d.out_neighbours(v) and not d.in_neighbours(v) for v in range(d.n)):
        return False
    if oracle_ie_dichromatic_number(d) != k:
        return False
    return all(
        oracle_ie_is_k_dicolourable(Digraph(d.n, d.arcs - {arc}), k - 1) for arc in d.arcs
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


def oracle_follows_labelling_rule(n: int, arcs) -> bool:
    """Whether the digraph on range(n) with these arcs follows the census's
    labelling rule: vertex 0 has the largest out-degree d0 and exactly the
    out-neighbours 1..d0, and out-degrees do not increase along 1..d0, nor
    along d0 + 1..n - 1."""
    outdeg = [sum(1 for u, _ in arcs if u == v) for v in range(n)]
    d0 = outdeg[0]
    first, second = outdeg[1:d0 + 1], outdeg[d0 + 1:]
    return (
        d0 == max(outdeg)
        and {w for u, w in arcs if u == 0} == set(range(1, d0 + 1))
        and first == sorted(first, reverse=True)
        and second == sorted(second, reverse=True)
    )


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
    tuple at every level, and it knows no labelling rule, so it yields every
    labelling of each candidate.
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
    pin: tuple[int, int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every valid k-dicolouring assignment (backtracking core).

    ``out``/``inn`` are the bitset adjacency of the digraph, ``order`` the
    branching order.  ``pin = (a, b)``, with a placed before b, restricts the
    search to assignments with c(a) = c(b): b gets a's colour and no other.
    Colour j + 1 is tried only once colour j has appeared.

    The dicolouring kernel as first written, kept as the chronological
    reference: the backjumping kernel must return the first assignment
    yielded here, or None when there is none, from no more nodes than this
    search spends to reach it.  It tests cycles in a closure, calls
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
            last = k if top[i] >= k else top[i] + 1
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


def _adjacent(d: Digraph, u: int, v: int) -> bool:
    return (u, v) in d.arcs or (v, u) in d.arcs


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


def _oracle_valency8(d: Digraph, degree: list[int], v: int) -> int:
    """Arcs joining v to a vertex of degree at least 8."""
    return sum(1 for a in d.arcs if v in a and degree[a[0] + a[1] - v] >= 8)


def oracle_d6_components(d: Digraph) -> list[D6Component]:
    """The degree-6 vertices on a digon, flooded in the underlying graph,
    each component classified by the vertex pairs it joins."""
    degree = [_degree(d, v) for v in range(d.n)]
    d6 = {
        v for v in range(d.n)
        if degree[v] == 6 and any(_digon(d, v, u) for u in range(d.n))
    }
    found = []
    for comp in oracle_components(d, set(range(d.n)) - d6):
        verts = tuple(sorted(comp))
        pairs = [
            (u, v) for u, v in itertools.combinations(verts, 2)
            if (u, v) in d.arcs or (v, u) in d.arcs
        ]
        all_digons = all(_digon(d, u, v) for u, v in pairs)
        inner = {v: sum(v in p for p in pairs) for v in verts}
        ends = [v for v in verts if inner[v] == 1]
        if len(verts) == 1:
            klass = "singleton"
        elif len(verts) == 2 and all_digons:
            klass = "path2"
        elif len(verts) == 3 and all_digons and len(pairs) == 2:
            klass = "path3"
        elif len(verts) == 4 and all_digons and len(pairs) == 3 and len(ends) == 3:
            klass = "star4"
        else:
            klass = "other"
        cond = None
        if klass in ("path3", "star4"):
            cond = {}
            for v in ends:
                heavy = [u for u in range(d.n) if _adjacent(d, u, v) and degree[u] >= 8]
                cond[v] = sum(_oracle_valency8(d, degree, u) for u in heavy) >= 4
        found.append(D6Component(verts, klass, cond))
    return found


def oracle_discharge(d: Digraph, params: PotentialParams) -> ChargeLedger:
    """Rules R1-R3 applied as stated, source by source in increasing order
    and each source's targets in increasing order."""
    eps, delta = params.eps, params.delta
    degree = [_degree(d, v) for v in range(d.n)]
    sigma = {v: Fraction(0) for v in range(d.n)}
    for comp in oracle_d6_components(d):
        if len(comp.vertices) >= 2:
            for v in comp.vertices:
                sigma[v] = delta / len(comp.vertices)
    initial = {
        v: Fraction(10, 3) + eps - Fraction(degree[v], 2) - sigma[v] for v in range(d.n)
    }
    small = Fraction(1, 12) - eps / 8
    transfers = []
    for v in range(d.n):
        ins = [u for u in range(d.n) if (u, v) in d.arcs]
        outs = [u for u in range(d.n) if (v, u) in d.arcs]
        joined = [u for u in range(d.n) if _adjacent(d, u, v)]
        on_digon = any(_digon(d, u, v) for u in joined)
        if degree[v] == 6 and not on_digon:
            transfers += [Transfer("R1", v, u, small) for u in joined]
        elif degree[v] == 6:
            for u in joined:
                if degree[u] < 8:
                    continue
                n_arcs = ((u, v) in d.arcs) + ((v, u) in d.arcs)
                per_arc = (Fraction(-10, 3) + Fraction(degree[u], 2) - eps) / (
                    degree[u] - _oracle_valency8(d, degree, u)
                )
                note = None if n_arcs == 2 else "simple arc: per-arc amount sent once"
                transfers.append(Transfer("R2", v, u, n_arcs * per_arc, note))
        elif degree[v] == 7 and len(ins) == 3:
            transfers += [Transfer("R3", v, u, small) for u in ins]
        elif degree[v] == 7 and len(outs) == 3:
            transfers += [Transfer("R3", v, u, small) for u in outs]
    final = dict(initial)
    for t in transfers:
        final[t.source] -= t.amount
        final[t.target] += t.amount
    return ChargeLedger(params, sigma, initial, transfers, final)


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


def oracle_ore_compose(d1: Digraph, digon, d2: Digraph, z: int, z1, z2) -> Digraph:
    """The Ore-composition of bidirected d1 (digon side, digon ``[x, y]``)
    and d2 (split side, split vertex z, N(z) partitioned into z1 and z2),
    under the package's label convention, from the arc sets.  Assumes the
    input is valid."""
    x, y = digon
    offset = {w: d1.n + i for i, w in enumerate(sorted(v for v in d2.vertices() if v != z))}
    arcs = set(d1.arcs) - {(x, y), (y, x)}
    for u, v in d2.arcs:
        if u != z and v != z:
            arcs.add((offset[u], offset[v]))
    for part, end in ((z1, x), (z2, y)):
        for w in part:
            if (z, w) in d2.arcs:
                arcs.add((end, offset[w]))
            if (w, z) in d2.arcs:
                arcs.add((offset[w], end))
    return Digraph(d1.n + d2.n - 1, arcs)


def oracle_replay(trace) -> Digraph:
    """The digraph an Ore trace describes, composed bottom-up by
    :func:`oracle_ore_compose`."""
    if isinstance(trace, OreLeaf):
        return bidirected_complete(4)
    return oracle_ore_compose(
        oracle_replay(trace.digon_side), trace.digon, oracle_replay(trace.split_side),
        trace.split_vertex, trace.z1, trace.z2,
    )


def oracle_build_gk(k: int, spec: ConstructionSpec) -> tuple[int, list[tuple[int, int]]]:
    """The order and the arcs of the level-k construction over the spec's
    choices, listed: the tournament's arcs in sorted order, then for the
    copy that replaces the i-th of them, xy, on vertices k + i n_sub
    onwards, the level below's arcs shifted there, y to every vertex of the
    copy and every vertex of the copy to x."""
    if k == 3:
        g, _ = build_g3(spec.n0, spec.cycle_orientation_seed)
        return g.n, g.sorted_arcs()
    n_sub, sub_arcs = oracle_build_gk(k - 1, spec)
    t_arcs = sorted(spec.tournament_for(k))
    arcs = list(t_arcs)
    for i, (x, y) in enumerate(t_arcs):
        offset = k + i * n_sub
        block = range(offset, offset + n_sub)
        arcs += [(u + offset, v + offset) for (u, v) in sub_arcs]
        arcs += [(y, t) for t in block]
        arcs += [(t, x) for t in block]
    return k + len(t_arcs) * n_sub, arcs


@functools.lru_cache(maxsize=None)
def oracle_4ore_forms(n: int) -> frozenset[tuple[tuple[int, int], ...]]:
    """The canonical forms of every 4-Ore digraph of order n: the bidirected
    K4 at n = 4, and above it every Ore-composition of a class of order n1
    (digon side, each digon) with a class of order n + 1 - n1 (split side,
    each vertex z and each ordered split of N(z) into non-empty parts).
    Exhaustive; 1 class at n = 7, 6 at n = 10, and already 5,638
    compositions at n = 13."""
    if n == 4:
        return frozenset({canonical_form(bidirected_complete(4))})
    forms = set()
    for n1 in range(4, n - 2, 3):
        for f1, f2 in itertools.product(oracle_4ore_forms(n1), oracle_4ore_forms(n + 1 - n1)):
            d1, d2 = Digraph(n1, f1), Digraph(n + 1 - n1, f2)
            for digon, z in itertools.product(d1.digons(), d2.vertices()):
                nbrs = d2.neighbours(z)
                for size in range(1, len(nbrs)):
                    for z1 in itertools.combinations(nbrs, size):
                        z2 = [w for w in nbrs if w not in z1]
                        composed = oracle_ore_compose(d1, digon, d2, z, z1, z2)
                        forms.add(canonical_form(composed))
    return frozenset(forms)


def oracle_is_4ore(d: Digraph) -> bool:
    """Whether the bidirected digraph d is 4-Ore, from the definition: the
    bidirected K4, or an Ore-composition of two 4-Ore digraphs.  A
    composition's digon side D1 and split side D2 meet at a pair {x, y} with
    no arc between them, so every such pair and every way of giving the
    components of G - {x, y} (G the underlying graph) to the two sides is
    tried, with no rule about which cuts can occur and no memo.  Only the
    order and the arc count 3m = 10n - 4, which every 4-Ore digraph has,
    prune.  Exponential; meant for n <= 16."""
    return _oracle_4ore(frozenset(range(d.n)), frozenset(underlying_edges(d)))


def _oracle_4ore(vertices: frozenset, edges: frozenset) -> bool:
    n = len(vertices)
    if n % 3 != 1 or 3 * len(edges) != 5 * n - 2:
        return False
    if n == 4:
        return True
    adj: dict = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for x, y in itertools.combinations(sorted(vertices), 2):
        if y in adj[x]:
            continue
        comps = _oracle_flood(adj, vertices - {x, y})
        for sides in itertools.product((0, 1), repeat=len(comps)):
            if len(set(sides)) < 2:
                continue
            a = frozenset().union(*(c for c, s in zip(comps, sides) if s == 0))
            b = vertices - a - {x, y}
            # D2's split vertex z has x take Z1 and y take Z2, which
            # partition N(z) into non-empty parts.
            zx, zy = adj[x] & b, adj[y] & b
            if not zx or not zy or zx & zy:
                continue
            z = min(vertices) - 1  # a label no vertex of either side has
            d1 = frozenset(e for e in edges if set(e) <= a | {x, y}) | {(x, y)}
            d2 = frozenset(e for e in edges if set(e) <= b)
            d2 |= {(z, w) for w in zx | zy}
            if _oracle_4ore(a | {x, y}, d1) and _oracle_4ore(b | {z}, d2):
                return True
    return False


def _oracle_flood(adj: dict, alive: frozenset) -> list[frozenset]:
    """Components of the graph ``adj`` induced on ``alive``."""
    comps, seen = [], set()
    for start in sorted(alive):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for u in adj[stack.pop()] & alive - comp:
                comp.add(u)
                stack.append(u)
        seen |= comp
        comps.append(frozenset(comp))
    return comps
