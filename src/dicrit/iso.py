"""Isomorphism testing and canonical forms, from one canonical labelling.

:func:`canonical_labelling` is the only search in this module: colour
refinement plus individualisation (McKay & Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 2014), for digraphs of any order.

* A colouring is an ordered partition of the vertices, and a vertex's
  colour is the position of its cell.  Refinement splits each cell by the
  sorted multiset of (neighbour colour, arc type) of its members, with arc
  types out, in and digon, and orders the parts by that multiset, until the
  colouring is equitable.  Nothing in it depends on the labels.
* While some cell has more than one vertex, each vertex of the first
  smallest such cell is individualised in turn (given the first position
  of its cell) and the result refined again.  Each discrete colouring (a
  leaf) relabels the digraph; the least sorted arc tuple over all leaves is
  the canonical form.
* Two leaves with equal arc tuples differ by an automorphism.  A child is
  skipped when the automorphisms found so far that fix its ancestors
  pointwise map it to an explored sibling, and a leaf that repeats the best
  form sends the search back to where its path left the best leaf's path.

:func:`canonical_form` and :func:`find_isomorphism` are derived from the
labelling: two digraphs of the same order are isomorphic exactly when their
forms are equal, and composing the two labellings gives an isomorphism.
"""

from __future__ import annotations

from .digraph import Digraph, bits


def invariant_key(d: Digraph) -> tuple:
    """A cheap isomorphism invariant usable as a memo bucket key.

    Nothing in the package calls it.  It stays because the benchmark's
    tracer (``bench/tracing.py``) patches it by name and ``BENCHMARK.json``
    lists its call and time metrics; it goes with the next change to the
    benchmark, which drops that entry and those metrics.
    """
    degs = sorted((d.out_degree(v), d.in_degree(v), d.digon_count_at(v))
                  for v in d.vertices())
    return (d.n, d.m, tuple(degs))


def _typed_rows(d: Digraph) -> list[list[tuple[int, int]]]:
    """For each vertex v, its neighbours w with the type of the arcs between
    them: 0 for v -> w alone, 1 for w -> v alone, 2 for a digon."""
    rows = []
    for v, (o, i) in enumerate(zip(d.out_masks, d.in_masks)):
        row = [(w, 2 if i >> w & 1 else 0) for w in d.out_neighbours(v)]
        if i & ~o:  # bidirected digraphs have no in-only neighbours
            row += [(w, 1) for w in bits(i & ~o)]
        rows.append(row)
    return rows


def _refine(rows: list, col: list[int], cells: list[list[int]]):
    """Split the ordered partition ``cells`` until it is equitable; ``col``
    maps each vertex to the position of its cell and is updated in place."""
    split = True
    while split and len(cells) < len(col):
        split = False
        parts = []
        for cell in cells:
            if len(cell) == 1:
                parts.append(cell)
                continue
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                sig = tuple(sorted([3 * col[w] + t for w, t in rows[v]]))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                parts.append(cell)
                continue
            split = True
            pos = col[cell[0]]
            for sig in sorted(groups):
                part = groups[sig]
                parts.append(part)
                for v in part:
                    col[v] = pos
                pos += len(part)
        cells = parts
    return col, cells


def _orbits(seeds: list[int], path: list[int], autos: list) -> set[int]:
    """The union of the orbits of ``seeds`` under the automorphisms found
    so far that fix ``path`` pointwise."""
    gens = [g for g in autos if all(g[p] == p for p in path)]
    orbit, stack = set(seeds), list(seeds)
    while stack:
        u = stack.pop()
        for g in gens:
            if g[u] not in orbit:
                orbit.add(g[u])
                stack.append(g[u])
    return orbit


def _leaf(arcs, col: list[int], path: list[int], best: list, autos: list) -> int:
    """Compare one leaf with the best so far; returns the depth to resume at."""
    form = tuple(sorted([(col[u], col[v]) for u, v in arcs]))
    if best and form == best[0]:
        _, lab, best_path = best
        inverse = sorted(range(len(lab)), key=lab.__getitem__)
        autos.append([inverse[p] for p in col])
        # An individualised vertex keeps the first position of its cell, so
        # a leaf's labelling determines its path, and the automorphism maps
        # this path onto the best one.  Where the two paths part, this
        # child is thus in the orbit of an explored sibling.
        j = 0
        while path[j] == best_path[j]:
            j += 1
        return j
    if not best or form < best[0]:
        best[:] = (form, col, tuple(path))
    return len(path)


def _search(rows: list, arcs, col: list[int], cells: list[list[int]],
            path: list[int], best: list, autos: list) -> int:
    """Explore the subtree below the equitable partition ``cells``; returns
    the depth at which the search resumes (``len(path)`` when finished)."""
    if len(cells) == len(col):
        return _leaf(arcs, col, path, best, autos)
    _, i = min((len(cell), i) for i, cell in enumerate(cells) if len(cell) > 1)
    depth = len(path)
    explored: list[int] = []
    covered: set[int] = set()
    for v in cells[i]:
        if v in covered:
            continue
        explored.append(v)
        rest = list(cells[i])
        rest.remove(v)
        child, child_cells = list(col), list(cells)
        for u in rest:
            child[u] += 1
        child_cells[i:i + 1] = [v], rest
        path.append(v)
        back = _search(rows, arcs, *_refine(rows, child, child_cells), path, best, autos)
        path.pop()
        if back < depth:
            return back
        if autos:
            covered = _orbits(explored, path, autos)
    return depth


def canonical_labelling(d: Digraph) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The canonical form of ``d`` and a labelling that produces it: the
    labelling maps each vertex to its canonical position, and the form is
    the sorted tuple of relabelled arcs."""
    rows = _typed_rows(d)
    best: list = []
    _search(rows, d.arcs, *_refine(rows, [0] * d.n, [list(d.vertices())]), [], best, [])
    return best[0], tuple(best[1])


def canonical_form(d: Digraph) -> tuple[tuple[int, int], ...]:
    """A relabelling invariant: equal for two digraphs of the same order
    exactly when they are isomorphic."""
    return canonical_labelling(d)[0]


def find_isomorphism(a: Digraph, b: Digraph) -> dict[int, int] | None:
    """A bijection V(a) -> V(b) preserving arcs exactly, or None."""
    if a.n != b.n or a.m != b.m:
        return None
    form_a, lab_a = canonical_labelling(a)
    form_b, lab_b = canonical_labelling(b)
    if form_a != form_b:
        return None
    vertex_of = {p: w for w, p in enumerate(lab_b)}
    return {v: vertex_of[p] for v, p in enumerate(lab_a)}
