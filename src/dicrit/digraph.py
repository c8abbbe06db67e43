"""Immutable digraphs and the structural primitives everything else consumes.

Vertices are dense integers ``0..n-1``.  Arcs are ordered pairs ``(u, v)``
with ``u != v``; a digon is a pair of opposite arcs.  Values never mutate:
every edit returns a fresh digraph, and operations that move vertices
(induced subdigraphs) also return the relabelling map so provenance
survives composition.

The interchange format is DG-v1::

    # optional comment lines
    n <N> m <M>
    <u> <v>            (M arc lines, 0-based ids)

Canonical serialization lists arcs in lexicographic order.

A :class:`Digraph` stores its adjacency once, when it is built: the out-
and in-neighbourhood of each vertex as a vertex bitset (``out_masks`` and
``in_masks``), plus the sorted out-neighbour tuples that the witness
checker in :mod:`dicrit.colouring` peels over and walks.  A digraph built
from its rows makes those tuples on their first read, and the arc set of
every digraph is built when it is first read.

Every cut and component question is answered on vertex bitsets:
:func:`underlying_masks` gives the underlying graph as one neighbourhood
bitset per vertex, :func:`mask_components` floods it within a vertex
bitset, and :func:`two_cut_sides` enumerates every cut of at most two
vertices with its sides.  4-Ore recognition, D6 components and the
dicolouring reduction all use these three, and :func:`restrict` cuts out
pieces.  :func:`digon_masks` gives the digon graph the same way; the
packing layer reads its digon cliques off it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence


class DigraphError(ValueError):
    """Invalid digraph construction or operation input.

    ``index`` is the position of the rejected arc in the arcs handed to
    :class:`Digraph`, when an arc is at fault, and None otherwise."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ParseError(DigraphError):
    """DG-v1 text that does not describe a digraph; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Digraph:
    """A loopless digraph on vertices ``0..n-1`` with a frozen arc set.

    It stores its adjacency once, as vertex bitsets (Python ints, bit w for
    vertex w): ``out_masks[v]`` and ``in_masks[v]`` are the out- and
    in-neighbourhoods of v.  Every adjacency question (arcs, neighbours,
    degrees, digons, the underlying and digon graphs) and equality are read
    off them.  The sorted out-neighbour tuples stay as well, for
    :meth:`out_neighbours`, :meth:`sorted_arcs` and the witness checker:
    its peel ORs the cells of each vertex's out-neighbours by one
    ``reduce`` over a tuple, and its cycle DFS ran 1.6-2.1 times as fast on
    them as on bits.  The constructor sorts them at once; a digraph built
    from its rows (:meth:`_from_rows`) builds them from its recipe on their
    first read, so a construction level that nothing walks never holds
    them.  The frozenset ``arcs`` is built on first read and kept: from
    the arcs handed to the constructor, which it keeps until then, or from
    the tuples for a digraph built from its rows.  Code that only walks
    the arcs reads :meth:`sorted_arcs` instead.

    Empty digraphs (n = 0) are rejected everywhere.  Instances are hashable
    and safe to share between threads: two threads that both read ``arcs``,
    or the tuples, first store equal values.
    """

    __slots__ = ("n", "m", "out_masks", "in_masks", "_out", "_arcs")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise DigraphError("digraphs must have at least one vertex")
        arcs = tuple(arcs)
        out, inn = [0] * n, [0] * n
        targets: list[list[int]] = [[] for _ in range(n)]
        for index, (u, v) in enumerate(arcs):
            if not (0 <= u < n and 0 <= v < n):
                raise DigraphError(f"arc ({u}, {v}) out of range for n={n}", index)
            if u == v:
                raise DigraphError(f"self-loop at vertex {u}", index)
            if out[u] >> v & 1:
                raise DigraphError(f"duplicate arc ({u}, {v})", index)
            out[u] |= 1 << v
            inn[v] |= 1 << u
            targets[u].append(v)
        self.n = n
        self.m = len(arcs)
        self.out_masks = tuple(out)
        self.in_masks = tuple(inn)
        self._out = tuple(tuple(sorted(t)) for t in targets)
        self._arcs = arcs

    @staticmethod
    def _from_rows(
        out_masks: Sequence[int],
        in_masks: Sequence[int],
        m: int,
        rows: Callable[[], Iterable[tuple[int, ...]]],
    ) -> "Digraph":
        """The digraph with ``m`` arcs whose vertex v has the out-bitset
        ``out_masks[v]``, the in-bitset ``in_masks[v]`` and the sorted
        out-neighbours ``rows()[v]``, taken as they are.  ``rows`` is
        called on the first read of the out-neighbour tuples, if any, and
        its result is kept.  Nothing is checked: the caller vouches that
        the four agree and describe a loopless digraph."""
        d = object.__new__(_RowsDigraph)
        d.n = len(out_masks)
        d.m = m
        d.out_masks = tuple(out_masks)
        d.in_masks = tuple(in_masks)
        d._rows = rows
        d._arcs = None
        return d

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        # Until the first read, _arcs holds the arcs handed to __init__,
        # or None for a digraph built from its rows.  The caller's pairs
        # may be lists, which a set cannot hold.
        arcs = self._arcs
        if type(arcs) is not frozenset:
            arcs = self._arcs = frozenset(self.sorted_arcs() if arcs is None else map(tuple, arcs))
        return arcs

    # -- basic accessors -------------------------------------------------

    def vertices(self) -> range:
        return range(self.n)

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, targets in enumerate(self._out) for v in targets]

    def has_arc(self, u: int, v: int) -> bool:
        # The range test first: out_masks[-1] would read vertex n - 1.
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.out_masks[u] >> v & 1)

    def out_neighbours(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbours(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.in_masks[v]))

    def neighbours(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.out_masks[v] | self.in_masks[v]))

    def out_degree(self, v: int) -> int:
        return self.out_masks[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_masks[v].bit_count()

    def degree(self, v: int) -> int:
        return self.out_masks[v].bit_count() + self.in_masks[v].bit_count()

    # -- digons ----------------------------------------------------------

    def has_digon(self, u: int, v: int) -> bool:
        return self.has_arc(u, v) and bool(self.in_masks[u] >> v & 1)

    def digons(self) -> list[tuple[int, int]]:
        """All digons as pairs (u, v) with u < v, in lexicographic order."""
        return [
            (u, v)
            for u, mask in enumerate(map(int.__and__, self.out_masks, self.in_masks))
            for v in bits(mask >> u << u)
        ]

    def digon_count_at(self, v: int) -> int:
        return (self.out_masks[v] & self.in_masks[v]).bit_count()

    def is_bidirected(self) -> bool:
        return self.out_masks == self.in_masks

    def is_oriented(self) -> bool:
        return not any(map(int.__and__, self.out_masks, self.in_masks))

    # -- builders (every edit returns a new value) -----------------------

    # The pairs may be lists, as for the constructor.
    def with_arcs(self, extra: Iterable[tuple[int, int]]) -> "Digraph":
        return Digraph(self.n, self.arcs.union(map(tuple, extra)))

    def without_arcs(self, removed: Iterable[tuple[int, int]]) -> "Digraph":
        return Digraph(self.n, self.arcs.difference(map(tuple, removed)))

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.out_masks == other.out_masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.out_masks))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


class _RowsDigraph(Digraph):
    """A :class:`Digraph` from :meth:`Digraph._from_rows`, whose ``_out``
    slot stays unset until the out-neighbour tuples are first read.

    Python calls ``__getattr__`` only for an attribute that normal lookup
    does not find, here the unset slot, and this one fills it from the
    recipe.  It lives on this subclass alone because a class that defines
    ``__getattr__`` loses the interpreter's fast attribute reads on every
    instance: three times the cost of a plain slot read on Python 3.11."""

    __slots__ = ("_rows",)

    def __getattr__(self, name: str):
        if name != "_out":
            raise AttributeError(f"'Digraph' object has no attribute {name!r}")
        out = self._out = tuple(self._rows())
        return out


# -- standard digraphs ----------------------------------------------------


def bidirected_complete(n: int) -> Digraph:
    return Digraph(n, ((u, v) for u in range(n) for v in range(n) if u != v))


def directed_cycle(n: int) -> Digraph:
    if n < 2:
        raise DigraphError("a directed cycle needs at least two vertices")
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def bidirected_cycle(n: int) -> Digraph:
    if n < 3:
        raise DigraphError("a bidirected cycle needs at least three vertices")
    arcs = []
    for i in range(n):
        arcs.append((i, (i + 1) % n))
        arcs.append(((i + 1) % n, i))
    return Digraph(n, arcs)


def bidirected_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Digraph:
    arcs = []
    for u, v in edges:
        arcs.append((u, v))
        arcs.append((v, u))
    return Digraph(n, arcs)


# -- DG-v1 parsing / serialization ----------------------------------------


def parse(text: str) -> Digraph:
    """Parse a DG-v1 string; every error carries its 1-based line number.

    The arcs are validated by :class:`Digraph`, whose error names the
    position of the rejected arc; that position gives the line.  A line
    that is no arc, or one arc too many, ends the reading, and is reported
    unless an arc before it is at fault."""
    header = None
    header_line = 0
    arcs: list[tuple[int, int]] = []
    lines: list[int] = []  # the line of each arc
    n = m = 0
    fault = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # One split per line: a blank line has no token, and a comment's
        # first token starts with "#".
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if header is None:
            if len(parts) != 4 or parts[0] != "n" or parts[2] != "m":
                raise ParseError(f"malformed header {raw.strip()!r}", lineno)
            try:
                n, m = int(parts[1]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header {raw.strip()!r}", lineno) from None
            if n < 1:
                raise ParseError("vertex count must be positive", lineno)
            if m < 0:
                raise ParseError("arc count must be non-negative", lineno)
            header = (n, m)
            header_line = lineno
            continue
        try:
            u, v = map(int, parts)
        except ValueError:
            fault = ParseError(f"expected an arc line, got {raw.strip()!r}", lineno)
            break
        arcs.append((u, v))
        lines.append(lineno)
        if len(arcs) > m:
            fault = ParseError(f"more than the {m} arcs announced in the header", lineno)
            break
    if header is None:
        raise ParseError("missing header", 1)
    try:
        d = Digraph(n, arcs)
    except DigraphError as err:
        raise ParseError(str(err), lines[err.index]) from None
    if fault is not None:
        raise fault
    if len(arcs) < m:
        raise ParseError(
            f"header announced {m} arcs but {len(arcs)} were given", header_line
        )
    return d


def serialize(d: Digraph) -> str:
    """Canonical DG-v1 text: header, then arcs in lexicographic order."""
    lines = [f"n {d.n} m {d.m}"]
    lines.extend(f"{u} {v}" for u, v in d.sorted_arcs())
    return "\n".join(lines) + "\n"


# -- subdigraphs and boundaries -------------------------------------------


def induced(d: Digraph, subset: Iterable[int]) -> tuple[Digraph, dict[int, int]]:
    """The subdigraph induced by ``subset``, relabelled 0..|S|-1 in order.

    Returns the digraph together with the old-id -> new-id map.
    """
    vs = sorted(set(subset))
    if not vs:
        raise DigraphError("cannot induce on an empty vertex set")
    if vs[0] < 0 or vs[-1] >= d.n:
        raise DigraphError("subset contains vertices outside the digraph")
    mapping = {v: i for i, v in enumerate(vs)}
    arcs = [
        (mapping[u], mapping[v])
        for (u, v) in d.sorted_arcs()
        if u in mapping and v in mapping
    ]
    return Digraph(len(vs), arcs), mapping


def restrict(masks: Sequence[int], vertices: Sequence[int]) -> list[int]:
    """Bitset adjacency induced on ``vertices``, relabelled in their order."""
    index = {w: i for i, w in enumerate(vertices)}
    keep = sum(1 << w for w in vertices)
    result = []
    for w in vertices:
        mask = 0
        for x in bits(masks[w] & keep):
            mask |= 1 << index[x]
        result.append(mask)
    return result


def boundary(d: Digraph, subset: Iterable[int]) -> frozenset[int]:
    """Vertices of R with at least one in- or out-neighbour outside R."""
    r = set(subset)
    if not r:
        raise DigraphError("boundary of an empty set is undefined")
    if not r.issubset(range(d.n)):
        raise DigraphError("subset contains vertices outside the digraph")
    if len(r) == d.n:
        raise DigraphError("boundary of the whole vertex set is undefined")
    outside = ~sum(1 << v for v in r)
    return frozenset(v for v in r if (d.out_masks[v] | d.in_masks[v]) & outside)


# -- connectivity ----------------------------------------------------------


def bits(mask: int) -> Iterator[int]:
    """The members of a vertex bitset, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def underlying_masks(d: Digraph) -> list[int]:
    """The underlying graph as one neighbourhood bitset per vertex."""
    return list(map(int.__or__, d.out_masks, d.in_masks))


def digon_masks(d: Digraph) -> list[int]:
    """The digon graph as one neighbourhood bitset per vertex: bit v of
    entry u is set when uv and vu are both arcs."""
    return list(map(int.__and__, d.out_masks, d.in_masks))


def mask_components(adj: Sequence[int], alive: int) -> list[int]:
    """Components of the graph induced on the bitset ``alive``, as bitsets,
    ordered by lowest vertex.  ``adj`` holds neighbourhood bitsets, as from
    :func:`underlying_masks`."""
    comps = []
    while alive:
        comp = pending = alive & -alive
        while pending:
            low = pending & -pending
            pending ^= low
            fresh = adj[low.bit_length() - 1] & alive & ~comp
            comp |= fresh
            pending |= fresh
        comps.append(comp)
        alive &= ~comp
    return comps


def _cut_vertices(adj: Sequence[int], alive: int) -> tuple[int, int]:
    """``(cuts, reached)`` for a depth-first search of the graph induced on
    ``alive`` from its lowest vertex: ``reached`` is the component searched
    and ``cuts`` its cut vertices, both as bitsets.

    Every non-tree edge of the search joins a vertex to an ancestor, so a
    non-root vertex p cuts exactly when the subtree of some child of p has
    no neighbour among the strict ancestors of p; the root cuts when it has
    two children.
    """
    root = alive & -alive
    unvisited = alive ^ root
    path = [root.bit_length() - 1]
    above = [0]  # above[i]: the strict ancestors of path[i]
    reach = [adj[path[0]]]  # reach[i]: neighbours of path[i]'s subtree so far
    cuts = root_children = 0
    while True:
        v = path[-1]
        fresh = adj[v] & unvisited
        if fresh:
            low = fresh & -fresh
            unvisited ^= low
            w = low.bit_length() - 1
            above.append(above[-1] | 1 << v)
            path.append(w)
            reach.append(adj[w])
            continue
        path.pop()
        above.pop()
        subtree = reach.pop()
        if not path:
            break
        if len(path) == 1:
            root_children += 1
        elif not subtree & above[-1]:
            cuts |= 1 << path[-1]
        reach[-1] |= subtree
    if root_children > 1:
        cuts |= root
    return cuts, alive & ~unvisited


def two_cut_sides(
    adjacency: Sequence[int],
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Every vertex cut of at most two vertices, with the sides it leaves.

    ``adjacency[v]`` is the neighbourhood of v in a loopless undirected
    graph, as a bitset.  Yields ``(cut, sides)``: ``cut`` is ``(u,)`` or
    ``(u, v)`` with u < v, and ``sides`` lists the components of G - cut as
    bitsets, at least two of them.  Cuts come in lexicographic order, each
    ``(u,)`` before the pairs that start with u.  For each u, the pairs are
    the cut vertices of G - u, or every v when G - u is itself disconnected.
    """
    n = len(adjacency)
    if n < 2:
        return
    everything = (1 << n) - 1
    for u in range(n):
        rest = everything & ~(1 << u)
        partners, reached = _cut_vertices(adjacency, rest)
        if reached != rest:
            yield (u,), mask_components(adjacency, rest)
            partners = rest
        for v in bits(partners >> (u + 1) << (u + 1)):
            sides = mask_components(adjacency, rest & ~(1 << v))
            if len(sides) > 1:
                yield (u, v), sides
