"""Structural apparatus: chelou arcs, D6 components, valencies, the
discharging engine, phi-identification, dicritical extensions and
collapsibility.

Everything here runs on arbitrary digraphs; the rules and classifiers only
fire where their degree guards hold, and properties that the theory proves
for minimal counterexamples are *reported*, never assumed.

Chelou arcs, D6, valencies and discharging read the vertex bitsets that
every digraph stores (``out_masks``, ``in_masks``): a degree is two
popcounts, D6 and the vertices of degree at least 8 are bitsets, and a D6
component is classified by popcounts inside its own bitset, so no vertex
pair is ever scanned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .budget import Budget, DEFAULT_SOLVER_NODES, ensure_budget
from .colouring import (
    Colouring,
    RefutationStats,
    _branching,
    _decide,
    check_dicolouring,
)
from .digraph import (
    Digraph,
    DigraphError,
    bits,
    boundary,
    induced,
    mask_components,
    restrict,
    underlying_masks,
)
from .potential import PotentialParams, TEN_THIRDS, fraction_text


# -- chelou arcs -------------------------------------------------------------


def find_chelou_arcs(
    d: Digraph,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(out-chelou arcs, in-chelou arcs), each in lexicographic order.

    An arc xy is out-chelou when yx is absent, d+(x) = 3, d-(y) = 3, and
    some z != x is an in- but not out-neighbour of y.  An arc is in-chelou
    when its reversal is out-chelou in the arc-reversed digraph: yx is
    absent, d+(x) = 3, d-(y) = 3, and some z != y is an out- but not
    in-neighbour of x.
    """
    out, inn = d.out_masks, d.in_masks
    out_chelou, in_chelou = [], []
    for x in d.vertices():
        if out[x].bit_count() != 3:
            continue
        out_only = out[x] & ~inn[x]
        for y in bits(out_only):
            if inn[y].bit_count() != 3:
                continue
            if inn[y] & ~out[y] & ~(1 << x):
                out_chelou.append((x, y))
            if out_only & ~(1 << y):
                in_chelou.append((x, y))
    return out_chelou, in_chelou


# -- D6 and valencies --------------------------------------------------------


def d6_vertices(d: Digraph) -> list[int]:
    """Vertices of degree 6 incident to at least one digon."""
    out, inn = d.out_masks, d.in_masks
    return [v for v in d.vertices() if d.degree(v) == 6 and out[v] & inn[v]]


def valency8(d: Digraph, v: int) -> int:
    """Number of arcs joining v to vertices of degree at least 8: a digon
    counts twice, a single arc once."""
    if not 0 <= v < d.n:
        raise DigraphError(f"vertex {v} is not in the digraph")
    out, inn = d.out_masks[v], d.in_masks[v]
    heavy = sum(1 << u for u in bits(out | inn) if d.degree(u) >= 8)
    return (out & heavy).bit_count() + (inn & heavy).bit_count()


def neighbourhood_valency(d: Digraph, v: int) -> int:
    """Sum of the 8+-valencies of v's neighbours of degree at least 8."""
    if not (0 <= v < d.n and d.degree(v) == 6 and d.out_masks[v] & d.in_masks[v]):
        raise DigraphError(f"vertex {v} is not in D6")
    joined = d.out_masks[v] | d.in_masks[v]
    return sum(valency8(d, u) for u in bits(joined) if d.degree(u) >= 8)


@dataclass(frozen=True)
class D6Component:
    vertices: tuple[int, ...]
    klass: str  # singleton | path2 | path3 | star4 | other
    # For path3/star4: did the extremities reach neighbourhood valency 4?
    # Reported, never assumed; None when the class carries no side condition.
    valency_condition: dict | None = None

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "class": self.klass,
            "valency_condition": self.valency_condition,
        }


def d6_components(d: Digraph) -> list[D6Component]:
    """Connected components of D6, classified against the shapes the theory
    allows in a minimal counterexample ("other" is a first-class outcome).

    Each component C is flooded and classified on the host's bitsets.  C
    is a tree of digons exactly when its inner degrees sum to 2(|C| - 1)
    and no vertex of C meets another by a single arc; such a tree is a
    singleton, a path2 or a path3 on up to 3 vertices, and a star4 on 4
    vertices with 3 leaves.  Every other component is "other".
    """
    out, inn = d.out_masks, d.in_masks
    adj = underlying_masks(d)
    d6 = sum(1 << v for v in d6_vertices(d))
    found = []
    for comp in mask_components(adj, d6):
        verts = tuple(bits(comp))
        inner = [(adj[v] & comp).bit_count() for v in verts]
        leaves = [v for v, k in zip(verts, inner) if k == 1]
        single = any((out[v] ^ inn[v]) & comp for v in verts)
        digon_tree = sum(inner) == 2 * len(verts) - 2 and not single
        klass, cond = "other", None
        if digon_tree and (len(verts) < 4 or len(verts) == 4 and len(leaves) == 3):
            klass = ("singleton", "path2", "path3", "star4")[len(verts) - 1]
        if klass in ("path3", "star4"):
            cond = {v: neighbourhood_valency(d, v) >= 4 for v in leaves}
        found.append(D6Component(verts, klass, cond))
    return found


# -- discharging -------------------------------------------------------------


@dataclass(frozen=True)
class Transfer:
    rule: str
    source: int
    target: int
    amount: Fraction
    note: str | None = None

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "source": self.source,
            "target": self.target,
            "amount": fraction_text(self.amount),
            "note": self.note,
        }


@dataclass
class ChargeLedger:
    """Initial charges, rule-tagged transfers and final charges.

    Transfers conserve total charge exactly:  sum(w*) = sum(w).
    """

    params: PotentialParams
    sigma: dict[int, Fraction]
    initial: dict[int, Fraction]
    transfers: list[Transfer]
    final: dict[int, Fraction]

    def total_initial(self) -> Fraction:
        return sum(self.initial.values(), Fraction(0))

    def total_final(self) -> Fraction:
        return sum(self.final.values(), Fraction(0))

    def to_json(self) -> dict:
        return {
            "eps": fraction_text(self.params.eps),
            "delta": fraction_text(self.params.delta),
            "sigma": {str(v): fraction_text(q) for v, q in sorted(self.sigma.items())},
            "initial": {str(v): fraction_text(q) for v, q in sorted(self.initial.items())},
            "transfers": [t.to_json() for t in self.transfers],
            "final": {str(v): fraction_text(q) for v, q in sorted(self.final.items())},
        }


def discharge(d: Digraph, params: PotentialParams) -> ChargeLedger:
    """Run the three discharging rules and return the full ledger.

    sigma(v) is delta/|C| for degree-6 vertices in a D6 component C of size
    at least 2, else 0; the initial charge is 10/3 + eps - d(v)/2 - sigma(v).

    R1: a degree-6 vertex incident to no digon sends 1/12 - eps/8 to each
        neighbour.
    R2: a degree-6 vertex incident to digons sends, to each neighbour v of
        degree at least 8, 1/(d(v) - nu(v)) * (-10/3 + d(v)/2 - eps) per arc
        joining them (a digon carries two arcs, a simple arc one; the simple
        arc case is an interpretation choice and is flagged on the transfer).
        The divisor is at least 1: the arcs joining v to the sender count
        in d(v) but not in nu(v), as the sender has degree 6 < 8.
    R3: a degree-7 vertex with d- = 3 (resp. d+ = 3) sends 1/12 - eps/8 to
        each in-neighbour (resp. out-neighbour).

    Each distinct rational is computed once and put over L, the lcm of
    their denominators; the charges are then integer numerators over L, and
    each distinct charge becomes a ``Fraction`` once (docs/decisions.md
    section 19).
    """
    eps, delta = params.eps, params.delta
    out, inn = d.out_masks, d.in_masks
    degree = [o.bit_count() + i.bit_count() for o, i in zip(out, inn)]
    heavy = sum(1 << v for v, k in enumerate(degree) if k >= 8)
    d6 = sum(1 << v for v, k in enumerate(degree) if k == 6 and out[v] & inn[v])
    adj = underlying_masks(d)
    # The distinct rationals: base, small, delta/|C| per component size and
    # R2's per-arc amount per (d(u), nu(u)) of a receiver u: only a receiver,
    # a neighbour of a degree-6 vertex, is sure to have d(u) - nu(u) >= 1.
    base = TEN_THIRDS + eps
    small = Fraction(1, 12) - eps / 8
    shared = [comp for comp in mask_components(adj, d6) if comp.bit_count() >= 2]
    share = {size: delta / size for size in {comp.bit_count() for comp in shared}}
    sigma = dict.fromkeys(d.vertices(), Fraction(0))
    for comp in shared:
        sigma.update(dict.fromkeys(bits(comp), share[comp.bit_count()]))
    receivers = 0
    for v in bits(d6):
        receivers |= adj[v]
    key_of = {
        u: (degree[u], (out[u] & heavy).bit_count() + (inn[u] & heavy).bit_count())
        for u in bits(receivers & heavy)
    }
    rate = {key: (Fraction(key[0], 2) - base) / (key[0] - key[1])
            for key in set(key_of.values())}
    scale = math.lcm(2, base.denominator, small.denominator,
                     *(q.denominator for q in share.values()),
                     *(q.denominator for q in rate.values()))

    def over_scale(q: Fraction) -> int:
        return q.numerator * (scale // q.denominator)

    # R2 amounts by receiver key and digon bit: (Fraction, numerator over L).
    r2 = {key: ((q, over_scale(q)), (2 * q, 2 * over_scale(q))) for key, q in rate.items()}
    small_n = over_scale(small)
    initial_n = [over_scale(base) - k * (scale // 2) for k in degree]
    for comp in shared:
        share_n = over_scale(share[comp.bit_count()])
        for v in bits(comp):
            initial_n[v] -= share_n
    final_n = list(initial_n)
    transfers: list[Transfer] = []

    for v, k in enumerate(degree):
        o, i = out[v], inn[v]
        targets = 0
        if k == 6 and o & i:
            for u in bits((o | i) & heavy):
                digon = (o & i) >> u & 1
                note = None if digon else "simple arc: per-arc amount sent once"
                amount, amount_n = r2[key_of[u]][digon]
                transfers.append(Transfer("R2", v, u, amount, note))
                final_n[v] -= amount_n
                final_n[u] += amount_n
        elif k == 6:
            targets = o | i
        elif k == 7:
            targets = i if i.bit_count() == 3 else o if o.bit_count() == 3 else 0
        for u in bits(targets):
            transfers.append(Transfer("R1" if k == 6 else "R3", v, u, small))
            final_n[u] += small_n
        final_n[v] -= targets.bit_count() * small_n

    made: dict[int, Fraction] = {}  # each distinct charge becomes one Fraction

    def charges(numerators: list[int]) -> dict[int, Fraction]:
        for num in numerators:
            if num not in made:
                made[num] = Fraction(num, scale)
        return dict(enumerate(made[num] for num in numerators))

    return ChargeLedger(params, sigma, charges(initial_n), transfers, charges(final_n))


# -- phi-identification and dicritical extensions ----------------------------


@dataclass(frozen=True)
class IdentifyResult:
    digraph: Digraph
    vertex_map: dict[int, int]  # host vertex -> identified vertex
    class_vertices: tuple[int, int, int]  # x1, x2, x3


def phi_identify(
    d: Digraph,
    subset,
    phi: dict[int, int],
) -> IdentifyResult:
    """Collapse the colour classes of a 3-dicoloured induced subdigraph R to
    x1, x2, x3 and add the three digons among them.

    A class vertex is created for every colour 1..3 even when the class is
    empty (the literal reading).  The rest of the digraph is untouched.
    Vertices outside R keep their relative order and occupy 0..n-|R|-1;
    x1, x2, x3 are the last three ids.
    """
    r = sorted(set(subset))
    if not 4 <= len(r) < d.n:
        raise DigraphError("phi-identification needs 4 <= |R| < n(D)")
    if set(phi) != set(r):
        raise DigraphError("phi must colour exactly the vertices of R")
    if any(type(c) is not int or c not in (1, 2, 3) for c in phi.values()):
        raise DigraphError("phi must use the integer colours 1..3")
    sub, sub_map = induced(d, r)
    sub_colours = [0] * sub.n
    for v in r:
        sub_colours[sub_map[v]] = phi[v]
    ok, cycle = check_dicolouring(sub, Colouring(3, tuple(sub_colours)))
    if not ok:
        raise DigraphError(f"phi is not a 3-dicolouring of R (monochromatic cycle {cycle})")

    rest = [v for v in d.vertices() if v not in phi]
    mapping = {v: i for i, v in enumerate(rest)}
    xs = (len(rest), len(rest) + 1, len(rest) + 2)
    for v in r:
        mapping[v] = xs[phi[v] - 1]
    arcs = {
        (mapping[u], mapping[v]) for (u, v) in d.sorted_arcs() if mapping[u] != mapping[v]
    }
    for a, b in itertools.combinations(xs, 2):
        arcs.add((a, b))
        arcs.add((b, a))
    return IdentifyResult(Digraph(len(rest) + 3, arcs), mapping, xs)


@dataclass
class ExtensionResult:
    """A dicritical extension R' of R with extender W and core X_W."""

    identified: Digraph
    class_vertices: tuple[int, int, int]
    extender_vertices: tuple[int, ...]  # in identified labels
    extender: Digraph
    core: frozenset[int]  # subset of class_vertices
    extension_vertices: frozenset[int]  # in host labels
    extension: Digraph
    extension_map: dict[int, int]


def dicritical_extension(
    d: Digraph,
    subset,
    phi: dict[int, int],
    budget: Budget | int | None = None,
) -> ExtensionResult:
    """Find a 4-dicritical subdigraph W of the phi-identification and return
    the extension it induces in the host.

    W is found by greedy arc-peeling in lexicographic order: delete any arc
    whose removal keeps the identification non-3-dicolourable, then drop
    isolated vertices.  Each trial clears one bit of the out- and in-bitsets
    and is decided by ``colouring._decide``, with no witness colouring; only
    the extender becomes a ``Digraph``.  For a 4-dicritical host the core is
    never empty (the extender cannot be a subdigraph of the host); this is
    asserted, not assumed.
    """
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dicritical extension")
    ident = phi_identify(d, subset, phi)
    h = ident.digraph
    out, inn = list(h.out_masks), list(h.in_masks)

    def colourable() -> bool:
        _, ordered_out, ordered_inn = _branching(out, inn)
        return _decide(out, ordered_out, ordered_inn, 3, budget, RefutationStats()) is not None

    if colourable():
        raise DigraphError(
            "identification is 3-dicolourable; the host cannot be 4-dicritical"
        )
    for u, v in h.sorted_arcs():
        out[u] ^= 1 << v
        inn[v] ^= 1 << u
        if colourable():  # the arc is needed: put it back
            out[u] |= 1 << v
            inn[v] |= 1 << u
    w_vertices = tuple(v for v in h.vertices() if out[v] | inn[v])
    extender = Digraph(
        len(w_vertices),
        [(i, j) for i, row in enumerate(restrict(out, w_vertices)) for j in bits(row)],
    )
    core = frozenset(x for x in ident.class_vertices if x in w_vertices)
    if not 1 <= len(core) <= 3:
        raise DigraphError(
            "empty core: the extender is a subdigraph of the host, which "
            "contradicts 4-dicriticality of the host"
        )
    back = {new: old for old, new in ident.vertex_map.items() if new not in ident.class_vertices}
    ext_vertices = frozenset(
        itertools.chain(
            (back[v] for v in w_vertices if v not in ident.class_vertices),
            set(subset),
        )
    )
    extension, ext_map = induced(d, ext_vertices)
    return ExtensionResult(
        identified=h,
        class_vertices=ident.class_vertices,
        extender_vertices=w_vertices,
        extender=extender,
        core=core,
        extension_vertices=ext_vertices,
        extension=extension,
        extension_map=ext_map,
    )


def is_collapsible(
    d: Digraph,
    subset,
    budget: Budget | int | None = None,
) -> tuple[bool, dict[int, int] | None]:
    """True iff for EVERY 3-dicolouring phi of R the dicritical extension is
    the whole host, the core has size 1, and the boundary of R is
    monochromatic in phi.  Returns the violating phi otherwise.

    The 3-colourings of R are tried in lexicographic order, one budget node
    each, and ``check_dicolouring`` keeps the dicolourings; the dicritical
    extension computed for each of those dominates the cost.
    """
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "collapsibility check")
    r = sorted(set(subset))
    if not 4 <= len(r) < d.n:
        raise DigraphError("collapsibility needs 4 <= |R| < n(D)")
    sub, sub_map = induced(d, r)
    back = {new: old for old, new in sub_map.items()}
    bd = boundary(d, r)
    everything = frozenset(d.vertices())
    for colours in itertools.product(range(1, 4), repeat=sub.n):
        budget.spend()
        if not check_dicolouring(sub, Colouring(3, colours))[0]:
            continue
        phi = {back[v]: colours[v] for v in sub.vertices()}
        ext = dicritical_extension(d, r, phi, budget)
        monochromatic = len({phi[v] for v in bd}) <= 1
        if (
            ext.extension_vertices != everything
            or len(ext.core) != 1
            or not monochromatic
        ):
            return False, phi
    return True, None
