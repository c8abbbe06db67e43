"""Structural apparatus: chelou arcs, D6 components, valencies, the
discharging engine, phi-identification, dicritical extensions and
collapsibility.

Everything here runs on arbitrary digraphs; the rules and classifiers only
fire where their degree guards hold, and properties that the theory proves
for minimal counterexamples are *reported*, never assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .budget import Budget, DEFAULT_SOLVER_NODES, ensure_budget
from .colouring import (
    Colouring,
    check_dicolouring,
    is_k_dicolourable,
)
from .digraph import (
    Digraph,
    DigraphError,
    bits,
    boundary,
    induced,
    mask_components,
    underlying_masks,
)
from .potential import PotentialParams, TEN_THIRDS


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
    return [v for v in d.vertices() if d.degree(v) == 6 and d.digon_count_at(v) > 0]


def valency8(d: Digraph, v: int) -> int:
    """Number of arcs joining v to vertices of degree at least 8."""
    count = 0
    for u in d.out_neighbours(v):
        if d.degree(u) >= 8:
            count += 1
    for u in d.in_neighbours(v):
        if d.degree(u) >= 8:
            count += 1
    return count


def neighbourhood_valency(d: Digraph, v: int) -> int:
    """Sum of the 8+-valencies of v's neighbours of degree at least 8."""
    if not (0 <= v < d.n and d.degree(v) == 6 and d.digon_count_at(v)):
        raise DigraphError(f"vertex {v} is not in D6")
    return sum(valency8(d, u) for u in d.neighbours(v) if d.degree(u) >= 8)


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


def _classify_component(d: Digraph, comp: list[int]) -> D6Component:
    verts = tuple(sorted(comp))
    pairs = [
        (u, v) for u, v in itertools.combinations(verts, 2)
        if d.has_arc(u, v) or d.has_arc(v, u)
    ]
    all_digons = all(d.has_digon(u, v) for u, v in pairs)

    if len(verts) == 1:
        return D6Component(verts, "singleton")
    if len(verts) == 2 and all_digons:
        return D6Component(verts, "path2")
    if len(verts) == 3 and all_digons and len(pairs) == 2:
        deg_in_comp = {v: sum(1 for p in pairs if v in p) for v in verts}
        ends = [v for v in verts if deg_in_comp[v] == 1]
        cond = {v: neighbourhood_valency(d, v) >= 4 for v in ends}
        return D6Component(verts, "path3", cond)
    if len(verts) == 4 and all_digons and len(pairs) == 3:
        deg_in_comp = {v: sum(1 for p in pairs if v in p) for v in verts}
        if sorted(deg_in_comp.values()) == [1, 1, 1, 3]:
            leaves = [v for v in verts if deg_in_comp[v] == 1]
            cond = {v: neighbourhood_valency(d, v) >= 4 for v in leaves}
            return D6Component(verts, "star4", cond)
    return D6Component(verts, "other")


def d6_components(d: Digraph) -> list[D6Component]:
    """Connected components of D6, classified against the shapes the theory
    allows in a minimal counterexample ("other" is a first-class outcome)."""
    d6 = sum(1 << v for v in d6_vertices(d))
    return [
        _classify_component(d, list(bits(comp)))
        for comp in mask_components(underlying_masks(d), d6)
    ]


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
            "amount": f"{self.amount.numerator}/{self.amount.denominator}",
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
    inapplicable: list[str] = field(default_factory=list)

    def total_initial(self) -> Fraction:
        return sum(self.initial.values(), Fraction(0))

    def total_final(self) -> Fraction:
        return sum(self.final.values(), Fraction(0))

    def to_json(self) -> dict:
        frac = lambda q: f"{q.numerator}/{q.denominator}"
        return {
            "eps": frac(self.params.eps),
            "delta": frac(self.params.delta),
            "sigma": {str(v): frac(q) for v, q in sorted(self.sigma.items())},
            "initial": {str(v): frac(q) for v, q in sorted(self.initial.items())},
            "transfers": [t.to_json() for t in self.transfers],
            "final": {str(v): frac(q) for v, q in sorted(self.final.items())},
            "inapplicable": list(self.inapplicable),
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
    R3: a degree-7 vertex with d- = 3 (resp. d+ = 3) sends 1/12 - eps/8 to
        each in-neighbour (resp. out-neighbour).
    """
    eps, delta = params.eps, params.delta
    sigma: dict[int, Fraction] = {v: Fraction(0) for v in d.vertices()}
    for comp in d6_components(d):
        if len(comp.vertices) >= 2:
            share = delta / len(comp.vertices)
            for v in comp.vertices:
                sigma[v] = share
    initial = {
        v: TEN_THIRDS + eps - Fraction(d.degree(v), 2) - sigma[v]
        for v in d.vertices()
    }
    small_amount = Fraction(1, 12) - eps / 8
    transfers: list[Transfer] = []
    inapplicable: list[str] = []

    for v in d.vertices():
        deg = d.degree(v)
        if deg == 6 and d.digon_count_at(v) == 0:
            for u in d.neighbours(v):
                transfers.append(Transfer("R1", v, u, small_amount))
        elif deg == 6 and d.digon_count_at(v) > 0:
            for u in d.neighbours(v):
                du = d.degree(u)
                if du < 8:
                    continue
                divisor = du - valency8(d, u)
                n_arcs = int(d.has_arc(v, u)) + int(d.has_arc(u, v))
                if divisor <= 0:
                    inapplicable.append(
                        f"R2 {v}->{u}: d(u)-nu(u)={divisor}, rule inapplicable"
                    )
                    continue
                per_arc = (Fraction(-10, 3) + Fraction(du, 2) - eps) / divisor
                note = None if n_arcs == 2 else "simple arc: per-arc amount sent once"
                transfers.append(Transfer("R2", v, u, n_arcs * per_arc, note))
        elif deg == 7:
            if d.in_degree(v) == 3:
                for u in d.in_neighbours(v):
                    transfers.append(Transfer("R3", v, u, small_amount))
            elif d.out_degree(v) == 3:
                for u in d.out_neighbours(v):
                    transfers.append(Transfer("R3", v, u, small_amount))

    final = dict(initial)
    for t in transfers:
        final[t.source] -= t.amount
        final[t.target] += t.amount
    return ChargeLedger(params, sigma, initial, transfers, final, inapplicable)


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
    if any(c not in (1, 2, 3) for c in phi.values()):
        raise DigraphError("phi must use colours 1..3")
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
        (mapping[u], mapping[v]) for (u, v) in d.arcs if mapping[u] != mapping[v]
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
    isolated vertices.  For a 4-dicritical host the core is never empty
    (the extender cannot be a subdigraph of the host); this is asserted,
    not assumed.
    """
    budget = ensure_budget(budget, DEFAULT_SOLVER_NODES, "dicritical extension")
    ident = phi_identify(d, subset, phi)
    h = ident.digraph
    if is_k_dicolourable(h, 3, budget) is not None:
        raise DigraphError(
            "identification is 3-dicolourable; the host cannot be 4-dicritical"
        )
    current = h
    for arc in h.sorted_arcs():
        trial = current.without_arcs([arc])
        if is_k_dicolourable(trial, 3, budget) is None:
            current = trial
    w_vertices = tuple(v for v in current.vertices() if current.degree(v) > 0)
    extender, _ = induced(current, w_vertices)
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
