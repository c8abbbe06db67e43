"""The potential function and its exact-rational parameter audit.

For non-negative rationals eps and delta, the potential of a digraph is

    rho(D) = (10/3 + eps) * n(D) - m(D) - delta * T(D)

where T(D) is the maximum digon/bidirected-triangle packing value.  All
arithmetic in this module is exact (``fractions.Fraction``); no float ever
appears, because the interesting inequalities are tight at rationals like
1/51 and 2/17 and would be unfalsifiable under rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .budget import Budget
from .digraph import Digraph, DigraphError
from .packing import packing_value

TEN_THIRDS = Fraction(10, 3)

#: m >= (10/3 + 1/51) n - 1 for 4-dicritical oriented graphs.
ORIENTED_SLOPE = TEN_THIRDS + Fraction(1, 51)  # = 57/17


def as_fraction(value) -> Fraction:
    """Parse ``num/den`` strings, ints, and Fractions into an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DigraphError(f"not an exact rational: {value!r}") from None
    raise DigraphError(f"not an exact rational: {value!r} (floats are refused)")


@dataclass(frozen=True)
class PotentialParams:
    """An (eps, delta) pair.  Construction only requires non-negativity;
    the headline feasibility constraints are reported by :meth:`feasible`
    and audited row by row by :func:`audit_params`, so infeasible pairs can
    still be examined."""

    eps: Fraction
    delta: Fraction

    def __post_init__(self):
        eps = as_fraction(self.eps)
        delta = as_fraction(self.delta)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "delta", delta)
        if eps < 0 or delta < 0:
            raise DigraphError("eps and delta must be non-negative")

    def feasible(self) -> bool:
        """The two headline constraints: delta >= 6 eps and 3 delta - eps <= 1/3."""
        return self.delta >= 6 * self.eps and 3 * self.delta - self.eps <= Fraction(1, 3)


#: The reference pair (1/51, 2/17): delta = 6 eps with 3 delta - eps = 1/3,
#: i.e. both headline constraints tight.
REFERENCE_PARAMS = PotentialParams(Fraction(1, 51), Fraction(2, 17))
ZERO_PARAMS = PotentialParams(Fraction(0), Fraction(0))


def potential(
    d: Digraph, params: PotentialParams, budget: Budget | int | None = None
) -> Fraction:
    """rho(D) as an exact rational; fails loudly if T(D) is not certified."""
    return potential_with_packing_value(d, params, packing_value(d, budget))


def potential_with_packing_value(
    d: Digraph, params: PotentialParams, t: int
) -> Fraction:
    """rho(D) when T(D) is already known (avoids recomputing the packing)."""
    return (TEN_THIRDS + params.eps) * d.n - d.m - params.delta * t


# Every inequality the proof text leans on, evaluated independently rather
# than derived from the two headline constraints.  Each entry is
# (label, predicate).
_F = Fraction
INEQUALITY_CATALOGUE: list[tuple[str, object]] = [
    ("delta >= 6*eps", lambda e, d: d >= 6 * e),
    ("3*delta - eps <= 1/3", lambda e, d: 3 * d - e <= _F(1, 3)),
    ("delta >= 3*eps/2", lambda e, d: d >= _F(3, 2) * e),
    ("4*eps - 2*delta >= -1/3", lambda e, d: 4 * e - 2 * d >= _F(-1, 3)),
    ("10*eps - 3*delta <= 5/3", lambda e, d: 10 * e - 3 * d <= _F(5, 3)),
    ("2*delta - 7*eps <= 2/3", lambda e, d: 2 * d - 7 * e <= _F(2, 3)),
    ("2*delta - eps <= 1/3", lambda e, d: 2 * d - e <= _F(1, 3)),
    ("delta >= 3*eps", lambda e, d: d >= 3 * e),
    ("5*eps <= 1/3", lambda e, d: 5 * e <= _F(1, 3)),
    ("eps - 2*delta >= -1/3", lambda e, d: e - 2 * d >= _F(-1, 3)),
    ("9*eps - 5*delta <= 1", lambda e, d: 9 * e - 5 * d <= 1),
    ("5*eps - 3*delta <= 1/3", lambda e, d: 5 * e - 3 * d <= _F(1, 3)),
    ("4*eps - 2*delta <= 2/3", lambda e, d: 4 * e - 2 * d <= _F(2, 3)),
    ("5*eps + delta <= 1/3", lambda e, d: 5 * e + d <= _F(1, 3)),
    ("6*eps - 4*delta <= 0", lambda e, d: 6 * e - 4 * d <= 0),
    ("6*eps - delta <= 1", lambda e, d: 6 * e - d <= 1),
    ("5*eps - delta <= 1/3", lambda e, d: 5 * e - d <= _F(1, 3)),
    ("2*eps + 2*delta <= 1/3", lambda e, d: 2 * e + 2 * d <= _F(1, 3)),
    ("9*eps - 2*delta <= 0", lambda e, d: 9 * e - 2 * d <= 0),
    ("6*eps - delta <= 0", lambda e, d: 6 * e - d <= 0),
    ("eps - 3*delta >= -1/3", lambda e, d: e - 3 * d >= _F(-1, 3)),
    ("eps <= 2/21", lambda e, d: e <= _F(2, 21)),
    ("eps <= 1/6", lambda e, d: e <= _F(1, 6)),
    ("eps <= 2/3", lambda e, d: e <= _F(2, 3)),
]


def audit_params(params: PotentialParams) -> list[tuple[str, bool]]:
    """Evaluate the whole claim-level inequality catalogue at (eps, delta)."""
    e, d = params.eps, params.delta
    return [(label, bool(pred(e, d))) for label, pred in INEQUALITY_CATALOGUE]


def check_oriented_bound(d: Digraph) -> tuple[bool, Fraction]:
    """m - (10/3 + 1/51) n + 1 >= 0, exactly, with the slack returned.

    Only defined for oriented graphs; the bound is the main arc-count
    inequality for 4-dicritical oriented graphs, evaluated as arithmetic
    (interpretation is the caller's business).
    """
    if not d.is_oriented():
        raise DigraphError("the oriented bound only applies to digon-free digraphs")
    slack = d.m - ORIENTED_SLOPE * d.n + 1
    return slack >= 0, slack


def check_4ore_arc_identity(d: Digraph) -> bool:
    """3 m(D) = 10 n(D) - 4, the exact arc count of every 4-Ore digraph."""
    return 3 * d.m == 10 * d.n - 4


def surface_vertex_bound(euler_characteristic: int) -> int:
    """floor(17 (1 - 3c) / 6): max order of a 4-dicritical oriented graph
    embeddable on a surface of Euler characteristic c.  Negative values are
    vacuous (no such oriented graph exists on that surface)."""
    c = euler_characteristic
    if c > 2:
        raise DigraphError("no surface has Euler characteristic above 2")
    value = Fraction(17 * (1 - 3 * c), 6)
    # Fraction floor division keeps this exact for negative values too.
    return value.__floor__()
