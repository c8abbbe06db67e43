from fractions import Fraction

import pytest

from dicrit.constructions import ConstructionSpec, build_gk
from dicrit.digraph import Digraph, DigraphError
from dicrit.potential import (
    INEQUALITY_CATALOGUE,
    PotentialParams,
    REFERENCE_PARAMS,
    ZERO_PARAMS,
    audit_params,
    check_4ore_arc_identity,
    check_oriented_bound,
    potential,
    surface_vertex_bound,
)

F = Fraction


class TestPotentialParams:
    def test_reference_pair(self):
        assert REFERENCE_PARAMS.eps == F(1, 51)
        assert REFERENCE_PARAMS.delta == F(2, 17)
        assert REFERENCE_PARAMS.feasible()

    def test_negative_rejected(self):
        with pytest.raises(DigraphError):
            PotentialParams(F(-1, 3), F(0))

    def test_infeasible_pairs_still_constructible(self):
        p = PotentialParams(F(1, 10), F(0))
        assert not p.feasible()

    def test_floats_refused(self):
        with pytest.raises(DigraphError):
            PotentialParams(0.1, 0.2)

    @pytest.mark.parametrize("eps", ["1/0", "one third"])
    def test_unparsable_string_refused(self, eps):
        with pytest.raises(DigraphError, match="not an exact rational"):
            PotentialParams(eps, 0)


class TestPotential:
    def test_k4_at_zero(self, k4):
        assert potential(k4, ZERO_PARAMS) == F(4, 3)

    def test_k4_symbolic_form(self, k4):
        # rho(K4) = 4/3 + 4 eps - 2 delta, spot-checked at several rationals
        for eps, delta in [(F(0), F(0)), (F(1, 51), F(2, 17)), (F(1, 100), F(1, 9))]:
            p = PotentialParams(eps, delta)
            assert potential(k4, p) == F(4, 3) + 4 * eps - 2 * delta

    def test_k4_at_reference(self, k4):
        assert potential(k4, REFERENCE_PARAMS) == F(20, 17)

    def test_exactness_no_floats(self, k4):
        value = potential(k4, REFERENCE_PARAMS)
        assert isinstance(value, Fraction)


class TestAudit:
    def test_reference_satisfies_every_row(self):
        rows = audit_params(REFERENCE_PARAMS)
        assert len(rows) == len(INEQUALITY_CATALOGUE)
        assert all(ok for _, ok in rows)

    def test_zero_satisfies_every_row(self):
        assert all(ok for _, ok in audit_params(ZERO_PARAMS))

    def test_headline_violation_detected(self):
        rows = dict(audit_params(PotentialParams(F(1, 10), F(0))))
        assert rows["delta >= 6*eps"] is False

    def test_tight_rows_at_reference(self):
        # Several catalogue rows are exact equalities at (1/51, 2/17); the
        # audit must hold them with exact arithmetic, not tolerance.
        e, d = REFERENCE_PARAMS.eps, REFERENCE_PARAMS.delta
        assert d == 6 * e
        assert 3 * d - e == F(1, 3)
        assert 6 * e - d == 0
        assert e - 3 * d == F(-1, 3)


class TestOrientedBound:
    def test_g4_slack(self):
        g4, _ = build_gk(4, ConstructionSpec(k=4))
        ok, slack = check_oriented_bound(g4)
        assert ok and slack == F(1295, 17)

    def test_c3_arithmetic(self, c3):
        ok, slack = check_oriented_bound(c3)
        assert not ok
        assert slack == 3 - F(57, 17) * 3 + 1

    def test_zero_slack_case(self):
        # n = 17, m = 56 sits exactly on the bound line
        arcs = [(u, v) for u in range(17) for v in range(u + 1, 17)][:56]
        d = Digraph(17, arcs)
        ok, slack = check_oriented_bound(d)
        assert ok and slack == 0

    def test_digons_rejected(self, k4):
        with pytest.raises(DigraphError):
            check_oriented_bound(k4)


class TestArcIdentity:
    def test_k4(self, k4):
        assert check_4ore_arc_identity(k4)

    def test_seven_vertex_composition(self, seven_vertex_composition):
        assert seven_vertex_composition.m == 22
        assert check_4ore_arc_identity(seven_vertex_composition)

    def test_k3_fails(self, k3):
        assert not check_4ore_arc_identity(k3)


class TestSurfaceBound:
    @pytest.mark.parametrize(
        "chi, expected", [(2, -15), (0, 2), (-1, 11)]
    )
    def test_values(self, chi, expected):
        assert surface_vertex_bound(chi) == expected

    def test_impossible_characteristic(self):
        with pytest.raises(DigraphError):
            surface_vertex_bound(3)
