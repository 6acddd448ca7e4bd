from fractions import Fraction

import pytest

from maxplus_tc import (
    CurveSpec,
    LambdaNuModel,
    render_table1_text,
    reproduce_table1,
    superpose_indirect,
    superpose_lambda_nu,
    table1_to_json,
)

F = Fraction

EXPECTED = {
    1: (CurveSpec(F(1, 2), 1), None),
    2: (CurveSpec(F(1, 2), 1), CurveSpec(F(1, 2), 2)),
    3: (CurveSpec(F(2, 3), 1), CurveSpec(F(2, 3), 2)),
    4: (CurveSpec(F(2, 3), 1), CurveSpec(F(1, 2), 3)),
}


class TestTable:
    def test_all_four_rows_exact(self):
        rows = reproduce_table1()
        assert [r.case_id for r in rows] == [1, 2, 3, 4]
        for row in rows:
            direct, indirect = EXPECTED[row.case_id]
            assert row.direct_curve == direct
            assert row.indirect_curve == indirect

    def test_symbolic_in_period(self):
        # coefficients are multiples of the base period: any period gives
        # the same normalized rows
        for period in (F(1), F(3), F(7, 2), F(1000)):
            assert reproduce_table1(period) == reproduce_table1()

    def test_rows_come_from_the_operators(self):
        # recompute case 4 through the public operators and compare
        tau = F(1)
        flows = [
            LambdaNuModel(lam=1 / tau, nu=F(0)),
            LambdaNuModel(lam=1 / (2 * tau), nu=F(0)),
        ]
        direct = superpose_lambda_nu(flows)
        indirect = superpose_indirect(flows, max_lengths=(F(1), F(2)), min_length=F(1))
        row = reproduce_table1()[3]
        assert row.direct_curve == CurveSpec(1 / direct.lam, int(direct.nu))
        assert row.indirect_curve == CurveSpec(1 / indirect.lam, int(indirect.nu))

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            reproduce_table1(0)

    def test_json_shape(self):
        data = table1_to_json(reproduce_table1())
        assert data[0]["indirect_curve"] is None
        assert data[1]["indirect_curve"] == {
            "coeff": {"num": 1, "den": 2},
            "offset": 2,
        }
        assert data[3]["direct_curve"] == {
            "coeff": {"num": 2, "den": 3},
            "offset": 1,
        }

    def test_text_rendering(self):
        text = render_table1_text(reproduce_table1())
        lines = text.strip().splitlines()
        assert len(lines) == 5
        assert "not available" in lines[1]
        assert "(tau/2)*(n-1)+" in lines[1]
        assert "(2*tau/3)*(n-1)+" in lines[4]
        assert "(tau/2)*(n-3)+" in lines[4]
