from fractions import Fraction

import pytest

from maxplus_tc import (
    LambdaNuModel,
    Table1Row,
    render_table1_text,
    reproduce_table1,
    superpose_indirect,
    superpose_lambda_nu,
    table1_to_json,
)

F = Fraction
LN = LambdaNuModel

# rates in packets per period: a row's curve is (1/lambda)*(n - nu)+ periods
EXPECTED = {
    1: (LN(F(2), F(1)), None),
    2: (LN(F(2), F(1)), LN(F(2), F(2))),
    3: (LN(F(3, 2), F(1)), LN(F(3, 2), F(2))),
    4: (LN(F(3, 2), F(1)), LN(F(2), F(3))),
}


class TestTable:
    def test_all_four_rows_exact(self):
        rows = reproduce_table1()
        assert [r.case_id for r in rows] == [1, 2, 3, 4]
        for row in rows:
            direct, indirect = EXPECTED[row.case_id]
            assert row.direct == direct
            assert row.indirect == indirect

    @pytest.mark.parametrize("c", [F(3), F(7, 2), F(1000), F(1, 9)])
    @pytest.mark.parametrize("flows, lengths", [
        ([LN(F(1), F(0)), LN(F(1, 2), F(0))], [F(1), F(2)]),
        ([LN(F(3, 7), F(2)), LN(F(5), F(1, 2)), LN(F(1, 9), F(0))], [F(3), F(1), F(5, 2)]),
    ])
    def test_operators_are_homogeneous_in_the_period(self, c, flows, lengths):
        # a period of c units divides every rate by c and keeps every burst,
        # so rows computed with the period as the unit hold for any period
        def slowed(model):
            return LN(model.lam / c, model.nu)

        scaled = [slowed(m) for m in flows]
        assert superpose_lambda_nu(scaled) == slowed(superpose_lambda_nu(flows))
        indirect = superpose_indirect(flows, lengths, F(1))
        assert superpose_indirect(scaled, lengths, F(1)) == slowed(indirect)

    def test_rows_come_from_the_operators(self):
        # recompute case 4 through the public operators and compare
        flows = [LN(F(1), F(0)), LN(F(1, 2), F(0))]
        row = reproduce_table1()[3]
        assert row.direct == superpose_lambda_nu(flows)
        assert row.indirect == superpose_indirect(flows, max_lengths=(F(1), F(2)), min_length=F(1))

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

    @pytest.mark.parametrize("column", ["direct", "indirect"])
    def test_json_refuses_an_offset_that_is_not_an_integer(self, column):
        # nu = 5/2 would be written as offset 2, a curve the text view does not show
        models = {"direct": LN(F(1), F(0)), "indirect": None, column: LN(F(1), F(5, 2))}
        row = Table1Row(5, models["direct"], models["indirect"])
        assert "(tau)*(n-5/2)+" in render_table1_text([row])
        with pytest.raises(ValueError) as exc:
            table1_to_json([row])
        assert str(exc.value) == "case 5: offset nu = 5/2 is not an integer"

    def test_text_rendering(self):
        text = render_table1_text(reproduce_table1())
        lines = text.strip().splitlines()
        assert len(lines) == 5
        assert "not available" in lines[1]
        assert "(tau/2)*(n-1)+" in lines[1]
        assert "(2*tau/3)*(n-1)+" in lines[4]
        assert "(tau/2)*(n-3)+" in lines[4]
