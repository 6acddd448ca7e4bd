from fractions import Fraction

import pytest

from maxplus_tc import (
    DegenerateCurveError,
    IndirectInputs,
    LambdaNuModel,
    Lcg64,
    MappingVariant,
    MaxPlusCurve,
    SigmaRhoModel,
    TSpecModel,
    WindowMode,
    curve_to_lambda_nu,
    map_lambda_nu_to_tspec,
    map_tspec_to_lambda_nu,
    superpose_indirect,
    superpose_lambda_nu,
    superpose_sigma_rho,
    superpose_tspec,
)

F = Fraction


class TestMappings:
    def test_into_tspec_variant_a(self):
        tspec = map_lambda_nu_to_tspec(LambdaNuModel(F(1, 2), F(4)), MappingVariant.A, 1)
        assert tspec == TSpecModel(tau=F(2), k_max=6, window_mode=WindowMode.CLOSED)

    def test_into_tspec_variant_b(self):
        tspec = map_lambda_nu_to_tspec(LambdaNuModel(F(1, 2), F(4)), MappingVariant.B, 1)
        assert tspec == TSpecModel(tau=F(2), k_max=5, window_mode=WindowMode.OPEN)

    def test_into_tspec_j3(self):
        tspec = map_lambda_nu_to_tspec(LambdaNuModel(F(1), F(0)), MappingVariant.A, 3)
        assert tspec == TSpecModel(tau=F(3), k_max=4, window_mode=WindowMode.CLOSED)

    def test_fractional_burst_rounds_up(self):
        tspec = map_lambda_nu_to_tspec(LambdaNuModel(F(1), F(5, 2)), MappingVariant.A, 1)
        assert tspec.k_max == 3 + 1 + 1

    def test_j_must_be_positive(self):
        with pytest.raises(ValueError):
            map_lambda_nu_to_tspec(LambdaNuModel(F(1), F(0)), MappingVariant.A, 0)

    def test_into_rate_burst(self):
        model = map_tspec_to_lambda_nu(TSpecModel(tau=F(10), k_max=5))
        assert (model.lam, model.nu) == (F(1, 2), F(4))

    def test_single_packet_window(self):
        model = map_tspec_to_lambda_nu(TSpecModel(tau=F(1), k_max=1))
        assert (model.lam, model.nu) == (F(1), F(0))

    def test_two_in_three(self):
        model = map_tspec_to_lambda_nu(TSpecModel(tau=F(3), k_max=2))
        assert (model.lam, model.nu) == (F(2, 3), F(1))

    def test_roundtrip_is_not_identity(self):
        # the two families are not equivalent: going there and back through
        # the boundary-tight variant multiplies the rate by nu + 1
        rng = Lcg64(17)
        for _ in range(50):
            model = LambdaNuModel(
                lam=F(rng.randint(1, 9), rng.randint(1, 30)), nu=F(rng.randint(0, 15))
            )
            back = map_tspec_to_lambda_nu(
                map_lambda_nu_to_tspec(model, MappingVariant.B, 1)
            )
            assert back.lam == (model.nu + 1) * model.lam
            assert back.nu == model.nu


class TestSuperposeLambdaNu:
    def test_two_equal_flows(self):
        result = superpose_lambda_nu([LambdaNuModel(F(1, 10), F(0))] * 2)
        assert (result.lam, result.nu) == (F(1, 5), F(1))

    def test_two_different_flows(self):
        result = superpose_lambda_nu(
            [LambdaNuModel(F(1, 6), F(0)), LambdaNuModel(F(1, 12), F(0))]
        )
        assert (result.lam, result.nu) == (F(1, 4), F(1))

    def test_identity_on_single(self):
        model = LambdaNuModel(F(1), F(2))
        assert superpose_lambda_nu([model]) == model

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            superpose_lambda_nu([])

    def test_fold_equals_flat(self):
        rng = Lcg64(5)
        for _ in range(50):
            models = [
                LambdaNuModel(F(rng.randint(1, 9), rng.randint(1, 20)), F(rng.randint(0, 9)))
                for _ in range(rng.randint(2, 5))
            ]
            folded = models[0]
            for m in models[1:]:
                folded = superpose_lambda_nu([folded, m])
            assert folded == superpose_lambda_nu(models)


class TestSuperposeTspec:
    def test_equal_intervals(self):
        result = superpose_tspec([TSpecModel(F(2), 1), TSpecModel(F(2), 1)])
        assert (result.tau, result.k_max) == (F(1), 2)

    def test_different_intervals(self):
        result = superpose_tspec([TSpecModel(F(2), 1), TSpecModel(F(4), 1)])
        assert (result.tau, result.k_max) == (F(4, 3), 2)

    def test_three_flows(self):
        result = superpose_tspec(
            [TSpecModel(F(3), 2), TSpecModel(F(6), 1), TSpecModel(F(6), 1)]
        )
        assert (result.tau, result.k_max) == (F(3, 2), 4)

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            superpose_tspec([TSpecModel(F(2), 1)])

    def test_mixed_modes_degrade_to_open(self):
        result = superpose_tspec(
            [
                TSpecModel(F(2), 1, WindowMode.CLOSED),
                TSpecModel(F(2), 1, WindowMode.OPEN),
            ]
        )
        assert result.window_mode is WindowMode.OPEN

    def test_all_closed_stays_closed(self):
        result = superpose_tspec([TSpecModel(F(2), 1), TSpecModel(F(2), 1)])
        assert result.window_mode is WindowMode.CLOSED


class TestSuperposeSigmaRho:
    def test_componentwise_sum(self):
        result = superpose_sigma_rho(
            [SigmaRhoModel(F(100), F(10)), SigmaRhoModel(F(50), F(5))]
        )
        assert (result.sigma, result.rho) == (F(150), F(15))

    def test_identity(self):
        model = SigmaRhoModel(F(0), F(1))
        assert superpose_sigma_rho([model]) == model

    def test_three(self):
        result = superpose_sigma_rho([SigmaRhoModel(F(1), F(1))] * 3)
        assert (result.sigma, result.rho) == (F(3), F(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            superpose_sigma_rho([])


class TestSuperposeIndirect:
    def test_equal_everything(self):
        result = superpose_indirect(
            IndirectInputs(
                models=(LambdaNuModel(F(1, 10), F(0)), LambdaNuModel(F(1, 10), F(0))),
                max_lengths=(F(1), F(1)),
                min_length=F(1),
            )
        )
        assert (result.lam, result.nu) == (F(2, 10), F(2))

    def test_different_periods(self):
        result = superpose_indirect(
            IndirectInputs(
                models=(LambdaNuModel(F(1, 10), F(0)), LambdaNuModel(F(1, 20), F(0))),
                max_lengths=(F(1), F(1)),
                min_length=F(1),
            )
        )
        assert (result.lam, result.nu) == (F(3, 20), F(2))

    def test_different_lengths(self):
        result = superpose_indirect(
            IndirectInputs(
                models=(LambdaNuModel(F(1, 10), F(0)), LambdaNuModel(F(1, 20), F(0))),
                max_lengths=(F(1), F(2)),
                min_length=F(1),
            )
        )
        assert (result.lam, result.nu) == (F(2, 10), F(3))

    def test_length_bound_validated(self):
        from maxplus_tc import InconsistentInputError

        with pytest.raises(InconsistentInputError):
            IndirectInputs(
                models=(LambdaNuModel(F(1), F(0)), LambdaNuModel(F(1), F(0))),
                max_lengths=(F(1), F(2)),
                min_length=F(3, 2),
            )

    def test_never_beats_direct(self):
        rng = Lcg64(23)
        for _ in range(100):
            count = rng.randint(2, 5)
            models = tuple(
                LambdaNuModel(
                    F(rng.randint(1, 9), rng.randint(1, 30)),
                    F(rng.randint(0, 12), rng.randint(1, 3)),
                )
                for _ in range(count)
            )
            l_min = F(rng.randint(1, 40), rng.randint(1, 4))
            lengths = tuple(
                l_min + F(rng.randint(0, 50), rng.randint(1, 4)) for _ in range(count)
            )
            direct = superpose_lambda_nu(models)
            indirect = superpose_indirect(
                IndirectInputs(models=models, max_lengths=lengths, min_length=l_min)
            )
            assert indirect.lam >= direct.lam
            assert indirect.nu > direct.nu


class TestCurveReduction:
    def test_piecewise_linear_curve(self):
        values = tuple(F(max(n - 2, 0)) for n in range(11))
        reduction = curve_to_lambda_nu(MaxPlusCurve(values))
        assert (reduction.model.lam, reduction.model.nu) == (F(5, 4), F(2))
        assert reduction.horizon == 10

    def test_linear_curve(self):
        values = tuple(F(n, 2) for n in range(8))
        reduction = curve_to_lambda_nu(MaxPlusCurve(values))
        assert (reduction.model.lam, reduction.model.nu) == (F(2), F(0))

    def test_three_point_curve(self):
        reduction = curve_to_lambda_nu(MaxPlusCurve((F(0), F(0), F(1))))
        assert (reduction.model.lam, reduction.model.nu) == (F(2), F(1))

    def test_degenerate_curve(self):
        with pytest.raises(DegenerateCurveError):
            curve_to_lambda_nu(MaxPlusCurve((F(0), F(0), F(0))))

    def test_envelope_never_exceeds_curve(self):
        rng = Lcg64(404)
        for _ in range(100):
            horizon = rng.randint(1, 40)
            values = [F(0)]
            for _ in range(horizon):
                values.append(values[-1] + F(rng.randint(0, 10), rng.randint(1, 4)))
            if values[-1] == 0:
                values[-1] = F(1)
            curve = MaxPlusCurve(tuple(values))
            model = curve_to_lambda_nu(curve).model
            for d in range(horizon + 1):
                assert model.min_spacing(d) <= curve.values[d]
