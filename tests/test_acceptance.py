"""Acceptance criteria, one test per criterion.

Each test enforces its stated trial count, tolerance (exact rational
equality / zero violations), and runtime budget, and prints a PASS line on
success (run with ``pytest -s`` or ``-v`` to see them).
"""

import time
from fractions import Fraction

from maxplus_tc import (
    LambdaNuModel,
    SuiteConfig,
    fit_lambda_nu,
    gen_periodic,
    merge_traces,
    render_table1_text,
    reproduce_table1,
    run_property,
)

F = Fraction

SEED = 99991
CFG = SuiteConfig(seed=SEED, trials=1, max_flows=5, max_packets=500)


def _zero_failures(name: str, trials: int) -> float:
    start = time.perf_counter()
    report = run_property(name, seed=SEED, trials=trials, cfg=CFG)
    elapsed = time.perf_counter() - start
    assert report.trials == trials
    assert report.failures == (), (
        f"{name}: {len(report.failures)} failures, first: {report.failures[:1]}"
    )
    return elapsed


def _pass(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_01_comparison_table_exact():
    start = time.perf_counter()
    rows = reproduce_table1()
    text = render_table1_text(rows)
    elapsed = time.perf_counter() - start
    LN = LambdaNuModel
    # the period is the unit: a row's curve (1/lambda)*(n - nu)+ in periods
    expected = {
        1: (LN(F(2), F(1)), None),
        2: (LN(F(2), F(1)), LN(F(2), F(2))),
        3: (LN(F(3, 2), F(1)), LN(F(3, 2), F(2))),
        4: (LN(F(3, 2), F(1)), LN(F(2), F(3))),
    }
    assert len(rows) == 4
    for row in rows:
        direct, indirect = expected[row.case_id]
        assert row.direct == direct, f"case {row.case_id} direct"
        assert row.indirect == indirect, f"case {row.case_id} indirect"
    assert "not available" in text
    assert elapsed < 1.0, f"table took {elapsed:.3f} s"
    _pass(
        "criterion 1: four-case comparison table reproduced exactly "
        f"({elapsed * 1000:.0f} ms)"
    )


def test_criterion_02_direct_superposition_soundness_at_scale():
    elapsed = _zero_failures("merge_conforms_to_direct_sum", 500)
    assert elapsed < 30.0, f"500 trials took {elapsed:.1f} s"
    _pass(
        "criterion 2: 500 merge trials (2..5 flows, <=500 packets each) all "
        f"conform to the direct sum ({elapsed:.1f} s)"
    )


def test_criterion_03_direct_bound_attained_exactly():
    for period, count in ((10, 200), (1, 50), (37, 100), (250, 4)):
        flow = gen_periodic(period, 0, count)
        merged = merge_traces([flow, flow])
        fit = fit_lambda_nu(merged, lam=F(2, period))
        assert fit.model.nu == 1, f"period {period}: fitted burst {fit.model.nu}"
    _pass(
        "criterion 3: aligned periodic merge fits burst allowance exactly 1 "
        "at twice the rate (bound attained)"
    )


def test_criterion_04_mappings_sound_in_both_directions():
    elapsed_fwd = _zero_failures("rate_burst_maps_into_tspec", 200)
    elapsed_back = _zero_failures("tspec_maps_into_rate_burst", 200)
    _pass(
        "criterion 4: 200+200 mapping trials sound in both directions, "
        "window multiples 1..5, both window modes "
        f"({elapsed_fwd + elapsed_back:.1f} s)"
    )


def test_criterion_05_composition_formula_equals_merge():
    elapsed = _zero_failures("composition_formula_matches_merge", 100)
    _pass(
        "criterion 5: 100 trials, composition-formula aggregate equals the "
        f"merged trace at every index ({elapsed:.1f} s)"
    )


def test_criterion_06_pairwise_equals_convolution_route():
    elapsed = _zero_failures("pairwise_equals_maxplus_route", 200)
    _pass(
        "criterion 6: 200 trials, pairwise and max-plus-convolution checkers "
        f"agree on verdicts and witnesses ({elapsed:.1f} s)"
    )


def test_criterion_07_bit_domain_superposition_soundness():
    elapsed = _zero_failures("merge_conforms_to_bit_sum", 200)
    _pass(
        "criterion 7: 200 trials with packet lengths, merges conform to the "
        f"summed bit-domain envelope ({elapsed:.1f} s)"
    )


def test_criterion_08_length_detour_dominance():
    elapsed = _zero_failures("length_detour_never_beats_direct", 200)
    _pass(
        "criterion 8: 200 trials, length-detour rate >= direct rate and "
        f"burst strictly worse, exact comparisons ({elapsed:.1f} s)"
    )


def test_criterion_09_tspec_superposition_soundness():
    elapsed = _zero_failures("merge_conforms_to_tspec_sum", 200)
    _pass(
        "criterion 9: 200 trials, merged TSpec-conforming flows conform to "
        f"the harmonic-interval sum ({elapsed:.1f} s)"
    )


def test_criterion_10_curve_reduction_validity():
    elapsed = _zero_failures("curve_reduction_stays_below_curve", 100)
    _pass(
        "criterion 10: 100 random curves (horizon <= 50), reduced envelope "
        f"never exceeds the curve, exact ({elapsed:.1f} s)"
    )
