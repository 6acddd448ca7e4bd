"""Model-level calculus: mappings, curve reduction and superposition.

Everything here is pure arithmetic on exact rationals.  The superposition
operators answer the same question for each model family: given envelopes for
individual flows, produce an envelope the time-multiplexed aggregate is
guaranteed to satisfy.

Two routes exist for the packet-domain rate/burst family:

* :func:`superpose_lambda_nu` works directly on the packet-domain
  parameters (rates add; burst allowances add plus one slack packet per
  extra flow) and needs no packet-length information.
* :func:`superpose_indirect` detours through the bit domain, which
  requires per-flow maximum packet lengths and the global minimum length.
  Its result is never better than the direct route (equal only in the limit,
  since its burst term is strictly larger), which is what makes the direct
  route the interesting one.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import ceil

from ._record import Record
from .errors import DegenerateCurveError
from .models import (
    IndirectInputs,
    LambdaNuModel,
    MappingVariant,
    MaxPlusCurve,
    SigmaRhoModel,
    TSpecModel,
    WindowMode,
)


def map_lambda_nu_to_tspec(
    model: LambdaNuModel, variant: MappingVariant, j: int
) -> TSpecModel:
    """Derive a TSpec the flow is guaranteed to satisfy, for any window
    multiple j >= 1.

    Packets ceil(nu) + j + 1 apart in count must be spaced strictly more
    than j/lam apart in time, so a closed window of length j/lam holds at
    most ceil(nu) + j + 1 packets (variant A).  Shrinking the window just
    below j/lam (open mode) saves one more packet (variant B).
    """
    if j < 1:
        raise ValueError(f"window multiple j must be >= 1, got {j}")
    tau = Fraction(j) / model.lam
    ceil_nu = ceil(model.nu)
    if variant is MappingVariant.A:
        return TSpecModel(tau=tau, k_max=ceil_nu + j + 1, window_mode=WindowMode.CLOSED)
    return TSpecModel(tau=tau, k_max=ceil_nu + j, window_mode=WindowMode.OPEN)


def map_tspec_to_lambda_nu(tspec: TSpecModel) -> LambdaNuModel:
    """Derive the rate/burst envelope a TSpec-conforming flow satisfies:
    rate k_max/tau, burst allowance k_max - 1.

    The window mode does not enter (the result is valid for both; for open
    windows it is conservative).  Round-tripping through both mappings does
    not return the original parameters: the two model families are not
    equivalent.
    """
    return LambdaNuModel(
        lam=Fraction(tspec.k_max) / tspec.tau, nu=Fraction(tspec.k_max - 1)
    )


def superpose_lambda_nu(models: Sequence[LambdaNuModel]) -> LambdaNuModel:
    """Envelope of the aggregate of rate/burst-constrained flows:
    rates add, burst allowances add plus one per extra flow.

    A single model is returned unchanged, so folds compose uniformly.
    """
    if not models:
        raise ValueError("need at least one model")
    lam = sum((m.lam for m in models), Fraction(0))
    nu = sum((m.nu for m in models), Fraction(0)) + (len(models) - 1)
    return LambdaNuModel(lam=lam, nu=nu)


def superpose_tspec(tspecs: Sequence[TSpecModel]) -> TSpecModel:
    """TSpec of the aggregate: harmonic-sum interval, summed packet budget.

    All inputs closed gives a closed result; any open input degrades the
    result to open (the conservative, stricter-window claim).
    """
    if len(tspecs) < 2:
        raise ValueError("need at least two TSpecs to superpose")
    inv_tau = sum((1 / t.tau for t in tspecs), Fraction(0))
    k = sum(t.k_max for t in tspecs)
    modes = {t.window_mode for t in tspecs}
    mode = WindowMode.CLOSED if modes == {WindowMode.CLOSED} else WindowMode.OPEN
    return TSpecModel(tau=1 / inv_tau, k_max=k, window_mode=mode)


def superpose_sigma_rho(models: Sequence[SigmaRhoModel]) -> SigmaRhoModel:
    """Bit-domain envelope of the aggregate: componentwise sums."""
    if not models:
        raise ValueError("need at least one model")
    return SigmaRhoModel(
        sigma=sum((m.sigma for m in models), Fraction(0)),
        rho=sum((m.rho for m in models), Fraction(0)),
    )


def superpose_indirect(inputs: IndirectInputs) -> LambdaNuModel:
    """Aggregate envelope via the bit-domain detour.

    Each flow's packet envelope is widened to a bit envelope using its
    maximum packet length, the bit envelopes are summed, and the sum is
    read back as a packet envelope at the minimum packet length.  Length
    ratios >= 1 inflate both parameters, so this never beats
    :func:`superpose_lambda_nu`.
    """
    l_min = inputs.min_length
    lam = Fraction(0)
    nu = Fraction(0)
    for model, l_i in zip(inputs.models, inputs.max_lengths):
        ratio = l_i / l_min
        lam += ratio * model.lam
        nu += (model.nu + 1) * ratio
    return LambdaNuModel(lam=lam, nu=nu)


class CurveReduction(Record):
    """Rate/burst envelope extracted from a general arrival curve, valid on
    the finite horizon it was computed over."""

    __slots__ = ("model", "horizon")

    def __init__(self, model: LambdaNuModel, horizon: int):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "horizon", horizon)


def curve_to_lambda_nu(curve: MaxPlusCurve) -> CurveReduction:
    """Reduce a general inter-arrival lower-bound curve to the tightest
    rate/burst envelope dominated by it on the curve's horizon.

    The rate is the largest r with ``r * curve(d) <= d`` for every d in the
    horizon; the burst allowance then absorbs whatever the linear bound
    gives away.  By construction ``(d - nu)+ / lam <= curve(d)`` for all
    d up to the horizon.
    """
    h = curve.horizon
    lam: Fraction | None = None
    for d in range(1, h + 1):
        value = curve.values[d]
        if value > 0:
            candidate = Fraction(d) / value
            if lam is None or candidate < lam:
                lam = candidate
    if lam is None:
        raise DegenerateCurveError(
            "curve is zero everywhere on its horizon; no finite rate bounds it"
        )
    nu = max(d - lam * curve.values[d] for d in range(h + 1))
    return CurveReduction(model=LambdaNuModel(lam=lam, nu=nu), horizon=h)
