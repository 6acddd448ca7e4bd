"""Model-level calculus: mappings, curve reduction and superposition.

Everything here is pure arithmetic on exact rationals.  The superposition
operators answer the same question for each model family: given envelopes for
individual flows, produce an envelope the time-multiplexed aggregate is
guaranteed to satisfy.

Two routes exist for the packet-domain rate/burst family:

* :func:`superpose_lambda_nu` works directly on the packet-domain
  parameters (rates add; burst allowances add plus one slack packet per
  extra flow) and needs no packet-length information.
* :func:`superpose_indirect` is the sigma/rho sum between two conversions:
  each flow widened to bits at its maximum packet length, the sum read back
  at the global minimum length.  It never beats the direct route (its burst
  term is strictly larger), which is what makes the direct route the
  interesting one.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm

from .errors import DegenerateCurveError, InconsistentInputError
from .models import LambdaNuModel, MaxPlusCurve, SigmaRhoModel, TSpecModel, WindowMode
from .rational import RationalLike, as_fraction


def map_lambda_nu_to_tspec(
    model: LambdaNuModel, window_mode: WindowMode, j: int
) -> TSpecModel:
    """Derive a TSpec with windows of ``window_mode`` that the flow is
    guaranteed to satisfy, for any window multiple j >= 1.

    Packets ceil(nu) + j + 1 apart in count must be spaced strictly more
    than j/lam apart in time, so a closed window of length j/lam holds at
    most ceil(nu) + j + 1 packets.  Shrinking the window just below j/lam
    (open mode) saves one more packet.
    """
    if j < 1:
        raise ValueError(f"window multiple j must be >= 1, got {j}")
    tau = Fraction(j * model.lam.denominator, model.lam.numerator)
    ceil_nu = -(-model.nu.numerator // model.nu.denominator)
    k_max = ceil_nu + j + (window_mode is WindowMode.CLOSED)
    return TSpecModel(tau=tau, k_max=k_max, window_mode=window_mode)


def map_tspec_to_lambda_nu(tspec: TSpecModel) -> LambdaNuModel:
    """Derive the rate/burst envelope a TSpec-conforming flow satisfies:
    rate k_max/tau, burst allowance k_max - 1.

    The window mode does not enter (the result is valid for both; for open
    windows it is conservative).  Round-tripping through both mappings does
    not return the original parameters: the two model families are not
    equivalent.
    """
    k, tau = tspec.k_max, tspec.tau
    return LambdaNuModel(lam=Fraction(k * tau.denominator, tau.numerator), nu=k - 1)


def superpose_lambda_nu(models: Sequence[LambdaNuModel]) -> LambdaNuModel:
    """Envelope of the aggregate of rate/burst-constrained flows:
    rates add, burst allowances add plus one per extra flow."""
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
    if not tspecs:
        raise ValueError("need at least one model")
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


# the superposition operator of each model family; each needs at least one
# model and returns a single model unchanged, so folds compose uniformly
SUPERPOSE = {
    LambdaNuModel: superpose_lambda_nu,
    TSpecModel: superpose_tspec,
    SigmaRhoModel: superpose_sigma_rho,
}


def superpose_indirect(
    models: Sequence[LambdaNuModel], max_lengths: Iterable[RationalLike], min_length: RationalLike
) -> LambdaNuModel:
    """Aggregate envelope via the bit-domain detour.

    Flow i becomes ``SigmaRhoModel((nu_i + 1)*L_i, lam_i*L_i)`` at its
    maximum packet length ``L_i = max_lengths[i]`` (bits), these are added by
    :func:`superpose_sigma_rho`, and the sum is read back as
    ``LambdaNuModel(rho/min_length, sigma/min_length)``.  Length ratios >= 1
    inflate both parameters, so this never beats :func:`superpose_lambda_nu`.
    Inputs that do not fit together raise :class:`InconsistentInputError`.
    """
    max_lengths = [as_fraction(l, "max length") for l in max_lengths]
    min_length = as_fraction(min_length, "minimum length")
    if len(models) < 2:
        raise InconsistentInputError("need at least two flows to superpose")
    if len(max_lengths) != len(models):
        raise InconsistentInputError(f"{len(max_lengths)} max lengths for {len(models)} flows")
    if min_length <= 0:
        raise InconsistentInputError("minimum packet length must be positive")
    for i, l in enumerate(max_lengths):
        if l <= 0:
            raise InconsistentInputError(f"max length of flow {i} must be positive")
        if min_length > l:
            raise InconsistentInputError(
                f"minimum length {min_length} exceeds max length {l} of flow {i}"
            )
    bits = superpose_sigma_rho(
        [SigmaRhoModel((m.nu + 1) * l, m.lam * l) for m, l in zip(models, max_lengths)]
    )
    return LambdaNuModel(lam=bits.rho / min_length, nu=bits.sigma / min_length)


def curve_to_lambda_nu(curve: MaxPlusCurve) -> LambdaNuModel:
    """Reduce a general inter-arrival lower-bound curve to the tightest
    rate/burst envelope dominated by it on the curve's horizon.

    The rate is the largest r with ``r * curve(d) <= d`` for every d in the
    horizon; the burst allowance then absorbs whatever the linear bound
    gives away.  By construction ``(d - nu)+ / lam <= curve(d)`` for all
    d up to ``curve.horizon``; beyond it the envelope promises nothing.
    """
    # Over one common denominator D the curve is nums[d] / D.  The rate is
    # the least d*D / nums[d] over nums[d] > 0, taken at d = top with
    # a = nums[top]; then d - lam * curve(d) = (d*a - top*nums[d]) / a.
    common = lcm(*[v.denominator for v in curve.values])
    nums = [v.numerator * (common // v.denominator) for v in curve.values]
    top, a = 0, 0
    for d, num in enumerate(nums):
        if num > 0 and (a == 0 or d * a < top * num):
            top, a = d, num
    if a == 0:
        raise DegenerateCurveError(
            "curve is zero everywhere on its horizon; no finite rate bounds it"
        )
    nu = max(d * a - top * num for d, num in enumerate(nums))
    return LambdaNuModel(lam=Fraction(top * common, a), nu=Fraction(nu, a))
