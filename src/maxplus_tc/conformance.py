"""Conformance checking and tightest-envelope fitting.

Checkers decide whether a trace satisfies a traffic model, quantifying over
every pair of real packets (the virtual origin index 0 is an accessor
convention, not a constraint anchor, so verdicts are invariant under time
shifts of the whole trace).  Every checker reports:

* a verdict,
* the earliest violation when there is one (smallest ending index n, then
  smallest starting index m),
* all tight pairs, i.e. pairs where the model bound holds with exact
  equality, sorted by (m, n),
* how many pairs the verdict quantified over.

All comparisons are exact and use Python integers only.  Each rate/burst
and bit-domain question reduces to integer keys per packet (or breakpoint):
a pair is judged by the gain ``ends[n] - starts[m]`` against an integer
limit.  One pass with a running minimum of the start keys then gives the
verdict, the earliest witness, the largest gain (a fitted burst) and its
binding pair; tight pairs come from grouping equal keys.  The literal
pairwise routes these passes are tested against live in
:mod:`maxplus_tc.reference`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import itemgetter

from .errors import InfeasibleFitError, MissingLengthsError, UnboundedFitError
from .models import LambdaNuModel, SigmaRhoModel, TSpecModel, WindowMode, model_to_json
from .rational import RationalLike, rational_to_json
from .trace import Trace


@dataclass(frozen=True)
class Witness:
    """One concrete constraint violation: the pair (m, n), the bound the
    model required, and the value the trace actually achieved."""

    m: int
    n: int
    required: Fraction
    actual: Fraction


@dataclass(frozen=True)
class ConformanceReport:
    conforms: bool
    witness: Witness | None
    tight_pairs: tuple[tuple[int, int], ...]
    checked_pairs: int

    def __post_init__(self):
        if self.conforms != (self.witness is None):
            raise ValueError("conforms must hold exactly when there is no witness")


@dataclass(frozen=True)
class FitResult:
    """Tightest model of a family that a trace conforms to.

    ``binding_pair`` is the packet pair (window) that forbids tightening the
    fitted parameter any further; None when nothing constrains it.
    """

    model: LambdaNuModel | TSpecModel | SigmaRhoModel
    binding_pair: tuple[int, int] | None


def report_to_json(report: ConformanceReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = {
            "m": report.witness.m,
            "n": report.witness.n,
            "required": rational_to_json(report.witness.required),
            "actual": rational_to_json(report.witness.actual),
        }
    return {
        "conforms": report.conforms,
        "witness": witness,
        "tight_pairs": [[m, n] for m, n in report.tight_pairs],
        "checked_pairs": report.checked_pairs,
    }


def fit_result_to_json(result: FitResult) -> dict:
    return {
        "model": model_to_json(result.model),
        "binding_pair": list(result.binding_pair) if result.binding_pair else None,
    }


# ---------------------------------------------------------------------------
# One-pass gain scans
#
# ``starts`` and ``ends`` hold one integer key per index (1-based); the pair
# (m, n) with n - m >= lag has gain ``ends[n] - starts[m]``.


def _gains(starts: list[int], ends: list[int], lag: int):
    """For each end n, yield (m, n, gain) for the largest gain ending at n;
    m is the first index m <= n - lag holding the smallest start key, so
    ``max`` over the yield picks the first pair in (n, m) order."""
    low = 1
    for n in range(lag + 1, len(ends) + 1):
        if starts[n - lag - 1] < starts[low - 1]:
            low = n - lag
        yield low, n, ends[n - 1] - starts[low - 1]


def _first_over(starts: list[int], ends: list[int], lag: int, limit: int) -> tuple[int, int] | None:
    """Earliest pair whose gain exceeds ``limit`` (smallest n, then smallest
    m), or None."""
    for _, n, gain in _gains(starts, ends, lag):
        if gain > limit:
            bar = ends[n - 1] - limit
            return next(m for m in range(1, n - lag + 1) if starts[m - 1] < bar), n
    return None


def _gain_exactly(starts: list[int], ends: list[int], lag: int, limit: int):
    """For each m in order, yield m and the ascending ends n >= m + lag whose
    gain is exactly ``limit``."""
    by_key: dict[int, list[int]] = {}
    for n, key in enumerate(ends, 1):
        by_key.setdefault(key, []).append(n)
    for m, key in enumerate(starts, 1):
        later = by_key.get(key + limit, ())
        yield m, later[bisect_left(later, m + lag):]


# ---------------------------------------------------------------------------
# Rate/burst (packet-domain) checking


def _excess_keys(
    arrivals: tuple[int, ...], lam: Fraction, nu: Fraction
) -> tuple[list[int], int, int]:
    """Keys, lag and limit of the rate/burst bound for lam = p/q, nu = r/s.

    Key ``s*q*k - s*p*arrival(k)`` is how far packet k runs ahead of the
    rate line, so the gain of m < n is ``s*q*(n - m) - s*p*gap``.  The pair
    violates the bound iff its gain exceeds the limit r*q, which needs
    n - m >= lag = floor(nu) + 1.
    """
    p, q = lam.numerator, lam.denominator
    r, s = nu.numerator, nu.denominator
    return [s * q * k - s * p * a for k, a in enumerate(arrivals, 1)], r // s + 1, r * q


def check_lambda_nu(trace: Trace, model: LambdaNuModel) -> ConformanceReport:
    """Check the rate/burst arrival-time bound over every packet pair.

    Conforms iff every packet pair m < n has
    ``interarrival(m, n) >= (n - m - nu)+ / lam``; one pass over the keys of
    :func:`_excess_keys` decides all pairs.
    """
    arrivals = trace.arrivals
    n_pk = len(arrivals)
    keys, lag, limit = _excess_keys(arrivals, model.lam, model.nu)
    witness = None
    pair = _first_over(keys, keys, lag, limit)
    if pair is not None:
        m, n = pair
        witness = Witness(
            m=m,
            n=n,
            required=model.min_spacing(n - m),
            actual=Fraction(arrivals[n - 1] - arrivals[m - 1]),
        )
    tight: list[tuple[int, int]] = []
    for m, later in _gain_exactly(keys, keys, lag, limit):
        # within the allowance the bound is 0, met by simultaneous packets
        n = m + 1
        while n < m + lag and n <= n_pk and arrivals[n - 1] == arrivals[m - 1]:
            tight.append((m, n))
            n += 1
        tight.extend(zip(repeat(m), later))
    return ConformanceReport(
        conforms=witness is None,
        witness=witness,
        tight_pairs=tuple(tight),
        checked_pairs=n_pk * (n_pk - 1) // 2,
    )


# ---------------------------------------------------------------------------
# TSpec (sliding window) checking


def _window_starts(arrivals: tuple[int, ...], max_gap: int):
    """For each packet j (0-based) yield the smallest window start i with
    ``arrivals[j] - arrivals[i] <= max_gap``.  O(N) two-pointer."""
    i = 0
    for j in range(len(arrivals)):
        while arrivals[j] - arrivals[i] > max_gap:
            i += 1
        yield j, i


def check_tspec(trace: Trace, tspec: TSpecModel) -> ConformanceReport:
    """Check that no window of length tau holds more than k_max packets.

    Closed mode counts a packet exactly tau after the window start as inside;
    open mode requires strictly less than tau.  Equivalent to enumerating all
    packet pairs (m, n) that fit one window and requiring n - m + 1 <= k_max;
    the scan here slides the window in O(N).
    """
    arrivals = trace.arrivals
    n_pk = len(arrivals)
    checked = n_pk * (n_pk + 1) // 2
    if n_pk == 0:
        return ConformanceReport(True, None, (), checked)
    max_gap = tspec.max_gap_in_window()
    k = tspec.k_max
    witness = None
    tight: list[tuple[int, int]] = []
    for j, i in _window_starts(arrivals, max_gap):
        count = j - i + 1
        if witness is None and count > k:
            witness = Witness(
                m=i + 1, n=j + 1, required=Fraction(k), actual=Fraction(count)
            )
        m0 = j - k + 1  # rises with j, so the pairs come in (m, n) order
        if m0 >= 0 and arrivals[j] - arrivals[m0] <= max_gap:
            tight.append((m0 + 1, j + 1))
    return ConformanceReport(
        conforms=witness is None,
        witness=witness,
        tight_pairs=tuple(tight),
        checked_pairs=checked,
    )


def max_window_count(trace: Trace, tau: RationalLike, window_mode: WindowMode) -> tuple[int, tuple[int, int] | None]:
    """Largest number of packets any window of length tau can hold, plus the
    earliest window (as a packet pair) achieving it.  (0, None) when empty."""
    arrivals = trace.arrivals
    if not arrivals:
        return 0, None
    probe = TSpecModel(tau=Fraction(tau), k_max=1, window_mode=window_mode)
    max_gap = probe.max_gap_in_window()
    best = 0
    best_pair: tuple[int, int] | None = None
    for j, i in _window_starts(arrivals, max_gap):
        count = j - i + 1
        if count > best:
            best = count
            best_pair = (i + 1, j + 1)
    return best, best_pair


# ---------------------------------------------------------------------------
# Bit-domain (cumulative traffic) checking


def _breakpoints(trace: Trace) -> tuple[list[int], list[int], list[int]]:
    """Distinct time points {0} + arrival ticks, with bits at each point and
    cumulative bits up to and including each point."""
    bits_at: dict[int, int] = {0: 0}
    for tick, bits in zip(trace.arrivals, trace.lengths or ()):
        bits_at[tick] = bits_at.get(tick, 0) + bits
    points = sorted(bits_at)
    at = [bits_at[t] for t in points]
    cum = []
    total = 0
    for b in at:
        total += b
        cum.append(total)
    return points, at, cum


def check_sigma_rho(trace: Trace, model: SigmaRhoModel) -> ConformanceReport:
    """Check the bit-domain bound: every closed window [s, t] between
    breakpoints carries at most ``rho * (t - s) + sigma`` bits.

    Since cumulative traffic is a step function, checking closed windows at
    the breakpoints {0} + arrival ticks is exactly the continuous-time
    supremum (windows opening just before a burst are covered by the closed
    window starting at it).  Witness and tight pairs label windows by their
    endpoint ticks, not packet indices.
    """
    if trace.lengths is None and trace.num_packets > 0:
        raise MissingLengthsError("bit-domain check needs per-packet lengths")
    points, at, cum = _breakpoints(trace)
    b = len(points)
    rho_n, rho_d = model.rho.numerator, model.rho.denominator
    sig_n, sig_d = model.sigma.numerator, model.sigma.denominator
    scale = rho_d * sig_d  # bits * scale  vs  rho_n*sig_d*dt + sig_n*rho_d
    rate_c = rho_n * sig_d
    burst_c = sig_n * rho_d
    # window [points[i], points[j]] (1-based i <= j) violates iff
    # ends[j] - starts[i] = scale*bits - rate_c*width exceeds burst_c
    ends = [scale * c - rate_c * t for t, c in zip(points, cum)]
    starts = [e - scale * a for e, a in zip(ends, at)]
    witness = None
    pair = _first_over(starts, ends, 0, burst_c)
    if pair is not None:
        i, j = pair
        witness = Witness(
            m=points[i - 1],
            n=points[j - 1],
            required=model.rho * (points[j - 1] - points[i - 1]) + model.sigma,
            actual=Fraction(cum[j - 1] - cum[i - 1] + at[i - 1]),
        )
    tight = tuple(
        (points[i - 1], points[j - 1])
        for i, later in _gain_exactly(starts, ends, 0, burst_c)
        for j in later
    )
    return ConformanceReport(
        conforms=witness is None,
        witness=witness,
        tight_pairs=tight,
        checked_pairs=b * (b + 1) // 2,
    )


# ---------------------------------------------------------------------------
# Tightest-envelope fitting


def fit_lambda_nu(
    trace: Trace,
    *,
    lam: RationalLike | None = None,
    nu: RationalLike | None = None,
) -> FitResult:
    """Fit the tightest rate/burst envelope with one parameter fixed.

    With ``lam`` fixed, returns the minimal conforming burst allowance.
    With ``nu`` fixed, returns the minimal conforming rate (any lower rate
    would demand more spacing than the trace has); raises
    :class:`InfeasibleFitError` when simultaneous packets sit further than
    ``nu`` apart in count, and :class:`UnboundedFitError` when no pair
    constrains the rate at all.
    """
    if (lam is None) == (nu is None):
        raise ValueError("fix exactly one of lam and nu")
    arrivals = trace.arrivals
    n_pk = len(arrivals)
    if lam is not None:
        lam = Fraction(lam)
        if lam <= 0:
            raise ValueError(f"rate must be positive, got {lam}")
        # nu >= (n - m) - lam*gap for every pair; the largest gain is q*nu
        keys, _, _ = _excess_keys(arrivals, lam, Fraction(0))
        top = max(_gains(keys, keys, 1), key=itemgetter(2), default=None)
        if top is None or top[2] < 0:
            return FitResult(LambdaNuModel(lam=lam, nu=Fraction(0)), None)
        m, n, gain = top
        return FitResult(LambdaNuModel(lam=lam, nu=Fraction(gain, lam.denominator)), (m, n))

    nu = Fraction(nu)
    if nu < 0:
        raise ValueError(f"burst allowance must be nonnegative, got {nu}")
    r, s = nu.numerator, nu.denominator
    lag = r // s + 1  # only pairs more than nu apart constrain the rate
    if lag >= n_pk:
        raise UnboundedFitError(
            f"no packet pair exceeds the allowance {nu}; any positive rate conforms"
        )
    for n in range(lag + 1, n_pk + 1):
        if arrivals[n - 1] == arrivals[n - 1 - lag]:
            m = arrivals.index(arrivals[n - 1]) + 1
            raise InfeasibleFitError(
                f"packets {m} and {n} arrive together but are {n - m} apart "
                f"in count, more than the allowance {nu}",
                pair=(m, n),
            )
    # lam >= (n - m - nu)/gap for every such pair.  Dinkelbach (1967): from
    # the ratio of some pair, move to the ratio of the pair whose gain most
    # exceeds r*q at the current rate, until none exceeds it.
    m, n = 1, n_pk
    while True:
        lam = Fraction(s * (n - m) - r, s * (arrivals[n - 1] - arrivals[m - 1]))
        keys, _, limit = _excess_keys(arrivals, lam, nu)
        m, n, gain = max(_gains(keys, keys, lag), key=itemgetter(2))
        if gain == limit:
            return FitResult(LambdaNuModel(lam=lam, nu=nu), (m, n))


def fit_tspec(
    trace: Trace, tau: RationalLike, window_mode: WindowMode = WindowMode.CLOSED
) -> FitResult:
    """Fit the minimal packet budget for windows of length tau.

    The fitted k_max equals the busiest window's packet count (at least 1),
    so the model conforms and k_max - 1 would not.
    """
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError(f"interval must be positive, got {tau}")
    count, pair = max_window_count(trace, tau, window_mode)
    return FitResult(
        TSpecModel(tau=tau, k_max=max(1, count), window_mode=window_mode), pair
    )
