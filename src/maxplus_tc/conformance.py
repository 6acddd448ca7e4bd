"""Conformance checking and tightest-envelope fitting.

Checkers decide whether a trace satisfies a traffic model, quantifying over
every pair of real packets (the virtual origin index 0 is an accessor
convention, not a constraint anchor, so verdicts are invariant under time
shifts of the whole trace).  Every checker reports:

* a verdict,
* the earliest violation when there is one (smallest ending index n, then
  smallest starting index m),
* how many pairs meet the model bound with exact equality (tight pairs),
  exactly, and the first ``max_tight`` of them in (m, n) order (all of
  them by default),
* how many pairs the verdict quantified over.

All comparisons are exact and use Python integers only.  Each rate/burst
and bit-domain question reduces to integer keys per packet (or breakpoint):
a pair is judged by the gain ``ends[n] - starts[m]`` against an integer
limit.  One pass with a running minimum of the start keys then gives the
verdict, the earliest witness, the largest gain and its binding pair.  With
the burst set to 0 in the keys, the largest gain, scaled back, is also the
fitted burst: nu at a fixed rate (:func:`fit_lambda_nu`) and sigma at a
fixed bit rate (:func:`fit_sigma_rho`).  Tight pairs are counted in O(N)
however many there are: one C-level pass keeps the starts whose key plus
the limit occurs among the end keys, and only those are grouped; listing
them costs the pairs listed.
The literal pairwise routes these passes are tested against live in
:mod:`maxplus_tc.reference`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, and_, eq, ge, itemgetter, ne, sub

from ._record import Record
from .errors import InfeasibleFitError, MissingLengthsError, UnboundedFitError
from .models import LambdaNuModel, SigmaRhoModel, TSpecModel, WindowMode, model_to_json
from .rational import RationalLike, rational_to_json
from .trace import Trace


class Witness(Record):
    """One concrete constraint violation: the pair (m, n), the bound the
    model required, and the value the trace actually achieved."""

    __slots__ = ("m", "n", "required", "actual")

    def __init__(self, m: int, n: int, required: Fraction, actual: Fraction):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "required", required)
        object.__setattr__(self, "actual", actual)


class ConformanceReport(Record):
    """``tight_pairs`` lists the first of the ``tight_count`` tight pairs in
    (m, n) order; ``truncated`` says whether some were left out."""

    __slots__ = ("conforms", "witness", "tight_pairs", "tight_count", "checked_pairs")

    def __init__(self, conforms: bool, witness: Witness | None,
                 tight_pairs: tuple[tuple[int, int], ...], tight_count: int, checked_pairs: int):
        if conforms != (witness is None):
            raise ValueError("conforms must hold exactly when there is no witness")
        object.__setattr__(self, "conforms", conforms)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "tight_pairs", tight_pairs)
        object.__setattr__(self, "tight_count", tight_count)
        object.__setattr__(self, "checked_pairs", checked_pairs)

    @property
    def truncated(self) -> bool:
        return len(self.tight_pairs) < self.tight_count


class FitResult(Record):
    """Tightest model of a family that a trace conforms to.

    ``binding_pair`` is the packet pair (window) that forbids tightening the
    fitted parameter any further; None when nothing constrains it.
    """

    __slots__ = ("model", "binding_pair")

    def __init__(self, model: LambdaNuModel | TSpecModel | SigmaRhoModel,
                 binding_pair: tuple[int, int] | None):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "binding_pair", binding_pair)


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
        "tight_count": report.tight_count,
        "truncated": report.truncated,
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
    """The number of pairs n >= m + lag whose gain is exactly ``limit``, and
    an iterator over them in (m, n) order.

    Only the starts whose key plus ``limit`` is an end key, and the ends
    holding such a key, are looked at in Python.
    """
    present = set(ends)
    hit = list(map(present.__contains__, map(add, starts, repeat(limit))))
    targets = list(map(add, compress(starts, hit), repeat(limit)))
    wanted = list(map(set(targets).__contains__, ends))
    by_key: defaultdict[int, list[int]] = defaultdict(list)
    for key, n in zip(compress(ends, wanted), compress(count(1), wanted)):
        by_key[key].append(n)
    hits = list(compress(count(1), hit))
    rows = list(map(by_key.__getitem__, targets))
    skips = list(map(bisect_left, rows, map(add, hits, repeat(lag))))
    total = sum(map(len, rows)) - sum(skips)
    pairs = (zip(repeat(m), row[skip:]) for m, row, skip in zip(hits, rows, skips))
    return total, chain.from_iterable(pairs)


def _report(
    witness: Witness | None, total: int, pairs, checked: int, max_tight: int | None
) -> ConformanceReport:
    """A report listing the first ``max_tight`` (all when None) of the
    ``total`` tight pairs that ``pairs`` iterates in (m, n) order."""
    listed = tuple(islice(pairs, max_tight))
    return ConformanceReport(witness is None, witness, listed, total, checked)


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


def _simultaneous(arrivals: tuple[int, ...], lag: int):
    """The number of pairs m < n < m + lag of packets on one tick, and an
    iterator over them in (m, n) order.

    A packet m whose successor arrives on the same tick pairs with every
    later packet on that tick up to m + lag - 1: one closed form per m,
    evaluated in C.
    """
    same_next = list(map(eq, arrivals, arrivals[1:]))
    firsts = list(compress(count(1), same_next))
    lasts = map(bisect_right, repeat(arrivals), compress(arrivals, same_next))
    stops = list(map(min, map(add, firsts, repeat(lag)), map(add, lasts, repeat(1))))
    total = sum(stops) - sum(firsts) - len(firsts)
    pairs = map(zip, map(repeat, firsts), map(range, map(add, firsts, repeat(1)), stops))
    return total, chain.from_iterable(pairs)


def check_lambda_nu(
    trace: Trace, model: LambdaNuModel, *, max_tight: int | None = None
) -> ConformanceReport:
    """Check the rate/burst arrival-time bound over every packet pair.

    Conforms iff every packet pair m < n has
    ``interarrival(m, n) >= (n - m - nu)+ / lam``; one pass over the keys of
    :func:`_excess_keys` decides all pairs.  Pairs more than nu apart are
    tight when their gain equals the limit; pairs within the allowance have
    bound 0, met by simultaneous packets.
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
    total, pairs = _gain_exactly(keys, keys, lag, limit)
    extra, simultaneous = _simultaneous(arrivals, lag)
    if extra:  # the first max_tight of each list hold those of their union
        total += extra
        pairs = sorted(chain(islice(pairs, max_tight), islice(simultaneous, max_tight)))
    return _report(witness, total, pairs, n_pk * (n_pk - 1) // 2, max_tight)


# ---------------------------------------------------------------------------
# TSpec (sliding window) checking


def check_tspec(
    trace: Trace, tspec: TSpecModel, *, max_tight: int | None = None
) -> ConformanceReport:
    """Check that no window of length tau holds more than k_max packets.

    Closed mode counts a packet exactly tau after the window start as inside;
    open mode requires strictly less than tau.  Equivalent to enumerating all
    packet pairs (m, n) that fit one window and requiring n - m + 1 <= k_max:
    the tight pairs are the runs of exactly k_max packets that fit one
    window, found by one C-level pass, and the first violation ends at the
    first packet j whose k_max-th predecessor shares a window with it.
    """
    arrivals = trace.arrivals
    n_pk = len(arrivals)
    max_gap = tspec.max_gap_in_window()
    k = tspec.k_max
    # full[i]: packets i+1 .. i+k (1-based) fit one window, a tight pair
    full = list(map(ge, map(add, arrivals, repeat(max_gap)), islice(arrivals, k - 1, None)))
    # k+1 packets from i fit only if the k from i and the k from i+1 do
    both = compress(count(), map(and_, full, islice(full, 1, None)))
    j = next((i + k for i in both if arrivals[i + k] - arrivals[i] <= max_gap), None)
    witness = None
    if j is not None:
        i = bisect_left(arrivals, arrivals[j] - max_gap)  # the window's first packet
        witness = Witness(m=i + 1, n=j + 1, required=Fraction(k), actual=Fraction(j - i + 1))
    pairs = compress(zip(count(1), count(k)), full)
    return _report(witness, full.count(True), pairs, n_pk * (n_pk + 1) // 2, max_tight)


def max_window_count(trace: Trace, tau: RationalLike, window_mode: WindowMode) -> tuple[int, tuple[int, int] | None]:
    """Largest number of packets any window of length tau can hold, plus the
    earliest window (as a packet pair) achieving it.  (0, None) when empty."""
    probe = TSpecModel(tau=Fraction(tau), k_max=1, window_mode=window_mode)
    arrivals = trace.arrivals
    if not arrivals:
        return 0, None
    max_gap = probe.max_gap_in_window()
    # packets i..j never shrink: they grow by packet j when it shares a
    # window with packet i, else slide one place.  So j - i + 1 is the most
    # packets any window up to j holds, and they last grew at the earliest
    # busiest window (smallest end, then smallest start).
    i = 0
    pair = None
    for j, a in enumerate(arrivals):
        if a - arrivals[i] > max_gap:
            i += 1
        else:
            pair = (i + 1, j + 1)
    return len(arrivals) - i, pair


# ---------------------------------------------------------------------------
# Bit-domain (cumulative traffic) checking


def _breakpoints(trace: Trace) -> tuple[list[int], list[int], list[int]]:
    """Distinct time points {0} + arrival ticks, with bits at each point and
    cumulative bits up to and including each point."""
    arrivals = trace.arrivals
    # the running total after the last packet of each tick is that tick's
    last_of_tick = list(map(ne, arrivals, arrivals[1:] + (None,)))
    points = list(compress(arrivals, last_of_tick))
    cum = list(compress(accumulate(trace.lengths or ()), last_of_tick))
    if not points or points[0] > 0:
        points.insert(0, 0)
        cum.insert(0, 0)
    at = list(map(sub, cum, chain((0,), cum)))
    return points, at, cum


def _window_keys(
    points: list[int], at: list[int], cum: list[int], scale: int, rate: int
) -> tuple[list[int], list[int]]:
    """Start and end keys of the closed windows between breakpoints: window
    [points[i], points[j]] (1-based i <= j) has gain
    ``ends[j] - starts[i] = scale*bits - rate*width``."""
    ends = [scale * c - rate * t for t, c in zip(points, cum)]
    starts = [e - scale * a for e, a in zip(ends, at)]
    return starts, ends


def check_sigma_rho(
    trace: Trace, model: SigmaRhoModel, *, max_tight: int | None = None
) -> ConformanceReport:
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
    # a window violates iff its gain scale*bits - rate_c*width exceeds burst_c
    starts, ends = _window_keys(points, at, cum, scale, rate_c)
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
    total, pairs = _gain_exactly(starts, ends, 0, burst_c)
    windows = ((points[i - 1], points[j - 1]) for i, j in pairs)
    return _report(witness, total, windows, b * (b + 1) // 2, max_tight)


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
    n = next(compress(count(lag + 1), map(eq, islice(arrivals, lag, None), arrivals)), None)
    if n is not None:
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


def fit_sigma_rho(trace: Trace, *, rho: RationalLike) -> FitResult:
    """Fit the minimal bit-domain burst at rate ``rho``.

    sigma is the largest excess ``bits - rho*(t - s)`` of any closed window
    [s, t] between breakpoints.  With rho = p/q that is the largest gain of
    :func:`check_sigma_rho`'s keys at sigma = 0, divided by q; a one-point
    window never has a negative excess, so sigma >= 0.  The binding pair is
    the first window in (t, s) order with that excess, labelled by its end
    ticks like the check's witness; an empty trace fits sigma = 0 and has
    none.
    """
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError(f"rate must be positive, got {rho}")
    if trace.num_packets == 0:
        return FitResult(SigmaRhoModel(sigma=Fraction(0), rho=rho), None)
    if trace.lengths is None:
        raise MissingLengthsError("bit-domain fit needs per-packet lengths")
    points, at, cum = _breakpoints(trace)
    starts, ends = _window_keys(points, at, cum, rho.denominator, rho.numerator)
    i, j, gain = max(_gains(starts, ends, 0), key=itemgetter(2))
    return FitResult(
        SigmaRhoModel(sigma=Fraction(gain, rho.denominator), rho=rho),
        (points[i - 1], points[j - 1]),
    )


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
