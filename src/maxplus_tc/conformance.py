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
limit.  Two loops keep a running minimum of the start keys: the verdict
scan stops at the first gain over the limit (the earliest witness), and the
largest-gain scan returns that gain and its binding pair.  With the burst
set to 0 in the keys, the largest gain, scaled back, is the fitted burst:
nu at a fixed rate (:func:`fit_lambda_nu`) and sigma at a fixed bit rate
(:func:`fit_sigma_rho`).  Tight pairs are counted in O(N) however many
there are: one C-level pass keeps the starts whose key plus the limit
occurs among the end keys, and only those are grouped; listing them costs
the pairs listed.  ``FIRST_VIOLATION``, read only by the suite, gives the
verdict alone: the checker's witness pair, or None, by the same passes,
with no pair counted.  The literal pairwise routes these passes are tested
against live in :mod:`maxplus_tc.reference`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction
from heapq import merge
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, eq, ge, ne, sub

from ._record import Record
from .errors import InfeasibleFitError, MissingLengthsError, UnboundedFitError
from .models import LambdaNuModel, SigmaRhoModel, TSpecModel, WindowMode, model_to_json
from .rational import RationalLike, rational_to_json
from .trace import Trace


class Witness(Record):
    """One concrete constraint violation: the pair (m, n), the bound the
    model required, and the value the trace actually achieved."""

    __slots__ = ("m", "n", "required", "actual")


class ConformanceReport(Record):
    """``tight_pairs`` lists the first of the ``tight_count`` tight pairs in
    (m, n) order; ``truncated`` says whether some were left out.  The trace
    ``conforms`` exactly when there is no ``witness``."""

    __slots__ = ("witness", "tight_pairs", "tight_count", "checked_pairs")

    @property
    def conforms(self) -> bool:
        return self.witness is None

    @property
    def truncated(self) -> bool:
        return len(self.tight_pairs) < self.tight_count


class FitResult(Record):
    """Tightest model of a family that a trace conforms to.

    ``binding_pair`` is the packet pair (window) that forbids tightening the
    fitted parameter any further; None when nothing constrains it.
    """

    __slots__ = ("model", "binding_pair")


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
# (m, n) with n - m >= lag has gain ``ends[n] - starts[m]``.  Both scans walk
# n = lag+1 .. len(ends) with ``start`` the key of the newest start m = n - lag
# and ``low`` the running minimum of the start keys, so the largest gain
# ending at n is ``end - low``.


def _first_over(starts: list[int], ends: list[int], lag: int, limit: int) -> tuple[int, int] | None:
    """Earliest pair whose gain exceeds ``limit`` (smallest n, then smallest
    m), or None."""
    low = starts[0] if starts else 0
    for n, start, end in zip(count(lag + 1), starts, islice(ends, lag, None)):
        if start < low:
            low = start
        if end - low > limit:
            bar = end - limit
            return next(m for m, key in enumerate(starts, 1) if key < bar), n
    return None


def _top_gain(starts: list[int], ends: list[int], lag: int) -> tuple[int, int, int] | None:
    """(m, n, gain) of the largest gain, first in (n, m) order, or None when
    no pair has n - m >= lag; m is the first index holding the smallest start
    key up to n - lag."""
    if len(ends) <= lag:
        return None
    low, low_at = starts[0], 1
    m, top_n, top = 1, lag + 1, ends[lag] - low
    for n, start, end in zip(count(lag + 1), starts, islice(ends, lag, None)):
        if start < low:
            low, low_at = start, n - lag
        if end - low > top:
            m, top_n, top = low_at, n, end - low
    return m, top_n, top


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
    listed = tuple(islice(pairs, total if max_tight is None else min(max_tight, total)))
    return ConformanceReport(witness, listed, total, checked)


# ---------------------------------------------------------------------------
# Rate/burst (packet-domain) checking


def _excess_keys(arrivals: tuple[int, ...], model: LambdaNuModel) -> tuple[list[int], int, int]:
    """Keys, lag and limit of the rate/burst bound, in the integer form
    ``(s*q, s*p, r*q, lag)`` of :meth:`~maxplus_tc.LambdaNuModel.integer_bound`.

    Key ``s*q*k - s*p*arrival(k)`` is how far packet k runs ahead of the
    rate line, so the gain of m < n is ``s*q*(n - m) - s*p*gap``.  The pair
    violates the bound iff its gain exceeds the limit r*q, which needs
    n - m >= min(lag, N), as no two of N packets are N apart.
    """
    sq, sp, rq, lag = model.integer_bound()
    keys = list(map(sub, count(sq, sq), map(sp.__mul__, arrivals)))
    return keys, min(lag, len(arrivals)), rq


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


def _lambda_nu_violation(trace: Trace, model: LambdaNuModel) -> tuple[int, int] | None:
    keys, lag, limit = _excess_keys(trace.arrivals, model)
    return _first_over(keys, keys, lag, limit)


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
    keys, lag, limit = _excess_keys(arrivals, model)
    witness = None
    pair = _first_over(keys, keys, lag, limit)
    if pair is not None:
        m, n = pair
        gap = Fraction(arrivals[n - 1] - arrivals[m - 1])
        witness = Witness(m=m, n=n, required=model.min_spacing(n - m), actual=gap)
    total, pairs = _gain_exactly(keys, keys, lag, limit)
    extra, simultaneous = _simultaneous(arrivals, lag)  # disjoint: n - m < lag
    pairs = merge(pairs, simultaneous)  # each iterates in (m, n) order
    return _report(witness, total + extra, pairs, n_pk * (n_pk - 1) // 2, max_tight)


# ---------------------------------------------------------------------------
# TSpec (sliding window) checking


def _tspec_runs(arrivals: tuple[int, ...], tspec: TSpecModel):
    """``full[i]``: packets i+1 .. i+k_max (1-based) fit one window, a tight
    pair; and the first violating pair, or None.  It ends at the first packet
    whose k_max-th predecessor shares a window with it, and starts at that
    window's first packet.  N packets hold no run longer than N."""
    max_gap = tspec.max_gap_in_window()
    k = min(tspec.k_max, len(arrivals) + 1)
    full = list(map(ge, map(add, arrivals, repeat(max_gap)), islice(arrivals, k - 1, None)))
    # k+1 packets from i fit only if the k from i do: only full windows are tried
    j = next((i + k for i in compress(range(len(arrivals) - k), full)
              if arrivals[i + k] - arrivals[i] <= max_gap), None)
    if j is None:
        return full, None
    return full, (bisect_left(arrivals, arrivals[j] - max_gap) + 1, j + 1)


def check_tspec(
    trace: Trace, tspec: TSpecModel, *, max_tight: int | None = None
) -> ConformanceReport:
    """Check that no window of length tau holds more than k_max packets.

    Closed mode counts a packet exactly tau after the window start as inside;
    open mode requires strictly less than tau.  Equivalent to enumerating all
    packet pairs (m, n) that fit one window and requiring n - m + 1 <= k_max:
    the tight pairs are the runs of exactly k_max packets that fit one
    window, found by one C-level pass (:func:`_tspec_runs`) with the first
    violation.
    """
    n_pk = len(trace.arrivals)
    full, pair = _tspec_runs(trace.arrivals, tspec)
    witness = None
    if pair is not None:
        m, n = pair
        witness = Witness(m=m, n=n, required=Fraction(tspec.k_max), actual=Fraction(n - m + 1))
    pairs = zip(compress(count(1), full), compress(count(tspec.k_max), full))
    return _report(witness, full.count(True), pairs, n_pk * (n_pk + 1) // 2, max_tight)


# ---------------------------------------------------------------------------
# Bit-domain (cumulative traffic) checking


def _bit_keys(trace: Trace, model: SigmaRhoModel):
    """The breakpoints {0} + arrival ticks, their start and end keys, and the
    scale, rate and limit of the bit-domain bound: the closed window
    [points[i], points[j]] (1-based i <= j) has gain ``ends[j] - starts[i] =
    scale*bits - rate*width`` and violates iff its gain exceeds the limit."""
    if trace.lengths is None and len(trace) > 0:
        raise MissingLengthsError("bit-domain models need per-packet lengths")
    arrivals = trace.arrivals
    # the running total after the last packet of each tick is that tick's
    last_of_tick = list(map(ne, arrivals, arrivals[1:] + (None,)))
    points = list(compress(arrivals, last_of_tick))
    cum = list(compress(accumulate(trace.lengths or ()), last_of_tick))
    if not points or points[0] > 0:
        points.insert(0, 0)
        cum.insert(0, 0)
    rho_n, rho_d = model.rho.numerator, model.rho.denominator
    sig_n, sig_d = model.sigma.numerator, model.sigma.denominator
    scale, rate = rho_d * sig_d, rho_n * sig_d  # bits*scale vs rate*width + sig_n*rho_d
    ends = [scale * c - rate * t for t, c in zip(points, cum)]
    # a window starting at a point holds that point's bits: count from the total before it
    starts = [scale * c - rate * t for t, c in zip(points, chain((0,), cum))]
    return points, starts, ends, scale, rate, sig_n * rho_d


def _sigma_rho_violation(trace: Trace, model: SigmaRhoModel) -> tuple[int, int] | None:
    points, starts, ends, _, _, limit = _bit_keys(trace, model)
    pair = _first_over(starts, ends, 0, limit)
    return None if pair is None else (points[pair[0] - 1], points[pair[1] - 1])


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
    points, starts, ends, scale, rate, limit = _bit_keys(trace, model)
    b = len(points)
    witness = None
    pair = _first_over(starts, ends, 0, limit)
    if pair is not None:
        i, j = pair
        s, t = points[i - 1], points[j - 1]
        bits = Fraction(ends[j - 1] - starts[i - 1] + rate * (t - s), scale)
        witness = Witness(m=s, n=t, required=model.rho * (t - s) + model.sigma, actual=bits)
    total, pairs = _gain_exactly(starts, ends, 0, limit)
    windows = ((points[i - 1], points[j - 1]) for i, j in pairs)
    return _report(witness, total, windows, b * (b + 1) // 2, max_tight)


# the checker of each model family
CHECKERS = {
    LambdaNuModel: check_lambda_nu,
    TSpecModel: check_tspec,
    SigmaRhoModel: check_sigma_rho,
}
# the verdict alone: the checker's witness pair (m, n), or None; no pair is counted
FIRST_VIOLATION = {
    LambdaNuModel: _lambda_nu_violation,
    TSpecModel: lambda trace, tspec: _tspec_runs(trace.arrivals, tspec)[1],
    SigmaRhoModel: _sigma_rho_violation,
}


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
        unbursty = LambdaNuModel(lam, 0)  # refuses lam <= 0
        lam = unbursty.lam
        # nu >= (n - m) - lam*gap for every pair; the largest gain is q*nu
        keys, _, _ = _excess_keys(arrivals, unbursty)
        top = _top_gain(keys, keys, 1)
        if top is None or top[2] < 0:
            return FitResult(unbursty, None)
        m, n, gain = top
        return FitResult(LambdaNuModel(lam=lam, nu=Fraction(gain, lam.denominator)), (m, n))

    probe = LambdaNuModel(1, nu)  # refuses nu < 0
    nu, lag = probe.nu, probe.integer_bound()[3]  # only pairs lag or more apart bind
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
    # exceeds the limit at the current rate, until none exceeds it.
    m, n = 1, n_pk
    while True:
        model = LambdaNuModel((n - m - nu) / (arrivals[n - 1] - arrivals[m - 1]), nu)
        keys, _, limit = _excess_keys(arrivals, model)
        m, n, gain = _top_gain(keys, keys, lag)
        if gain == limit:
            return FitResult(model, (m, n))


def fit_sigma_rho(trace: Trace, *, rho: RationalLike) -> FitResult:
    """Fit the minimal bit-domain burst at rate ``rho``.

    sigma is the largest excess ``bits - rho*(t - s)`` of any closed window
    [s, t] between breakpoints.  With rho = p/q that is the largest gain of
    :func:`check_sigma_rho`'s keys at sigma = 0, divided by q; a one-point
    window never has a negative excess, so sigma >= 0.  The binding pair is
    the first window in (t, s) order with that excess, labelled by its end
    ticks like the check's witness.  An empty trace fits sigma = 0 with
    none; any other trace without lengths is refused as the check refuses it.
    """
    unbursty = SigmaRhoModel(0, rho)  # refuses rho <= 0
    if len(trace) == 0:
        return FitResult(unbursty, None)
    points, starts, ends, scale, _, _ = _bit_keys(trace, unbursty)
    i, j, gain = _top_gain(starts, ends, 0)
    return FitResult(SigmaRhoModel(Fraction(gain, scale), unbursty.rho),
                     (points[i - 1], points[j - 1]))


def fit_tspec(
    trace: Trace, tau: RationalLike, window_mode: WindowMode = WindowMode.CLOSED
) -> FitResult:
    """Fit the minimal packet budget for windows of length tau.

    The fitted k_max equals the busiest window's packet count (at least 1),
    so the model conforms and k_max - 1 would not.  The binding pair is the
    earliest busiest window, None for an empty trace.
    """
    probe = TSpecModel(tau=tau, k_max=1, window_mode=window_mode)  # refuses tau <= 0
    arrivals = trace.arrivals
    max_gap = probe.max_gap_in_window()
    # packets i..j never shrink: they grow by packet j when it shares a
    # window with packet i, else slide one place.  So j - i + 1 is the most
    # packets any window up to j holds; they last grew, at j = grew, to the
    # earliest busiest window (smallest end, then smallest start).
    i = 0
    grew = -1
    for j, a in enumerate(arrivals):
        if a - arrivals[i] > max_gap:
            i += 1
        else:
            grew = j
    busiest = len(arrivals) - i
    pair = (grew - busiest + 2, grew + 1) if busiest else None
    return FitResult(TSpecModel(probe.tau, max(1, busiest), window_mode), pair)
