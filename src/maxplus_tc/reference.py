"""Brute-force reference routes: one literal route per question.

Each route quantifies over every packet pair (or window, or split, or CSV
row) exactly as the definition reads, with no running minima, window scans,
bulk parsing or shared helpers of the production modules, so a bug in a
fast path cannot hide in code both sides use.  Each route has the signature
and result type of the production function it checks, so a test can compare
whole outcomes.  One exception is ``aggregate_eq1``, eq. 1 for one packet of
a merge.  The other is the row-by-row CSV reader, which takes the text
:func:`~maxplus_tc.read_trace_csv` has read: it is also that reader's O(N)
route for a text its bulk decodes refuse, to name the first bad row, and a
pipe gives its text only once.  The other routes cost O(N^2) or more
(``aggregate_eq1`` is exponential in the flow count) and are meant for small
inputs: the test suite and the randomized validation suite.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import product
from operator import itemgetter

from .aggregation import PacketOrigin
from .conformance import ConformanceReport, FitResult, Witness
from .errors import FormatError, InfeasibleFitError, MissingLengthsError, UnboundedFitError
from .models import LambdaNuModel, SigmaRhoModel, TSpecModel, WindowMode
from .rational import RationalLike
from .trace import CSV_HEADER_LENGTHS, CSV_HEADER_TICKS, Trace


def _report(witness: Witness | None, tight: list, checked: int) -> ConformanceReport:
    return ConformanceReport(witness, tuple(sorted(tight)), len(tight), checked)


# ---------------------------------------------------------------------------
# Trace CSV


def trace_from_csv_text(text: str) -> Trace:
    """Reference for :func:`~maxplus_tc.read_trace_csv`, on the text it
    reads: each row on its own, in file order, split, checked and converted
    by ``int()``.  The first row that breaks the format is the one reported;
    the range rules (ticks nonnegative and nondecreasing, lengths positive)
    are ``Trace``'s, after every row has parsed.  A row is a line of the
    text, ended by a line feed."""
    rows = [line for line in map(str.strip, text.split("\n")) if line]
    width = None
    if rows and rows[0].split(",")[0].strip() == CSV_HEADER_TICKS:
        header = [c.strip() for c in rows[0].split(",")]
        if header == [CSV_HEADER_TICKS, CSV_HEADER_LENGTHS]:
            width = 2
        elif header != [CSV_HEADER_TICKS]:
            raise FormatError(f"unrecognized trace header {rows[0]!r}")
        rows = rows[1:]
    if width is None:
        width = rows[0].count(",") + 1 if rows else 1
    values: list[int] = []
    for lineno, row in enumerate(rows, start=1):
        cols = row.split(",")
        if len(cols) > 2:
            raise FormatError(f"row {lineno}: expected 1 or 2 columns, got {len(cols)}")
        if len(cols) != width:
            raise FormatError(f"row {lineno}: inconsistent column count")
        if not row.isascii() or "_" in row or "+" in row:
            raise FormatError(f"row {lineno}: fields must be ASCII base-10 integers, got {row!r}")
        try:
            values.extend(map(int, cols))
        except ValueError:
            # name the first field int() rejects even without its padding
            for col in cols:
                try:
                    int(col.strip())
                except ValueError as exc:
                    raise FormatError(f"row {lineno}: {exc}") from None
            raise FormatError(
                f"row {lineno}: fields must be ASCII base-10 integers, got {row!r}"
            ) from None
    try:
        return Trace(arrivals=values[::width], lengths=values[1::2] if width == 2 else None)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# Rate/burst (packet domain)


def check_lambda_nu_via_convolution(trace: Trace, model: LambdaNuModel) -> ConformanceReport:
    """Reference for :func:`~maxplus_tc.check_lambda_nu`, via the max-plus route.

    For each n it forms the bound ``sup over m < n of arrival(m) + alpha(n - m)``
    with ``alpha(d) = (d - nu)+ / lam``, term by term, and compares the actual
    arrival time against it.  Terms are kept as integers scaled by s*p for
    lam = p/q and nu = r/s.
    """
    arrivals = trace.arrivals
    n_pk = len(arrivals)
    p, q = model.lam.numerator, model.lam.denominator
    r, s = model.nu.numerator, model.nu.denominator
    den = s * p
    # alpha_num[d] / den is the exact required spacing for gap d
    alpha_num = [max(0, d * s - r) * q for d in range(n_pk)]
    witness = None
    tight: list[tuple[int, int]] = []
    for n in range(2, n_pk + 1):
        lhs = arrivals[n - 1] * den
        bound = None
        for m in range(1, n):
            term = arrivals[m - 1] * den + alpha_num[n - m]
            if bound is None or term > bound:
                bound = term
            if term == lhs:
                tight.append((m, n))
        if witness is None and bound > lhs:
            m = next(m for m in range(1, n) if arrivals[m - 1] * den + alpha_num[n - m] > lhs)
            witness = Witness(
                m=m,
                n=n,
                required=Fraction(max(n - m - model.nu, 0)) / model.lam,
                actual=Fraction(arrivals[n - 1] - arrivals[m - 1]),
            )
    return _report(witness, tight, n_pk * (n_pk - 1) // 2)


def _pairs(trace: Trace):
    """Every packet pair as (m, n, n - m, gap), in (n, m) scan order."""
    arrivals = trace.arrivals
    for n in range(2, len(arrivals) + 1):
        for m in range(1, n):
            yield m, n, n - m, arrivals[n - 1] - arrivals[m - 1]


def fit_lambda_nu_pairwise(
    trace: Trace,
    *,
    lam: RationalLike | None = None,
    nu: RationalLike | None = None,
) -> FitResult:
    """Reference for :func:`~maxplus_tc.fit_lambda_nu`.

    With ``lam`` fixed, nu is the largest ``(n - m) - lam * gap`` over all
    pairs (at least 0).  With ``nu`` fixed, lam is the largest
    ``(n - m - nu) / gap`` over the pairs more than nu apart.  The binding
    pair is the first pair in (n, m) order attaining the value.
    """
    if (lam is None) == (nu is None):
        raise ValueError("fix exactly one of lam and nu")
    if lam is not None:
        lam = Fraction(lam)
        candidates = ((d - lam * g, (m, n)) for m, n, d, g in _pairs(trace))
        value, pair = max(candidates, key=itemgetter(0), default=(-1, None))
        if value < 0:
            return FitResult(LambdaNuModel(lam=lam, nu=Fraction(0)), None)
        return FitResult(LambdaNuModel(lam=lam, nu=value), pair)
    nu = Fraction(nu)
    constraining = [(m, n, d, g) for m, n, d, g in _pairs(trace) if d > nu]
    if not constraining:
        raise UnboundedFitError(f"no packet pair exceeds the allowance {nu}")
    for m, n, d, g in constraining:
        if g == 0:
            raise InfeasibleFitError(f"packets {m} and {n} arrive together", pair=(m, n))
    candidates = (((d - nu) / g, (m, n)) for m, n, d, g in constraining)
    value, pair = max(candidates, key=itemgetter(0))
    return FitResult(LambdaNuModel(lam=value, nu=nu), pair)


def extremal_arrivals(model: LambdaNuModel, count: int) -> Trace:
    """Reference for :func:`~maxplus_tc.gen_extremal_lambda_nu`: packet 1
    at tick 0, each later packet at the first integer tick that every
    earlier packet's spacing bound allows."""
    arrivals: list[int] = []
    for n in range(count):
        spacings = (math.ceil(max(n - m - model.nu, 0) / model.lam) for m in range(n))
        arrivals.append(max((a + sp for a, sp in zip(arrivals, spacings)), default=0))
    return Trace(tuple(arrivals))


def periodic_arrivals(period: int, phase: int, count: int) -> Trace:
    """Reference for :func:`~maxplus_tc.gen_periodic`: packet i at phase + (i - 1)*period."""
    return Trace(tuple(phase + (i - 1) * period for i in range(1, count + 1)))


# ---------------------------------------------------------------------------
# TSpec (packets per window)


def _window_limit(tau: Fraction, window_mode: WindowMode) -> tuple[int, int]:
    """(q, limit) such that an integer tick gap fits in one window of length
    tau = p/q iff ``q * gap <= limit``: ``gap <= tau`` for closed windows,
    ``gap < tau`` (that is ``q * gap <= p - 1``) for open ones."""
    p, q = tau.numerator, tau.denominator
    return q, p if window_mode is WindowMode.CLOSED else p - 1


def tspec_burst_arrivals(tspec: TSpecModel, count: int) -> Trace:
    """Reference for :func:`~maxplus_tc.gen_tspec_extremal`: packet i in burst (i - 1) // k_max."""
    q, limit = _window_limit(tspec.tau, tspec.window_mode)  # gap g fits iff q * g <= limit
    return Trace(tuple((i - 1) // tspec.k_max * (limit // q + 1) for i in range(1, count + 1)))


def check_tspec_pairwise(trace: Trace, tspec: TSpecModel) -> ConformanceReport:
    """Reference for :func:`~maxplus_tc.check_tspec`: every packet pair
    m <= n that fits in one window must span at most k_max packets."""
    arrivals = trace.arrivals
    n_pk = len(arrivals)
    q, limit = _window_limit(tspec.tau, tspec.window_mode)
    k = tspec.k_max
    witness = None
    tight: list[tuple[int, int]] = []
    for n in range(1, n_pk + 1):
        end = arrivals[n - 1]
        for m in range(1, n + 1):
            if q * (end - arrivals[m - 1]) > limit:
                continue
            count = n - m + 1
            if witness is None and count > k:
                witness = Witness(m=m, n=n, required=Fraction(k), actual=Fraction(count))
            if count == k:
                tight.append((m, n))
    return _report(witness, tight, n_pk * (n_pk + 1) // 2)


def fit_tspec_pairwise(
    trace: Trace, tau: RationalLike, window_mode: WindowMode = WindowMode.CLOSED
) -> FitResult:
    """Reference for :func:`~maxplus_tc.fit_tspec`: k_max is the most packets
    a pair m <= n fitting in one window spans (at least 1), and the binding
    pair is the first such pair in (n, m) order; none binds an empty trace."""
    tau = TSpecModel(tau, 1, window_mode).tau  # refuses tau <= 0
    arrivals = trace.arrivals
    q, limit = _window_limit(tau, window_mode)
    best, best_pair = 0, None
    for n in range(1, len(arrivals) + 1):
        for m in range(1, n + 1):
            if q * (arrivals[n - 1] - arrivals[m - 1]) <= limit and n - m + 1 > best:
                best, best_pair = n - m + 1, (m, n)
    return FitResult(TSpecModel(tau, max(1, best), window_mode), best_pair)


# ---------------------------------------------------------------------------
# Bit domain (cumulative traffic)


def _windows(trace: Trace):
    """Every closed window [s, t] between breakpoints {0} + arrival ticks, as
    (s, t, bits arrived in it), in (t, s) order."""
    if trace.lengths is None and trace.arrivals:
        raise MissingLengthsError("bit-domain check needs per-packet lengths")
    points = sorted({0, *trace.arrivals})
    packets = list(zip(trace.arrivals, trace.lengths or ()))
    before = [sum(b for a, b in packets if a < x) for x in points]
    upto = [sum(b for a, b in packets if a <= x) for x in points]
    for j, t in enumerate(points):
        for i, s in enumerate(points[: j + 1]):
            yield s, t, upto[j] - before[i]


def check_sigma_rho_pairwise(trace: Trace, model: SigmaRhoModel) -> ConformanceReport:
    """Reference for :func:`~maxplus_tc.check_sigma_rho`: every closed
    window [s, t] between breakpoints carries at most ``rho*(t - s) + sigma``
    bits; witness and tight pairs name windows by their end ticks."""
    witness = None
    tight: list[tuple[int, int]] = []
    checked = 0
    for s, t, bits in _windows(trace):
        checked += 1
        budget = model.rho * (t - s) + model.sigma
        if witness is None and bits > budget:
            witness = Witness(m=s, n=t, required=budget, actual=Fraction(bits))
        if bits == budget:
            tight.append((s, t))
    return _report(witness, tight, checked)


def fit_sigma_rho_pairwise(trace: Trace, *, rho: RationalLike) -> FitResult:
    """Reference for :func:`~maxplus_tc.conformance.fit_sigma_rho`: sigma is
    the largest excess ``bits - rho*(t - s)`` of any window, scaled by the
    denominator of rho so that each window costs integer work only.  The
    one-point windows have no negative excess, so sigma >= 0.  The first
    window in (t, s) order with the largest excess binds; none binds an
    empty trace."""
    unbursty = SigmaRhoModel(0, rho)  # refuses rho <= 0
    if len(trace) == 0:
        return FitResult(unbursty, None)
    p, q = unbursty.rho.numerator, unbursty.rho.denominator
    excesses = ((q * bits - p * (t - s), (s, t)) for s, t, bits in _windows(trace))
    excess, window = max(excesses, key=itemgetter(0))
    return FitResult(SigmaRhoModel(Fraction(excess, q), unbursty.rho), window)


# ---------------------------------------------------------------------------
# Aggregation (eq. 1)


def merge_with_provenance_by_tuples(
    traces: Sequence[Trace],
) -> tuple[Trace, tuple[PacketOrigin, ...]]:
    """Reference for :func:`~maxplus_tc.merge_traces_with_provenance`, for
    inputs it accepts: every packet as a ``(tick, flow, index, length)``
    tuple, sorted as tuples.  Ties fall to the flow, then the index, by
    comparison rather than by the stability of a sort; (tick, flow, index)
    is unique, so the length never decides."""
    entries = sorted(
        (tick, flow, index, None if t.lengths is None else t.lengths[index - 1])
        for flow, t in enumerate(traces)
        for index, tick in enumerate(t.arrivals, 1)
    )
    with_lengths = all(t.lengths is not None for t in traces)
    merged = Trace(
        arrivals=tuple(e[0] for e in entries),
        lengths=tuple(e[3] for e in entries) if with_lengths else None,
    )
    return merged, tuple(PacketOrigin(flow=e[1], index=e[2]) for e in entries)


def aggregate_eq1(traces: Sequence[Trace], n: int) -> int:
    """Aggregate arrival time of packet n, by exhaustive composition.

    Over every split n = m_1 + ... + m_I of the packet count among the
    flows, the aggregate's n-th arrival is the smallest achievable value of
    ``max_i arrival_i(m_i)`` (taking +infinity when flow i has fewer than
    m_i packets).  Must equal ``merge_traces(traces).arrival(n)``.
    Exponential in the flow count.
    """
    if not traces:
        raise ValueError("need at least one trace")
    total = sum(len(t) for t in traces)
    if n < 0 or n > total:
        raise IndexError(f"index {n} out of range 0..{total}")
    if n == 0:
        return 0

    sizes = [len(t) for t in traces]
    best: float | int = math.inf
    # every split: free counts for all flows but the last, which takes the rest
    for head in product(*(range(min(n, size) + 1) for size in sizes[:-1])):
        last = n - sum(head)
        if 0 <= last <= sizes[-1]:
            best = min(best, max(t.arrival(m) for t, m in zip(traces, (*head, last))))
    assert best is not math.inf  # n <= total packets guarantees a finite split
    return int(best)
