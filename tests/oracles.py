"""Brute-force reference implementations used to cross-check the library.

Everything here quantifies literally over pairs with plain Fraction
arithmetic and no thresholds, windows, or vectorization, so a bug in the
production fast paths cannot hide in a shared helper.
"""

import math
from fractions import Fraction
from operator import itemgetter

from maxplus_tc import LambdaNuModel, SigmaRhoModel, Trace, TSpecModel, WindowMode


def lam_nu_violations(trace: Trace, model: LambdaNuModel):
    """All violating pairs (m, n), m < n, in (n, m) scan order."""
    out = []
    n_pk = trace.num_packets
    for n in range(2, n_pk + 1):
        for m in range(1, n):
            gap = Fraction(trace.arrival(n) - trace.arrival(m))
            need = Fraction(max(n - m - model.nu, 0)) / model.lam
            if gap < need:
                out.append((m, n))
    return out


def lam_nu_tight(trace: Trace, model: LambdaNuModel):
    out = []
    n_pk = trace.num_packets
    for n in range(2, n_pk + 1):
        for m in range(1, n):
            gap = Fraction(trace.arrival(n) - trace.arrival(m))
            need = Fraction(max(n - m - model.nu, 0)) / model.lam
            if gap == need:
                out.append((m, n))
    return sorted(out)


def lam_nu_conforms(trace: Trace, model: LambdaNuModel) -> bool:
    return not lam_nu_violations(trace, model)


def tspec_violations(trace: Trace, tspec: TSpecModel):
    out = []
    n_pk = trace.num_packets
    for n in range(1, n_pk + 1):
        for m in range(1, n + 1):
            gap = Fraction(trace.arrival(n) - trace.arrival(m))
            inside = gap <= tspec.tau if tspec.window_mode is WindowMode.CLOSED else gap < tspec.tau
            if inside and n - m + 1 > tspec.k_max:
                out.append((m, n))
    return out


def tspec_conforms(trace: Trace, tspec: TSpecModel) -> bool:
    return not tspec_violations(trace, tspec)


def _bits(trace: Trace, s, t) -> Fraction:
    return Fraction(sum(b for a, b in zip(trace.arrivals, trace.lengths or ()) if s <= a <= t))


def sigma_rho_report(trace: Trace, model: SigmaRhoModel):
    """Earliest violating window [m, n] over ticks {0} + arrivals, as
    (m, n, required, actual), smallest n then smallest m, or None; and every
    tight window (m, n) sorted by (m, n)."""
    points = sorted({0, *trace.arrivals})
    witness, tight = None, []
    for t in points:
        for s in points[: points.index(t) + 1]:
            bits, budget = _bits(trace, s, t), model.rho * (t - s) + model.sigma
            if witness is None and bits > budget:
                witness = (s, t, budget, bits)
            if bits == budget:
                tight.append((s, t))
    return witness, sorted(tight)


def sigma_for_rate(trace: Trace, rho: Fraction) -> Fraction:
    """Smallest burst that covers the trace at rate rho."""
    points = sorted({0, *trace.arrivals})
    # the window [0, 0] has no negative excess, so the maximum is at least 0
    return max(_bits(trace, s, t) - rho * (t - s) for s in points for t in points if s <= t)


def sigma_rho_conforms(trace: Trace, model: SigmaRhoModel) -> bool:
    points = sorted({0, *trace.arrivals})
    for s in points:
        for t in points:
            if t < s:
                continue
            bits = sum(
                b
                for a, b in zip(trace.arrivals, trace.lengths or ())
                if s <= a <= t
            )
            if Fraction(bits) > model.rho * (t - s) + model.sigma:
                return False
    return True


def fit_nu(trace: Trace, lam: Fraction) -> Fraction:
    best = Fraction(0)
    n_pk = trace.num_packets
    for n in range(2, n_pk + 1):
        for m in range(1, n):
            value = Fraction(n - m) - lam * (trace.arrival(n) - trace.arrival(m))
            if value > best:
                best = value
    return best


def _pairs(trace: Trace):
    """Every packet pair as (m, n, n - m, gap), in (n, m) scan order."""
    for n in range(2, trace.num_packets + 1):
        for m in range(1, n):
            yield m, n, n - m, trace.arrival(n) - trace.arrival(m)


def fit_nu_binding(trace: Trace, lam: Fraction):
    """First pair in (n, m) order attaining the largest (n - m) - lam*gap;
    None when that is negative (the floor nu = 0 binds) or there is no pair."""
    candidates = ((d - lam * g, (m, n)) for m, n, d, g in _pairs(trace))
    value, pair = max(candidates, key=itemgetter(0), default=(-1, None))
    return pair if value >= 0 else None


def fit_lam_binding(trace: Trace, nu: Fraction):
    """First pair in (n, m) order with n - m > nu attaining the largest
    (n - m - nu) / gap, or None.  Needs ``infeasible_pair`` to be None."""
    candidates = (((d - nu) / g, (m, n)) for m, n, d, g in _pairs(trace) if d > nu)
    return max(candidates, key=itemgetter(0), default=(None, None))[1]


def infeasible_pair(trace: Trace, nu: Fraction):
    """First pair in (n, m) order arriving together though more than nu apart, or None."""
    return next(((m, n) for m, n, d, g in _pairs(trace) if d > nu and g == 0), None)


def extremal_arrivals(model: LambdaNuModel, count: int):
    """Greedy earliest integer ticks: packet 1 at 0, each later packet at the
    first tick every earlier packet's spacing bound allows."""
    arrivals = []
    for n in range(count):
        spacings = (math.ceil(max(n - m - model.nu, 0) / model.lam) for m in range(n))
        arrivals.append(max((a + sp for a, sp in zip(arrivals, spacings)), default=0))
    return tuple(arrivals)


def fit_lam(trace: Trace, nu: Fraction):
    """Minimal conforming rate, or None when unconstrained; raises
    ZeroDivisionError on an infeasible (zero-gap) pair like the naive
    formula would."""
    best = None
    n_pk = trace.num_packets
    for n in range(2, n_pk + 1):
        for m in range(1, n):
            if Fraction(n - m) <= nu:
                continue
            value = (Fraction(n - m) - nu) / (trace.arrival(n) - trace.arrival(m))
            if best is None or value > best:
                best = value
    return best


def max_window(trace: Trace, tau: Fraction, mode: WindowMode) -> int:
    best = 0
    n_pk = trace.num_packets
    for m in range(1, n_pk + 1):
        count = 0
        for n in range(m, n_pk + 1):
            gap = Fraction(trace.arrival(n) - trace.arrival(m))
            inside = gap <= tau if mode is WindowMode.CLOSED else gap < tau
            if inside:
                count = n - m + 1
        best = max(best, count)
    return best


def minplus_value(trace: Trace, model: SigmaRhoModel, t: Fraction) -> Fraction:
    """Infimum of A(s) + rho*(t-s) + sigma over real s in [0, t], by interval
    decomposition: on each maximal interval where A is constant the value is
    minimized toward the right end."""

    def cum(x: Fraction) -> int:
        return sum(b for a, b in zip(trace.arrivals, trace.lengths or ()) if a <= x)

    critical = sorted({Fraction(0), t, *(Fraction(a) for a in trace.arrivals if a <= t)})
    best = cum(t) + model.sigma  # s = t endpoint
    for left, right in zip(critical, critical[1:]):
        value = cum(left) + model.rho * (t - right) + model.sigma
        if value < best:
            best = value
    # s = 0 endpoint (interval decomposition covers it only when 0 < t)
    value = cum(Fraction(0)) + model.rho * t + model.sigma
    if value < best:
        best = value
    return best
