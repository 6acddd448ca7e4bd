"""First-principles expected outputs for the benchmark's output checks.

Nothing here imports the library: every expected report, fit and generated
trace is derived in this file from the definitions in the README, in time
linear in the trace plus the number of reported pairs, so that checking a
command's output costs far less than the command itself.

Reports are described by :class:`Report`; tight pairs are kept as a count
plus a generator in (m, n) order, so that a report listing only a prefix of
its tight pairs (with a count and a ``truncated`` flag) is checked as
strictly as a full listing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

LCG_A = 6364136223846793005
LCG_C = 1442695040888963407
MASK64 = (1 << 64) - 1


class Lcg:
    """The documented 64-bit LCG: each draw advances the state once and
    yields its high 32 bits."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def u32(self) -> int:
        self.state = (LCG_A * self.state + LCG_C) & MASK64
        return self.state >> 32

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.u32() % (hi - lo + 1)


def rational(x) -> dict:
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def rational_from(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


@dataclass
class Report:
    """Expected conformance report."""

    conforms: bool
    witness: dict | None
    tight_count: int
    tight: Callable[[], Iterator[tuple[int, int]]]
    checked_pairs: int


def _group(keys: list[int]) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _pairs_with_difference(
    left: list[int], right: list[int], diff: int, strict: bool
) -> tuple[int, Callable[[], Iterator[tuple[int, int]]]]:
    """Pairs i <= j (i < j when strict) with right[j] - left[i] == diff,
    as a count and a generator in (i, j) order (0-based)."""
    groups = _group(right)
    find = bisect_right if strict else bisect_left
    count = 0
    for i, key in enumerate(left):
        js = groups.get(key + diff)
        if js:
            count += len(js) - find(js, i)

    def pairs():
        for i, key in enumerate(left):
            js = groups.get(key + diff)
            if js:
                for j in js[find(js, i):]:
                    yield i, j

    return count, pairs


# ---------------------------------------------------------------------------
# rate/burst packet envelope


def check_lambda_nu(ticks: list[int], lam: Fraction, nu: Fraction) -> Report:
    """Pair (m, n), d = n - m, needs gap >= (d - nu)+ / lam.

    With lam = p/q, nu = r/s and Y_k = s(p a_k - q k): for d > nu the bound
    is violated iff Y_m - Y_n > q r and tight iff equal; for d <= nu the
    bound is 0, so the pair is tight iff the packets are simultaneous.
    """
    p, q = lam.numerator, lam.denominator
    r, s = nu.numerator, nu.denominator
    n_pk = len(ticks)
    ys = [s * (p * a - q * k) for k, a in enumerate(ticks, start=1)]
    limit = q * r
    min_d = r // s + 1  # smallest count gap d with d > nu
    witness = None
    best = None  # running max of Y over m <= n - min_d
    for n in range(1 + min_d, n_pk + 1):
        y_m = ys[n - min_d - 1]
        best = y_m if best is None or y_m > best else best
        if best - ys[n - 1] > limit:
            m = next(k for k in range(1, n - min_d + 1) if ys[k - 1] - ys[n - 1] > limit)
            d = n - m
            witness = {
                "m": m,
                "n": n,
                "required": rational((d - nu) / lam),
                "actual": rational(ticks[n - 1] - ticks[m - 1]),
            }
            break
    # tight with d >= nu: Y_n - Y_m == -q r (never holds for d < nu)
    count, by_y = _pairs_with_difference(ys, ys, -limit, strict=True)
    # tight with d < nu: simultaneous packets fewer than nu apart
    runs = []
    for i in range(n_pk):
        start = runs[-1] if runs and ticks[runs[-1]] == ticks[i] else i
        runs.append(start)
    close = [
        (m, n)
        for n in range(n_pk)
        for m in range(max(runs[n], n - min_d + 1), n)
        if (n - m) * s < r
    ]
    count += len(close)

    def tight():
        merged = sorted(set(by_y()) | set(close)) if close else by_y()
        for m, n in merged:
            yield m + 1, n + 1

    return Report(witness is None, witness, count, tight, n_pk * (n_pk - 1) // 2)


def fit_lambda_nu_rate(ticks: list[int], lam: Fraction) -> dict:
    """Least burst for a fixed rate: nu = max over m < n of (y_m - y_n)/q
    with y_k = p a_k - q k, binding on the first n, then the first m."""
    p, q = lam.numerator, lam.denominator
    best_x = binding = None
    top = top_at = None
    for n, a in enumerate(ticks, start=1):
        y = p * a - q * n
        if top is not None and (best_x is None or top - y > best_x):
            best_x, binding = top - y, [top_at, n]
        if top is None or y > top:
            top, top_at = y, n
    if best_x is None or best_x < 0:
        return fit_json(lambda_nu_json(lam, Fraction(0)), None)
    return fit_json(lambda_nu_json(lam, Fraction(best_x, q)), binding)


def fit_lambda_nu_zero_burst(ticks: list[int]) -> dict:
    """Least rate with no burst allowance on strictly increasing ticks.

    The rate must cover (n - m)/(a_n - a_m) for every pair; the largest such
    slope sits on a consecutive pair, so the fit is 1/g for the smallest
    gap g, binding on the first consecutive pair with that gap.
    """
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    if not gaps or min(gaps) <= 0:
        raise ValueError("needs at least two packets at distinct ticks")
    g = min(gaps)
    n = gaps.index(g) + 2
    return fit_json(lambda_nu_json(Fraction(1, g), Fraction(0)), [n - 1, n])


def lambda_nu_json(lam: Fraction, nu: Fraction) -> dict:
    return {"type": "lambda_nu", "lambda": rational(lam), "nu": rational(nu)}


def fit_json(model: dict, binding: list[int] | None) -> dict:
    return {"model": model, "binding_pair": binding}


# ---------------------------------------------------------------------------
# TSpec window budget


def max_gap_in_window(tau: Fraction, closed: bool) -> int:
    """Largest integer tick gap inside one window: gap <= tau when closed,
    gap < tau when open."""
    if closed or tau.denominator != 1:
        return tau.numerator // tau.denominator
    return int(tau) - 1


def _window_starts(ticks: list[int], max_gap: int) -> list[int]:
    """For each packet n (1-based position n-1), the first packet m with
    a_n - a_m <= max_gap."""
    return [bisect_left(ticks, a - max_gap) + 1 for a in ticks]


def check_tspec(ticks: list[int], tau: Fraction, k_max: int, closed: bool = True) -> Report:
    """At most k_max packets in any window; pairs (m, n) in one window hold
    n - m + 1 packets."""
    gap = max_gap_in_window(tau, closed)
    starts = _window_starts(ticks, gap)
    witness = None
    for n, m in enumerate(starts, start=1):
        if n - m + 1 > k_max:
            witness = {
                "m": m,
                "n": n,
                "required": rational(k_max),
                "actual": rational(n - m + 1),
            }
            break
    tight_pairs = [
        (n - k_max + 1, n)
        for n in range(k_max, len(ticks) + 1)
        if ticks[n - 1] - ticks[n - k_max] <= gap
    ]
    n_pk = len(ticks)
    return Report(
        witness is None, witness, len(tight_pairs), lambda: iter(tight_pairs),
        n_pk * (n_pk + 1) // 2,
    )


def fit_tspec(ticks: list[int], tau: Fraction, closed: bool = True) -> dict:
    """Least k_max: the busiest window's count, binding on the first
    window that reaches it."""
    starts = _window_starts(ticks, max_gap_in_window(tau, closed))
    best, binding = 0, None
    for n, m in enumerate(starts, start=1):
        if n - m + 1 > best:
            best, binding = n - m + 1, [m, n]
    model = {
        "type": "tspec",
        "tau": rational(tau),
        "k_max": max(1, best),
        "window_mode": "closed" if closed else "open",
    }
    return fit_json(model, binding)


# ---------------------------------------------------------------------------
# bit-domain rate/burst envelope


def _breakpoints(ticks: list[int], lengths: list[int]):
    """Distinct points {0} + ticks; per point the bits arriving there and
    the cumulative bits before it and up to it."""
    points, at = [0], [0]
    for tick, bits in zip(ticks, lengths):
        if tick == points[-1]:
            at[-1] += bits
        else:
            points.append(tick)
            at.append(bits)
    before, upto, total = [], [], 0
    for bits in at:
        before.append(total)
        total += bits
        upto.append(total)
    return points, before, upto


def check_sigma_rho(
    ticks: list[int], lengths: list[int], sigma: Fraction, rho: Fraction
) -> Report:
    """Closed window [P_i, P_j], i <= j, carries upto_j - before_i bits and
    allows rho (P_j - P_i) + sigma.  Scaled to integers with
    U_j = S upto_j - R P_j and V_i = S before_i - R P_i, the window breaks
    the bound iff U_j - V_i > B and is tight iff equal."""
    points, before, upto = _breakpoints(ticks, lengths)
    scale = rho.denominator * sigma.denominator
    rate = rho.numerator * sigma.denominator
    burst = sigma.numerator * rho.denominator
    us = [scale * c - rate * t for c, t in zip(upto, points)]
    vs = [scale * c - rate * t for c, t in zip(before, points)]
    witness = None
    low = None
    for j, u in enumerate(us):
        low = vs[j] if low is None or vs[j] < low else low
        if u - low > burst:
            i = next(i for i in range(j + 1) if u - vs[i] > burst)
            witness = {
                "m": points[i],
                "n": points[j],
                "required": rational(rho * (points[j] - points[i]) + sigma),
                "actual": rational(upto[j] - before[i]),
            }
            break
    count, by_index = _pairs_with_difference(vs, us, burst, strict=False)

    def tight():
        for i, j in by_index():
            yield points[i], points[j]

    b = len(points)
    return Report(witness is None, witness, count, tight, b * (b + 1) // 2)


def least_sigma(ticks: list[int], lengths: list[int], rho: int) -> int:
    """Smallest burst sigma for which the trace meets an integer rate rho."""
    points, before, upto = _breakpoints(ticks, lengths)
    best = low = None
    for c_up, c_before, t in zip(upto, before, points):
        v = c_before - rho * t
        low = v if low is None or v < low else low
        excess = c_up - rho * t - low
        best = excess if best is None or excess > best else best
    return max(0, best)


# ---------------------------------------------------------------------------
# generators and merge


def jittered_ticks(period: int, jitter: int, seed: int, count: int) -> list[int]:
    """Packet n at (n-1)*period plus one LCG draw mod (jitter+1), sorted."""
    rng = Lcg(seed)
    return sorted((n - 1) * period + rng.u32() % (jitter + 1) for n in range(1, count + 1))


def extremal_ticks(period: int, burst: int, count: int) -> list[int]:
    """Earliest trace for rate 1/period and integer burst b: packet n (0-based)
    arrives at the largest a_m + period (n - m - b)+ over m < n.  Pairs with
    n - m <= b only ask for a_{n-1}; the rest for a running maximum of
    a_m - period m."""
    ticks = [0] * min(count, 1)
    top = None
    for n in range(1, count):
        m = n - burst - 1
        if m >= 0:
            top = ticks[m] - period * m if top is None else max(top, ticks[m] - period * m)
        far = top + period * (n - burst) if top is not None else 0
        ticks.append(max(ticks[n - 1], far))
    return ticks


def merged(flows: list[tuple[list[int], list[int]]]):
    """Merge by (tick, flow, index): aggregate ticks, lengths, provenance."""
    entries = sorted(
        (tick, flow, index, bits)
        for flow, (ticks, lengths) in enumerate(flows)
        for index, (tick, bits) in enumerate(zip(ticks, lengths), start=1)
    )
    return (
        [e[0] for e in entries],
        [e[3] for e in entries],
        [{"flow": e[1], "index": e[2]} for e in entries],
    )
