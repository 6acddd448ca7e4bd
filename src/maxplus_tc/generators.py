"""Trace generators: conforming traffic, boundary-tight traffic, and
seeded randomized traffic for property suites.

Randomness comes from a tiny 64-bit linear congruential generator rather
than the standard library, so that a given seed produces the same trace in
any implementation of the same recurrence (the multiplier/increment pair
and the high-32-bit extraction are fixed constants of the format).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice, repeat
from operator import add

from .models import LambdaNuModel, TSpecModel
from .trace import Trace

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg64:
    """Deterministic 64-bit LCG; each draw advances the state once and
    yields the high 32 bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u32(self) -> int:
        self.state = (_LCG_A * self.state + _LCG_C) & _MASK64
        return self.state >> 32

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo reduction; bias is
        irrelevant at the ranges used here and keeps draws portable)."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        self.state = state = (_LCG_A * self.state + _LCG_C) & _MASK64  # next_u32, inline
        return lo + (state >> 32) % (hi - lo + 1)

    def randints(self, lo: int, hi: int, k: int) -> list[int]:
        """The draws of ``k`` calls of :meth:`randint`, from one frame."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        state, span = self.state, hi - lo + 1
        out = [lo + ((state := (_LCG_A * state + _LCG_C) & _MASK64) >> 32) % span for _ in range(k)]
        self.state = state
        return out

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


def gen_periodic(period: int, phase: int, count: int) -> Trace:
    """Strictly periodic trace: packet n arrives at phase + (n-1)*period.

    Conforms to rate 1/period with zero burst allowance, and with phase 0
    the zero-burst fit recovers that rate exactly.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if phase < 0:
        raise ValueError(f"phase must be >= 0, got {phase}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return Trace._of(tuple(range(phase, phase + count * period, period)), None)


def gen_extremal_lambda_nu(model: LambdaNuModel, count: int) -> Trace:
    """Earliest integer-tick trace conforming to a rate/burst envelope.

    Greedy construction: packet 1 arrives at tick 0 and each later packet
    arrives at the first tick every earlier packet's spacing bound allows,
    i.e. ``arrival(n) = max over m < n of arrival(m) + ceil(min_spacing(n - m))``.
    In the model's ``integer_bound()`` form a term more than nu packets back
    is ``ceil((s*q*n - r*q - key(m)) / (s*p))``, ``key(m) = s*q*m - s*p*arrival(m)``,
    so a running minimum of the keys gives the maximum.  When the exact
    bounds land on the tick grid this collapses to
    ``arrival(n) = min_spacing(n - 1)`` anchored at the first packet.  The
    trace opens with a burst of floor(nu) + 1 simultaneous packets, and for
    integer nu the fitted burst allowance at the model's rate is exactly nu.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    sq, sp, rq, lag = model.integer_bound()  # closer than lag, only the order binds
    arrivals = [0] * count
    keys = [0] * count
    low = 0  # key of packet 1, the first to constrain a later one
    for n in range(1, count):
        arrival = arrivals[n - 1]
        if n >= lag:
            low = min(low, keys[n - lag])
            arrival = max(arrival, -((rq + low - sq * n) // sp))  # the ceiling
        arrivals[n] = arrival
        keys[n] = sq * n - sp * arrival
    return Trace._of(tuple(arrivals), None)


def gen_tspec_extremal(tspec: TSpecModel, count: int) -> Trace:
    """Trace that saturates a TSpec: bursts of k_max simultaneous packets.

    Bursts are one tick further apart than the largest gap a window holds
    (:meth:`~maxplus_tc.TSpecModel.max_gap_in_window`), the least integer
    spacing at which no window catches two of them: tau + 1 ticks for an
    integer tau in closed mode, tau in open mode, and floor(tau) + 1 in
    either mode for any other tau.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    spacing = tspec.max_gap_in_window() + 1
    bursts = map(repeat, range(0, count * spacing, spacing), repeat(min(tspec.k_max, count)))
    return Trace._of(tuple(islice(chain.from_iterable(bursts), count)), None)


def gen_jittered(period: int, jitter: int, seed: int, count: int) -> tuple[Trace, LambdaNuModel]:
    """Periodic trace with bounded per-packet jitter, plus its fitted envelope.

    Packet n arrives at (n-1)*period plus a seeded draw from [0, jitter]
    (one LCG draw per packet); with jitter below the period the ticks
    increase strictly, unsorted.  The envelope is the least burst allowance
    at rate 1/period (:func:`~maxplus_tc.fit_lambda_nu`), so the trace
    conforms to it by that fit's definition, unchecked here.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if not 0 <= jitter <= period - 1:
        raise ValueError(f"jitter must be in [0, period-1], got {jitter}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    from .conformance import fit_lambda_nu
    offsets = Lcg64(seed).randints(0, jitter, count)
    trace = Trace._of(tuple(map(add, range(0, count * period, period), offsets)), None)
    return trace, fit_lambda_nu(trace, lam=Fraction(1, period)).model
