"""Traffic model types and their JSON wire format, the table ``_WIRE``.

Three envelope families describe an arrival process:

* ``LambdaNuModel`` - packet-domain rate/burst constraint on arrival times:
  every pair of packets m <= n must satisfy
  ``interarrival(m, n) >= (n - m - nu)+ / lam``.
* ``TSpecModel`` - TSN/DetNet traffic specification: at most ``k_max``
  packets in any interval of length ``tau``.  ``WindowMode.CLOSED`` counts
  packets exactly ``tau`` apart as sharing a window; ``WindowMode.OPEN``
  does not, which realizes an interval "just shorter than tau".
* ``SigmaRhoModel`` - bit-domain rate/burst constraint on cumulative
  traffic: any window of width w carries at most ``rho * w + sigma`` bits.

``MaxPlusCurve`` generalizes the packet-domain constraint to an arbitrary
nondecreasing lower-bound function on inter-arrival times, given on a
finite horizon.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from fractions import Fraction
from operator import attrgetter

from ._record import Record
from .errors import FormatError
from .rational import RationalLike, as_fraction, rational_from_json, rational_to_json


class WindowMode(enum.Enum):
    """Whether a TSpec window includes its right boundary."""

    CLOSED = "closed"
    OPEN = "open"


class LambdaNuModel(Record):
    """Packet-rate envelope: rate ``lam`` (packets/tick, > 0) and burst
    allowance ``nu`` (packets, >= 0)."""

    __slots__ = ("lam", "nu")

    def __init__(self, lam: RationalLike, nu: RationalLike):
        lam, nu = as_fraction(lam, "rate"), as_fraction(nu, "burst allowance")
        if lam.numerator <= 0:
            raise ValueError(f"rate must be positive, got {lam}")
        if nu.numerator < 0:
            raise ValueError(f"burst allowance must be nonnegative, got {nu}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "nu", nu)

    def integer_bound(self) -> tuple[int, int, int, int]:
        """The bound in integers ``(s*q, s*p, r*q, lag)`` for lam = p/q and
        nu = r/s: packets d apart need ``s*p*gap >= s*q*d - r*q``, which binds
        only from ``lag = floor(nu) + 1``, the least d with d > nu."""
        p, q = self.lam.numerator, self.lam.denominator
        r, s = self.nu.numerator, self.nu.denominator
        return s * q, s * p, r * q, r // s + 1

    def min_spacing(self, gap: int) -> Fraction:
        """Required inter-arrival time for packets ``gap`` indices apart."""
        sq, sp, rq, _ = self.integer_bound()
        return Fraction(max(sq * gap - rq, 0), sp)


class TSpecModel(Record):
    """TSN/DetNet traffic specification (tau > 0 ticks, k_max >= 1 packets)."""

    __slots__ = ("tau", "k_max", "window_mode")

    def __init__(self, tau: RationalLike, k_max: int,
                 window_mode: WindowMode = WindowMode.CLOSED):
        tau = as_fraction(tau, "interval")
        if tau.numerator <= 0:
            raise ValueError(f"interval must be positive, got {tau}")
        if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 1:
            raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")
        if not isinstance(window_mode, WindowMode):
            raise ValueError(f"window_mode must be a WindowMode, got {window_mode!r}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "window_mode", window_mode)

    def max_gap_in_window(self) -> int:
        """Largest integer tick gap that still fits inside one window:
        gap <= tau when closed, gap < tau (so gap <= ceil(tau) - 1) when open."""
        if self.window_mode is WindowMode.CLOSED:
            return math.floor(self.tau)
        return math.ceil(self.tau) - 1


class SigmaRhoModel(Record):
    """Bit-domain envelope: burst ``sigma`` (bits, >= 0) and sustained rate
    ``rho`` (bits/tick, > 0)."""

    __slots__ = ("sigma", "rho")

    def __init__(self, sigma: RationalLike, rho: RationalLike):
        sigma, rho = as_fraction(sigma, "burst"), as_fraction(rho, "rate")
        if sigma.numerator < 0:
            raise ValueError(f"burst must be nonnegative, got {sigma}")
        if rho.numerator <= 0:
            raise ValueError(f"rate must be positive, got {rho}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rho", rho)


class MaxPlusCurve(Record):
    """Lower-bound curve on inter-arrival times over packet-count gaps.

    ``values[d]`` is the minimum time between packets d indices apart,
    for d = 0..horizon.  Must start at 0 and be nondecreasing.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[RationalLike]):
        values = tuple([as_fraction(v, "curve value") for v in values])
        if len(values) < 2:
            raise ValueError("curve needs a horizon of at least 1 (two values)")
        if values[0].numerator != 0:
            raise ValueError(f"curve must start at 0, got {values[0]}")
        for d, (before, value) in enumerate(zip(values, values[1:]), 1):
            if value.numerator * before.denominator < before.numerator * value.denominator:
                raise ValueError(
                    f"curve must be nondecreasing: value {value} at {d} after {before}"
                )
        object.__setattr__(self, "values", values)

    @property
    def horizon(self) -> int:
        return len(self.values) - 1


Model = LambdaNuModel | TSpecModel | SigmaRhoModel | MaxPlusCurve


def _as_is(value):
    return value


def _values_from_json(values: object) -> tuple[Fraction, ...]:
    if not isinstance(values, list):
        raise FormatError("curve values must be a list")
    return tuple([rational_from_json(v) for v in values])


_RATIONAL = (rational_to_json, rational_from_json)

# The wire format that model_to_json and model_from_json read: each tag's family,
# then its keys in written order as (key, field it fills, to JSON, from JSON[,
# value read when the key is left out]).  The constructors check the values.
_WIRE = {
    "lambda_nu": (LambdaNuModel, ("lambda", "lam", *_RATIONAL), ("nu", "nu", *_RATIONAL)),
    "tspec": (TSpecModel, ("tau", "tau", *_RATIONAL), ("k_max", "k_max", _as_is, _as_is),
              ("window_mode", "window_mode", attrgetter("value"), WindowMode, "closed")),
    "sigma_rho": (SigmaRhoModel, ("sigma", "sigma", *_RATIONAL), ("rho", "rho", *_RATIONAL)),
    "maxplus_curve": (MaxPlusCurve, ("values", "values",
                                     lambda values: [rational_to_json(v) for v in values],
                                     _values_from_json)),
}
_TAGS = {family: tag for tag, (family, *_) in _WIRE.items()}


def model_to_json(model: Model) -> dict:
    """Encode any model as a tagged JSON object, with the keys ``_WIRE`` lists."""
    tag = _TAGS.get(type(model))
    if tag is None:
        raise TypeError(f"not a model: {model!r}")
    _, *keys = _WIRE[tag]
    return {"type": tag, **{key: dump(getattr(model, field)) for key, field, dump, *_ in keys}}


def model_from_json(obj: object) -> Model:
    """Decode a tagged JSON object produced by :func:`model_to_json`, by the
    keys ``_WIRE`` lists; a key that the model's family does not read is
    refused by name."""
    if not isinstance(obj, dict):
        raise FormatError(f"model JSON must be an object, got {type(obj).__name__}")
    tag = obj.get("type")
    if not isinstance(tag, str) or tag not in _WIRE:
        raise FormatError(f"unknown model type {tag!r}")
    family, *keys = _WIRE[tag]
    try:
        model = family(**{field: load(obj[key] if key in obj or not left_out else left_out[0])
                          for key, field, _, load, *left_out in keys})
    except KeyError as exc:
        raise FormatError(f"model JSON missing key {exc}") from None
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    read = {"type", *[key for key, *_ in keys]}
    if family is LambdaNuModel:  # `map` writes a reduced curve's horizon beside its model
        read.add("horizon")
        horizon = obj.get("horizon", 1)
        if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
            raise FormatError(f"horizon must be an integer >= 1, got {horizon!r}")
    unread = obj.keys() - read
    if unread:
        raise FormatError(f"model JSON key {min(unread)!r} is not read by a {tag} model")
    return model
