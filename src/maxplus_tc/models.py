"""Traffic model types and their JSON wire format.

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
            raise ValueError(f"max packet count must be an integer >= 1, got {k_max!r}")
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


class MappingVariant(enum.Enum):
    """Flavor of the packet-envelope to TSpec mapping.

    Variant A keeps the full window (closed) and grants one extra packet;
    variant B shaves the window boundary (open) and saves that packet.
    """

    A = "a"
    B = "b"


Model = LambdaNuModel | TSpecModel | SigmaRhoModel | MaxPlusCurve


def model_to_json(model: Model) -> dict:
    """Encode any model as a tagged JSON object."""
    if isinstance(model, LambdaNuModel):
        return {
            "type": "lambda_nu",
            "lambda": rational_to_json(model.lam),
            "nu": rational_to_json(model.nu),
        }
    if isinstance(model, TSpecModel):
        return {
            "type": "tspec",
            "tau": rational_to_json(model.tau),
            "k_max": model.k_max,
            "window_mode": model.window_mode.value,
        }
    if isinstance(model, SigmaRhoModel):
        return {
            "type": "sigma_rho",
            "sigma": rational_to_json(model.sigma),
            "rho": rational_to_json(model.rho),
        }
    if isinstance(model, MaxPlusCurve):
        return {
            "type": "maxplus_curve",
            "values": [rational_to_json(v) for v in model.values],
        }
    raise TypeError(f"not a model: {model!r}")


def model_from_json(obj: object) -> Model:
    """Decode a tagged JSON object produced by :func:`model_to_json`; a key
    that the model's family does not read is refused by name."""
    if not isinstance(obj, dict):
        raise FormatError(f"model JSON must be an object, got {type(obj).__name__}")
    tag = obj.get("type")
    try:
        if tag == "lambda_nu":
            model = LambdaNuModel(
                lam=rational_from_json(obj["lambda"]),
                nu=rational_from_json(obj["nu"]),
            )
        elif tag == "tspec":
            k_max = obj["k_max"]
            if not isinstance(k_max, int) or isinstance(k_max, bool):
                raise FormatError(f"k_max must be an integer, got {k_max!r}")
            model = TSpecModel(
                tau=rational_from_json(obj["tau"]),
                k_max=k_max,
                window_mode=WindowMode(obj.get("window_mode", "closed")),
            )
        elif tag == "sigma_rho":
            model = SigmaRhoModel(
                sigma=rational_from_json(obj["sigma"]),
                rho=rational_from_json(obj["rho"]),
            )
        elif tag == "maxplus_curve":
            values = obj["values"]
            if not isinstance(values, list):
                raise FormatError("curve values must be a list")
            model = MaxPlusCurve(values=tuple(rational_from_json(v) for v in values))
        else:
            raise FormatError(f"unknown model type {tag!r}")
    except KeyError as exc:
        raise FormatError(f"model JSON missing key {exc}") from None
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    # `map` writes the horizon of a reduced curve beside its rate/burst model
    read = model_to_json(model).keys() | ({"horizon"} if tag == "lambda_nu" else set())
    unread = obj.keys() - read
    if unread:
        raise FormatError(f"model JSON key {min(unread)!r} is not read by a {tag} model")
    return model
