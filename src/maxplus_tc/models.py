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
from dataclasses import dataclass
from fractions import Fraction

from .errors import FormatError, InconsistentInputError
from .rational import rational_from_json, rational_to_json


class WindowMode(enum.Enum):
    """Whether a TSpec window includes its right boundary."""

    CLOSED = "closed"
    OPEN = "open"


@dataclass(frozen=True)
class LambdaNuModel:
    """Packet-rate envelope: rate ``lam`` (packets/tick, > 0) and burst
    allowance ``nu`` (packets, >= 0)."""

    lam: Fraction
    nu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "nu", Fraction(self.nu))
        if self.lam <= 0:
            raise ValueError(f"rate must be positive, got {self.lam}")
        if self.nu < 0:
            raise ValueError(f"burst allowance must be nonnegative, got {self.nu}")

    def min_spacing(self, gap: int) -> Fraction:
        """Required inter-arrival time for packets ``gap`` indices apart."""
        excess = gap - self.nu
        return excess / self.lam if excess > 0 else Fraction(0)


@dataclass(frozen=True)
class TSpecModel:
    """TSN/DetNet traffic specification (tau > 0 ticks, k_max >= 1 packets)."""

    tau: Fraction
    k_max: int
    window_mode: WindowMode = WindowMode.CLOSED

    def __post_init__(self):
        object.__setattr__(self, "tau", Fraction(self.tau))
        if self.tau <= 0:
            raise ValueError(f"interval must be positive, got {self.tau}")
        if not isinstance(self.k_max, int) or isinstance(self.k_max, bool) or self.k_max < 1:
            raise ValueError(f"max packet count must be an integer >= 1, got {self.k_max!r}")
        if not isinstance(self.window_mode, WindowMode):
            raise ValueError(f"window_mode must be a WindowMode, got {self.window_mode!r}")

    def max_gap_in_window(self) -> int:
        """Largest integer tick gap that still fits inside one window."""
        if self.window_mode is WindowMode.CLOSED:
            return int(self.tau)  # floor: gap <= tau
        # open: gap < tau; for integer gaps that is gap <= ceil(tau) - 1
        if self.tau.denominator == 1:
            return int(self.tau) - 1
        return int(self.tau)


@dataclass(frozen=True)
class SigmaRhoModel:
    """Bit-domain envelope: burst ``sigma`` (bits, >= 0) and sustained rate
    ``rho`` (bits/tick, > 0)."""

    sigma: Fraction
    rho: Fraction

    def __post_init__(self):
        object.__setattr__(self, "sigma", Fraction(self.sigma))
        object.__setattr__(self, "rho", Fraction(self.rho))
        if self.sigma < 0:
            raise ValueError(f"burst must be nonnegative, got {self.sigma}")
        if self.rho <= 0:
            raise ValueError(f"rate must be positive, got {self.rho}")


@dataclass(frozen=True)
class MaxPlusCurve:
    """Lower-bound curve on inter-arrival times over packet-count gaps.

    ``values[d]`` is the minimum time between packets d indices apart,
    for d = 0..horizon.  Must start at 0 and be nondecreasing.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) < 2:
            raise ValueError("curve needs a horizon of at least 1 (two values)")
        if values[0] != 0:
            raise ValueError(f"curve must start at 0, got {values[0]}")
        for d in range(1, len(values)):
            if values[d] < values[d - 1]:
                raise ValueError(
                    f"curve must be nondecreasing: value {values[d]} at {d} "
                    f"after {values[d - 1]}"
                )

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


@dataclass(frozen=True)
class IndirectInputs:
    """Inputs for the length-based (bit-domain detour) superposition.

    ``max_lengths[i]`` is the maximum packet length of flow i in bits;
    ``min_length`` is the minimum packet length over all flows.
    """

    models: tuple[LambdaNuModel, ...]
    max_lengths: tuple[Fraction, ...]
    min_length: Fraction

    def __post_init__(self):
        models = tuple(self.models)
        max_lengths = tuple(Fraction(l) for l in self.max_lengths)
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "max_lengths", max_lengths)
        object.__setattr__(self, "min_length", Fraction(self.min_length))
        if len(models) < 2:
            raise InconsistentInputError("need at least two flows to superpose")
        if len(max_lengths) != len(models):
            raise InconsistentInputError(
                f"{len(max_lengths)} max lengths for {len(models)} flows"
            )
        if self.min_length <= 0:
            raise InconsistentInputError("minimum packet length must be positive")
        for i, l in enumerate(max_lengths):
            if l <= 0:
                raise InconsistentInputError(f"max length of flow {i} must be positive")
            if self.min_length > l:
                raise InconsistentInputError(
                    f"minimum length {self.min_length} exceeds max length {l} of flow {i}"
                )


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
    """Decode a tagged JSON object produced by :func:`model_to_json`."""
    if not isinstance(obj, dict):
        raise FormatError(f"model JSON must be an object, got {type(obj).__name__}")
    tag = obj.get("type")
    try:
        if tag == "lambda_nu":
            return LambdaNuModel(
                lam=rational_from_json(obj["lambda"]),
                nu=rational_from_json(obj["nu"]),
            )
        if tag == "tspec":
            k_max = obj["k_max"]
            if not isinstance(k_max, int) or isinstance(k_max, bool):
                raise FormatError(f"k_max must be an integer, got {k_max!r}")
            return TSpecModel(
                tau=rational_from_json(obj["tau"]),
                k_max=k_max,
                window_mode=WindowMode(obj.get("window_mode", "closed")),
            )
        if tag == "sigma_rho":
            return SigmaRhoModel(
                sigma=rational_from_json(obj["sigma"]),
                rho=rational_from_json(obj["rho"]),
            )
        if tag == "maxplus_curve":
            values = obj["values"]
            if not isinstance(values, list):
                raise FormatError("curve values must be a list")
            return MaxPlusCurve(values=tuple(rational_from_json(v) for v in values))
    except KeyError as exc:
        raise FormatError(f"model JSON missing key {exc}") from None
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    raise FormatError(f"unknown model type {tag!r}")


def variant_to_json(variant: MappingVariant, j: int) -> dict:
    return {"variant": variant.value, "j": j}


def variant_from_json(obj: object) -> tuple[MappingVariant, int]:
    if not isinstance(obj, dict):
        raise FormatError("mapping variant must be a JSON object")
    try:
        variant = MappingVariant(obj["variant"])
        j = obj["j"]
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad mapping variant: {exc}") from None
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise FormatError(f"j must be an integer >= 1, got {j!r}")
    return variant, j
