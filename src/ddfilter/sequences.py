"""Pulse-sequence construction, validation, quantization, and gap statistics.

A sequence is n fractional pulse-center positions delta_j strictly inside
(0, 1), expressed as fractions of the total sequence duration, plus a
pulse-width ratio r = tau_pi / tau_total (0 means instantaneous pulses).
n = 0 is free-induction decay (FID).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollisionAfterRounding,
    GapViolation,
    NonMonotonic,
    OutOfRange,
    _integer,
)


@dataclass(frozen=True)
class PulseSequence:
    """Immutable pulse sequence: positions are fractions of total duration."""

    deltas: tuple
    width_ratio: float = 0.0
    label: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        object.__setattr__(self, "width_ratio", float(self.width_ratio))
        _validate(self.deltas, self.width_ratio)

    @property
    def n(self):
        return len(self.deltas)

    def to_dict(self):
        return {
            "family": self.label,
            "n": self.n,
            "deltas": list(self.deltas),
            "width_ratio": self.width_ratio,
        }

    @staticmethod
    def from_dict(d):
        return PulseSequence(
            deltas=tuple(d["deltas"]),
            width_ratio=d.get("width_ratio", 0.0),
            label=d.get("family", "custom"),
        )


def _validate(deltas, width_ratio):
    if not width_ratio >= 0:
        raise OutOfRange(f"width_ratio must be >= 0, got {width_ratio}")
    arr = np.asarray(deltas, dtype=float)
    if arr.size == 0:
        return  # FID
    if not (arr[1:] > arr[:-1]).all():
        raise NonMonotonic(f"deltas must be strictly increasing, got {arr.tolist()}")
    if not (arr[0] > 0.0 and arr[-1] < 1.0):
        raise OutOfRange(f"deltas must lie strictly inside (0, 1), got {arr.tolist()}")
    if width_ratio > 0:
        r = width_ratio
        gaps = np.concatenate([[arr[0] - r / 2], np.diff(arr) - r, [1.0 - arr[-1] - r / 2]])
        if np.any(gaps <= 0):
            j = int(np.argmin(gaps))
            raise GapViolation(
                f"free gap {gaps[j]:.3e} at segment {j} is not positive for width_ratio={r}"
            )


def canonical_deltas(family, n):
    """Fractional pulse positions for a canonical family at pulse count n."""
    family = family.lower()
    n = _integer(n, f"{family} pulse count n", 1)
    j = np.arange(1, n + 1, dtype=float)
    if family == "cpmg":
        return (j - 0.5) / n
    if family == "pdd":
        return j / (n + 1)
    if family == "udd":
        return np.sin(np.pi * j / (2 * n + 2)) ** 2
    raise ValueError(f"unknown canonical family: {family!r}")


def make_canonical(family, n=None):
    """Build a canonical sequence: fid (n=0), cpmg, pdd, or udd."""
    family = family.lower()
    if family == "fid":
        if n not in (None, 0):
            raise ValueError("FID has no pulses; n must be 0")
        return PulseSequence(deltas=(), label="fid")
    if family not in ("cpmg", "pdd", "udd"):
        raise ValueError(f"unknown family: {family!r}")
    return PulseSequence(deltas=tuple(canonical_deltas(family, n)), label=family)


def make_custom(deltas, width_ratio=0.0, label="custom"):
    """Build and validate a custom sequence from explicit positions."""
    return PulseSequence(deltas=tuple(deltas), width_ratio=width_ratio, label=label)


def quantize_timing(seq, precision):
    """Round each pulse position to the nearest multiple of `precision`.

    Rounding is half-away-from-zero so the operation is deterministic.
    Raises CollisionAfterRounding when two pulses land on the same grid
    point; the result is re-validated (positions can leave (0,1)).
    """
    p = float(precision)
    if not 0 < p < 1:
        raise ValueError(f"precision must be in (0, 1), got {precision}")
    if seq.n == 0:
        return seq
    arr = np.asarray(seq.deltas, dtype=float)
    rounded = np.floor(arr / p + 0.5) * p  # half away from zero for positives
    if np.any(np.diff(rounded) == 0):
        raise CollisionAfterRounding(
            f"pulses collide on the p={p} grid: {list(rounded)}"
        )
    return PulseSequence(deltas=tuple(rounded), width_ratio=seq.width_ratio, label=seq.label)


def min_gap(seq):
    """Minimum center-to-center gap, end segments included; FID returns 1."""
    if seq.n == 0:
        return 1.0
    arr = np.asarray(seq.deltas, dtype=float)
    gaps = np.concatenate([[arr[0]], np.diff(arr), [1.0 - arr[-1]]])
    return float(gaps.min())


def reflect(seq):
    """Time-reversed sequence: delta_j -> 1 - delta_{n+1-j}."""
    return PulseSequence(
        deltas=tuple(sorted(1.0 - d for d in seq.deltas)),
        width_ratio=seq.width_ratio,
        label=seq.label,
    )


_MAX_ORDER = 10_000_001   # guards nonsense ratios; unreachable for physical inputs
# smallest gap of each family at n (end gaps for cpmg and udd), and its inverse
_MIN_GAP = {"cpmg": lambda n: 0.5 / n, "pdd": lambda n: 1.0 / (n + 1),
            "udd": lambda n: math.sin(math.pi / (2 * n + 2)) ** 2}
_ORDER_AT = {"cpmg": lambda x: 0.5 * x, "pdd": lambda x: x - 1.0,
             "udd": lambda x: math.pi / (2.0 * math.asin(math.sqrt(1.0 / x))) - 1.0}


def max_order(family, tau, tau_switch):
    """Largest n whose minimum gap times tau still clears tau_switch.

    The minimum gap of every family has a closed form falling with n
    (1/(2n), 1/(n+1), sin^2(pi/(2n+2))); its inverse at tau / tau_switch
    gives n, and steps of one on the same closed form settle float edges.
    No sequence is built. Returns 0 when even n=1 violates the
    constraint, and at most 10,000,001; a non-finite tau or tau_switch
    raises ValueError. Equality passes within a relative float tolerance
    of 1e-12 so exact-ratio cases are not lost to representation noise.
    """
    family = family.lower()
    if family not in ("cpmg", "pdd", "udd"):
        raise ValueError(f"max_order applies to cpmg/pdd/udd, got {family!r}")
    if not math.inf > tau > tau_switch > 0:
        raise ValueError("require finite tau > tau_switch > 0")
    limit, gap = tau_switch * (1.0 - 1e-12), _MIN_GAP[family]

    def clears(n):
        return n == 0 or not gap(n) * tau < limit

    x = min(tau / limit, 4.0 * _MAX_ORDER ** 2)     # past it every family clears the cap
    n = int(max(min(_ORDER_AT[family](x), _MAX_ORDER), 0))
    while n < _MAX_ORDER and clears(n + 1):
        n += 1
    while not clears(n):
        n -= 1
    return n
