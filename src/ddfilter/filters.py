"""Filter-function evaluation F(u), u = omega*tau, for pulse sequences.

F(u) = |1 + (-1)^(n+1) e^(iu) + 2 sum_j (-1)^j e^(i delta_j u)|^2 for n >= 1
pulses, and sin^2(u/2) for free-induction decay (n = 0).

The complex sum is evaluated in an exactly regrouped form: telescoping
over the free-precession segments gives

    ytilde(u) = -2i * sum_k s_k * sin(u g_k / 2) * exp(i u m_k)

with segment lengths g_k, midpoints m_k and alternating signs s_k.
This is the same expression term for term, but each summand vanishes
with u, so the deep small-u cancellation happens analytically instead
of in floating point (the naive phasor sum loses ~5 digits at u=1e-2).

The same filter also has the pairwise form F(u) = sum_jk c_j c_k
cos(u (t_j - t_k)) over the switching times t_k of the toggling function
and their coefficients c_k (pair_sums), which turns overlaps of F with a
kernel into sums over pairs of switching times.
"""

from dataclasses import dataclass

import numpy as np

from .errors import WidthOverflow
from .sequences import PulseSequence, quantize_timing


def _segment_sum(deltas, u):
    """ytilde(u)/(-2i) = sum_k s_k sin(u g_k/2) e^(iu m_k) for n >= 1."""
    d = np.concatenate([[0.0], np.asarray(deltas, dtype=float), [1.0]])
    g = np.diff(d)
    m = 0.5 * (d[:-1] + d[1:])
    s = (-1.0) ** np.arange(len(g))
    amp = s[:, None] * np.sin(np.outer(g, u) / 2.0)
    z = (amp * np.exp(1j * np.outer(m, u))).sum(axis=0)
    return z


_PAIR_BLOCK = 1 << 20      # pairs per block: bounds pair_sums' memory
# Rounding bound on a pair_sums total per unit of its magnitude sum: a few
# ulp per kernel value and product plus the summation, with a wide margin.
PAIR_ROUNDING = 64.0 * np.finfo(float).eps


def _switching_times(seq):
    """(anchors, offsets, c) with F(u) = |sum_k c_k e^(iu(anchor_k + offset_k))|^2.

    Instantaneous pulses switch at 0, delta_j and 1 with c = (1, 2(-1)^j,
    (-1)^(n+1)); free decay has c = (1/2, -1/2) at 0 and 1. A pulse of
    width r blanks the toggling function on delta_j -+ r/2, so its
    coefficient splits into two halves at the window edges. Times are
    kept as anchor + offset so that the lag across one window is exactly r.
    """
    d = np.asarray(seq.deltas, dtype=float)
    n = d.size
    if n == 0:
        return np.array([0.0, 1.0]), np.zeros(2), np.array([0.5, -0.5])
    signs = (-1.0) ** np.arange(1, n + 1)
    last = (-1.0) ** (n + 1)
    if seq.width_ratio == 0:
        return (np.concatenate([[0.0], d, [1.0]]), np.zeros(n + 2),
                np.concatenate([[1.0], 2.0 * signs, [last]]))
    h = 0.5 * seq.width_ratio
    return (np.concatenate([[0.0], np.repeat(d, 2), [1.0]]),
            np.concatenate([[0.0], np.tile([-h, h], n), [0.0]]),
            np.concatenate([[1.0], np.repeat(signs, 2), [last]]))


def pair_sums(seq, kernel):
    """Pairwise overlap of the filter with an even kernel of the lag.

    Returns (sum_{j<k} c_j c_k K(t_k - t_j), sum_{j<k} |c_j c_k K(t_k - t_j)|,
    c) over the switching times of seq (finite width included); the
    second sum scales the rounding error of the first. kernel maps an
    array of positive lags (fractions of the total time) to K.
    """
    a, o, c = _switching_times(seq)
    m = c.size
    total = magnitude = 0.0
    rows = max(1, _PAIR_BLOCK // m)
    cols = np.arange(m)
    for i0 in range(0, m - 1, rows):
        j, k = np.nonzero(np.arange(i0, min(i0 + rows, m - 1))[:, None] < cols)
        j += i0
        w = c[j] * c[k] * kernel((a[k] - a[j]) + (o[k] - o[j]))
        total += w.sum()
        magnitude += np.abs(w).sum()
    return float(total), float(magnitude), c


def _alternating_sum(deltas, u):
    """sum_j (-1)^j e^(i delta_j u), the interior-pulse phasor sum."""
    signs = (-1.0) ** np.arange(1, len(deltas) + 1)
    return (signs[:, None] * np.exp(1j * np.outer(np.asarray(deltas), u))).sum(axis=0)


def filter_value(seq, u):
    """Ideal (instantaneous-pulse) filter function at dimensionless u."""
    if seq.width_ratio != 0:
        raise ValueError("filter_value requires width_ratio 0; use filter_value_finite")
    scalar = np.isscalar(u)
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(uu < 0):
        raise ValueError("u must be >= 0")
    if seq.n == 0:
        out = np.sin(uu / 2.0) ** 2
    else:
        z = _segment_sum(seq.deltas, uu)
        out = 4.0 * (z.real ** 2 + z.imag ** 2)
    return float(out[0]) if scalar else out


def filter_value_finite(seq, u_prime, r=None):
    """Finite-pulse-width filter function over u' = omega * tau_total.

    Interior pulse terms acquire a cos(u'*r/2) factor, r = tau_pi/tau_total.
    Evaluated as the ideal segment sum plus the exact width correction
    -4 sin^2(u' r / 4) * sum_j (-1)^j e^(i delta_j u'), which keeps the
    small-u' behavior stable. Raises WidthOverflow when r*n >= 1.
    """
    r = seq.width_ratio if r is None else float(r)
    if r < 0:
        raise ValueError("width ratio must be >= 0")
    if r * seq.n >= 1.0:
        raise WidthOverflow(f"pulses do not fit: r*n = {r * seq.n:.3g} >= 1")
    scalar = np.isscalar(u_prime)
    uu = np.atleast_1d(np.asarray(u_prime, dtype=float))
    if np.any(uu < 0):
        raise ValueError("u must be >= 0")
    if seq.n == 0:
        out = np.sin(uu / 2.0) ** 2
    elif r == 0:
        z = _segment_sum(seq.deltas, uu)
        out = 4.0 * (z.real ** 2 + z.imag ** 2)
    else:
        # ytilde_w = ytilde_ideal - 4 sin^2(u r/4) * sum_j (-1)^j e^(i delta_j u)
        # and ytilde_ideal = -2i*z, so ytilde_w = -2i*(z - 2i sin^2 * sum)
        z = _segment_sum(seq.deltas, uu)
        z = z - 2.0j * np.sin(uu * r / 4.0) ** 2 * _alternating_sum(seq.deltas, uu)
        out = 4.0 * (z.real ** 2 + z.imag ** 2)
    return float(out[0]) if scalar else out


def modified_filter_value(seq, omega, tau):
    """Modified filter F(omega*tau)/omega^2 (units time^2); omega > 0 only."""
    scalar = np.isscalar(omega)
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(om <= 0):
        raise ValueError("modified filter requires omega > 0; probe small omega explicitly")
    vals = filter_value(seq, om * tau) / om ** 2
    return float(vals[0]) if scalar else vals


@dataclass(frozen=True)
class FilterSamples:
    """Log-spaced samples of F(u) with the evaluator that produced them."""

    u_grid: np.ndarray
    values: np.ndarray
    variant: str
    n: int
    sequence: PulseSequence
    width_ratio: float = 0.0

    def evaluate(self, u):
        """Re-evaluate the same variant at arbitrary u (metrics refinement)."""
        if self.variant.startswith("finite"):
            return filter_value_finite(self.sequence, u, self.width_ratio)
        return filter_value(self.sequence, u)


def sample_filter(seq, u_min, u_max, points_per_decade, variant="ideal", precision=None):
    """Sample F on a log grid; points = round(ppd * decades).

    variant: "ideal", "finite" (uses seq.width_ratio over u' = omega*tau_total),
    or "quantized" (quantize_timing at `precision`, then ideal evaluation).
    """
    if not 0 < u_min < u_max:
        raise ValueError("need 0 < u_min < u_max")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    decades = np.log10(u_max / u_min)
    npts = max(2, int(round(points_per_decade * decades)))
    grid = np.logspace(np.log10(u_min), np.log10(u_max), npts)

    if variant == "ideal":
        src = seq
        if src.width_ratio != 0:
            src = PulseSequence(deltas=seq.deltas, width_ratio=0.0, label=seq.label)
        vals = filter_value(src, grid)
        return FilterSamples(grid, vals, "ideal", seq.n, src)
    if variant == "finite":
        r = seq.width_ratio
        vals = filter_value_finite(seq, grid, r)
        return FilterSamples(grid, vals, f"finite:{r:g}", seq.n, seq, width_ratio=r)
    if variant == "quantized":
        if precision is None:
            raise ValueError("quantized variant requires a precision")
        q = quantize_timing(seq, precision)
        if q.width_ratio != 0:
            q = PulseSequence(deltas=q.deltas, width_ratio=0.0, label=q.label)
        vals = filter_value(q, grid)
        return FilterSamples(grid, vals, f"quantized:{precision:g}", seq.n, q)
    raise ValueError(f"unknown variant: {variant!r}")
