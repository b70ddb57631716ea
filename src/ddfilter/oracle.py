"""Independent time-domain cross-check of the frequency-domain predictions.

Two routes to the same decoherence integral, sharing no code path with
`coherence.chi` beyond the spectrum definitions:

* a Grammian quadratic form over a discretized toggling function and the
  noise autocovariance, and
* a Monte Carlo average over synthesized stationary Gaussian noise
  realizations.

Both routes sum phasors e^(i omega k dt) over the uniform grid k < N. With
k = q b + j and b = ceil(sqrt(N)) such a phasor is A[q] B[j], where
A[q] = e^(i omega q b dt) and B[j] = e^(i omega j dt), so no N-wide table
is built: a grid autocovariance is one matrix product of the weighted A
with B, and a Monte Carlo mode transform sums A against B times the
toggling vector folded into b columns (the four-step FFT factorisation;
Bailey, J. Supercomputing 4, 23 (1990)). A frequency costs about 2 sqrt(N)
complex products and 2 log2(sqrt(N)) exponentials, and blocks of
frequencies keep memory bounded at any tau. The products are real (a
complex table is a real one of (re, im) pairs) and go through
filters._real_product, whose blocks OpenBLAS runs on the calling thread.

A Monte Carlo realization's phase is a sum of cosines over the noise
modes, sum_k a_k cos(theta_k + psi_k), with the mode amplitudes and the
toggling transform folded into a_k and psi_k once per call. Rows of
uniform phases theta, one jump-ahead substream per realization, are
filled in blocks of at most _PHASOR_BLOCK elements; each block is one
in-place cosine pass and one matrix-vector product, so memory stays
bounded in the number of realizations as well as in tau.

The toggling function is stored as exact per-cell time averages: a cell
containing a sign flip (or a finite-width pulse window, where the
toggling value is zero) gets the integral of the piecewise-constant
function over the cell divided by the cell width. Cells away from flips
hold plain +-1 (or 0 inside a window). The integrals are taken in array
passes over the window edges, each measured from its cell's start.
Averaging inside flip cells removes the grid-quantization bias of
nearest-cell flips, which otherwise dominates the comparison for
strongly clustered sequences.
"""

import math
from typing import NamedTuple

import numpy as np

from .coherence import chi
from .errors import UnderResolved, _integer
from .filters import _real_product
from .quadrature import (ABS_TOL, OSCILLATION_RESOLUTION, QuadratureConfig, build_edges,
                         panel_nodes)
from .sequences import PulseSequence, min_gap
from .spectra import eval_spectrum

KAPPA = 2.0          # chi = kappa * (quadratic form); phase variance = chi/2
MC_PHASE = 2.0 * np.sqrt(2.0)  # cos(MC_PHASE * phi) averages to e^(-chi)
_PHASOR_BLOCK = 1 << 20  # elements per block: of A and B together per omega
                         # block, and of the phases per realization block


class SamplingVector(NamedTuple):
    values: np.ndarray   # per-cell time-averaged toggling values, in [-1, 1]
    dt: float            # cell width (time units)
    amplitude: float     # 1/2 for free evolution (n = 0), 1 otherwise
    tau: float


class MCResult(NamedTuple):
    w: float
    stderr: float
    n_realizations: int
    seed: int


def sampling_vector(seq, tau, n_steps):
    """Discretize the toggling function on n_steps uniform cells of [0, tau].

    Raises UnderResolved when the cell width exceeds 1/8 of the smallest
    inter-pulse gap; flips would then alias across cells.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {float(tau)!r}")
    n_steps = _integer(n_steps, "n_steps", 1)
    if n_steps < 8:
        raise UnderResolved("need at least 8 cells")
    dt = tau / n_steps
    if dt > min_gap(seq) * tau / 8.0:
        raise UnderResolved(
            f"dt = tau/{n_steps} exceeds an eighth of the smallest gap "
            f"({min_gap(seq):.3g} tau); increase n_steps")
    amp = 0.5 if seq.n == 0 else 1.0
    if seq.n == 0:
        return SamplingVector(np.ones(n_steps), dt, amp, tau)

    # breakpoints: each window's start, then its end (equal for ideal
    # pulses), clipped to the grid; the toggling value steps from (-1)^j
    # to 0 to -(-1)^j across window j, by jumps of -(-1)^j each
    edges = np.arange(n_steps + 1) * dt
    w = seq.width_ratio * tau
    centers = np.asarray(seq.deltas, dtype=float) * tau
    cuts = np.clip(np.column_stack([centers - 0.5 * w, centers + 0.5 * w]).ravel(),
                   0.0, edges[-1])
    jumps = np.repeat(-(-1.0) ** np.arange(seq.n), 2)
    after = 1.0 + np.cumsum(jumps)          # value just after each breakpoint
    cell = np.minimum(np.searchsorted(edges, cuts, side="right") - 1, n_steps - 1)

    # a cell without breakpoints holds the value after the last earlier one
    y = np.concatenate([[1.0], after])[np.searchsorted(cell, np.arange(n_steps))]

    # a cell with breakpoints holds its exact time average: with cell start
    # a, end b and breakpoints c_i, the integral is
    # v(b) (b - a) - sum_i jump_i (c_i - a); c_i - a is exact (Sterbenz),
    # where differences of running integrals lose log2(N) bits
    first = np.flatnonzero(np.concatenate([[True], cell[1:] != cell[:-1]]))
    last = np.concatenate([first[1:], [cuts.size]]) - 1
    k = cell[first]
    inside = np.add.reduceat(jumps * (cuts - edges[cell]), first)
    y[k] = (after[last] * (edges[k + 1] - edges[k]) - inside) / dt
    return SamplingVector(y, dt, amp, tau)


def _powers(x, m):
    """Rows e^(i k x) for k < m.

    Row k is the product of the directly computed rows at the powers of
    two in k, so it stays within a few ulps of exp(1j * k * x).
    """
    out = np.empty((m, x.size), dtype=complex)
    out[0] = 1.0
    w = 1
    while w < m:
        k = min(w, m - w)
        np.multiply(out[:k], np.exp(1j * w * x), out=out[w:w + k])
        w *= 2
    return out


def _grid_phasors(omega, dt, n):
    """e^(i omega k dt) for k = q b + j < n as A[q] * B[j], b = ceil(sqrt(n)).

    A[q] = e^(i omega q b dt) (ceil(n / b) rows) and B[j] = e^(i omega j dt)
    (b rows) run along omega; returns (A, B, b).
    """
    b = math.isqrt(n - 1) + 1
    x = omega * dt
    return _powers(b * x, -(-n // b)), _powers(x, b), b


def _omega_blocks(size, n):
    """Slices of an omega axis whose A and B hold at most _PHASOR_BLOCK elements."""
    b = math.isqrt(n - 1) + 1
    step = max(1, _PHASOR_BLOCK // (b + -(-n // b)))
    return [slice(i, i + step) for i in range(0, size, step)]


def _grid_cos_sum(weights, omega, dt, n):
    """sum_m weights[m] cos(omega[m] k dt) for k < n."""
    out = np.zeros(n)
    for sl in _omega_blocks(omega.size, n):
        A, B, _ = _grid_phasors(omega[sl], dt, n)
        A *= weights[sl]
        # Re(A B^T) = Re A Re B^T - Im A Im B^T: one real product of conj(A)
        # and B, each viewed as rows of (re, im) pairs
        out += _real_product(np.conjugate(A, out=A).view(float), B.view(float).T).ravel()[:n]
    return out


def _grid_transform(values, omega, dt):
    """sum_k values[k] e^(i omega[m] k dt) for every m."""
    n = values.size
    out = np.empty(omega.size, dtype=complex)
    for sl in _omega_blocks(omega.size, n):
        A, B, b = _grid_phasors(omega[sl], dt, n)
        folded = np.zeros(A.shape[0] * b)
        folded[:n] = values
        A *= _real_product(folded.reshape(-1, b), B.view(float)).view(complex)
        out[sl] = A.sum(axis=0)
    return out


def autocovariance(spec, lags, cfg=None):
    """C(lag) = (1/pi) * integral_0^inf S(omega) cos(omega * lag) domega.

    Vectorized over lags on shared Gauss-Legendre panels; panel width is
    capped so the fastest cosine (largest lag) stays resolved, and a
    lower-order rule on the same panels bounds the error. Lags that are
    exactly the grid arange(N) * dt go through factored grid phasors;
    others through a blocked cosine table.
    """
    cfg = cfg or QuadratureConfig()
    scalar = np.isscalar(lags)
    lags = np.atleast_1d(np.asarray(lags, dtype=float))
    if not np.isfinite(lags).all():
        raise ValueError("lags must be finite")
    grid = (lags.size > 1 and lags[1] > 0
            and np.array_equal(lags, np.arange(lags.size) * lags[1]))
    lo, hi = spec.power_support(min(cfg.rel_tol / 10.0, 0.1))
    lag_max = float(np.abs(lags).max())
    cap = None
    if lag_max > 0:
        cap = 2.0 * np.pi / (lag_max * OSCILLATION_RESOLUTION)
    edges = build_edges(lo, hi, breakpoints=spec.breakpoints(), max_panel=cap)

    def panel_sum(order):
        om, wts = panel_nodes(edges, order)
        sw = eval_spectrum(spec, om) * wts
        if grid:
            return _grid_cos_sum(sw, om, lags[1], lags.size) / np.pi
        out = np.empty(lags.size)
        blk = max(1, int(4e6) // max(om.size, 1))
        for i in range(0, lags.size, blk):
            out[i:i + blk] = _real_product(sw, np.cos(np.outer(om, lags[i:i + blk])))
        return out / np.pi

    for _ in range(cfg.max_subdivisions + 1):
        c21 = panel_sum(21)
        c10 = panel_sum(10)
        scale = max(float(np.abs(c21).max()), ABS_TOL)
        err = float(np.abs(c21 - c10).max())
        if err <= cfg.rel_tol * scale:
            break
        mids = 0.5 * (edges[:-1] + edges[1:])
        edges = np.sort(np.concatenate([edges, mids]))
    return float(c21[0]) if scalar else c21


def grammian_chi(seq, spec, tau, n_steps, cfg=None):
    """chi via the discrete quadratic form y^T C y (dt^2-weighted).

    Uses FFT autocorrelation of the sampling vector so the Toeplitz
    double sum costs O(N log N) + N autocovariance values.
    """
    sv = sampling_vector(seq, tau, n_steps)
    y = sv.values
    n = y.size
    # any length >= 2n - 1 gives the linear autocorrelation at lags < n; a
    # 5-smooth one keeps the FFT fast (2n = 20,004 = 4 * 3 * 1667 is not):
    # 2^j times one of these odd factors lies within 1/8 above 2n - 1 (n >= 12)
    need = 2 * n - 1
    size = min(s << (-(-need // s) - 1).bit_length() for s in (1, 3, 5, 9, 15, 25, 27, 45))
    spec_fft = np.fft.rfft(y, size)
    w = np.fft.irfft(spec_fft * np.conj(spec_fft), size)[:n]
    c = autocovariance(spec, np.arange(n) * sv.dt, cfg)
    quad = w[0] * c[0] + 2.0 * float(_real_product(w[1:], c[1:]))
    return KAPPA * sv.amplitude ** 2 * sv.dt ** 2 * quad


# PCG64.jumped(i) advances the state by i times this many steps
_PCG64_JUMP = 210306068529402873165736369884012333109


def _substream_phases(seed, count, size, rows):
    """uniform(0, 2 pi, size) from Generator(PCG64(seed).jumped(i)) for
    i < count, in blocks of at most `rows` rows. One generator draws them
    all: after row i's `size` doubles it advances the rest of a jump, to
    where jumped(i + 1) starts; 2 pi times a block of random() is what
    uniform(0, 2 pi) draws."""
    bits = np.random.PCG64(seed)
    rng = np.random.Generator(bits)
    for i in range(0, count, rows):
        block = np.empty((min(rows, count - i), size))
        for row in block:
            rng.random(out=row)
            bits.advance(_PCG64_JUMP - size)
        block *= 2.0 * np.pi
        yield block


def monte_carlo_w(seq, spec, tau, n_realizations, n_steps, seed):
    """W via synthesized Gaussian noise: mean of cos(2*sqrt(2)*phase).

    Noise is a sum of max(1024, 4 (hi - lo) tau / 2 pi) cosines over the
    spectrum's power support [lo, hi], with amplitudes sqrt(S(omega_k)
    d_omega / pi) and independent uniform phases theta; each realization
    uses its own jump-ahead substream of a PCG64 stream, so results for
    the first M realizations are independent of the total count. With
    y_hat the toggling function's transform at the modes, a realization's
    phase is sum_k amps_k |y_hat_k| cos(theta_k + arg y_hat_k), so each
    block of realizations (at most _PHASOR_BLOCK phases, or one row) takes
    one cosine pass and one matrix-vector product. Needs at least two
    realizations, so that the standard error exists.
    """
    n_realizations = _integer(n_realizations, "n_realizations", 2)
    seed = _integer(seed, "seed", 0)
    sv = sampling_vector(seq, tau, n_steps)
    lo, hi = spec.power_support(1e-9)
    if hi <= lo:
        return MCResult(1.0, 0.0, n_realizations, seed)
    n_modes = max(1024, int(np.ceil(4.0 * (hi - lo) * tau / (2.0 * np.pi))))
    d_om = (hi - lo) / n_modes
    om = lo + (np.arange(n_modes) + 0.5) * d_om
    amps = np.sqrt(eval_spectrum(spec, om) * d_om / np.pi)
    if not np.any(amps > 0):
        return MCResult(1.0, 0.0, n_realizations, seed)

    # cell midpoints (k + 1/2) dt: the grid transform times e^(i omega dt/2)
    y_hat = (sv.amplitude * sv.dt * np.exp(0.5j * om * sv.dt)
             * _grid_transform(sv.values, om, sv.dt))
    a, psi = amps * np.abs(y_hat), np.angle(y_hat)

    rows = max(1, _PHASOR_BLOCK // n_modes)
    phi = np.empty(n_realizations)
    for i, theta in zip(range(0, n_realizations, rows),
                        _substream_phases(seed, n_realizations, n_modes, rows)):
        theta += psi
        phi[i:i + len(theta)] = _real_product(np.cos(theta, out=theta), a)
    cos_vals = np.cos(MC_PHASE * phi)
    w = float(cos_vals.mean())
    stderr = float(cos_vals.std(ddof=1) / np.sqrt(cos_vals.size))
    return MCResult(w, stderr, n_realizations, seed)


def oracle_report(seq, spec, tau, n_steps, n_realizations=0, seed=0, cfg=None):
    """Side-by-side frequency/time-domain comparison as a plain dict."""
    n_realizations = _integer(n_realizations, "n_realizations", 0)
    chi_freq = chi(seq, spec, tau, cfg)
    chi_gram = grammian_chi(seq, spec, tau, n_steps, cfg)
    denom = abs(chi_freq) if chi_freq != 0 else 1.0
    report = {
        "chi_freq": chi_freq,
        "chi_grammian": chi_gram,
        "rel_diff": abs(chi_gram - chi_freq) / denom,
        "N": int(n_steps),
    }
    if n_realizations:
        mc = monte_carlo_w(seq, spec, tau, n_realizations, n_steps, seed)
        report.update({"w_mc": mc.w, "stderr": mc.stderr,
                       "M": mc.n_realizations, "seed": mc.seed})
    return report
