"""Filter-function evaluation F(u), u = omega*tau, for pulse sequences.

F(u) = |1 + (-1)^(n+1) e^(iu) + 2 sum_j (-1)^j cos(u r/2) e^(i delta_j u)|^2
for n >= 1 pulses of width ratio r (r = 0: instantaneous pulses), and
sin^2(u/2) for free-induction decay (n = 0).

The complex sum is evaluated in an exactly regrouped form: telescoping
over the free-precession segments gives

    ytilde(u) = -2i * sum_k s_k * sin(u g_k / 2) * exp(i u m_k)

with segment lengths g_k, midpoints m_k and alternating signs s_k. The
segments lie between the pulse windows delta_j -+ r/2, where the toggling
function is zero, so one sum serves every width. This is the same
expression term for term, but each summand vanishes with u, so the deep
small-u cancellation happens analytically instead of in floating point
(the naive phasor sum loses ~5 digits at u=1e-2).

On quadrature panels, u = mid + hw x, every summand splits into a
per-panel and a per-node factor (_panel_z), so z is a complex matrix
product of fewer than 2^16 multiply-adds per block. A uniform 1-D grid
(linspace, or a linspace times a constant, of at least _FOLD_MIN points x
segments) has the same form once folded into rows u_0 + h (q b + j) of
b = ceil(sqrt(N)) points (_fold), and takes the same route. Logarithmic,
reversed or perturbed grids, 2-D arrays without nodes and smaller
grids go node by node (_node_z), which also takes rows of positions with
one row of u each (the OFDD area fallback), so no sequence is built.

The same filter also has the pairwise form F(u) = sum_jk c_j c_k
cos(u (t_j - t_k)) over the switching times t_k of the toggling function
and their coefficients c_k, which turns overlaps of F with a kernel into
sums over pairs of switching times. The pairs, c_j c_k and the
width offsets depend only on n and the width, so pair_plan builds them
once per (n, width) and each sum only gathers the positions.

The segment sum still has an absolute rounding floor of about
eps * min(n + 1, u/2), far above F deep in the stop band, where F falls
as u^(2(n+1)). There StopBandFilter sums the moment series
z(u) = sum_m (iu/2)^m nu_m / m!, nu_m = sum_k c_k (2 t_k - 1)^m, so
F = |z|^2 keeps its relative precision however small it is. The powers
are double-double and each moment is formed once, in doubling blocks
(_moment_blocks) that the crossover search draws as its degree grows;
each is a compensated pairwise sum (Ogita, Rump and Oishi, SIAM J. Sci.
Comput. 26, 1955 (2005)), within eps/2 |nu_m| + eps^2 log2(2n + 4)
sum_k |c_k x_k^m|.
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .sequences import PulseSequence, quantize_timing


def _segments(deltas, r):
    """Lengths g_k, midpoints m_k and signs s_k of the free-precession
    segments [delta_j + r/2, delta_(j+1) - r/2], with 0 and 1 at the ends:
    a pulse of width ratio r blanks the toggling function on delta_j -+ r/2.
    A (rows, n) deltas gives lengths and midpoints per row, (rows, n + 1)."""
    a = np.concatenate([np.zeros(deltas.shape[:-1] + (1,)), deltas + 0.5 * r], axis=-1)
    b = np.concatenate([deltas - 0.5 * r, np.ones(deltas.shape[:-1] + (1,))], axis=-1)
    return b - a, 0.5 * (a + b), (-1.0) ** np.arange(a.shape[-1])


_PAIR_BLOCK = 1 << 20      # pairs per block: bounds a pair sum's memory
_PLAN_PAIRS = 1 << 16      # a plan up to this many pairs keeps its blocks (2 MB)
# Rounding bound on a pair-sum total per unit of its magnitude sum: a few
# ulp per kernel value and product plus the summation, with a wide margin.
PAIR_ROUNDING = 64.0 * np.finfo(float).eps


def _switching_layout(n, width_ratio):
    """(slots, offsets, c): switching time k is p[slots[k]] + offsets[k] for
    p = (0, delta_1, ..., delta_n, 1), with coefficient c_k in
    F(u) = |sum_k c_k e^(iu t_k)|^2.

    Instantaneous pulses switch at 0, delta_j and 1 with c = (1, 2(-1)^j,
    (-1)^(n+1)); free decay has c = (1/2, -1/2) at 0 and 1. A pulse of
    width r blanks the toggling function on delta_j -+ r/2, so its
    coefficient splits into two halves at the window edges. Times are
    kept as anchor + offset so that the lag across one window is exactly r.
    """
    if n == 0:
        return np.arange(2), np.zeros(2), np.array([0.5, -0.5])
    signs = (-1.0) ** np.arange(1, n + 1)
    last = (-1.0) ** (n + 1)
    if width_ratio == 0:
        return (np.arange(n + 2), np.zeros(n + 2),
                np.concatenate([[1.0], 2.0 * signs, [last]]))
    h = 0.5 * width_ratio
    return (np.concatenate([[0], np.repeat(np.arange(1, n + 1), 2), [n + 1]]),
            np.concatenate([[0.0], np.tile([-h, h], n), [0.0]]),
            np.concatenate([[1.0], np.repeat(signs, 2), [last]]))


def _switching_times(seq):
    """(anchors, offsets, c) with F(u) = |sum_k c_k e^(iu(anchor_k + offset_k))|^2."""
    slots, offsets, c = _switching_layout(seq.n, seq.width_ratio)
    return np.concatenate([[0.0], seq.deltas, [1.0]])[slots], offsets, c


class _PairPlan:
    """The pairs of n pulses at one width ratio, row-major j < k in blocks of
    about _PAIR_BLOCK: slots of t_j and t_k, c_j c_k and o_k - o_j. Up to
    _PLAN_PAIRS pairs the blocks are kept, above they are rebuilt per sum.
    taus_per_sum is how many taus (or rows of positions) one sum may take
    while its taus x pairs block stays within about _PAIR_BLOCK."""

    def __init__(self, n, width_ratio):
        self.slots, self.offsets, self.c = _switching_layout(n, width_ratio)
        self.c.flags.writeable = False      # shared by every caller of the plan
        m = self.c.size
        self._rows = max(1, _PAIR_BLOCK // m)
        self.taus_per_sum = max(1, _PAIR_BLOCK // min(m * (m - 1) // 2, self._rows * m))
        self._kept = tuple(self._build()) if m * (m - 1) // 2 <= _PLAN_PAIRS else None

    def _build(self):
        m = self.c.size
        cols = np.arange(m)
        for i0 in range(0, m - 1, self._rows):
            j, k = np.nonzero(np.arange(i0, min(i0 + self._rows, m - 1))[:, None] < cols)
            j += i0
            yield (self.slots[j], self.slots[k], self.c[j] * self.c[k],
                   self.offsets[k] - self.offsets[j])

    def sums(self, deltas, kernel):
        """Pairwise overlap of the filter with an even kernel of the lag:
        (sum_{j<k} c_j c_k K(t_k - t_j), sum_{j<k} |c_j c_k K(t_k - t_j)|)
        over the switching times at positions deltas; the second sum scales
        the rounding error of the first. kernel maps an array of positive
        lags (fractions of the total time) to K, and each term is computed
        as (c_j c_k) K((a_k - a_j) + (o_k - o_j)). A kernel that broadcasts the
        lags against a column of taus gives one pair of sums per tau (arrays),
        and so does a (rows, n) array of positions per row, taken
        taus_per_sum rows at a time; otherwise they are floats."""
        deltas = np.asarray(deltas, dtype=float)
        if deltas.ndim == 2 and len(deltas) > self.taus_per_sum:
            step = self.taus_per_sum
            parts = [self._sums(deltas[i:i + step], kernel) for i in range(0, len(deltas), step)]
            return tuple(np.concatenate(s) for s in zip(*parts))
        total, magnitude = self._sums(deltas, kernel)
        if total.ndim:
            return total, magnitude
        return float(total), float(magnitude)

    def _sums(self, deltas, kernel):
        p = np.empty(deltas.shape[:-1] + (self.slots[-1] + 1,))     # (0, deltas, 1)
        p[..., 0], p[..., 1:-1], p[..., -1] = 0.0, deltas, 1.0
        total = magnitude = 0.0
        for js, ks, cc, lag_o in self._build() if self._kept is None else self._kept:
            # take keeps a block of rows C-ordered (p[:, ks] is Fortran-ordered),
            # so the reductions below sum each row pairwise, as for one row
            w = cc * kernel((p.take(ks, -1) - p.take(js, -1)) + lag_o)
            total += np.add.reduce(w, -1)
            magnitude += np.add.reduce(np.abs(w), -1)
        return total, magnitude


pair_plan = functools.lru_cache(maxsize=16)(_PairPlan)    # pair_plan(n, width_ratio)


# Multiply-adds per BLAS call. OpenBLAS 0.3.31 runs a call on the calling
# thread up to a size and wakes its thread pool above it; the second worker
# then spins for as long as the caller works on, or stalls the call for
# milliseconds when the other CPU is busy. Measured on 2 CPUs, in a fresh
# process per size, by the CPU time of the worker threads: zgemm stays
# below 2^16 (exactly 2^16 wakes it); dgemm up to 10^6 (100 x 100 x 100
# stays, 64 x 245 x 64 wakes it); dgemv up to 460,000 (460 x 1000 stays,
# 470 x 1000 wakes it); ddot up to 10,000. Complex products take at most
# _PRODUCT_SIZE (_VECTOR_SIZE for one row, a vector-matrix product), real
# ones at most _REAL_SIZE, half dgemm's bound, or _REAL_VECTOR_SIZE when an
# operand is a vector (under ddot's bound, the lowest), each with a
# contraction of at least _REAL_DEPTH where the limit allows.
_PRODUCT_SIZE, _VECTOR_SIZE = (1 << 16) - 1, 1 << 12
_REAL_SIZE, _REAL_VECTOR_SIZE, _REAL_DEPTH = 1 << 19, 1 << 13, 64
_SHARED_MIN = 64    # panels x segments from which a shared node table pays


def _product(table, mid, right):
    """table(mid) @ right, blocked over panels and over right's rows so that
    no product exceeds the sizes above and table is built a block at a time."""
    k, n = right.shape
    kc = max(1, min(k, _PRODUCT_SIZE // (2 * n)))
    step = max(1, _PRODUCT_SIZE // (kc * n))
    out = np.zeros((mid.size, n), dtype=complex)
    for r0 in range(0, mid.size, step):
        a = table(mid[r0:r0 + step])
        kb = kc if a.shape[0] > 1 else max(1, _VECTOR_SIZE // n)
        for k0 in range(0, k, kb):
            out[r0:r0 + step] += a[:, k0:k0 + kb] @ right[k0:k0 + kb]
    return out


def _real_product(a, b):
    """a @ b for real a (m x k, or a k-vector) and b (k x n, or a k-vector).

    Each BLAS call takes at most _REAL_SIZE multiply-adds (_REAL_VECTOR_SIZE
    when m or n is 1). The longer of a block's m and n sides is halved until
    a contraction of _REAL_DEPTH fits beside them, and the contraction is cut
    to fill the rest; each side is cut into near-equal pieces, and the
    products over the pieces of k are summed.
    """
    m, k = a.shape if a.ndim == 2 else (1, a.size)
    n = b.shape[1] if b.ndim == 2 else 1
    limit = _REAL_SIZE if min(m, n) > 1 else _REAL_VECTOR_SIZE
    bm, bn = m, n
    while bm * bn * min(k, _REAL_DEPTH) > limit and bm * bn > 1:
        bm, bn = (-(-bm // 2), bn) if bm >= bn else (bm, -(-bn // 2))
    bk = max(1, min(k, limit // (bm * bn)))
    rows, inner, cols = ([d * j // p for j in range(p + 1)]
                         for d, p in ((m, -(-m // bm)), (k, -(-k // bk)), (n, -(-n // bn))))
    a2, b2 = a.reshape(m, k), b.reshape(k, n)
    out = np.zeros((m, n))
    for r0, r1 in itertools.pairwise(rows):
        for c0, c1 in itertools.pairwise(cols):
            for k0, k1 in itertools.pairwise(inner):
                out[r0:r1, c0:c1] += a2[r0:r1, k0:k1] @ b2[k0:k1, c0:c1]
    return out.reshape(a.shape[:-1] + b.shape[1:])


def _node_z(deltas, u, r):
    """ytilde(u)/(-2i) = sum_k s_k sin(u g_k/2) e^(iu m_k), node by node, any
    shape; with (rows, n) deltas, u's leading axis runs over the rows."""
    g, m, s = _segments(deltas, r)
    g, m, s = g.T[..., None], m.T[..., None], s.reshape((-1,) + (1,) * deltas.ndim)
    uu = u.reshape(deltas.shape[:-1] + (-1,))
    z = (s * np.sin(g * uu / 2.0) * np.exp(1j * (m * uu))).sum(axis=0)
    return z.reshape(u.shape)


def _panel_z(deltas, u, nodes, r):
    """z(u) on panels u[p, i] = mid_p + hw_p x_i, x = nodes, one x_i = 0.

    Panels whose hw agree to 16 eps u share h, that of the group's panel
    nearest u = 0 (its hw carries the least rounding). Then sin(u g/2)
    = sin(mid g/2) cos(h x g/2) + cos(mid g/2) sin(h x g/2) and e^(iu m) =
    e^(i mid m) e^(i h x m) make z one product of panel and node tables, each
    term bounded by its own sine. Panels that h moves by over 64 eps u, or in
    groups under _SHARED_MIN panels x segments, go node by node."""
    if u.shape[0] * (len(deltas) + 1) < _SHARED_MIN:
        return _node_z(deltas, u, r)
    g, m, s = _segments(deltas, r)
    half = 0.5 * g
    z, done = np.empty(u.shape, dtype=complex), np.zeros(u.shape[0], dtype=bool)
    x = np.asarray(nodes, dtype=float)
    mid = u[:, np.flatnonzero(x == 0.0)[0]]
    hw = (u[:, np.argmax(x)] - mid) / x.max()
    order = np.argsort(hw)
    cut = np.flatnonzero(np.diff(hw[order]) > 16.0 * _EPS * (mid + hw)[order[1:]]) + 1

    def segments(mp):
        a, e = mp[:, None] * half, s * np.exp(1j * mp[:, None] * m)
        return np.concatenate([np.sin(a) * e, np.cos(a) * e], axis=1)

    for rows in np.split(order, cut):
        if rows.size * half.size < _SHARED_MIN:
            continue
        h = hw[rows[np.argmin(mid[rows])]]
        rows = rows[np.all(np.abs(mid[rows, None] + h * x - u[rows])
                           <= 64.0 * _EPS * (mid + hw)[rows, None], axis=1)]
        if rows.size * half.size < _SHARED_MIN:
            continue
        b, e = half[:, None] * (h * x), np.exp(1j * m[:, None] * (h * x))
        z[rows] = _product(segments, mid[rows], np.concatenate([np.cos(b) * e, np.sin(b) * e]))
        done[rows] = True
    if not done.all():
        z[~done] = _node_z(deltas, u[~done], r)
    return z


_FOLD_MIN = 1 << 12    # points x segments from which a uniform grid is folded


def _fold(u, segments):
    """A 1-D grid u_i = u_0 + h i (h > 0, each point within 64 eps u of it)
    as rows u_0 + h (q b + j), b = ceil(sqrt(N)), padded past u_(N-1) and
    keeping the given points; None for any other grid, for one under 16
    points and for one whose points x segments fall below _FOLD_MIN, where
    the node-by-node sum is faster."""
    size = u.size
    if u.ndim != 1 or size < 16 or size * segments < _FOLD_MIN:
        return None
    h, tol = (u[-1] - u[0]) / (size - 1), 64.0 * _EPS * u[-1]
    if not h > 0.0 or abs(u[0] + h - u[1]) > tol:     # the second point: a cheap first test
        return None
    b = math.isqrt(size - 1) + 1
    grid = u[0] + h * np.arange(-(-size // b) * b)
    if np.any(np.abs(grid[:size] - u) > tol):
        return None
    grid[:size] = u
    return grid.reshape(-1, b)


def _filter(seq, u, nodes):
    """F(u) at seq's width ratio: the one evaluator behind both public names.

    A uniform 1-D grid without nodes goes to _panel_z folded (_fold), with
    offsets x = j: transcendentals per row and per column, not per point."""
    scalar = np.isscalar(u)
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all((uu >= 0) & (uu < math.inf)):
        raise ValueError("u must be finite and >= 0")
    if seq.n == 0:
        out = np.sin(uu / 2.0) ** 2
    else:
        d, r = np.asarray(seq.deltas, dtype=float), seq.width_ratio
        grid = _fold(uu, d.size + 1) if nodes is None else None
        if grid is not None:
            z = _panel_z(d, grid, np.arange(grid.shape[1]), r).ravel()[:uu.size]
        else:
            z = _node_z(d, uu, r) if nodes is None else _panel_z(d, uu, nodes, r)
        out = 4.0 * (z.real ** 2 + z.imag ** 2)
    return float(out[0]) if scalar else out


def filter_value(seq, u):
    """Ideal (instantaneous-pulse) filter: filter_value_finite of a width-0 sequence."""
    if seq.width_ratio != 0:
        raise ValueError("filter_value requires width_ratio 0; use filter_value_finite")
    return _filter(seq, u, None)


def filter_value_finite(seq, u_prime, nodes=None):
    """Filter function of seq at its width ratio r = tau_pi/tau_total, over
    u' = omega * tau_total.

    Interior pulse terms acquire a cos(u'*r/2) factor. Evaluated as the
    segment sum over the free intervals between the pulse windows, which
    keeps the small-u' behavior stable. With `nodes` (a quadrature rule's
    offsets, one of them 0) u' is a panels x nodes array, evaluated by
    _panel_z.
    """
    return _filter(seq, u_prime, nodes)


_EPS = np.finfo(float).eps
_SPLIT = 134217729.0        # 2^27 + 1, Dekker's splitting constant
_TAIL_SHARE = 1.0 / 16.0    # Taylor tail allowed per unit of the series' rounding bound
_SERIES_MAX_U = 512.0       # keeps the moment table (times x degree) small


def _two_sum(a, b):
    """(s, e) with s + e = a + b exactly and s = fl(a + b)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """(p, e) with p + e = a * b exactly and p = fl(a * b)."""
    p = a * b
    ca, cb = _SPLIT * a, _SPLIT * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(xh, xl, yh, yl):
    """Double-double product, elementwise."""
    p, e = _two_prod(xh, yh)
    return _two_sum(p, e + (xh * yl + xl * yh))


def _moment_blocks(seq):
    """nu_m = sum_k c_k x_k^m, x_k = 2 t_k - 1 in [-1, 1], in doubling
    blocks: m < 1, then [1, 2), [2, 4), ...

    x_k and its powers are double-double; each block is the table of all
    lower powers times x^have, so every power is formed once. Every c_k
    is a signed power of two, so c_k times a high part is exact. Each
    nu_m sums those terms by a pairwise tree of _two_sum over contiguous
    halves (an odd width carries its middle column), with the error
    terms of every level and the low parts' sum added in double: within
    eps/2 |nu_m| + eps^2 log2(2n + 4) sum_k |c_k x_k^m|.
    """
    a, o, c = _switching_times(seq)
    xh, xl = _two_sum(2.0 * a, -1.0)
    xh, e = _two_sum(xh, 2.0 * o)
    xh, xl = _two_sum(xh, xl + e)
    # the table: x^m for m < have, then x^have itself as its last row
    th, tl = np.vstack([np.ones_like(xh), xh]), np.vstack([np.zeros_like(xl), xl])
    while True:
        block = slice((len(th) - 1) // 2, -1)         # m in [have/2, have), or m < 1
        t, err = c * th[block], tl[block] @ c
        while t.shape[1] > 1:
            h = t.shape[1] // 2
            s, e = _two_sum(t[:, :h], t[:, -h:])
            t = np.concatenate([s, t[:, h:-h]], axis=1)
            err = err + np.add.reduce(e, 1)
        yield t[:, 0] + err
        # the table times x^have: the next block and x^(2 have) in one product
        bh, bl = _dd_mul(th, tl, th[-1], tl[-1])
        th, tl = np.concatenate([th[:-1], bh]), np.concatenate([tl[:-1], bl])


def _factorial_series(nu, h):
    """sum_m nu_m h^m / m! by nested Horner steps nu_(m-1) + (h/m) p."""
    p = np.full(np.shape(h), nu[-1], dtype=np.result_type(h, float))
    for m in range(len(nu) - 1, 0, -1):
        p = nu[m - 1] + (h / m) * p
    return p


def _series_degree(h, bound):
    """Smallest M whose Taylor tail bound h^(M+1) / (M+1)! / (1 - h/(M+2)),
    the tail of sum_m h^m/m! past degree M, is at most bound."""
    from scipy.special import gammaln
    start = max(1, math.ceil(h))
    m = np.arange(start, start + math.ceil(8.0 * h + abs(math.log(bound))) + 8)
    log_tail = (m + 1) * math.log(h) - gammaln(m + 2) - np.log1p(-h / (m + 2))
    return int(m[np.argmax(log_tail <= math.log(bound))])


class StopBandFilter:
    """F(u) for u <= u_max from whichever evaluator has the smaller rounding bound.

    On z = sum_k c_k e^(iu t_k) the segment sum's bound is
    eps * min(2n + 2, u) and the moment series' is
    eps * sum_m |nu_m| (u/2)^m / m!. Their ratio grows with u (nu_0 = 0),
    so they cross once: the series runs below `crossover` (found on a grid
    with 2^(1/8) steps) and the segment sum above it, so F keeps its
    relative precision deep in the stop band. The series stops at
    `degree`, where the Taylor tail sum |c| (u/2)^(M+1)/(M+1)!/(1 - u/(2M+4))
    is a sixteenth of the series' rounding bound at the crossover; the
    ratio of tail to bound falls with u below it.
    """

    def __init__(self, seq, u_max):
        self.seq = seq
        self.degree, self.crossover, self._nu = 0, 0.0, np.zeros(1)
        if seq.n == 0:
            return      # sin^2(u/2) has no stop band
        floor = 2.0 * seq.n + 2.0
        u_top = min(float(u_max), floor, _SERIES_MAX_U)
        total = float(np.abs(_switching_times(seq)[2]).sum())
        # widen the search from u = 8 by doubling: the degree, and so the
        # cost of the moments, grows with the range searched. The first
        # degree suits a series bound down to eps times the segment sum's.
        # Moments come in doubling blocks, drawn as the degree needs them.
        u_try, degree = min(u_top, 8.0), 0
        blocks, nu = _moment_blocks(seq), np.zeros(0)
        while True:
            degree = max(degree, _series_degree(u_try / 2.0,
                                                _TAIL_SHARE * _EPS ** 2 * u_try / total))
            while nu.size <= degree:
                nu = np.concatenate([nu, next(blocks)])
            grid = u_try * np.exp2(np.arange(-240, 1) / 8.0)
            size = _factorial_series(np.abs(nu[:degree + 1]), grid / 2.0)
            better = size < np.minimum(floor, grid)
            if better.all() and u_try < u_top:
                u_try = min(2.0 * u_try, u_top)
                continue
            i = grid.size - 1 if better.all() else int(np.argmin(better)) - 1
            if i < 0:
                return  # the segment sum is as good everywhere
            need = _series_degree(grid[i] / 2.0, _TAIL_SHARE * _EPS * size[i] / total)
            if need <= degree:
                break
            degree = need + 8
        self.degree, self.crossover, self._nu = need, float(grid[i]), nu[:need + 1]

    def __call__(self, u, nodes=None):
        u = np.asarray(u, dtype=float)
        out = filter_value_finite(self.seq, u, nodes=nodes)
        series = u <= self.crossover
        if series.any():
            z = _factorial_series(self._nu, 0.5j * u[series])
            out[series] = z.real ** 2 + z.imag ** 2
        return out


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

    def evaluate(self, u):
        """Re-evaluate the same variant at arbitrary u (metrics refinement)."""
        return filter_value_finite(self.sequence, u)


@functools.lru_cache(maxsize=16)
def _log_grid(u_min, u_max, points):
    """The read-only log grid that every sample set of these bounds shares."""
    grid = np.logspace(np.log10(u_min), np.log10(u_max), points)
    grid.flags.writeable = False
    return grid


def sample_filter(seq, u_min, u_max, points_per_decade, variant="ideal", precision=None):
    """Sample F on a log grid; points = round(ppd * decades).

    variant: "ideal", "finite" (uses seq.width_ratio over u' = omega*tau_total),
    or "quantized" (quantize_timing at `precision`, then ideal evaluation).
    Sample sets over the same grid share one read-only u_grid array.
    """
    if not 0 < u_min < u_max < math.inf:
        raise ValueError("need 0 < u_min < u_max < inf")
    if not 1 <= points_per_decade < math.inf:
        raise ValueError("points_per_decade must be finite and >= 1")
    decades = np.log10(u_max / u_min)
    npts = max(2, int(round(points_per_decade * decades)))
    grid = _log_grid(float(u_min), float(u_max), npts)

    if variant == "ideal":
        src = replace(seq, width_ratio=0.0) if seq.width_ratio else seq
        vals = filter_value(src, grid)
        return FilterSamples(grid, vals, "ideal", seq.n, src)
    if variant == "finite":
        vals = filter_value_finite(seq, grid)
        return FilterSamples(grid, vals, f"finite:{seq.width_ratio:g}", seq.n, seq)
    if variant == "quantized":
        if precision is None:
            raise ValueError("quantized variant requires a precision")
        q = quantize_timing(seq, precision)
        q = replace(q, width_ratio=0.0) if q.width_ratio else q
        vals = filter_value(q, grid)
        return FilterSamples(grid, vals, f"quantized:{precision:g}", seq.n, q)
    raise ValueError(f"unknown variant: {variant!r}")
