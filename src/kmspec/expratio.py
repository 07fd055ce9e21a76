"""Fitted fractions of exponential sums and the finite blocks realizing them.

A block realizes a function bounded by 1/2 as eta_1 - eta_2, each eta a
fraction S_A / (2 S_A + S_B) of positive exponential sums
S_A(beta) = sum_a count_a a^beta over a multiset A of bases.  Each fraction
is fitted in sup norm over a basis of bumps sharing one exponential-sum
denominator; the fitted coefficients are rounded straight to big-integer
counts, and the counts are rebalanced against the reachable block sizes so
that the partitioned conformal sums of the block reproduce both fractions
identically.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ._arrays import _as_array, logsumexp, scalar_or_array
from .errors import FitFailureError, InvalidInputError, RealizationError

LN2 = math.log(2.0)
# bound on |(beta - c) u ln2| within one beta chunk of the power-sum kernel:
# every scaled sum then lies between e^-256 and (number of terms) e^256, far
# from float overflow and underflow, so the scaling costs no accuracy
_EXP_SCALE = 256.0
# and at most this many betas per chunk, each with its own centre, so that a
# chunk's (betas x exponents) working arrays grow with the exponent count, not
# with the grid: about 1 MB for the 179 exponents of an 89-node basis
_CHUNK_ROWS = 512
_LAWSON_ITERS = 4  # reweighted NNLS solves per fit


class WeightedMultiset:
    """Multiset of weights 2^u stored as {u: count}, with integer exponents u
    and big-int counts.

    Power sums sum_u count_u 2^(u beta) are evaluated in the log domain, with
    log weight u ln 2; this is the compact representation of the huge index
    sets produced by the integer rebalancing, which are never materialized
    element by element.  Integer keys make products exact.
    """

    __slots__ = ("items",)

    def __init__(self, items: Dict[int, int]):
        for u in items:
            if not isinstance(u, numbers.Integral):
                raise InvalidInputError(f"multiset exponent {u!r} must be an integer")
        self.items = {int(u): int(c) for u, c in items.items() if c}

    def total(self) -> int:
        return sum(self.items.values())

    @staticmethod
    def product(x: "WeightedMultiset", y: "WeightedMultiset") -> "WeightedMultiset":
        out: Dict[int, int] = {}
        for ux, cx in x.items.items():
            for uy, cy in y.items.items():
                out[ux + uy] = out.get(ux + uy, 0) + cx * cy
        return WeightedMultiset(out)

    def log_power_sum(self, beta) -> np.ndarray:
        """log of sum count * 2^(u beta), vectorized over beta: one row of
        the power-sum kernel `_log_power_sums`."""
        return _multiset_log_power_sums((self,), _as_array(beta))[:, 0]


def _multiset_log_power_sums(multisets, betas: np.ndarray) -> np.ndarray:
    """log power sums of several multisets on one beta array, one column per
    multiset, from one call of the kernel: one row of log counts each over
    the union of their exponents, -inf where a multiset has no term."""
    exps = sorted(set().union(*(m.items for m in multisets)))
    column = {u: i for i, u in enumerate(exps)}
    logs = np.full((len(multisets), len(exps)), -np.inf)
    for row, m in zip(logs, multisets):
        for u, count in m.items.items():
            row[column[u]] = math.log(count)
    return _log_power_sums(logs, np.array(exps, dtype=float), betas)


def _log_power_sums(logs: np.ndarray, exps: np.ndarray,
                    betas: np.ndarray) -> np.ndarray:
    """log sum_u exp(logs[s, u]) 2^(exps[u] beta) for every row s of logs
    and every beta of a 1-d array, one row per beta and one column per sum.

    This is the one evaluator of power sums of multisets over a beta array:
    `log_power_sum` and the batched rows of `_multiset_log_power_sums` call
    it (the bumps of a basis have a closed form).  logs holds one
    row of log coefficients per sum, -inf where a sum has no term, and exps
    the integer exponents u shared by its columns.  In a chunk of betas
    around a centre c, the term (s, u) is exp(logs[s,u] + c u ln2 - g_s)
    * exp((beta - c) u ln2) * e^g_s, with g_s the largest exponent of sum s
    at c.  The first factor is at most 1 and the chunk width keeps the
    second within e^(+-_EXP_SCALE) for the largest |u|, so one matmul of the
    two exponentiated matrices gives every sum of the chunk, and g_s is
    added back in the log.  Chunks group betas by value, at most _CHUNK_ROWS
    of them, so the grid need not be sorted.  A logsumexp over all terms is
    the reference the tests compare against.
    """
    lattice = exps * LN2
    out = np.empty((betas.size, logs.shape[0]))
    width = 2.0 * _EXP_SCALE / (max(1.0, float(np.max(np.abs(exps)))) * LN2)
    chunks = np.floor((betas - np.min(betas)) / width)
    for key in np.unique(chunks):
        same = np.flatnonzero(chunks == key)
        for start in range(0, same.size, _CHUNK_ROWS):
            rows = same[start:start + _CHUNK_ROWS]
            out[rows] = _chunk_log_power_sums(logs, lattice, betas[rows])
    return out


def _chunk_log_power_sums(logs: np.ndarray, lattice: np.ndarray,
                          chunk: np.ndarray) -> np.ndarray:
    """One chunk of `_log_power_sums`, scaled about the chunk's centre; its
    working arrays are freed on return, before the next chunk allocates."""
    c = 0.5 * (float(np.min(chunk)) + float(np.max(chunk)))
    coeffs = logs + c * lattice
    g = np.max(coeffs, axis=1)
    np.exp(coeffs - g[:, None], out=coeffs)
    scaled = np.outer(chunk - c, lattice)
    np.exp(scaled, out=scaled)
    sums = scaled @ coeffs.T
    np.log(sums, out=sums)
    sums += g
    return sums


# ---------------------------------------------------------------------------
# Sup-norm fitting over translated kernels.  The denominator is the product
# D(beta) = prod_j (2^{beta-y_j} + 2^{y_j-beta}) over a node grid; expanding
# the product in z = 2^beta collapses it to m+1 exponential terms whose
# coefficients are computed by log-domain convolution.  The basis element at
# node i omits a small window of factors around y_i, so it is a bump peaked
# at y_i sharing the common denominator, and positive combinations are again
# single ratios of exponential sums with O(m) terms.

def _times_factor(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Log coefficients of exp(x) times the two-term factor exp(f): each
    inner coefficient is one logaddexp of its two terms, and each end is
    its one term.  These are the bits of the schoolbook product, which adds
    each end's term to -inf, since logaddexp(-inf, v) is v."""
    out = np.empty(x.size + 1)
    out[0] = x[0] + f[0]
    out[-1] = x[-1] + f[1]
    np.logaddexp(x[1:] + f[0], x[:-1] + f[1], out=out[1:-1])
    return out


def _conv_log_rows(pairs) -> np.ndarray:
    """Log coefficients of exp(x) times exp(y) for every pair (x, y), one
    row each, padded with -inf: the schoolbook product, one pass over the
    index of the shorter factor for all pairs at once.  Every element adds
    its terms in the order that pass over one pair adds them, and a -inf
    term of the padding leaves logaddexp's other operand unchanged, so each
    row is the one-pair product to the bit.  Rows are worked on longest
    shorter factor first, so that step i covers only the rows whose shorter
    factor reaches index i, and only as wide as their longer factors."""
    pairs = [(x, y) if x.size <= y.size else (y, x) for x, y in pairs]
    order = sorted(range(len(pairs)), key=lambda row: -pairs[row][0].size)
    sizes = np.array([pairs[row][0].size for row in order])
    reach = np.maximum.accumulate([pairs[row][1].size for row in order])
    xs = np.full((len(pairs), sizes[0]), -np.inf)
    ys = np.full((len(pairs), reach[-1]), -np.inf)
    for k, row in enumerate(order):
        x, y = pairs[row]
        xs[k, :x.size] = x
        ys[k, :y.size] = y
    out = np.full((len(pairs), xs.shape[1] + ys.shape[1] - 1), -np.inf)
    for i in range(xs.shape[1]):
        k = np.count_nonzero(sizes > i)
        part = out[:k, i:i + reach[k - 1]]
        np.logaddexp(part, xs[:k, i:i + 1] + ys[:k, :reach[k - 1]], out=part)
    rows = np.empty_like(out)
    rows[order] = out
    return rows


def _window_pairs(m: int, window: int):
    """(bumps i, nodes j) slice pairs with j = i + d, one pair per offset
    |d| < window: together they pair each bump with the window nodes it
    divides out, clipped to the m nodes of the grid."""
    for d in range(1 - window, window):
        lo, hi = max(0, -d), min(m, m - d)
        yield slice(lo, hi), slice(lo + d, hi + d)


# grouped extreme coefficients scale like 2^{-sum |y_j|}; beyond this bound
# on y_max^2/spacing they underflow the float range
_NODE_GRID_BOUND = 1000.0


def _node_grid_fits(y_max: float, spacing: float) -> bool:
    return y_max * y_max / spacing <= _NODE_GRID_BOUND


class TranslatedKernelBasis:
    """Bumps at a node grid sharing one exponential-sum denominator.

    The denominator is D(beta) = prod_j (2^{beta-y_j} + 2^{y_j-beta}); written
    in z = 2^beta it is z^{-m} times a positive polynomial in z^2, so it
    collapses to m+1 exponential terms whose log coefficients are computed by
    convolution.  The bump at node i divides out the `window` factors nearest
    y_i, leaving a translate of the width-one kernel (sharper for wider
    windows) whose numerator is again a short positive exponential sum.  Any
    nonnegative combination of bumps is therefore a single ratio with O(m)
    terms.

    With each factor normalized to f_j(beta) = cosh((beta - y_j) ln2) /
    cosh(y_j ln2), its value at beta = 0, bump i over the denominator is
    exactly 1 / prod_{j in window(i)} f_j(beta): the design matrix and the
    bump peaks are computed from these at most 2 window - 1 factors, not by
    summing the numerator and denominator terms.
    """

    def __init__(self, y_max: float, spacing: float, window: int = 1):
        if y_max <= 0 or spacing <= 0:
            raise InvalidInputError("y_max and spacing must be positive")
        if not _node_grid_fits(y_max, spacing):
            raise InvalidInputError("node grid too dense for the coefficient range")
        count = int(round(2.0 * y_max / spacing)) + 1
        self.nodes = np.linspace(-y_max, y_max, count)
        self.window = window
        m = count
        # per-factor log coefficients for [z^{+1}, z^{-1}], normalized by the
        # factor value at beta = 0 to keep the running products centered
        u = self.nodes * LN2
        norm = np.logaddexp(u, -u)
        facs = np.stack([-u - norm, u - norm], axis=1)
        prefix = [np.zeros(1)]
        for f in facs:
            prefix.append(_times_factor(prefix[-1], f))
        suffix = [np.zeros(1)]
        for f in reversed(facs):
            suffix.append(_times_factor(suffix[-1], f))
        suffix.reverse()
        # every numerator and the denominator on the exponent lattice
        # u = -m, ..., m (base 2^u): rows 0..m-1 hold the bumps, row m the
        # denominator, -inf where a sum has no term.  The step is 1, not 2:
        # an odd window leaves numerator exponents of the other parity.
        self._lattice = np.arange(-m, m + 1, dtype=float)
        logs = np.full((m + 1, 2 * m + 1), -np.inf)
        spans = [(max(0, i - window + 1), min(m - 1, i + window - 1))
                 for i in range(m)]
        numers = _conv_log_rows([(prefix[lo], suffix[hi + 1]) for lo, hi in spans])
        for i, (lo, hi) in enumerate(spans):
            used = m - (hi - lo + 1)
            logs[i, m - used:m + used + 1:2] = numers[i, used::-1]
        logs[m, ::2] = prefix[m][::-1]
        self._lattice_logs = logs
        # the peak of bump i is 1 / prod_{j in window(i)} f_j(y_i): its
        # cosh((y_i - y_j) ln2) factors, and in the log their normalizers
        y = self.nodes
        log_norms = np.log(np.cosh(y * LN2))
        self._peaks = np.ones(m)
        log_peaks = np.zeros(m)
        for bumps, near in _window_pairs(m, window):
            self._peaks[bumps] *= np.cosh((y[bumps] - y[near]) * LN2)
            log_peaks[bumps] += log_norms[near]
        self.log_peaks = log_peaks - np.log(self._peaks)

    def design(self, betas: np.ndarray) -> np.ndarray:
        """Matrix of peak-normalized bump values, one column per node:
        prod_{j in window(i)} cosh((y_i - y_j) ln2) / cosh((beta - y_j) ln2)
        in column i.  Rows are computed in blocks of at most _CHUNK_ROWS, so
        a call holds little beyond its result.  Nothing is cached here:
        `_fit_half` computes the matrix once per basis per build and keeps
        it, read-only, next to the basis.
        """
        betas = np.asarray(betas, dtype=float)
        y = self.nodes
        out = np.empty((betas.size, y.size))
        for start in range(0, betas.size, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            dist = np.subtract.outer(betas[rows], y)
            dist *= LN2
            cosh = np.cosh(dist, out=dist)
            block = out[rows]
            block[:] = self._peaks
            for bumps, near in _window_pairs(y.size, self.window):
                block[:, bumps] /= cosh[:, near]
        out.flags.writeable = False
        return out

    @staticmethod
    def fit_coeffs(design: np.ndarray, values: np.ndarray,
                   weights: np.ndarray) -> Optional[np.ndarray]:
        """Weighted nonnegative least-squares fit with Lawson reweighting, on
        a design matrix computed once per basis per build.

        Each solve works on the n x n normal equations, not on the m x n
        weighted design: with A = design * w and the Cholesky factor
        L L^T = A^T A, the NNLS problem min |L^T c - L^-1 A^T (values w)| has
        the objective |A c - values w|^2 less a constant, so its cost scales
        with the node count n rather than the grid rows m.  A Gram matrix
        that is not positive definite raises `LinAlgError` when it occurs
        before any iterate, and ends the reweighting otherwise, as an NNLS
        failure does.

        Reweighting by the running residual pulls the least-squares solution
        toward the minimax one; the best of _LAWSON_ITERS iterates by weighted
        sup residual on the full design is returned, None if NNLS gave none.
        """
        # scipy loads only where it is used
        from scipy.linalg import LinAlgError, cholesky, solve_triangular
        from scipy.optimize import nnls
        w = weights.copy()
        best = None
        best_sup = math.inf
        for _ in range(_LAWSON_ITERS):
            a = design * w[:, None]
            try:
                chol = cholesky(a.T @ a, lower=True, check_finite=False)
            except LinAlgError:
                if best is None:
                    raise
                break
            rhs = solve_triangular(chol, a.T @ (values * w), lower=True,
                                   check_finite=False)
            try:
                coeffs, _ = nnls(chol.T, rhs,
                                 maxiter=max(1000, 50 * design.shape[1]))
            except RuntimeError:
                break
            res = weights * np.abs(design @ coeffs - values)
            sup = float(np.max(res))
            if sup < best_sup:
                best, best_sup = coeffs, sup
            if sup <= 0.0:
                break
            w = w * (res / sup + 0.05)
        return best

    def merged_numerator(self, coeffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Combine c_i * bump_i numerators, grouped by z-exponent.

        Returns (log coefficients, exponents); empty when all c_i vanish.
        """
        active = coeffs > 0.0
        if not np.any(active):
            return np.array([]), np.array([])
        scale = np.log(coeffs[active]) - self.log_peaks[active]
        logs = logsumexp(self._lattice_logs[:-1][active] + scale[:, None], axis=0)
        present = np.isfinite(logs)
        return logs[present], self._lattice[present]


_FIT_CONFIGS = ((1.0, 1), (0.5, 2), (0.5, 4), (0.5, 5))


def _admissible_configs(r_max: float):
    """Basis keys (y_max, spacing, window) of the fit configurations whose
    node grid over the fit range [-r_max, r_max], widened by 2, fits the
    coefficient range; the others are skipped."""
    y_max = r_max + 2.0
    for spacing, window in _FIT_CONFIGS:
        if _node_grid_fits(y_max, spacing):
            yield y_max, spacing, window


# ---------------------------------------------------------------------------
# Block realization: from a bounded decaying function to a finite probability
# block whose partitioned conformal sums reproduce eta_1, eta_2 identically.

def _log_count(n: int) -> float:
    """log of a big-integer count, -inf for 0."""
    return math.log(n) if n else -math.inf


def _part_log_sums(t: float, scales: Tuple[int, int, int, int],
                   fitted: Tuple[np.ndarray, ...], betas: np.ndarray
                   ) -> Tuple[np.ndarray, ...]:
    """log power sums (s0, s1, s2, total) of a block's three parts and their
    total on betas, from the log power sums (S_A, S_B, S_C, S_D) of its
    fitted fractions there."""
    la, lb, lc, ld = fitted
    lk1, lt1, lk2, lt2 = map(_log_count, scales)
    logt = betas * math.log(t)
    log1pt = np.logaddexp(0.0, logt)                    # log(1 + t^beta)
    # the rebalanced fractions A', B', C', D'
    a = lk1 + la
    b = np.logaddexp(lk1 + np.logaddexp(LN2 + logt + la, log1pt + lb), lt1)
    c = lk2 + logt + lc
    d = np.logaddexp(lk2 + np.logaddexp(LN2 + lc, log1pt + ld), lt2)
    sums = [a + np.logaddexp(LN2 + c, d),                     # A' x (2C' + D')
            np.logaddexp(LN2 + a, b) + c,                     # (2A' + B') x C'
            np.logaddexp(a + d, b + np.logaddexp(c, d))]
    # the total as the sum of the parts, not (2A' + B')(2C' + D'), so
    # that factor(0) is 1 to the last bit
    sums.append(logsumexp(np.stack(sums), axis=0))
    return tuple(sums)


def _block_values(t: float, s: Tuple[np.ndarray, ...], betas: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """eta_1, eta_2 and the factor 1 + P_t zeta on betas, from the log part
    sums s = (s0, s1, s2, total) there."""
    logt = betas * math.log(t)
    log1pt = np.logaddexp(0.0, logt)
    num = logsumexp(np.stack([logt + s[0], -logt + s[1], s[2]]), axis=0)
    return (np.exp(log1pt + s[0] - s[3]), np.exp(log1pt - logt + s[1] - s[3]),
            np.exp(num - s[3]))


@dataclass(frozen=True)
class PartitionedBlockSystem:
    """Finite set F = F_1 x F_2 (of order 2^n from realize_block) with the
    product measure mu of two rebalanced fractions, a 3-part partition and
    the pair of functions the parts encode.

    A block is its fit: the fitted multisets (A, B, C, D), with
    eta_1 = S_A / (2 S_A + S_B) and eta_2 = S_C / (2 S_C + S_D), and the
    rebalancing integers scales = (K1, T1, K2, T2).  F_1 carries 2A' + B' and
    F_2 carries 2C' + D', with A' = K1 A, B' = K1 (2 tA + B + tB) + T1,
    C' = K2 tC and D' = K2 (2C + D + tD) + T2 (tX: the weights of X times t,
    T: weights 1).  The parts are f0 = A' x (2C' + D'), f1 = (2A' + B') x C'
    and f2 = A' x D' + B' x (C' + D'); none is materialized, since a power sum
    over a product of multisets is the product of their power sums.  The
    defining identities relate eta_1, eta_2 to partial power sums of mu and
    hold as exact algebra, so their residual is a bug detector rather than
    an approximation error.  Every evaluation computes its power sums
    afresh, in one kernel call.
    """

    t: float
    fractions: Tuple[WeightedMultiset, WeightedMultiset,
                     WeightedMultiset, WeightedMultiset]
    scales: Tuple[int, int, int, int]
    achieved_error: float

    def _log_sums(self, betas: np.ndarray
                  ) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
        """log power sums of the fitted fractions, (S_A, S_B, S_C, S_D), and
        of the three parts and their total, (s0, s1, s2, total), from one
        kernel call with a row per fraction multiset."""
        fitted = tuple(_multiset_log_power_sums(self.fractions, betas).T)
        return fitted, _part_log_sums(self.t, self.scales, fitted, betas)

    def _values(self, betas: np.ndarray):
        return _block_values(self.t, self._log_sums(betas)[1], betas)

    @scalar_or_array
    def eta1(self, betas):
        return self._values(betas)[0]

    @scalar_or_array
    def eta2(self, betas):
        return self._values(betas)[1]

    def zeta(self, beta):
        return self.eta1(beta) - self.eta2(beta)

    @scalar_or_array
    def factor(self, betas):
        """The realizable factor 1 + P_t(beta) * zeta(beta) = integral H^beta dmu_beta."""
        return self._values(betas)[2]

    def identity_residual(self, beta) -> float:
        """Max residual of the two defining identities over the given grid:
        s0/total = eta_1/(1 + t^beta) and s1/total = eta_2 t^beta/(1 + t^beta),
        with eta_1 = K1 S_A / (2 K1 S_A + K1 S_B + T1/(1 + t^beta)) and eta_2
        the same in K2, S_C, S_D, T2."""
        betas = _as_array(beta)
        (la, lb, lc, ld), s = self._log_sums(betas)
        lk1, lt1, lk2, lt2 = map(_log_count, self.scales)
        logt = betas * math.log(self.t)
        log1pt = np.logaddexp(0.0, logt)
        den1 = logsumexp(np.stack([LN2 + lk1 + la, lk1 + lb, lt1 - log1pt]), axis=0)
        den2 = logsumexp(np.stack([LN2 + lk2 + lc, lk2 + ld, lt2 - log1pt]), axis=0)
        lhs1 = np.exp(lk1 + la - den1 - log1pt)
        lhs2 = np.exp(lk2 + lc - den2 + logt - log1pt)
        rhs1 = np.exp(s[0] - s[3])
        rhs2 = np.exp(s[1] - s[3])
        return float(max(np.max(np.abs(lhs1 - rhs1)), np.max(np.abs(lhs2 - rhs2))))


def _rebalance(numer: WeightedMultiset, denom: WeightedMultiset,
               log_den: np.ndarray, eps_slack: float) -> Tuple[int, int]:
    """(K, T) with (4N + 2M) K + T = L = 2^n, n = 1..5001, and T/K small
    enough that adding T/(1 + t^beta) to the denominator moves eta by at
    most eps_slack; log_den is log(2 S_A + S_B) on the fit grid.  A block is
    one such L per fraction, so its order is a power of two."""
    d = 4 * numer.total() + 2 * denom.total()
    # pointwise |eta - eta'| <= (T/K) / (2 * min(2 S_A + S_B)); see module tests
    log_bound = math.log(2.0 * eps_slack) + float(np.min(log_den))
    for n in range(1, 5002):
        size = 1 << n
        k = size // d
        if k < 1:
            continue
        tt = size - d * k
        if tt == 0 or math.log(tt) - math.log(k) <= log_bound:
            return k, tt
    raise RealizationError("no admissible (L, K) pair with L = 2^n, n <= 5001")


def _grid_relevant(log_coeffs: np.ndarray, exps: np.ndarray,
                   r_max: float) -> np.ndarray:
    """Mask of terms that come within exp(-40) of the pointwise maximum
    somewhere on [-r_max, r_max]; the rest never influence the sum there."""
    probes = np.linspace(-r_max, r_max, 401)
    logv = log_coeffs[:, None] + exps[:, None] * probes[None, :] * LN2
    return np.any(logv >= np.max(logv, axis=0)[None, :] - 40.0, axis=1)


def _int_exp_scaled(delta: float, q: int) -> int:
    """round(exp(delta) * q) as an exact big integer for arbitrary delta >= 0."""
    bits = max(0, int((delta - 40.0) / LN2))
    return int(round(math.exp(delta - bits * LN2) * q)) << bits


def _rationalize(log_coeffs: np.ndarray, exps: np.ndarray,
                 shift: float, q: int) -> Dict[int, int]:
    """Integer counts round(exp(lc - shift) * q) keyed by the exponent u of
    base 2^u; exps holds distinct integral values."""
    return {int(u): _int_exp_scaled(float(lc) - shift, q)
            for lc, u in zip(log_coeffs, exps)}


def _fit_half(fvals: np.ndarray, betas: np.ndarray, eps_fit: float,
              bases: Dict[tuple, tuple]
              ) -> Tuple[WeightedMultiset, WeightedMultiset, np.ndarray, np.ndarray]:
    """Fit eta' = S_A / (2 S_A + S_B), for fvals below 1/2, returning
    integer-count multisets A, B and log S_A, log S_B on betas, each
    candidate's pair evaluated in one kernel call.  Each basis, its design
    matrix on the fit rows and the (log coefficients, exponents) of its
    denominator's grid-relevant terms are computed once per build: they are
    taken from, and added to, `bases`, keyed by (y_max, spacing, window), so
    one `bases` dict serves one grid.

    Stops early once the grid error reaches eps_fit, otherwise returns the
    best pair found; the caller's end-to-end error gate is the authority, and
    a target can carry structure below the basis resolution (for instance the
    fit residual of an earlier stage) without invalidating the construction.
    """
    q = 10 ** 12
    if float(np.max(fvals)) <= eps_fit / 2.0:
        # near-zero target: one numerator atom against a heavy denominator
        a = WeightedMultiset({0: 1})
        b = WeightedMultiset({-1: q, 1: q})
        return (a, b, *_multiset_log_power_sums((a, b), betas).T)
    h = fvals / (1.0 - 2.0 * fvals)
    # eta responds to a numerator perturbation through 1/(1+2h)^2; weighting
    # the rows accordingly makes the least-squares error track the eta error
    weights = 1.0 / np.square(1.0 + 2.0 * h)
    r_max = float(betas[-1])
    configs = list(_admissible_configs(r_max))
    if not configs:
        raise InvalidInputError(f"fit range r_max={r_max:g} is too wide: no fit "
                                "configuration keeps its node grid within "
                                f"y_max^2/spacing <= {_NODE_GRID_BOUND:g}")
    step = max(1, (betas.size - 1) // 2000)
    rows = slice(None, None, step)
    best = math.inf
    best_pair = None
    # why each configuration gave no candidate, named by its basis key
    reasons = []
    for key in configs:
        if key not in bases:
            basis = TranslatedKernelBasis(*key)
            den = basis._lattice_logs[-1]
            present = np.isfinite(den)
            log_d, exp_d = den[present], basis._lattice[present]
            keep = _grid_relevant(log_d, exp_d, r_max)
            bases[key] = (basis, basis.design(betas[rows]), log_d[keep], exp_d[keep])
        basis, design, log_d, exp_d = bases[key]
        name = "(y_max={:g}, spacing={:g}, window={})".format(*key)
        try:
            coeffs = basis.fit_coeffs(design, h[rows], weights[rows])
        except np.linalg.LinAlgError:
            reasons.append(f"{name}: normal equations not positive definite")
            continue
        if coeffs is None:
            reasons.append(f"{name}: NNLS gave no coefficients")
            continue
        logs, exps = basis.merged_numerator(coeffs)
        if logs.size == 0:
            reasons.append(f"{name}: the merged numerator was empty")
            continue
        # the term attaining the maximum at a probe is kept, so keep is not empty
        keep = _grid_relevant(logs, exps, r_max)
        # numerator and denominator share one scale so their ratio survives
        # the rounding; counts are big integers, never materialized as floats
        shift = min(float(np.min(logs[keep])), float(np.min(log_d)))
        a = WeightedMultiset(_rationalize(logs[keep], exps[keep], shift, q))
        b = WeightedMultiset(_rationalize(log_d, exp_d, shift, q))
        log_sa, log_sb = _multiset_log_power_sums((a, b), betas).T
        eta = np.exp(log_sa - np.logaddexp(LN2 + log_sa, log_sb))
        err = float(np.max(np.abs(eta - fvals)))
        if err < best:
            best, best_pair = err, (a, b, log_sa, log_sb)
        if err <= eps_fit:
            return a, b, log_sa, log_sb
    if best_pair is None:
        raise FitFailureError(f"half-fit produced no candidate at eps={eps_fit}: "
                              + "; ".join(reasons))
    return best_pair


def realize_block(fvals: np.ndarray, betas: np.ndarray, t: float, epsilon: float,
                  bases: Dict[tuple, tuple]
                  ) -> Tuple[PartitionedBlockSystem, np.ndarray, np.ndarray]:
    """Realize a function bounded by 1/2 with vanishing tails, given by its
    values fvals on the symmetric grid betas, as eta_1 - eta_2 encoded in a
    partitioned finite probability block.

    The construction fits the positive and negative parts separately, then
    rebalances the integer term counts against the block orders 2^n; the
    returned system keeps the four fitted multisets and the rebalancing
    integers, and its two defining identities hold identically.  Both halves
    take their fit bases, design matrices and denominator terms from `bases`
    and add new ones to it; one dict serves every block realized on one grid.

    epsilon is the target the fits aim at, not a gate: the block is returned
    with achieved_error = max |zeta - fvals| on the grid, whatever that is,
    and the caller decides whether to keep it, together with zeta and the
    factor 1 + P_t zeta on betas, formed from the power sums the fits took
    there.  It raises only when there is no block to return: invalid t or
    epsilon, a half-fit with no candidate (`FitFailureError`), or values
    with no headroom below 1/2 or no admissible rebalancing
    (`RealizationError`).
    """
    if not t > 1.0:
        raise InvalidInputError("t must exceed 1")
    if epsilon <= 0.0:
        raise InvalidInputError("epsilon must be positive")
    sup = float(np.max(np.abs(fvals)))
    if sup > 0.5 + 1e-9:
        raise RealizationError(f"sup |f| = {sup!r} exceeds 1/2")

    eps_fit = epsilon / 4.0
    eps_slack = epsilon / 8.0

    # smooth positive/negative split: fp - fm = shrink * f exactly, so the
    # smoothing offset cancels in zeta while both halves stay smooth enough
    # for the bump basis (a hard clip at 0 would leave corners it cannot track)
    ft = (1.0 - epsilon / 8.0) * fvals
    m_max = float(np.max(np.abs(ft)))
    if m_max <= eps_fit / 4.0:
        fp = np.abs(ft)
        fm = np.abs(ft) - ft   # zero where ft >= 0
    else:
        headroom = 0.5 - max(0.01, eps_fit / 4.0)
        if m_max >= headroom:
            raise RealizationError(f"sup |f| = {sup!r} leaves no headroom "
                                   "below 1/2 for the fit")
        s = min(0.5, 8.0 * m_max, math.sqrt(4.0 * headroom * (headroom - m_max)))
        root = np.sqrt(ft * ft + s * s)
        fp = (root + ft) / 2.0
        fm = (root - ft) / 2.0

    a_set, b_set, la, lb = _fit_half(fp, betas, eps_fit, bases)
    c_set, d_set, lc, ld = _fit_half(fm, betas, eps_fit, bases)

    k1, t1 = _rebalance(a_set, b_set, np.logaddexp(LN2 + la, lb), eps_slack)
    k2, t2 = _rebalance(c_set, d_set, np.logaddexp(LN2 + lc, ld), eps_slack)

    # the fits have evaluated every fraction on betas: the grid values of
    # the block are formed from those sums
    scales = (k1, t1, k2, t2)
    eta1, eta2, factor = _block_values(
        t, _part_log_sums(t, scales, (la, lb, lc, ld), betas), betas)
    zeta = eta1 - eta2
    system = PartitionedBlockSystem(
        t=t, fractions=(a_set, b_set, c_set, d_set), scales=scales,
        achieved_error=float(np.max(np.abs(zeta - fvals))))
    return system, zeta, factor
