"""The log-domain exponential-sum kernels and the evaluations built on it.

scipy's logsumexp and a plain per-column evaluation serve as references;
the library itself uses kmspec._arrays.logsumexp throughout, and
kmspec.expratio._log_power_sums for power sums over a beta array.
"""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp as reference_lse

import kmspec.expratio as ke
from kmspec._arrays import logsumexp
from kmspec.expratio import (LN2, _EXP_SCALE, _FIT_CONFIGS,
                             PartitionedBlockSystem, TranslatedKernelBasis,
                             WeightedMultiset, _log_power_sums, _times_factor)

EPS = np.finfo(float).eps


def _conv_log(x, y):
    """The schoolbook log-domain product log(exp(x) * exp(y)), one pass over
    the shorter factor's index: the reference the basis convolutions must
    match to the bit."""
    if x.size > y.size:
        x, y = y, x
    out = np.full(x.size + y.size - 1, -np.inf)
    for i in range(x.size):
        out[i:i + y.size] = np.logaddexp(out[i:i + y.size], x[i] + y)
    return out


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    err = np.abs(got[finite] - want[finite])
    assert np.all(err <= 4 * EPS * np.maximum(1.0, np.abs(want[finite])))


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_kernel_matches_reference_on_wide_spreads(axis):
    rng = np.random.default_rng(7)
    a = rng.uniform(-700.0, 700.0, size=(40, 25))
    _close(logsumexp(a, axis=axis), reference_lse(a, axis=axis))
    # rows of one sign and narrow spreads too
    b = rng.normal(0.0, 1.0, size=(40, 25)) - 650.0
    _close(logsumexp(b, axis=axis), reference_lse(b, axis=axis))


def test_kernel_handles_minus_inf_entries_and_rows_without_warning():
    rng = np.random.default_rng(3)
    a = rng.uniform(-300.0, 300.0, size=(12, 9))
    a[rng.uniform(size=a.shape) < 0.4] = -np.inf
    a[4] = -np.inf
    a[:, 2] = -np.inf
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        rows, cols = logsumexp(a, axis=1), logsumexp(a, axis=0)
        empty = logsumexp(np.full(5, -np.inf))
    _close(rows, reference_lse(a, axis=1))
    _close(cols, reference_lse(a, axis=0))
    assert rows[4] == -np.inf and cols[2] == -np.inf and empty == -np.inf


def test_kernel_single_elements_are_exact():
    xs = np.array([-745.0, -1.5, 0.0, 3.25, 709.0])
    assert np.array_equal(logsumexp(xs[:, None], axis=1), xs)
    for x in xs:
        assert logsumexp([x]) == x
    assert isinstance(logsumexp(xs), float)


def _reference_power_sums(logs: np.ndarray, exps: np.ndarray, betas: np.ndarray):
    """One scipy logsumexp over all terms per sum, one column per sum, and
    at each point the larger of |log S| and the largest |log term|: any
    evaluation of the terms, the reference's too, rounds them to about eps
    times that."""
    powers = np.outer(betas, exps * LN2)
    sums, scales = [], []
    for row in logs:
        terms = row[None, :] + powers
        sums.append(reference_lse(terms, axis=1))
        scales.append(np.max(np.abs(terms), axis=1, where=np.isfinite(terms),
                             initial=0.0))
    want = np.stack(sums, axis=1)
    return want, np.maximum(np.abs(want), np.stack(scales, axis=1))


def _assert_log_close(got, want, scale):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, scale))


def test_power_sum_kernel_matches_reference():
    exps = np.arange(-89, 90, dtype=float)
    draw = random.Random(11)
    counts = [[draw.randrange(1, 1 << 200) for _ in exps] for _ in range(3)]
    logs = np.array([[math.log(c) for c in row] for row in counts])
    logs[1, ::3] = -np.inf      # a sum with gaps in its exponents
    logs[2, :170] = -np.inf     # a sum of the largest exponents only, whose
                                # log crosses 0 near beta = -2.46
    grid = np.linspace(-20.0, 20.0, 4001)
    # the grid spans several beta chunks of the kernel
    assert 40.0 > 3 * (2.0 * _EXP_SCALE / (89 * LN2))
    want, scale = _reference_power_sums(logs, exps, grid)
    _assert_log_close(_log_power_sums(logs, exps, grid), want, scale)
    order = np.random.default_rng(2).permutation(grid.size)
    _assert_log_close(_log_power_sums(logs, exps, grid[order]),
                      want[order], scale[order])
    multiset = WeightedMultiset(dict(zip(range(-89, 90), counts[0])))
    _assert_log_close(multiset.log_power_sum(grid), want[:, 0], scale[:, 0])
    want, scale = _reference_power_sums(logs[:1], exps, np.array([-7.3]))
    _assert_log_close(multiset.log_power_sum(-7.3), want[:, 0], scale[:, 0])


@pytest.mark.parametrize("count", [1, 7, (1 << 200) + 1])
def test_power_sum_kernel_single_exponent_zero(count):
    # the near-zero half fit builds {0: 1} for its numerator
    want = math.log(count)
    grid = np.linspace(-20.0, 20.0, 4001)
    for beta in (grid, 3.0):
        got = WeightedMultiset({0: count}).log_power_sum(beta)
        assert np.all(np.abs(got - want) <= 1e-14 * max(1.0, want))


def _per_column_design(basis: TranslatedKernelBasis, betas: np.ndarray) -> np.ndarray:
    """One log-domain sum over each bump's lattice row, peak-normalized at
    its node by the same sums: a reference that shares no arithmetic with
    the closed-form design."""
    logs = basis._lattice_logs
    lattice = basis._lattice * LN2
    m = basis.nodes.size

    def log_sum(row, bts):
        keep = np.isfinite(row)
        terms = row[keep][None, :] + bts[:, None] * lattice[keep][None, :]
        return reference_lse(terms, axis=1)

    log_den = log_sum(logs[m], betas)
    cols = []
    for i in range(m):
        node = basis.nodes[i:i + 1]
        log_peak = log_sum(logs[i], node) - log_sum(logs[m], node)
        cols.append(np.exp(log_sum(logs[i], betas) - log_den - log_peak))
    return np.stack(cols, axis=1)


def _closed_form_design(basis: TranslatedKernelBasis, window: int,
                        betas: np.ndarray) -> np.ndarray:
    """Bump i is the product over its window of
    cosh((y_i - y_j) ln2) / cosh((beta - y_j) ln2)."""
    y = basis.nodes
    m = y.size
    out = np.empty((betas.size, m))
    for i in range(m):
        window_nodes = y[max(0, i - window + 1):min(m - 1, i + window - 1) + 1]
        log_col = sum(np.log(np.cosh((y[i] - yj) * LN2))
                      - np.log(np.cosh((betas - yj) * LN2)) for yj in window_nodes)
        out[:, i] = np.exp(log_col)
    return out


def _max_relative(got, want, floor=1e-12):
    mask = want >= floor
    return float(np.max(np.abs(got[mask] - want[mask]) / want[mask]))


@pytest.mark.parametrize("grid_n", [251, 2001])
@pytest.mark.parametrize("spacing,window", _FIT_CONFIGS)
def test_batched_design_matches_per_column_reference(spacing, window, grid_n):
    basis = TranslatedKernelBasis(12.0, spacing, window)
    betas = np.linspace(-10.0, 10.0, grid_n)
    design = basis.design(betas)
    assert design.shape == (grid_n, basis.nodes.size)
    assert _max_relative(design, _per_column_design(basis, betas)) <= 1e-12
    assert _max_relative(design, _closed_form_design(basis, window, betas)) <= 1e-12


def _mpmath_design(basis: TranslatedKernelBasis, window: int,
                   betas: np.ndarray):
    """The closed form in 40 digits, from the float nodes and betas taken
    as exact: the design matrix, and the log bump peaks
    sum_{j in window(i)} log cosh(y_j ln2) - log cosh((y_i - y_j) ln2)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    ln2 = mp.log(2)
    y = [mp.mpf(float(v)) for v in basis.nodes]
    m = len(y)
    cosh = [[mp.cosh((mp.mpf(float(x)) - yj) * ln2) for yj in y]
            for x in list(betas) + list(basis.nodes)]
    design = np.empty((betas.size, m))
    log_peaks = np.empty(m)
    for i in range(m):
        near = range(max(0, i - window + 1), min(m - 1, i + window - 1) + 1)
        peak = mp.fprod(cosh[betas.size + i][j] for j in near)
        log_peaks[i] = float(mp.fsum(mp.log(mp.cosh(y[j] * ln2)) for j in near)
                             - mp.log(peak))
        for r in range(betas.size):
            design[r, i] = float(peak / mp.fprod(cosh[r][j] for j in near))
    return design, log_peaks


@pytest.mark.parametrize("spacing,window", _FIT_CONFIGS)
def test_closed_form_design_matches_mpmath(spacing, window):
    # the wreath fit range: nodes out to y_max 22, betas over [-20, 20]
    basis = TranslatedKernelBasis(22.0, spacing, window)
    betas = np.linspace(-20.0, 20.0, 41)
    design, log_peaks = _mpmath_design(basis, window, betas)
    got = basis.design(betas)
    assert np.all(design > 0.0)
    assert float(np.max(np.abs(got - design) / design)) <= 1e-13
    assert float(np.max(np.abs(basis.log_peaks - log_peaks))) <= 1e-13


@pytest.mark.parametrize("spacing,window", _FIT_CONFIGS)
def test_lattice_sums_agree_with_the_closed_form_design(spacing, window):
    # the lattice rows are what a fit's coefficients are merged over and
    # rounded from: each numerator over the denominator, through the
    # kernel, divided by the closed-form peak, is the closed-form bump
    basis = TranslatedKernelBasis(22.0, spacing, window)
    betas = np.linspace(-20.0, 20.0, 2001)
    m = basis.nodes.size
    sums = _log_power_sums(basis._lattice_logs, basis._lattice, betas)
    ratio = np.exp(sums[:, :m] - sums[:, m:] - basis.log_peaks)
    assert _max_relative(ratio, basis.design(betas), floor=0.0) <= 1e-11


@pytest.mark.parametrize("spacing,window", _FIT_CONFIGS)
def test_lattice_logs_are_the_per_bump_convolutions(spacing, window):
    # each numerator is the product of the factors left of its window and
    # those right of it, one _conv_log per bump as the reference; the
    # batched convolution must reproduce it to the bit
    basis = TranslatedKernelBasis(22.0, spacing, window)
    y = basis.nodes
    m = y.size
    norm = np.logaddexp(y * LN2, -y * LN2)
    factors = [np.array([-v * LN2 - n, v * LN2 - n]) for v, n in zip(y, norm)]

    def product(fs):
        out = np.zeros(1)
        for f in fs:
            out = _conv_log(out, f)
        return out

    want = np.full((m + 1, 2 * m + 1), -np.inf)
    for i in range(m):
        lo, hi = max(0, i - window + 1), min(m - 1, i + window - 1)
        used = m - (hi - lo + 1)
        numer = _conv_log(product(factors[:lo]), product(factors[:hi:-1]))
        want[i, m - used:m + used + 1:2] = numer[::-1]
    want[m, ::2] = product(factors)[::-1]
    assert np.array_equal(basis._lattice_logs, want)


@pytest.mark.parametrize("spacing", sorted({s for s, _ in _FIT_CONFIGS}))
def test_two_term_products_are_the_conv_log_chain(spacing):
    # the basis's prefix products, and products of random factors whose
    # terms lie far apart, one factor at a time: every partial product
    # equals the _conv_log chain's to the bit
    y = TranslatedKernelBasis(22.0, spacing).nodes * LN2
    norm = np.logaddexp(y, -y)
    rng = np.random.default_rng(0)
    for factors in (np.stack([-y - norm, y - norm], axis=1),
                    rng.uniform(-300.0, 300.0, size=(60, 2))):
        got = want = np.zeros(1)
        for f in factors:
            got, want = _times_factor(got, f), _conv_log(want, f)
            assert np.array_equal(got, want)


def test_design_is_recomputed_for_a_mutated_grid():
    basis = TranslatedKernelBasis(6.0, 1.0, 2)
    grid = np.linspace(-5.0, 5.0, 101)
    first = basis.design(grid).copy()
    grid *= 0.5
    fresh = TranslatedKernelBasis(6.0, 1.0, 2).design(grid)
    assert np.array_equal(basis.design(grid), fresh)
    assert not np.array_equal(first, fresh)


def test_design_working_memory_is_bounded_by_the_chunk_rows():
    # on wreath-deep's 4001-point output grid a chunk of width alone holds
    # over 1,600 betas; bounded to _CHUNK_ROWS betas, one design call holds
    # at most 2 MB beyond the matrix it returns (over 6 MB unbounded)
    basis = TranslatedKernelBasis(22.0, 0.5, 5)
    betas = np.linspace(-10.0, 10.0, 4001)
    tracemalloc.start()
    try:
        design = basis.design(betas)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert design.shape == (4001, 89)
    assert peak - held <= 2e6


def _small_system() -> PartitionedBlockSystem:
    fractions = (WeightedMultiset({1: 1}), WeightedMultiset({-1: 1}),
                 WeightedMultiset({0: 1}), WeightedMultiset({2: 1}))
    return PartitionedBlockSystem(t=2.0, fractions=fractions,
                                  scales=(3, 1, 2, 0), achieved_error=0.0)


def _factor_by_hand(betas: np.ndarray) -> np.ndarray:
    # A = {2}, B = {1/2}, C = {1}, D = {4}, t = 2 and (K1, T1, K2, T2) =
    # (3, 1, 2, 0): the rebalanced fractions A' = K1 A, B' = K1 (2tA + B + tB)
    # + T1, C' = K2 tC and D' = K2 (2C + D + tD) + T2 written out, then the
    # parts A' x (2C' + D'), (2A' + B') x C' and A' x D' + B' x (C' + D')
    a = 3 * 2.0 ** betas
    b = 6 * 4.0 ** betas + 3 * 0.5 ** betas + 3.0 + 1.0
    c = 2 * 2.0 ** betas
    d = 4.0 + 2 * 4.0 ** betas + 2 * 8.0 ** betas
    s0 = a * (2 * c + d)
    s1 = (2 * a + b) * c
    s2 = a * d + b * (c + d)
    return (2.0 ** betas * s0 + 2.0 ** -betas * s1 + s2) / (s0 + s1 + s2)


def test_part_sums_computed_once_per_grid(monkeypatch):
    # one kernel call per grid, with a row for each of the four fractions
    system = _small_system()
    calls = []
    original = ke._log_power_sums

    def counting(logs, exps, betas):
        calls.append(logs.shape[0])
        return original(logs, exps, betas)

    monkeypatch.setattr(ke, "_log_power_sums", counting)
    grid = np.linspace(-4.0, 4.0, 33)
    system.zeta(grid)
    system.factor(grid)
    system.factor(grid.copy())
    assert calls == [4]
    system.factor(grid[:-1])
    assert calls == [4, 4]


def test_part_sums_fresh_after_grid_mutated_in_place():
    system = _small_system()
    grid = np.linspace(-4.0, 4.0, 33)
    before = system.factor(grid)
    np.testing.assert_allclose(before, _factor_by_hand(grid), rtol=1e-13)
    grid *= 1.5
    after = system.factor(grid)
    np.testing.assert_allclose(after, _factor_by_hand(grid), rtol=1e-13)
    assert np.array_equal(after, _small_system().factor(grid))
    assert not np.allclose(before, after)
    assert np.array_equal(system.zeta(grid), _small_system().zeta(grid))
