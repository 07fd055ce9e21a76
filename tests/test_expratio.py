import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import nnls

from kmspec import expratio as ke
from kmspec._arrays import logsumexp
from kmspec.errors import FitFailureError, InvalidInputError, RealizationError
from kmspec.expratio import (_FIT_CONFIGS, TranslatedKernelBasis,
                             WeightedMultiset, _admissible_configs,
                             realize_block)






def test_multiset_power_sum_matches_bruteforce():
    m = WeightedMultiset({1: 3, -1: 2, 3: 7})
    for beta in (-4.0, 0.0, 2.5):
        brute = 3 * 2.0 ** beta + 2 * 0.5 ** beta + 7 * 8.0 ** beta
        assert abs(math.exp(m.log_power_sum(beta)[0]) - brute) < 1e-12 * brute


@pytest.mark.parametrize("key", [0.5, 1.0, "1"])
def test_multiset_keys_must_be_integer_exponents(key):
    with pytest.raises(InvalidInputError):
        WeightedMultiset({key: 1})


def test_multiset_product_is_pointwise_product():
    a = WeightedMultiset({1: 2, -1: 1})
    b = WeightedMultiset({2: 3, 0: 5})
    p = WeightedMultiset.product(a, b)
    # 2^u x 2^w = 2^(u + w) exactly: 2^1 x 2^0 and 2^-1 x 2^2 share a key
    assert p.items == {3: 6, 1: 10 + 3, -1: 5}
    for beta in (-2.0, 1.3):
        lhs = math.exp(p.log_power_sum(beta)[0])
        rhs = (math.exp(a.log_power_sum(beta)[0])
               * math.exp(b.log_power_sum(beta)[0]))
        assert abs(lhs - rhs) < 1e-12 * rhs


def test_basis_guard_against_underflow():
    with pytest.raises(InvalidInputError):
        TranslatedKernelBasis(y_max=200.0, spacing=0.1)


def test_admissible_fit_configs_at_the_wreath_range():
    # the CLI fits at r_max = 20, where the node grid guard admits every
    # configuration
    keys = list(_admissible_configs(20.0))
    assert [(spacing, window) for _, spacing, window in keys] == [
        (1.0, 1), (0.5, 2), (0.5, 4), (0.5, 5)]
    assert {y_max for y_max, _, _ in keys} == {22.0}
    assert len(list(_admissible_configs(10.0))) == 4


def test_every_fit_configuration_runs_at_the_wreath_range():
    # every fit runs at r_max >= 20; a configuration the node grid guard
    # leaves out there is one no build can use
    keys = list(_admissible_configs(20.0))
    assert [(spacing, window) for _, spacing, window in keys] == list(_FIT_CONFIGS)


def test_basis_columns_peak_at_nodes():
    basis = TranslatedKernelBasis(y_max=6.0, spacing=1.0, window=2)
    grid = np.linspace(-8.0, 8.0, 1601)
    design = basis.design(grid)
    for j, y in enumerate(basis.nodes):
        peak = grid[np.argmax(design[:, j])]
        assert abs(peak - y) < 0.6





def _bump(beta):
    b = np.asarray(beta, dtype=float)
    d = np.maximum(np.abs(b) - 1.0, 0.0)
    return np.tanh(b * math.log(3.0) / 2.0) * d / (2.0 * (1.0 + b * b))


def _block_order(system):
    """|F| = (2A' + B')(2C' + D'), from the fitted totals and the scales."""
    a, b, c, d = (m.total() for m in system.fractions)
    k1, t1, k2, t2 = system.scales
    return (k1 * (4 * a + 2 * b) + t1) * (k2 * (4 * c + 2 * d) + t2)


def test_realize_block_bump_target():
    grid = np.linspace(-20.0, 20.0, 4001)
    system, _, _ = realize_block(_bump(grid), grid, t=3.0, epsilon=2e-2, bases={})
    assert float(np.max(np.abs(system.zeta(grid) - _bump(grid)))) <= 2e-2
    assert system.identity_residual(grid) <= 1e-10
    # the factor 1 + P_1 zeta equals 1 exactly at beta = 0
    assert abs(float(system.factor(0.0)) - 1.0) < 1e-14
    # every block has order 2^n
    assert bin(_block_order(system)).count("1") == 1


def test_realize_block_returns_what_it_measured():
    # an epsilon the basis cannot reach is a target, not a gate: the block
    # comes back with its achieved error measured on the grid
    grid = np.linspace(-20.0, 20.0, 501)
    target = _bump(grid)
    system, zeta, factor = realize_block(target, grid, t=3.0, epsilon=1e-4,
                                         bases={})
    assert system.achieved_error > 1e-4
    assert system.achieved_error == float(np.max(np.abs(zeta - target)))
    assert system.identity_residual(grid) <= 1e-10
    # the grid values it returns are the block's own, to the bit
    assert np.array_equal(zeta, system.zeta(grid))
    assert np.array_equal(factor, system.factor(grid))


def test_realize_block_evaluates_each_fitted_multiset_once(monkeypatch):
    # each fit candidate's A and B go through one kernel call on the build
    # grid, and the block's grid values come from the chosen pairs' sums
    calls = []
    original = ke._multiset_log_power_sums

    def counting(multisets, betas):
        calls.append((multisets, betas))   # keeps every multiset alive
        return original(multisets, betas)

    monkeypatch.setattr(ke, "_multiset_log_power_sums", counting)
    grid = np.linspace(-20.0, 20.0, 501)
    system, _, _ = realize_block(_bump(grid), grid, t=3.0, epsilon=2e-2, bases={})
    assert calls and all(len(ms) == 2 and betas is grid for ms, betas in calls)
    evaluated = [m for ms, _ in calls for m in ms]
    assert len({id(m) for m in evaluated}) == len(evaluated)
    assert [sum(m is f for m in evaluated) for f in system.fractions] == [1] * 4
    # a later evaluation takes the block's four sums from one call
    system.factor(grid[::2])
    assert len(calls) == len(evaluated) // 2 + 1
    assert calls[-1][0] == system.fractions


def _lift(items, v, k):
    """{(u, v): k * count}: every weight 2^u of a fitted fraction times t^v."""
    return Counter({(u, v): k * c for u, c in items.items()})


def _times(x, y):
    out = Counter()
    for (ux, vx), cx in x.items():
        for (uy, vy), cy in y.items():
            out[ux + uy, vx + vy] += cx * cy
    return out


def _materialized_parts(system):
    """The three parts as exact {(u, v): count} multisets of weights 2^u t^v,
    built term by term from the fitted fractions and the scales."""
    a, b, c, d = (m.items for m in system.fractions)
    k1, t1, k2, t2 = system.scales
    ones1, ones2 = Counter({(0, 0): t1}), Counter({(0, 0): t2})
    a1 = _lift(a, 0, k1)                                            # K1 A
    b1 = _lift(a, 1, 2 * k1) + _lift(b, 0, k1) + _lift(b, 1, k1) + ones1
    c1 = _lift(c, 1, k2)                                            # K2 tC
    d1 = _lift(c, 0, 2 * k2) + _lift(d, 0, k2) + _lift(d, 1, k2) + ones2
    ac, ad, bc, bd = _times(a1, c1), _times(a1, d1), _times(b1, c1), _times(b1, d1)
    return ac + ac + ad, ac + ac + bc, ad + bc + bd


def _brute_log_power_sum(part, t, betas):
    keys = list(part)
    logc = np.array([math.log(part[key]) for key in keys])
    logw = np.array([u * math.log(2.0) + v * math.log(t) for u, v in keys])
    return logsumexp(logc[None, :] + betas[:, None] * logw[None, :], axis=1)


def test_factored_parts_match_materialized_products():
    # the parts f0 = A' x (2C' + D'), f1 = (2A' + B') x C' and
    # f2 = A' x D' + B' x (C' + D') of the rebalanced fractions, built term by
    # term as exact multisets, are the reference for the part sums the block
    # evaluates from the power sums of its four fitted fractions
    grid = np.linspace(-20.0, 20.0, 501)
    system, _, _ = realize_block(_bump(grid), grid, t=3.0, epsilon=2e-2, bases={})
    parts = _materialized_parts(system)
    assert any(system.scales[1::2])   # a rebalancing tail is covered
    # the three parts partition F
    assert sum(sum(p.values()) for p in parts) == _block_order(system)
    want = [_brute_log_power_sum(p, system.t, grid) for p in parts]
    want.append(logsumexp(np.stack(want), axis=0))
    _, got = system._log_sums(grid)
    for g, w in zip(got, want):
        # a log difference of 1e-12 is a relative error of 1e-12 in the sum
        assert float(np.max(np.abs(g - w))) <= 1e-12


def test_fit_failure_names_every_configuration(monkeypatch):
    # a half-fit with no candidate says why each configuration it tried gave
    # none, rather than a best error that no candidate ever achieved
    monkeypatch.setattr(TranslatedKernelBasis, "fit_coeffs",
                        staticmethod(lambda design, values, weights: None))
    grid = np.linspace(-20.0, 20.0, 201)
    with pytest.raises(FitFailureError) as info:
        realize_block(_bump(grid), grid, t=3.0, epsilon=2e-2, bases={})
    message = str(info.value)
    for spacing, window in _FIT_CONFIGS:
        assert (f"(y_max=22, spacing={spacing:g}, window={window}): "
                "NNLS gave no coefficients") in message
    assert message.count("NNLS gave no coefficients") == len(_FIT_CONFIGS) == 4
    assert "inf" not in message


def _not_positive_definite(*args, **kwargs):
    raise np.linalg.LinAlgError("leading minor not positive definite")


def test_normal_equations_failure_names_every_configuration(monkeypatch):
    # a Gram matrix that cannot be factored leaves its configuration without
    # a candidate, as an NNLS failure does, and the reason says which
    monkeypatch.setattr(scipy.linalg, "cholesky", _not_positive_definite)
    grid = np.linspace(-20.0, 20.0, 201)
    with pytest.raises(FitFailureError) as info:
        realize_block(_bump(grid), grid, t=3.0, epsilon=2e-2, bases={})
    message = str(info.value)
    for spacing, window in _FIT_CONFIGS:
        assert (f"(y_max=22, spacing={spacing:g}, window={window}): "
                "normal equations not positive definite") in message
    assert message.count("not positive definite") == len(_FIT_CONFIGS)


def _half_fit_problem(spacing, window):
    """Design, half target h and row weights of one fit at the wreath range
    (y_max 22) on a 2001-row grid: the smooth positive half of _bump, mapped
    and weighted as `_fit_half` does."""
    grid = np.linspace(-20.0, 20.0, 2001)
    f = _bump(grid)
    s = min(0.5, 8.0 * float(np.max(np.abs(f))))
    half = (np.sqrt(f * f + s * s) + f) / 2.0
    h = half / (1.0 - 2.0 * half)
    return (TranslatedKernelBasis(22.0, spacing, window).design(grid), h,
            1.0 / np.square(1.0 + 2.0 * h))


def _reference_fit(design, values, weights, iters):
    """The Lawson loop with each NNLS solve on the m x n weighted design:
    the best iterate by weighted sup residual."""
    w = weights.copy()
    best, best_sup = None, math.inf
    for _ in range(iters):
        coeffs, _ = nnls(design * w[:, None], values * w,
                         maxiter=max(1000, 50 * design.shape[1]))
        res = weights * np.abs(design @ coeffs - values)
        sup = float(np.max(res))
        if sup < best_sup:
            best, best_sup = coeffs, sup
        w = w * (res / sup + 0.05)
    return best


@pytest.mark.parametrize("spacing,window", _FIT_CONFIGS)
def test_normal_equation_fit_matches_full_design_reference(spacing, window,
                                                           monkeypatch):
    design, h, weights = _half_fit_problem(spacing, window)

    def sup(coeffs):
        return float(np.max(weights * np.abs(design @ coeffs - h)))

    def objective(coeffs):
        return float(np.sum(np.square(weights * (design @ coeffs - h))))

    got = TranslatedKernelBasis.fit_coeffs(design, h, weights)
    want = _reference_fit(design, h, weights, ke._LAWSON_ITERS)
    assert abs(sup(got) - sup(want)) <= 1e-9 * sup(want)
    # the first solve minimizes the same objective as the m x n one
    monkeypatch.setattr(ke, "_LAWSON_ITERS", 1)
    first = TranslatedKernelBasis.fit_coeffs(design, h, weights)
    assert objective(first) <= objective(_reference_fit(design, h, weights, 1)) * (1.0 + 1e-12)


def test_normal_equations_failure_after_an_iterate_keeps_it(monkeypatch):
    # a factorization that fails on the second solve ends the reweighting
    # with the first iterate, as an NNLS failure there would
    design, h, weights = _half_fit_problem(0.5, 2)
    factor = scipy.linalg.cholesky
    calls = []

    def fail_after_one(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1:
            _not_positive_definite()
        return factor(*args, **kwargs)

    monkeypatch.setattr(ke, "_LAWSON_ITERS", 1)
    first = TranslatedKernelBasis.fit_coeffs(design, h, weights)
    monkeypatch.setattr(ke, "_LAWSON_ITERS", 4)
    monkeypatch.setattr(scipy.linalg, "cholesky", fail_after_one)
    assert np.array_equal(TranslatedKernelBasis.fit_coeffs(design, h, weights), first)
    assert len(calls) == 2


def test_realize_block_names_the_sup_of_a_target_above_one_half():
    # a target with no headroom below 1/2 has no block, and the error says
    # how far it reaches
    grid = np.linspace(-20.0, 20.0, 201)
    with pytest.raises(RealizationError, match=r"^sup \|f\| = 0\.6 exceeds 1/2$"):
        realize_block(np.full_like(grid, 0.6), grid, t=3.0, epsilon=2e-2, bases={})
    with pytest.raises(RealizationError, match="leaves no headroom below 1/2"):
        realize_block(np.full_like(grid, 0.495), grid, t=3.0, epsilon=2e-2,
                      bases={})


def test_realize_block_zero_target():
    betas = np.linspace(-20.0, 20.0, 2001)
    system, _, _ = realize_block(np.zeros_like(betas), betas, t=2.0,
                                 epsilon=1e-2, bases={})
    grid = np.linspace(-20.0, 20.0, 801)
    assert float(np.max(np.abs(system.zeta(grid)))) <= 1e-2
    assert system.identity_residual(grid) <= 1e-10
