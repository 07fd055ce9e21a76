import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from kmspec.blocks import FiniteConformalBlock, ProbVector
from kmspec import spectra
from kmspec.errors import DomainError, InvalidInputError, WindowError
from kmspec.realize import fraction_pair
from kmspec.sets import ClosedSetSpec
from kmspec.spectra import (FreeProductSystem, WreathSystem,
                            assemble_free_product, shift_rn_derivative,
                            solve_free_product_spectrum, solve_spectrum,
                            target_phi_from_set, theta_rn_derivative)

RNG = np.random.default_rng(7)


def rand_block(order, base=2.0):
    w = RNG.uniform(0.2, 1.0, order)
    h = RNG.uniform(1.0 / base, base, order)
    return FiniteConformalBlock(base_measure=ProbVector(w / w.sum()),
                                potential=h, base=base)


def grid_trace(K, betas, report):
    member = np.zeros(betas.shape, dtype=bool)
    for p in report.isolated_roots:
        member |= np.isclose(betas, p, rtol=0.0, atol=1e-12)
    for lo, hi in report.flat_intervals:
        member |= (betas >= lo - 1e-12) & (betas <= hi + 1e-12)
    oracle = np.asarray(K.distance(betas)) == 0.0
    return bool(np.array_equal(member, oracle))


def test_target_phi_requires_zero_in_K():
    with pytest.raises(DomainError):
        target_phi_from_set(ClosedSetSpec(intervals=((1.0, 2.0),)), 2.0)


def test_solve_spectrum_trivial_targets():
    # K = R: the whole range is one interval, cut at both ends
    K = ClosedSetSpec(intervals=((-math.inf, math.inf),))
    report, level = solve_spectrum(target_phi_from_set(K, 2.0), K, r_max=10.0,
                                   grid_n=10001)
    assert report.flat_intervals == ((-10.0, 10.0),)
    assert report.clipped == (True,)
    assert report.isolated_roots == () and level == 0.0
    # points strictly between grid points are reported as given
    for K in (ClosedSetSpec(points=(0.0,)), ClosedSetSpec(points=(0.0, 0.12345))):
        for grid_n in (10000, 10001):
            report, level = solve_spectrum(target_phi_from_set(K, 2.0), K,
                                           r_max=10.0, grid_n=grid_n)
            assert report.isolated_roots == K.points
            assert report.flat_intervals == () and level == 0.0


@pytest.mark.parametrize("K,roots,intervals,clipped", [
    # a point inside an interval or on its end belongs to the interval
    (ClosedSetSpec(intervals=((1.0, 2.0),), points=(0.0, 1.5, 2.0)),
     (0.0,), ((1.0, 2.0),), (False,)),
    # an interval cut to no length is a point; one beyond the range is gone
    (ClosedSetSpec(intervals=((10.0, math.inf), (-30.0, -20.0)), points=(0.0,)),
     (0.0, 10.0), (), ()),
    (ClosedSetSpec(intervals=((-math.inf, -3.0), (3.0, 3.0)),
                   points=(0.0, 3.0, 12.0, -10.0)),
     (0.0, 3.0), ((-10.0, -3.0),), (True,)),
    # an interval reaching the range without passing it is not cut
    (ClosedSetSpec(intervals=((4.0, 10.0), (-10.0, -9.5)), points=(0.0, 0.0)),
     (0.0,), ((-10.0, -9.5), (4.0, 10.0)), (False, False)),
])
def test_report_is_K_in_range(K, roots, intervals, clipped):
    report, level = solve_spectrum(target_phi_from_set(K, 2.0), K, r_max=10.0,
                                   grid_n=101)
    assert report.isolated_roots == roots
    assert report.flat_intervals == intervals
    assert report.clipped == clipped
    assert level == 0.0


@pytest.mark.parametrize("grid_n,K", [
    (10001, ClosedSetSpec(points=(0.0, 3.0, 3.0007))),
    (10001, ClosedSetSpec(intervals=((1.0, 2.0),), points=(0.0, 2.0007))),
    (10001, ClosedSetSpec(intervals=((1.0, 2.0),), points=(0.0, 0.9993))),
    (10000, ClosedSetSpec(intervals=((1.0, 2.0),), points=(0.0, 2.0007))),
    (10000, ClosedSetSpec(points=(0.0, 3.0, 3.0013))),
])
def test_points_within_one_cell_are_all_reported(grid_n, K):
    # points of K within one grid cell of a grid member used to be dropped
    # without a warning; each is reported as given, and 0 as 0.0
    report, _ = solve_spectrum(target_phi_from_set(K, 2.0), K, r_max=10.0,
                               grid_n=grid_n)
    assert report.isolated_roots == tuple(sorted(K.points))
    assert report.flat_intervals == K.intervals
    assert repr(report.isolated_roots[0]) == "0.0"


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_evaluators_do_not_depend_on_the_batch():
    # a solver evaluates everything it reports in one batch; every evaluator
    # must give a point the value it gives it alone, bit for bit, or the
    # residual of a point would depend on what else is reported
    K = ClosedSetSpec(intervals=((1.0, 2.0), (-4.0, -3.5)), points=(-1.25,))
    pair = fraction_pair(K, k=2, Lambda0_order=5, r_max=10.0)
    evaluators = [pair.phi1, pair.phi2, target_phi_from_set(
        ClosedSetSpec(intervals=((1.0, 2.0),), points=(0.0, -1.25)), 2.0)]
    # 10^4 cells, so beta = 0 is on the grid
    grid = np.linspace(-10.0, 10.0, 10001)
    rng = np.random.default_rng(3)
    picks = np.concatenate(([0, grid.size - 1, grid.size // 2],
                            rng.choice(grid.size, 200, replace=False)))
    for fn in evaluators:
        batch = np.asarray(fn(grid), dtype=float)
        alone = [float(fn(grid[i:i + 1])[0]) for i in picks]
        assert _bits(alone) == _bits(batch[picks])
        assert _bits([fn(float(grid[i])) for i in picks]) == _bits(batch[picks])


def test_each_solver_calls_its_evaluators_once():
    # one batched call per evaluator, at the reported points and interval
    # ends, however many features K has
    K = ClosedSetSpec(intervals=((1.0, 2.0), (5.0, math.inf)),
                      points=(0.0, -3.0, -2.9999))
    phi = target_phi_from_set(K, 2.0)
    calls = []

    def counted(b):
        calls.append(np.asarray(b).tolist())
        return phi(b)

    solve_spectrum(counted, K, r_max=10.0, grid_n=10001)
    assert calls == [[-3.0, -2.9999, 0.0, 1.0, 2.0, 5.0, 10.0]]

    K = ClosedSetSpec(intervals=((1.0, 2.0),), points=(-1.0, 3.0))
    pair = fraction_pair(K, k=2, Lambda0_order=4, r_max=10.0)
    calls = {"phi1": [], "phi2": []}

    def counting(name):
        def evaluator(b):
            calls[name].append(np.size(b))
            return getattr(pair, name)(b)
        return evaluator

    counted_pair = dataclasses.replace(pair, phi1=counting("phi1"),
                                       phi2=counting("phi2"))
    solve_free_product_spectrum(counted_pair, K, r_max=10.0, grid_n=10001)
    assert calls == {"phi1": [4], "phi2": [4]}


@pytest.mark.parametrize("K", [
    ClosedSetSpec(points=(0.0,)),
    ClosedSetSpec(intervals=((1.0, 2.0),), points=(0.0,)),
    ClosedSetSpec(intervals=((5.0, 6.0),), points=(0.0, -3.0)),
])
@pytest.mark.parametrize("grid_n", [10000, 10001])
def test_wreath_spectrum_recovery(K, grid_n):
    phi = target_phi_from_set(K, 2.0)
    report, level = solve_spectrum(phi, K, r_max=10.0, grid_n=grid_n)
    betas = np.linspace(-10.0, 10.0, 10000)
    assert grid_trace(K, betas, report)
    assert level == 0.0


@pytest.mark.parametrize("K", [
    ClosedSetSpec(intervals=((1.0, 2.0),)),
    ClosedSetSpec(points=(-1.0, 2.0)),
    ClosedSetSpec(intervals=((3.0, math.inf),)),
])
def test_free_product_spectrum_recovery(K):
    pair = fraction_pair(K, k=2, Lambda0_order=4, r_max=10.0)
    report, level = solve_free_product_spectrum(pair, K, r_max=10.0,
                                                grid_n=10001)
    betas = np.linspace(-10.0, 10.0, 10000)
    assert grid_trace(K, betas, report)
    assert level <= 1e-12
    # the unfactored float metric, independent of how the report is read:
    # it stays at rounding level on K and clear of it everywhere else
    for grid_n in (10000, 10001):
        betas = np.linspace(-10.0, 10.0, grid_n)
        metric = np.maximum(np.abs(pair.phi1(betas) - 0.5),
                            np.abs(pair.phi2(betas) - 2.0) / 2.0)
        on_K = K.distance(betas) == 0.0
        assert np.max(metric[on_K], initial=0.0) <= 1e-13
        assert np.array_equal(metric > 1e-10, ~on_K)


def test_free_product_isolated_points_located():
    K = ClosedSetSpec(points=(-1.0, 2.0))
    pair = fraction_pair(K, k=2, Lambda0_order=4, r_max=10.0)
    # an even grid puts both points strictly between grid points
    report, level = solve_free_product_spectrum(pair, K, r_max=10.0,
                                                grid_n=10000)
    assert report.isolated_roots == (-1.0, 2.0)
    assert level <= 1e-12


def test_unbounded_interval_is_clipped():
    K = ClosedSetSpec(intervals=((3.0, math.inf),))
    pair = fraction_pair(K, k=2, Lambda0_order=4, r_max=10.0)
    report, _ = solve_free_product_spectrum(pair, K, r_max=10.0, grid_n=10001)
    assert report.flat_intervals == ((3.0, 10.0),)
    assert report.clipped == (True,)


@pytest.mark.parametrize("K", [
    ClosedSetSpec(points=(9.9999,), intervals=((-0.5, 0.0),)),
    ClosedSetSpec(points=(-9.9999,), intervals=((0.0, 0.5),)),
])
def test_root_in_end_cell_is_reported(K):
    # the point lies strictly inside the first or last grid cell
    report, _ = solve_spectrum(target_phi_from_set(K, 2.0), K, r_max=10.0,
                               grid_n=10000)
    assert report.isolated_roots == K.points
    assert report.flat_intervals == K.intervals


def test_report_round_trip_dict():
    K = ClosedSetSpec(points=(0.0,))
    report, _ = solve_spectrum(target_phi_from_set(K, 2.0), K, r_max=5.0,
                               grid_n=2001)
    assert report.to_dict() == {"isolated_roots": ["0.0"], "flat_intervals": [],
                                "clipped": [], "grid_n": 2001, "r_max": "5.0"}


# ---------------------------------------------------------------------------
# Radon-Nikodym oracles

def test_wreath_rn_matches_cylinder_oracle():
    system = WreathSystem(blocks=(rand_block(3), rand_block(2)))
    worst = 0.0
    for beta in (-2.0, 0.0, 1.0):
        for c0 in range(system.n_configs):
            lhs = shift_rn_derivative(system, beta, c0)
            rhs = system.cylinder_shift_ratio(beta, {0: c0})
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= 1e-10


def test_wreath_rn_window_three_cylinders():
    system = WreathSystem(blocks=(rand_block(2), rand_block(2)))
    n = system.n_configs
    worst = 0.0
    for beta in (-2.0, 0.0, 1.0):
        for cm1, c0, c1 in itertools.product(range(n), repeat=3):
            lhs = shift_rn_derivative(system, beta, c0)
            rhs = system.cylinder_shift_ratio(beta, {-1: cm1, 0: c0, 1: c1})
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= 1e-10


def build_free_system():
    K = ClosedSetSpec(intervals=((1.0, 2.0),))
    pair = fraction_pair(K, k=2, Lambda0_order=4, r_max=10.0)
    return assemble_free_product(pair, window=3,
                                 extra_blocks1=(rand_block(2, pair.a),), q=4)


def test_theta_rn_matches_cylinder_oracle():
    system = build_free_system()
    o1 = int(np.prod([b.order for b in system.blocks1]))
    o2 = int(np.prod([b.order for b in system.blocks2]))
    worst = 0.0
    for beta in (-2.0, 0.0, 1.0):
        for x0, x1 in itertools.product(range(4), repeat=2):
            for y0 in range(o1):
                for z0 in range(o2):
                    xc = {0: x0, 1: x1}
                    yc = {0: y0, -1: (y0 + 1) % o1}
                    zc = {0: z0, 1: (z0 + 1) % o2}
                    lhs = theta_rn_derivative(system, beta, xc, yc, zc)
                    rhs = system.theta_cylinder_ratio(beta, xc, yc, zc)
                    worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= 1e-10


def test_theta_case_zero_is_identity():
    system = build_free_system()
    assert theta_rn_derivative(system, 1.3, {0: 0, 1: 0}, {0: 0}, {0: 0}) == 1.0


def test_theta_window_errors():
    system = build_free_system()
    with pytest.raises(WindowError):
        system.classify({1: 0})
    with pytest.raises(WindowError):
        theta_rn_derivative(system, 1.0, {0: 1}, {}, {0: 0})


def test_theta_cylinder_outside_window():
    system = build_free_system()
    assert system.window == 3
    # on Y1 the insertion shifts coordinates n >= 0 up by one: a pin at 3 is
    # inside the window, its preimage at 4 is not
    with pytest.raises(WindowError, match="coordinate 4 "):
        system.theta_cylinder_ratio(1.0, {0: 1, 3: 0}, {0: 0}, {0: 0})
    with pytest.raises(WindowError, match="coordinate -4 "):
        system.theta_cylinder_ratio(1.0, {-4: 0, 0: 0, 1: 1}, {0: 0}, {0: 0})
    inside = system.theta_cylinder_ratio(1.0, {0: 1, 2: 0}, {0: 0}, {0: 0})
    formula = theta_rn_derivative(system, 1.0, {0: 1, 2: 0}, {0: 0}, {0: 0})
    assert math.isclose(inside, formula, rel_tol=1e-10)


def test_rn_weights_memo_is_never_stale():
    # the systems keep their weights for the latest beta only; going back to
    # an earlier beta must give what a fresh system gives, bit for bit
    blocks = (rand_block(3), rand_block(2))
    wreath = WreathSystem(blocks=blocks)
    free = build_free_system()
    cylinders = [({0: 1, 1: 2}, {0: 1, -1: 0}, {0: 0, 1: 1}),
                 ({0: 0, 1: 3}, {0: 2, -1: 1}, {0: 1, 1: 0})]

    def values(w, f, beta):
        out = [shift_rn_derivative(w, beta, 4),
               w.cylinder_shift_ratio(beta, {-1: 2, 0: 4, 1: 5})]
        for xc, yc, zc in cylinders:
            out += [theta_rn_derivative(f, beta, xc, yc, zc),
                    f.theta_cylinder_ratio(beta, xc, yc, zc)]
        return out

    seen = []
    for beta in (1.0, -2.0, 1.0):
        fresh_wreath = WreathSystem(blocks=blocks)
        fresh_free = FreeProductSystem(q=free.q, window=free.window,
                                       blocks1=free.blocks1, blocks2=free.blocks2)
        got = values(wreath, free, beta)
        assert got == values(fresh_wreath, fresh_free, beta)
        seen.append(got)
    assert seen[0] == seen[2] != seen[1]
    # the memo is not part of a system's value
    assert wreath == WreathSystem(blocks=blocks) == fresh_wreath
    assert free == fresh_free
    nu, eta, _, h = wreath.weights(1.0)
    assert not (nu.flags.writeable or eta.flags.writeable or h.flags.writeable)


@pytest.mark.parametrize("beta", [-3.0, -2.0, 0.0, 1.0, 3.0])
def test_wreath_eta_is_the_cohomologous_transform(beta):
    # eta has density phi(beta)^{-1} H^beta against nu: eta phi = nu H^beta
    # configuration by configuration, and eta is a probability vector
    system = WreathSystem(blocks=(rand_block(2), rand_block(4)))
    nu, eta, phi, h = system.weights(beta)
    expected = nu * h ** beta
    assert np.max(np.abs(eta * phi - expected) / expected) <= 1e-14
    assert abs(math.fsum(eta) - 1.0) <= 1e-14


# ---------------------------------------------------------------------------
# Cells, memo keys and the constants a system keeps

def test_wreath_cells_outside_the_configuration_space_are_rejected():
    system = WreathSystem(blocks=(rand_block(2), rand_block(4)))
    assert system.n_configs == 8
    for bad in (-1, 8, np.int64(-1), (5, 0), (0, 4), (0, -1), (1, 1, 1), (0.5, 1)):
        with pytest.raises(InvalidInputError, match="outside the configuration"):
            shift_rn_derivative(system, 1.0, bad)
        for n in (-1, 0, 1):
            with pytest.raises(InvalidInputError, match=re.escape(repr(bad))):
                system.cylinder_shift_ratio(1.0, {n: bad, n + 1: 3})
    # a cell given as a tuple of block elements reads the same flat cell
    assert shift_rn_derivative(system, 1.0, (1, 3)) == shift_rn_derivative(system, 1.0, 7)
    assert (system.cylinder_shift_ratio(1.0, {0: (1, 3), 1: (0, 2)})
            == system.cylinder_shift_ratio(1.0, {0: 7, 1: 2}))


def test_free_product_cells_outside_the_configuration_space_are_rejected():
    system = build_free_system()
    for which, x_cells in ((1, {0: 1, 1: 0}), (2, {0: 0, 1: 1})):
        factor = system.factor(which)
        n = factor.n_configs
        for bad in (-1, n, (factor.orders[0],) + (0,) * (len(factor.orders) - 1)):
            cells = [{0: 0, 1: 0}, {0: 0, 1: 0}]
            cells[which - 1] = {0: bad, 1: 0}
            with pytest.raises(InvalidInputError, match=re.escape(repr(bad))):
                theta_rn_derivative(system, 1.0, x_cells, *cells)
            with pytest.raises(InvalidInputError, match=re.escape(repr(bad))):
                system.theta_cylinder_ratio(1.0, x_cells, *cells)
            # the brute-force side reads every pinned cell of both factors,
            # and a cell away from coordinate 0 as well
            cells[which - 1] = {0: 0, -1: bad}
            with pytest.raises(InvalidInputError, match=re.escape(repr(bad))):
                system.theta_cylinder_ratio(1.0, x_cells, *cells)


def test_rn_weights_memo_key_is_the_float_value_and_sign(monkeypatch):
    calls = []
    original = spectra.product_conformal_weights

    def counted(blocks, beta):
        calls.append(beta)
        return original(blocks, beta)

    monkeypatch.setattr(spectra, "product_conformal_weights", counted)
    system = WreathSystem(blocks=(rand_block(2), rand_block(3)))
    system.weights(0.0)
    system.weights(0.0)
    assert len(calls) == 1
    system.weights(-0.0)
    assert len(calls) == 2 and math.copysign(1.0, calls[-1]) == -1.0
    system.weights(1.0)
    assert len(calls) == 3
    nu, eta, phi, h = system.weights(1)
    assert len(calls) == 3
    assert system.weights(np.float64(1.0))[0] is nu
    assert len(calls) == 3
    assert not (nu.flags.writeable or eta.flags.writeable or h.flags.writeable)


def test_wreath_system_keeps_its_orders_and_configuration_count():
    blocks = (rand_block(2), rand_block(3), rand_block(4))
    system = WreathSystem(blocks=blocks)
    assert system.orders == tuple(b.order for b in blocks) == (2, 3, 4)
    assert system.n_configs == math.prod(system.orders) == 24
    assert type(system.n_configs) is int
    for cell in itertools.product(*(range(n) for n in system.orders)):
        flat = int(np.ravel_multi_index(cell, system.orders))
        assert (shift_rn_derivative(system, -1.5, cell)
                == shift_rn_derivative(system, -1.5, flat))
    smaller = dataclasses.replace(system, blocks=blocks[:2])
    assert (smaller.orders, smaller.n_configs) == ((2, 3), 6)
    with pytest.raises(InvalidInputError):
        shift_rn_derivative(smaller, 1.0, 6)
    # the kept constants are not part of a system's value
    assert WreathSystem(blocks=blocks) == system != smaller
    assert WreathSystem(blocks=list(blocks)) == system
