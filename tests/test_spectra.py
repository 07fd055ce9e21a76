import itertools
import math

import numpy as np
import pytest

from kmspec.blocks import FiniteConformalBlock, ProbVector
from kmspec.errors import DomainError, WindowError
from kmspec.realize import fraction_pair
from kmspec.sets import ClosedSetSpec
from kmspec.spectra import (_GOLDEN, FreeProductSystem, WreathSystem,
                            _golden_mins, _near_misses, _report_from_metric,
                            assemble_free_product,
                            shift_rn_derivative, solve_free_product_spectrum,
                            solve_spectrum, target_phi_from_set,
                            theta_rn_derivative)

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
    betas = np.linspace(-10.0, 10.0, 10001)
    # phi identically 1: the whole range is flat
    report = solve_spectrum(lambda b: np.ones_like(np.asarray(b, dtype=float)),
                            r_max=10.0, tol=1e-6, grid_n=10001)
    assert report.flat_intervals == ((-10.0, 10.0),)
    assert report.clipped == (True,)
    # phi = 1 + beta: a single transversal root at 0
    report = solve_spectrum(lambda b: 1.0 + np.asarray(b, dtype=float),
                            r_max=10.0, tol=1e-6, grid_n=10001)
    assert report.isolated_roots == (0.0,)
    assert report.flat_intervals == ()
    # transversal roots strictly between grid points, where phi - 1 changes
    # sign: the near-miss search alone must find them
    for root, phi in ((0.12345, lambda b: 1.0 + (b - 0.12345)),
                      (1.2345, lambda b: 1.0 + np.tanh(50.0 * (b - 1.2345)))):
        for grid_n in (10000, 10001):
            report = solve_spectrum(phi, r_max=10.0, tol=1e-6, grid_n=grid_n)
            assert len(report.isolated_roots) == 1
            assert abs(report.isolated_roots[0] - root) < 1e-12
            assert report.flat_intervals == ()
            assert report.warnings == ()


def _near_misses_pointwise(m, tol):
    # the per-point rule: end points take themselves as the missing neighbour
    n = m.size
    out = []
    for i in range(n):
        lo, hi = max(i - 1, 0), min(i + 1, n - 1)
        slope_room = 1.5 * max(abs(m[hi] - m[i]), abs(m[i] - m[lo]))
        if m[i] <= max(tol, slope_room) and m[i] <= m[lo] and m[i] <= m[hi]:
            out.append(i)
    return out


def test_near_misses_matches_pointwise_rule():
    rng = np.random.default_rng(11)
    cases = [np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([2.0, 2.0]),
             np.array([0.0, 1.0, 0.0]), np.array([3.0, 1.0, 3.0]),
             np.array([1.0, 1.0, 1.0]), np.array([0.5, 4.0, 9.0])]
    for n in (2, 3, 5, 17, 200):
        for _ in range(40):
            # small integers give ties and plateaus; the scale moves values
            # across the tol threshold
            cases.append(rng.integers(0, 4, n) * rng.choice([1e-9, 1e-3, 1.0]))
            cases.append(np.abs(rng.normal(size=n)))
    for m in cases:
        for tol in (1e-6, 0.5, 2.0):
            got = _near_misses(m, tol)
            assert got.tolist() == _near_misses_pointwise(m, tol), (m, tol)


def _golden_min_reference(f, lo, hi):
    # the one-bracket golden-section search the lockstep search replaced
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-14:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_golden_mins_matches_scalar_reference():
    def kinked(b):
        b = np.asarray(b, dtype=float)
        return np.where(b < 0.3, 2.0 * (0.3 - b), b - 0.3) * (1.0 + b * b)

    def smooth(b):
        b = np.asarray(b, dtype=float)
        return (b - 0.7) ** 2 + 0.1 * np.cos(3.0 * b)

    rng = np.random.default_rng(5)
    lo = np.concatenate((
        [0.29, 0.2999, 0.6, -1.0, 0.9, 0.5, 0.31],
        rng.uniform(-2.0, 2.0, 40)))
    hi = np.concatenate((
        # interior brackets; one-sided end cells with the minimum at an end;
        # brackets already narrower than 1e-14
        [0.31, 0.3001, 0.8, -0.998, 0.902, 0.5 + 5e-15, 0.31],
        lo[7:] + rng.uniform(1e-6, 0.5, 40)))
    for f in (kinked, smooth):
        calls = []

        def counted(b):
            calls.append(b)
            return f(b)

        x, fx = _golden_mins(counted, lo, hi)
        ref = [_golden_min_reference(lambda b: float(f(np.array([b]))[0]), a, c)
               for a, c in zip(lo, hi)]
        assert _bits(x) == _bits([r[0] for r in ref])
        assert _bits(fx) == _bits([r[1] for r in ref])
        # one call for both interior points, then one per step
        assert calls[0].size == 2 * lo.size
        assert len(calls) < 80


def test_evaluators_do_not_depend_on_the_batch():
    # a lockstep search evaluates each bracket in a batch of the others;
    # every evaluator must give a point the value it gives it alone, bit for
    # bit, or the refined roots would depend on which brackets are open
    K = ClosedSetSpec(intervals=((1.0, 2.0), (-4.0, -3.5)), points=(-1.25,))
    pair = fraction_pair(K, k=2, Lambda0_order=5, r_max=10.0)
    evaluators = [getattr(pair, name) for name in (
        "bump", "q1", "q2", "zeta1", "zeta2", "prefactor1", "prefactor2",
        "phi1", "phi2")]
    evaluators.append(target_phi_from_set(
        ClosedSetSpec(intervals=((1.0, 2.0),), points=(0.0, -1.25)), 2.0))
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


def test_refinement_calls_do_not_grow_with_the_brackets():
    # every near-miss bracket is refined in the same lockstep search, so
    # twelve off-grid points cost as many metric calls as one; none of these
    # points lies within a cell of another feature, so no merge check runs
    def calls_to_solve(points):
        K = ClosedSetSpec(points=(0.0,) + tuple(points))
        phi = target_phi_from_set(K, 2.0)
        calls = []

        def counted(b):
            calls.append(np.size(b))
            return phi(b)

        report = solve_spectrum(counted, r_max=10.0, tol=1e-6, grid_n=10001)
        assert np.allclose(report.isolated_roots, sorted((0.0,) + tuple(points)),
                           rtol=0.0, atol=1e-12)
        assert report.warnings == ()
        return len(calls)

    points = [-8.9993 + 1.5 * j for j in range(13) if j != 6]
    assert len(points) == 12
    assert calls_to_solve(points) <= calls_to_solve(points[:1])


@pytest.mark.parametrize("K", [
    ClosedSetSpec(points=(0.0,)),
    ClosedSetSpec(intervals=((1.0, 2.0),), points=(0.0,)),
    ClosedSetSpec(intervals=((5.0, 6.0),), points=(0.0, -3.0)),
])
@pytest.mark.parametrize("grid_n", [10000, 10001])
def test_wreath_spectrum_recovery(K, grid_n):
    phi = target_phi_from_set(K, 2.0)
    report = solve_spectrum(phi, r_max=10.0, tol=1e-6, grid_n=grid_n)
    betas = np.linspace(-10.0, 10.0, 10000)
    assert grid_trace(K, betas, report)


@pytest.mark.parametrize("K", [
    ClosedSetSpec(intervals=((1.0, 2.0),)),
    ClosedSetSpec(points=(-1.0, 2.0)),
    ClosedSetSpec(intervals=((3.0, math.inf),)),
])
def test_free_product_spectrum_recovery(K):
    pair = fraction_pair(K, k=2, Lambda0_order=4, r_max=10.0)
    report = solve_free_product_spectrum(pair, r_max=10.0, tol=1e-6,
                                         grid_n=10001)
    betas = np.linspace(-10.0, 10.0, 10000)
    assert grid_trace(K, betas, report)


def test_free_product_isolated_points_located():
    K = ClosedSetSpec(points=(-1.0, 2.0))
    pair = fraction_pair(K, k=2, Lambda0_order=4, r_max=10.0)
    # an even grid puts both roots strictly between grid points
    report = solve_free_product_spectrum(pair, r_max=10.0, tol=1e-6,
                                         grid_n=10000)
    assert np.allclose(report.isolated_roots, (-1.0, 2.0),
                       rtol=0.0, atol=1e-12)


def test_unbounded_interval_is_clipped():
    K = ClosedSetSpec(intervals=((3.0, math.inf),))
    pair = fraction_pair(K, k=2, Lambda0_order=4, r_max=10.0)
    report = solve_free_product_spectrum(pair, r_max=10.0, tol=1e-6,
                                         grid_n=10001)
    assert report.flat_intervals == ((3.0, 10.0),)
    assert report.clipped == (True,)


@pytest.mark.parametrize("K", [
    ClosedSetSpec(points=(9.9999,), intervals=((-0.5, 0.0),)),
    ClosedSetSpec(points=(-9.9999,), intervals=((0.0, 0.5),)),
])
def test_root_in_end_cell_is_refined(K):
    # the point lies strictly inside the first or last grid cell, so only a
    # one-sided search over the end cell can find it
    report = _report_from_metric(lambda b: np.asarray(K.distance(b), dtype=float),
                                 r_max=10.0, tol=1e-6, grid_n=10000, strict=1e-8)
    point = K.points[0]
    assert len(report.isolated_roots) == 1
    assert abs(report.isolated_roots[0] - point) < 1e-12
    assert len(report.flat_intervals) == 1


def test_merged_features_are_named():
    # 3 and 3.001 lie in one grid cell: the report keeps one of them and a
    # warning names both
    K = ClosedSetSpec(points=(0.0, 3.0, 3.001))
    report = solve_spectrum(target_phi_from_set(K, 2.0), r_max=10.0, tol=1e-6,
                            grid_n=10000)
    assert len(report.isolated_roots) == 2
    assert abs(report.isolated_roots[1] - 3.001) < 1e-12
    merged = [w for w in report.warnings if "merged" in w]
    assert len(merged) == 1
    assert "beta=3 " in merged[0] and "beta=3.001 " in merged[0]


def test_report_round_trip_dict():
    report = solve_spectrum(lambda b: 1.0 + np.asarray(b, dtype=float),
                            r_max=5.0, tol=1e-6, grid_n=2001)
    d = report.to_dict()
    assert d["isolated_roots"] == ["0.0"]
    assert d["grid_n"] == 2001


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
