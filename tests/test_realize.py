import dataclasses
import math

import numpy as np
import pytest

import kmspec.realize as kr
from kmspec.blocks import integrate_potential
from kmspec.errors import FitFailureError, InvalidInputError, RealizationError
from kmspec.expratio import WeightedMultiset
from kmspec.realize import (build_realizable, clamp_f, default_schedule,
                            eval_phi, fraction_pair, mobius_eval, ratio_bound,
                            tanh_ratio)
from kmspec.sets import ClosedSetSpec

GRID = np.linspace(-20.0, 20.0, 4001)


def test_mobius_eval_is_tanh():
    a = 3.0
    expect = np.tanh(GRID * math.log(a) / 2.0)
    assert np.max(np.abs(mobius_eval(a, GRID) - expect)) < 1e-14


def test_tanh_ratio_bounded_and_consistent():
    l1, l2 = math.log(3.0), math.log(1.5)
    vals = tanh_ratio(l1, l2, GRID)
    mask = np.abs(GRID) > 1e-6
    with np.errstate(invalid="ignore"):
        expect = np.tanh(GRID * l1 / 2.0) / np.tanh(GRID * l2 / 2.0)
    assert np.max(np.abs(vals[mask] - expect[mask])) < 1e-12
    # removable singularity at 0: the ratio tends to l1/l2
    assert abs(float(tanh_ratio(l1, l2, 0.0)) - l1 / l2) < 1e-9
    assert float(np.max(np.abs(vals))) <= ratio_bound(3.0, 1.5) + 1e-12


def test_ratio_bound_is_the_sup_of_the_tanh_ratio():
    # the sup of |P_n / P_{n+1}| is ln(a_n)/ln(a_next) at beta = 0 on a
    # decreasing schedule, and the limit 1 at infinity when a_n < a_next
    half = np.linspace(0.0, 200.0, 200001)
    scan_grid = np.concatenate([-half[:0:-1], half])
    pairs = [(sched[k - 1], sched[k]) for t in (1.5, 2.0, 3.0, 10.0)
             for sched in [default_schedule(t, 5)] for k in range(1, 6)]
    for a_n, a_next in pairs + [(1.5, 3.0)]:
        ratio = tanh_ratio(math.log(a_n), math.log(a_next), scan_grid)
        scan = float(np.max(np.abs(ratio)))
        bound = ratio_bound(a_n, a_next)
        assert scan <= bound <= scan * (1.0 + 2e-9), (a_n, a_next)


def test_default_schedule_shape():
    sched = default_schedule(3.0, 4)
    assert len(sched) == 5
    assert sched[0] == 3.0
    assert all(x > y > 1.0 for x, y in zip(sched, sched[1:]))


def test_clamp_properties():
    assert clamp_f(0.3) == 0.3
    assert clamp_f(-0.5) == -0.5
    assert clamp_f(2.0) == 0.0
    assert abs(clamp_f(0.75) - 0.25) < 1e-15
    assert abs(clamp_f(-0.75) + 0.25) < 1e-15


def zeta_on_grid(K, grid_n=4001):
    """The wreath target zeta = d(beta, K) / (2 (1 + beta^2)) on the build
    grid of grid_n points over [-20, 20], and that grid."""
    betas = np.linspace(-20.0, 20.0, grid_n)
    return np.asarray(K.distance(betas)) / (2.0 * (1.0 + betas * betas)), betas


def test_build_realizable_two_stages():
    K = ClosedSetSpec(intervals=((-1.0, 1.0),))
    cocycle = build_realizable(*zeta_on_grid(K), a=3.0, stages=2)
    assert cocycle.certified_error <= 0.5
    assert max(s.identity_residual(GRID) for s in cocycle.stages) <= 1e-10
    phi = eval_phi(cocycle, GRID)
    target = 1.0 + mobius_eval(3.0, GRID) * zeta_on_grid(K)[0]
    assert float(np.max(np.abs(phi - target))) <= cocycle.certified_error + 1e-12
    assert abs(eval_phi(cocycle, 0.0) - 1.0) < 1e-12


def test_build_realizable_guards():
    K = ClosedSetSpec(intervals=((-1.0, 1.0),))
    with pytest.raises(InvalidInputError):
        build_realizable(*zeta_on_grid(K), a=1.0, stages=2)
    with pytest.raises(InvalidInputError):
        build_realizable(*zeta_on_grid(K), a=2.0, stages=0)


def test_build_realizable_names_a_stage_without_headroom(monkeypatch):
    # K = {0}, t = 2 on a 101-point grid: the third stage's residual leaves
    # the fit no headroom below 1/2, and the build says which stage and the
    # residual's sup, as for any other stage failure
    K = ClosedSetSpec(points=(0.0,))
    seen = []
    real = kr.realize_block

    def recorded(res, *args, **kwargs):
        seen.append(float(np.max(np.abs(res))))
        return real(res, *args, **kwargs)

    monkeypatch.setattr(kr, "realize_block", recorded)
    with pytest.raises(RealizationError) as info:
        build_realizable(*zeta_on_grid(K, 101), a=2.0, stages=3)
    assert len(seen) == 3
    message = str(info.value)
    assert message.startswith("stage 3 failed: sup |f| = ")
    assert repr(seen[-1]) in message
    assert isinstance(info.value.__cause__, RealizationError)


def test_build_realizable_propagates_programming_errors(monkeypatch):
    # a programming error inside a stage propagates as it is, after the one
    # realize_block call the stage makes
    calls = []

    def broken(*args, **kwargs):
        calls.append(kwargs["epsilon"])
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(kr, "realize_block", broken)
    K = ClosedSetSpec(intervals=((-1.0, 1.0),))
    with pytest.raises(ZeroDivisionError):
        build_realizable(*zeta_on_grid(K, 101), a=3.0, stages=1)
    assert len(calls) == 1


def _stage_tolerances(a, stages):
    sched = default_schedule(a, stages)
    return [min(1.0 / (4.0 * ratio_bound(sched[k - 1], sched[k])), 2.0 ** (-k))
            for k in range(1, stages + 1)]


def test_build_realizable_fits_each_stage_once(monkeypatch):
    # K = {0} u [1, 2], t = 2, two stages on a 501-point build grid: stage 1
    # misses eps_1 but stays within 4 eps_1, and its block is kept rather
    # than fitted again at a looser tolerance
    calls, blocks = [], []
    real = kr.realize_block

    def counted(*args, **kwargs):
        calls.append(kwargs["epsilon"])
        blocks.append(real(*args, **kwargs))
        return blocks[-1]

    monkeypatch.setattr(kr, "realize_block", counted)
    K = ClosedSetSpec(intervals=((1.0, 2.0),), points=(0.0,))
    cocycle = build_realizable(*zeta_on_grid(K, 501), a=2.0, stages=2)
    eps = _stage_tolerances(2.0, 2)
    assert calls == eps
    assert [block for block, _, _ in blocks] == list(cocycle.stages)
    first = cocycle.stages[0]
    assert eps[0] < first.achieved_error <= 4.0 * eps[0]
    assert cocycle.certified_error <= cocycle.budget


def test_build_realizable_rejects_a_stage_beyond_four_eps(monkeypatch):
    real = kr.realize_block

    def loose(*args, **kwargs):
        system, zeta, factor = real(*args, **kwargs)
        return (dataclasses.replace(
            system, achieved_error=4.0 * kwargs["epsilon"] * (1.0 + 1e-6)),
            zeta, factor)

    monkeypatch.setattr(kr, "realize_block", loose)
    K = ClosedSetSpec(intervals=((-1.0, 1.0),))
    eps_1 = _stage_tolerances(3.0, 2)[0]
    with pytest.raises(RealizationError) as info:
        build_realizable(*zeta_on_grid(K, 401), a=3.0, stages=2)
    message = str(info.value)
    assert message.startswith("stage 1 failed: achieved error")
    assert f"4 eps_k = {4.0 * eps_1}" in message


def test_build_realizable_reports_a_fit_failure_after_one_call(monkeypatch):
    calls = []
    failure = FitFailureError("half-fit produced no candidate")

    def failing(*args, **kwargs):
        calls.append(kwargs["epsilon"])
        raise failure

    monkeypatch.setattr(kr, "realize_block", failing)
    K = ClosedSetSpec(intervals=((-1.0, 1.0),))
    with pytest.raises(RealizationError) as info:
        build_realizable(*zeta_on_grid(K, 101), a=3.0, stages=2)
    assert str(info.value) == "stage 1 failed: half-fit produced no candidate"
    assert info.value.__cause__ is failure
    assert len(calls) == 1


def test_build_realizable_never_builds_multiset_products(monkeypatch):
    # a block keeps its four fitted fractions and evaluates its parts from
    # their power sums; no product multiset is built
    def refuse(*args):
        raise AssertionError("block multisets were materialized")

    monkeypatch.setattr(WeightedMultiset, "product", staticmethod(refuse))
    K = ClosedSetSpec(intervals=((-1.0, 1.0),))
    cocycle = build_realizable(*zeta_on_grid(K, 401), a=3.0, stages=2)
    assert len(cocycle.stages) == 2
    assert max(s.identity_residual(GRID) for s in cocycle.stages) <= 1e-10


@pytest.mark.parametrize("K,expected_abc", [
    (ClosedSetSpec(intervals=((1.0, 2.0),)), (80.0, 8.0, 9.0)),
    (ClosedSetSpec(intervals=((3.0, math.inf),)), (8.0, 2.0, 3.0)),
])
def test_fraction_pair_parameters(K, expected_abc):
    pair = fraction_pair(K, k=2, Lambda0_order=4, r_max=10.0)
    assert (pair.a, pair.b, pair.c) == expected_abc
    assert pair.c == pair.b + 1.0


def test_fraction_pair_values():
    K = ClosedSetSpec(intervals=((1.0, 2.0),))
    # phi_i(0) = 1: at beta = 0 both exponential sums of the prefactor are
    # 2k + l
    for k in (2, 3):
        for order in (2 * k, 2 * k + 1, 2 * k + 3):
            pair = fraction_pair(K, k=k, Lambda0_order=order, r_max=10.0)
            for phi in (pair.phi1, pair.phi2):
                assert abs(float(phi(0.0)) - 1.0) <= 1e-12, (k, order)
    pair = fraction_pair(K, k=2, Lambda0_order=4, r_max=10.0)
    inside = np.linspace(1.0, 2.0, 101)
    assert np.max(np.abs(np.asarray(pair.phi1(inside)) - 0.5)) < 1e-13
    assert np.max(np.abs(np.asarray(pair.phi2(inside)) - 2.0)) < 1e-12
    outside = np.array([-5.0, 0.5, 2.5, 8.0])
    assert np.all(np.abs(np.asarray(pair.phi1(outside)) - 0.5) > 1e-13)
    assert np.all(np.abs(np.asarray(pair.phi2(outside)) - 2.0) > 1e-13)


def _reference_pair(k, l, a, b, c, K, betas):
    """phi_i = prefactor_i (1 + P clamp(q_i) bump) in closed form, with q_i
    the solution of prefactor_i (1 + P q_i) = target_i, the fraction
    identity, and phi_i = prefactor_i at beta = 0."""
    prefactor1 = ((1.0 + 2.0 * (k - 1) * b ** betas + a ** betas + l * c ** betas)
                  / (k + k * a ** betas + l * c ** betas))
    p = np.tanh(betas * math.log(a) / 2.0)
    bump = np.maximum(0.0, 1.0 - K.distance(betas))
    off = np.where(betas == 0.0, 1.0, p)
    phis = []
    for prefactor, target in ((prefactor1, 1.0 / k), (1.0 / prefactor1, float(k))):
        q = (target / prefactor - 1.0) / off
        clamped = np.sign(q) * np.maximum(0.0, np.minimum(np.abs(q), 1.0 - np.abs(q)))
        phis.append(prefactor * (1.0 + np.where(betas == 0.0, 0.0,
                                                p * clamped * bump)))
    return phis


@pytest.mark.parametrize("k,order", [(2, 4), (2, 5), (2, 7), (3, 6), (3, 7), (3, 9)])
def test_fraction_pair_matches_closed_form(k, order):
    K = ClosedSetSpec(intervals=((1.0, 2.0), (-4.0, -3.5)), points=(-0.75,))
    pair = fraction_pair(K, k=k, Lambda0_order=order, r_max=10.0, grid_n=2001)
    betas = np.linspace(-10.0, 10.0, 2001)
    want = _reference_pair(k, pair.l, pair.a, pair.b, pair.c, K, betas)
    for got, ref in zip((pair.phi1(betas), pair.phi2(betas)), want):
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), (k, order)


EVALUATORS = ("phi1", "phi2")


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_fraction_pair_evaluators_do_not_depend_on_earlier_calls():
    # whatever was asked before, each evaluator gives the value a fresh pair
    # gives
    K = ClosedSetSpec(intervals=((1.0, 2.0), (-4.0, -3.5)), points=(-1.25,))

    def fresh():
        return fraction_pair(K, k=2, Lambda0_order=5, r_max=10.0, grid_n=101)

    # A and B have one shape, so only their values tell them apart
    grids = {"A": np.linspace(-10.0, 10.0, 2001), "B": np.linspace(-3.0, 3.0, 2001),
             "zero": np.array([0.0]), "minus zero": np.array([-0.0])}
    reference = {(name, g): _bits(getattr(fresh(), name)(grid))
                 for name in EVALUATORS for g, grid in grids.items()}

    def check(pair, name, g):
        assert _bits(getattr(pair, name)(grids[g])) == reference[name, g], (name, g)

    pair = fresh()
    for g in ("A", "B"):
        check(pair, "phi2", g)
        check(pair, "phi1", g)
    for name in EVALUATORS:
        for order in (("A", "B", "A"), ("zero", "minus zero", "zero")):
            pair = fresh()
            for g in order:
                check(pair, name, g)
        for g, beta in (("zero", 0.0), ("minus zero", -0.0), ("zero", 0.0)):
            assert _bits([getattr(pair, name)(beta)]) == reference[name, g], (name, g)


def test_fraction_pair_arrays_are_read_only():
    # the grid values a pair returns are its own: no caller can change what
    # another reads, and a fresh evaluation gives the same bits
    pair = fraction_pair(ClosedSetSpec(points=(-1.0, 2.0)), k=2,
                         Lambda0_order=4, r_max=10.0, grid_n=11)
    betas = np.linspace(-10.0, 10.0, 11)
    for name in EVALUATORS:
        values = getattr(pair, f"{name}_grid")
        with pytest.raises(ValueError):
            values[0] = 1.0
        assert _bits(values) == _bits(getattr(pair, name)(betas))


def test_fraction_pair_rejects_zero_in_K():
    with pytest.raises(InvalidInputError):
        fraction_pair(ClosedSetSpec(intervals=((-1.0, 1.0),)), k=2,
                      Lambda0_order=4)


def test_first_block_realizes_prefactor():
    # prefactor_1 = (1 + 2(k-1) b^beta + a^beta + l c^beta)
    #               / (k + k a^beta + l c^beta), and prefactor_2 = 1/prefactor_1
    K = ClosedSetSpec(points=(-1.0, 2.0))
    for order in (4, 5, 7):
        pair = fraction_pair(K, k=2, Lambda0_order=order, r_max=10.0)
        k, l, a, b, c = pair.k, pair.l, pair.a, pair.b, pair.c
        for beta in (-3.0, -0.5, 0.0, 1.0, 2.5):
            prefactor1 = ((1.0 + 2.0 * (k - 1) * b ** beta + a ** beta + l * c ** beta)
                          / (k + k * a ** beta + l * c ** beta))
            for which, prefactor in ((1, prefactor1), (2, 1.0 / prefactor1)):
                got = integrate_potential(pair.first_block(which), beta)
                assert abs(got - prefactor) < 1e-12 * prefactor, (order, which, beta)


def test_q_bounded_off_delta():
    K = ClosedSetSpec(intervals=((1.0, 2.0),))
    pair = fraction_pair(K, k=2, Lambda0_order=4, grid_n=4001, r_max=10.0)
    assert 0.0 < pair.q_max <= 0.5 + 1e-12
