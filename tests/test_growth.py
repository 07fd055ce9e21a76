import math

import numpy as np
import pytest

from kmspec.errors import ConvergenceError, DomainError
from kmspec.growth import (CocycleModel, DefectCertificate, ball_census,
                           build_measure_net, classify_spectrum, limsup_ratio,
                           omega_mu, uniquely_ergodic_classifier,
                           SPECTRUM_CLASSES)


def test_ball_census_z():
    census = ball_census(12)
    assert census == (1,) + (2,) * 12


# The per-element reference: Z's spheres by breadth-first search, the
# presets as scalar closures, and the limsup, measure net and cocycle check
# as loops over the elements, one act/omega call each.  The cocycle identity
# holds for every preset by construction, so it is checked here and not in
# a manifest.

GENS = (1, -1)


def reference_spheres(n_max):
    seen = {0}
    spheres = [{0}]
    frontier = [0]
    for _ in range(n_max):
        nxt = []
        for g in frontier:
            for s in GENS:
                if g + s not in seen:
                    seen.add(g + s)
                    nxt.append(g + s)
        spheres.append(set(nxt))
        frontier = nxt
    return spheres


def reference_preset(name, n_states=64, step=7, c=1.0):
    """(act, omega) of a preset, on Python scalars."""
    def act(g, x):
        return (x + g * step) % n_states

    h = np.sin(2.0 * math.pi * np.arange(n_states) / n_states)

    def coboundary(g, x):
        return float(h[act(g, x)] - h[x])

    omega = {"coboundary": coboundary,
             "homomorphism": lambda g, x: c * g,
             "mixed": lambda g, x: coboundary(g, x) + c * g}[name]
    return act, omega


def reference_cocycle_identity(act, omega, n_states, n_samples):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(n_samples):
        g = int(rng.integers(-20, 21))
        h = int(rng.integers(-20, 21))
        x = int(rng.integers(0, n_states))
        lhs = omega(g, act(h, x)) + omega(h, x)
        worst = max(worst, abs(lhs - omega(g + h, x)))
    return worst


def reference_limsup_tails(omega, x, beta, horizon):
    spheres = reference_spheres(horizon)
    sphere_sups = [max(beta * omega(g, x) / k for g in spheres[k])
                   for k in range(1, horizon + 1)]
    tails = []
    running = -math.inf
    for sup in reversed(sphere_sups):
        running = max(running, sup)
        tails.append(running)
    return tuple(reversed(tails))


def reference_measure_net(act, omega, n_states, x, beta, s, radius):
    spheres = reference_spheres(radius)
    weights = {}
    for k, sphere in enumerate(spheres):
        for g in sphere:
            weights[g] = math.exp(beta * omega(g, x) - k * s)
    total = math.fsum(weights.values())
    idx = np.arange(n_states)
    test_functions = [np.ones(n_states), np.cos(2.0 * math.pi * idx / n_states),
                      (idx % 3 == 0).astype(float)]
    shell_mass = math.fsum(weights[g] for g in spheres[radius]) / total
    certificates = []
    for h in GENS:
        for f in test_functions:
            f_sup = float(np.max(np.abs(f)))
            lhs = math.fsum(f[act(h, act(g, x))]
                            * math.exp(beta * omega(h, act(g, x))) * w / total
                            for g, w in weights.items())
            rhs = math.fsum(f[act(g, x)] * w / total for g, w in weights.items())
            omega_sup = max(abs(beta * omega(h, y)) for y in range(n_states))
            certificates.append(DefectCertificate(
                generator=h, measured_defect=abs(lhs - rhs),
                analytic_bound=f_sup * abs(math.exp(s) - 1.0),
                truncation_slack=f_sup * (1.0 + math.exp(omega_sup)) * shell_mass))
    return certificates


@pytest.mark.parametrize("preset", ["coboundary", "homomorphism", "mixed"])
@pytest.mark.parametrize("model,beta,s,radius", [
    ({"c": 0.4}, 1.0, 0.5, 60),
    ({"c": 0.3}, -1.0, 0.35, 400),
    ({"c": 0.0}, 0.7, 2.0, 9),
    ({"n_states": 7, "step": 3, "c": -0.2}, 1.0, 1.5, 40),
], ids=["c0.4", "c0.3", "c0", "seven-states"])
def test_growth_matches_the_per_element_reference(preset, model, beta, s,
                                                  radius):
    cocycle = CocycleModel.from_preset(preset, **model)
    act, omega = reference_preset(preset, **model)
    n = cocycle.n_states
    assert ball_census(radius) == tuple(map(len, reference_spheres(radius)))
    for sign in (1.0, -1.0):
        assert (limsup_ratio(cocycle, 3, sign * beta, 2 * n).tails
                == reference_limsup_tails(omega, 3, sign * beta, 2 * n))
    assert build_measure_net(cocycle, 3, beta, s, radius) == (
        reference_measure_net(act, omega, n, 3, beta, s, radius))


@pytest.mark.parametrize("preset", ["coboundary", "homomorphism", "mixed"])
def test_cocycle_identity(preset):
    model = CocycleModel.from_preset(preset)
    assert reference_cocycle_identity(model.act, model.omega, model.n_states,
                                      10000) <= 1e-10


def test_limsup_coboundary_telescoping_bound():
    model = CocycleModel.from_preset("coboundary")
    est = limsup_ratio(model, 0, 1.0, horizon=40)
    # |Omega(g, x)| <= 2 sup|H| = 2, so the tail at n is below 2/n
    for n, tail in enumerate(est.tails, start=1):
        assert tail <= 2.0 / n + 1e-12
    assert est.estimate <= 2.0 / 40 + 1e-12


def test_limsup_homomorphism_is_constant():
    model = CocycleModel.from_preset("homomorphism", c=0.7)
    est = limsup_ratio(model, 0, 1.0, horizon=30)
    assert abs(est.estimate - 0.7) < 1e-14
    # negative beta picks up the negative direction: sup is again c
    est = limsup_ratio(model, 0, -1.0, horizon=30)
    assert abs(est.estimate - 0.7) < 1e-14


def test_limsup_beta_zero():
    model = CocycleModel.from_preset("homomorphism", c=0.7)
    assert limsup_ratio(model, 0, 0.0, horizon=20).estimate == 0.0


def test_measure_net_geometric_at_trivial_cocycle():
    # beta = 0 kills the cocycle: m_s is the symmetric geometric weighting,
    # so the defect of generator h on f is |sum_y m_s(y) (f(y + h) - f(y))|
    model = CocycleModel.from_preset("homomorphism", c=1.0, n_states=7, step=1)
    certs = build_measure_net(model, 0, beta=0.0, s=1.0, radius=40)
    total = sum(math.exp(-abs(n)) for n in range(-40, 41))
    expect = np.zeros(7)
    for n in range(-40, 41):
        expect[n % 7] += math.exp(-abs(n)) / total
    states = np.arange(7)
    test_functions = [np.ones(7), np.cos(2.0 * math.pi * states / 7),
                      (states % 3 == 0).astype(float)]
    want = [abs(float(np.sum(expect * (f[(states + h) % 7] - f))))
            for h in (1, -1) for f in test_functions]
    assert len(certs) == len(want)
    for cert, defect in zip(certs, want):
        assert abs(cert.measured_defect - defect) < 1e-14


@pytest.mark.parametrize("s,radius", [(0.5, 60), (0.1, 200), (0.01, 2500)])
def test_measure_net_defects_within_bound(s, radius):
    model = CocycleModel.from_preset("coboundary")
    certs = build_measure_net(model, 0, beta=1.0, s=s, radius=radius)
    assert certs and all(c.passed for c in certs)


def test_measure_net_divergence_guard():
    model = CocycleModel.from_preset("coboundary")
    with pytest.raises(ConvergenceError):
        build_measure_net(model, 0, beta=1.0, s=1e-4, radius=50)


def test_measure_net_overflow_is_a_convergence_error():
    # exp(800) of the outermost element overflows
    model = CocycleModel.from_preset("homomorphism", n_states=7, step=1, c=-2.5)
    with pytest.raises(ConvergenceError, match="overflows"):
        build_measure_net(model, 0, beta=1.0, s=0.5, radius=400)
    # each weight is near exp(709), finite, and their fsum is not
    flat = CocycleModel(n_states=1, act=lambda g, x: np.zeros_like(g),
                        omega=lambda g, x: np.full(np.shape(g), 709.0))
    with pytest.raises(ConvergenceError, match="overflows"):
        build_measure_net(flat, 0, beta=1.0, s=1e-9, radius=1)
    # past the ball sum: exp(|h| s) in the bound, and exp(beta Omega(h, x))
    # of a generator, each exp(800)
    model = CocycleModel.from_preset("coboundary", n_states=7)
    with pytest.raises(ConvergenceError, match="s = 800.0, radius 10"):
        build_measure_net(model, 0, beta=1.0, s=800.0, radius=10)
    model = CocycleModel.from_preset("homomorphism", n_states=7, c=800.0)
    with pytest.raises(ConvergenceError, match="s = 1000.0, radius 10"):
        build_measure_net(model, 0, beta=1.0, s=1000.0, radius=10)


def test_classifier_four_way():
    outputs = {classify_spectrum(a, b) for a in (True, False)
               for b in (True, False)}
    assert outputs == set(SPECTRUM_CLASSES)
    assert classify_spectrum(True, True) == "R"
    assert classify_spectrum(True, False) == "[0,inf)"
    assert classify_spectrum(False, True) == "(-inf,0]"
    assert classify_spectrum(False, False) == "{0}"


def test_classifier_on_constructive_models():
    # horizon is a multiple of the state count, where the coboundary's sphere
    # sup vanishes exactly because the rotation wraps around
    margin = 1e-9
    cb = CocycleModel.from_preset("coboundary")
    flags = (limsup_ratio(cb, 0, 1.0, 128).estimate <= margin,
             limsup_ratio(cb, 0, -1.0, 128).estimate <= margin)
    assert classify_spectrum(*flags) == "R"
    hm = CocycleModel.from_preset("homomorphism", c=0.5)
    flags = (limsup_ratio(hm, 0, 1.0, 30).estimate <= margin,
             limsup_ratio(hm, 0, -1.0, 30).estimate <= margin)
    assert classify_spectrum(*flags) == "{0}"


def test_omega_mu_linearity_and_values():
    uniform = np.full(64, 1.0 / 64)
    cb = CocycleModel.from_preset("coboundary")
    assert all(abs(v) < 1e-12 for v in omega_mu(cb, uniform).values())
    hm = CocycleModel.from_preset("homomorphism", c=0.4)
    assert abs(omega_mu(hm, uniform)[1] - 0.4) < 1e-14
    mixed = CocycleModel.from_preset("mixed", c=0.4)
    table = omega_mu(mixed, uniform)
    assert abs(table[1] - 0.4) < 1e-12
    assert abs(table[1] + table[-1]) < 1e-12


def test_omega_mu_rejects_noninvariant_measure():
    model = CocycleModel.from_preset("mixed")
    bad = np.zeros(model.n_states)
    bad[0] = 1.0
    with pytest.raises(DomainError):
        omega_mu(model, bad)


@pytest.mark.parametrize("step,orbits", [(8, 8), (0, 64)])
def test_omega_mu_rejects_an_action_with_many_orbits(step, orbits):
    # x -> x + step on 64 states has gcd(step, 64) orbits, and the uniform
    # measure is invariant under both; only one orbit is uniquely ergodic
    model = CocycleModel.from_preset("mixed", n_states=64, step=step, c=0.0)
    uniform = np.full(64, 1.0 / 64)
    with pytest.raises(DomainError, match=f"{orbits} orbits"):
        omega_mu(model, uniform)


def test_uniquely_ergodic_classifier():
    uniform = np.full(64, 1.0 / 64)
    assert uniquely_ergodic_classifier(
        omega_mu(CocycleModel.from_preset("coboundary"), uniform)) == "R"
    assert uniquely_ergodic_classifier(
        omega_mu(CocycleModel.from_preset("mixed", c=0.3), uniform)) == "{0}"
