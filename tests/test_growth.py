import math

import numpy as np
import pytest

from kmspec.errors import ConvergenceError, DomainError
from kmspec.growth import (CocycleModel, ball_census,
                           build_measure_net, classify_spectrum, limsup_ratio,
                           omega_mu, uniquely_ergodic_classifier,
                           SPECTRUM_CLASSES)


def test_ball_census_z():
    census = ball_census(CocycleModel.from_preset("coboundary").group, 12)
    assert census == (1,) + (2,) * 12


@pytest.mark.parametrize("preset", ["coboundary", "homomorphism", "mixed"])
def test_cocycle_identity(preset):
    model = CocycleModel.from_preset(preset)
    assert model.check_cocycle_identity(n_samples=10000) <= 1e-10


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
    # beta = 0 kills the cocycle: m_s is the symmetric geometric weighting
    model = CocycleModel.from_preset("homomorphism", c=1.0, n_states=7, step=1)
    net, _ = build_measure_net(model, 0, beta=0.0, s=1.0, radius=40)
    total = sum(math.exp(-abs(n)) for n in range(-40, 41))
    expect = {}
    for n in range(-40, 41):
        y = n % 7
        expect[y] = expect.get(y, 0.0) + math.exp(-abs(n)) / total
    for y, w in net.atoms:
        assert abs(w - expect[y]) < 1e-14


@pytest.mark.parametrize("s,radius", [(0.5, 60), (0.1, 200), (0.01, 2500)])
def test_measure_net_defects_within_bound(s, radius):
    model = CocycleModel.from_preset("coboundary")
    net, certs = build_measure_net(model, 0, beta=1.0, s=s, radius=radius)
    assert abs(sum(w for _, w in net.atoms) - 1.0) <= 1e-12
    assert certs and all(c.passed for c in certs)


def test_measure_net_divergence_guard():
    model = CocycleModel.from_preset("coboundary")
    with pytest.raises(ConvergenceError):
        build_measure_net(model, 0, beta=1.0, s=1e-4, radius=50)


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


def test_uniquely_ergodic_classifier():
    uniform = np.full(64, 1.0 / 64)
    assert uniquely_ergodic_classifier(
        CocycleModel.from_preset("coboundary"), uniform) == "R"
    assert uniquely_ergodic_classifier(
        CocycleModel.from_preset("mixed", c=0.3), uniform) == "{0}"
