"""End-to-end acceptance: one pass/fail line per top-level criterion.

Each test prints its verdict on the real stdout so the lines survive pytest's
capture, then asserts, so a failed criterion is a failed test.
"""

import itertools
import json
import time

import numpy as np

from kmspec.blocks import (FiniteConformalBlock, FiniteGroupTable, ProbVector,
                           TruncatedProductSystem, check_conformality)
from kmspec.cli import execute
from kmspec.growth import (CocycleModel, build_measure_net, classify_spectrum,
                           limsup_ratio, SPECTRUM_CLASSES)
from kmspec.padic import (freeness_suite, generator, sl2_order,
                          subgroup_closure_mod)
from kmspec.realize import build_realizable, eval_phi, fraction_pair, mobius_eval
from kmspec.sets import ClosedSetSpec
from kmspec.spectra import (WreathSystem, assemble_free_product,
                            shift_rn_derivative, theta_rn_derivative)

RNG = np.random.default_rng(7)


def emit(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def members_from_report(report_dict, betas):
    out = np.zeros(betas.shape, dtype=bool)
    for p in report_dict["isolated_roots"]:
        out |= np.isclose(betas, float(p), rtol=0.0, atol=1e-12)
    for lo, hi in report_dict["flat_intervals"]:
        out |= (betas >= float(lo) - 1e-12) & (betas <= float(hi) + 1e-12)
    return out


def rand_block(order, base=2.0, with_group=False):
    w = RNG.uniform(0.2, 1.0, order)
    h = RNG.uniform(1.0 / base, base, order)
    group = FiniteGroupTable.cyclic(order) if with_group else None
    return FiniteConformalBlock(base_measure=ProbVector(w / w.sum()),
                                potential=h, base=base, group=group)


WREATH_SETS = [
    {"points": ["0"]},
    {"points": ["0"], "intervals": [["1", "2"]]},
    {"points": ["0", "-3"], "intervals": [["5", "6"]]},
]

FREE_SETS = [
    {"intervals": [["1", "2"]]},
    {"points": ["-1", "2"]},
    {"intervals": [["3", "inf"]]},
]


def test_wreath_spectrum_recovery():
    betas = np.linspace(-10.0, 10.0, 10000)
    worst_time = 0.0
    for K_cfg in WREATH_SETS:
        config = {"mode": "wreath", "K": K_cfg, "t": "2", "range": "10",
                  "grid_n": 10000, "stages": 2}
        start = time.monotonic()
        artifacts, manifest = execute(config)
        elapsed = time.monotonic() - start
        worst_time = max(worst_time, elapsed)
        assert manifest["passed"], manifest["certificates"]
        report = json.loads(artifacts["report.json"])
        got = members_from_report(report, betas)
        K = ClosedSetSpec.from_config(K_cfg)
        oracle = np.asarray(K.distance(betas)) == 0.0
        assert np.array_equal(got, oracle), K_cfg
        assert elapsed <= 60.0
    emit("wreath-spectrum-recovery",
         True, f"3 sets match the d(beta,K) grid trace on 1e4 "
               f"points, worst runtime {worst_time:.1f}s <= 60s")


def test_free_product_spectrum_recovery():
    betas = np.linspace(-10.0, 10.0, 10000)
    worst_zero = 0.0
    for K_cfg in FREE_SETS:
        config = {"mode": "free-product", "K": K_cfg, "k": 2, "range": "10",
                  "grid_n": 10000}
        artifacts, manifest = execute(config)
        assert manifest["passed"], manifest["certificates"]
        report = json.loads(artifacts["report.json"])
        got = members_from_report(report, betas)
        K = ClosedSetSpec.from_config(K_cfg)
        oracle = np.asarray(K.distance(betas)) == 0.0
        assert np.array_equal(got, oracle), K_cfg
        pair = fraction_pair(K, k=2, Lambda0_order=4, r_max=10.0)
        worst_zero = max(worst_zero, abs(float(pair.phi1(0.0)) - 1.0),
                         abs(float(pair.phi2(0.0)) - 1.0))
        inside = np.concatenate(
            [np.linspace(lo, min(hi, 10.0), 101) for lo, hi in K.intervals]
            + [np.asarray(K.points)])
        assert np.max(np.abs(np.asarray(pair.phi1(inside)) - 0.5)) <= 1e-6
        assert np.max(np.abs(np.asarray(pair.phi2(inside)) - 2.0)) <= 2e-6
    emit("free-product-spectrum-recovery", worst_zero <= 1e-12,
         f"3 sets match the grid trace; phi_i(0) = 1 within {worst_zero:.2e}")


def test_staged_convergence_four_stages():
    K = ClosedSetSpec(intervals=((-1.0, 1.0),))

    def zeta(beta):
        b = np.asarray(beta, dtype=float)
        vals = np.asarray(K.distance(b), dtype=float) / (2.0 * (1.0 + b * b))
        return float(vals[0]) if np.asarray(beta).ndim == 0 else vals

    cocycle = build_realizable(zeta, a=3.0, stages=4, r_max=20.0, grid_n=10001)
    betas = np.linspace(-20.0, 20.0, 10000)
    target = 1.0 + mobius_eval(3.0, betas) * zeta(betas)
    err = float(np.max(np.abs(eval_phi(cocycle, betas) - target)))
    residual = max(s.identity_residual(betas) for s in cocycle.stages)
    ok = err <= 2.0 ** -3 and residual <= 1e-10
    emit("staged-convergence", ok,
         f"4 stages: |phi - psi_4| = {err:.4f} <= 0.125 on [-20,20]; block "
         f"identity residual {residual:.2e} <= 1e-10 at 1e4 points")


def test_conformality_oracle():
    blocks = [rand_block(o, with_group=True) for o in (2, 3, 4, 2)]
    system = TruncatedProductSystem(blocks=blocks)
    gens = [(i, g) for i, b in enumerate(blocks) for g in range(1, b.order)]
    worst = 0.0
    perturbed_detected = True
    for beta in (-3.0, -1.0, 0.0, 1.0, 3.0):
        measure = system.measure_on_truncation(beta)
        report = check_conformality(system, measure, beta, gens, tol=1e-12)
        worst = max(worst, report.max_defect)
        assert report.passed
        bad = dict(measure)
        key = next(iter(bad))
        bad[key] *= 1.0 + 1e-3
        report = check_conformality(system, bad, beta, gens, tol=1e-6)
        perturbed_detected &= not report.passed
    emit("conformality-oracle", worst <= 1e-12 and perturbed_detected,
         f"4 blocks, orders <= 8: max defect {worst:.2e} <= 1e-12 over "
         f"beta in {{-3,-1,0,1,3}}; 1e-3 perturbation fails at 1e-6")


def test_rn_oracles():
    wreath = WreathSystem(blocks=(rand_block(2), rand_block(2)))
    n = wreath.n_configs
    worst = 0.0
    for beta in (-2.0, 0.0, 1.0):
        for cm1, c0, c1 in itertools.product(range(n), repeat=3):
            lhs = shift_rn_derivative(wreath, beta, c0)
            rhs = wreath.cylinder_shift_ratio(beta, {-1: cm1, 0: c0, 1: c1})
            worst = max(worst, abs(lhs - rhs) / abs(rhs))

    K = ClosedSetSpec(intervals=((1.0, 2.0),))
    pair = fraction_pair(K, k=2, Lambda0_order=4, r_max=10.0)
    free = assemble_free_product(pair, window=3,
                                 extra_blocks1=(rand_block(2, pair.a),), q=4)
    o1 = int(np.prod([b.order for b in free.blocks1]))
    o2 = int(np.prod([b.order for b in free.blocks2]))
    for beta in (-2.0, 0.0, 1.0):
        for x0, x1 in itertools.product(range(4), repeat=2):
            for y0, z0 in itertools.product(range(o1), range(o2)):
                xc = {0: x0, 1: x1}
                yc = {0: y0, -1: (y0 + 1) % o1}
                zc = {0: z0, 1: (z0 + 1) % o2}
                lhs = theta_rn_derivative(free, beta, xc, yc, zc)
                rhs = free.theta_cylinder_ratio(beta, xc, yc, zc)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    emit("rn-oracles", worst <= 1e-10,
         f"shift and theta derivatives vs exhaustive window-3 cylinder "
         f"ratios at beta in {{-2,0,1}}: worst rel err {worst:.2e} <= 1e-10")


def test_growth_classifier_and_defects():
    margin = 1e-9
    cb = CocycleModel.from_preset("coboundary")
    flags_cb = (limsup_ratio(cb, 0, 1.0, 128).estimate <= margin,
                limsup_ratio(cb, 0, -1.0, 128).estimate <= margin)
    hm = CocycleModel.from_preset("homomorphism", c=1.0)
    flags_hm = (limsup_ratio(hm, 0, 1.0, 128).estimate <= margin,
                limsup_ratio(hm, 0, -1.0, 128).estimate <= margin)
    outputs = {classify_spectrum(a, b) for a in (True, False)
               for b in (True, False)}
    defects_ok = True
    for s, radius in ((0.5, 60), (0.1, 200), (0.01, 2500)):
        certs = build_measure_net(cb, 0, beta=1.0, s=s, radius=radius)
        defects_ok &= bool(certs) and all(c.passed for c in certs)
    ok = (classify_spectrum(*flags_cb) == "R"
          and classify_spectrum(*flags_hm) == "{0}"
          and outputs == set(SPECTRUM_CLASSES) and defects_ok)
    emit("growth-classifier-and-defects", ok,
         "coboundary -> R, homomorphism -> {0}; defects within the "
         "certified bound for s in {0.5, 0.1, 0.01}; four-way output set exact")


def test_padic_certificates():
    start = time.monotonic()
    cert = freeness_suite(8)
    orders = {}
    for N in (1, 2):
        out = subgroup_closure_mod(3, N, [generator("g1"), generator("g2")])
        assert out["is_full"]
        orders[N] = out["order"]
    elapsed = time.monotonic() - start
    ok = (not cert.identity_found and orders[1] == sl2_order(3, 1) == 24
          and orders[2] == sl2_order(3, 2) == 648 and elapsed <= 120.0)
    emit("padic-certificates", ok,
         f"all reduced words to length 8 non-identity "
         f"({cert.words_certified} certified); closure orders 24 and 648; "
         f"runtime {elapsed:.1f}s <= 120s")


def test_determinism():
    configs = [
        {"mode": "wreath", "K": WREATH_SETS[1], "t": "2", "range": "10",
         "grid_n": 10000, "stages": 2},
        {"mode": "free-product", "K": FREE_SETS[1], "k": 2, "range": "10",
         "grid_n": 10000},
        {"mode": "growth", "preset": "coboundary", "horizon": 128,
         "radius": 400, "s_list": ["0.5", "0.1", "0.01"]},
        {"mode": "padic", "p": 3, "N": 2, "max_len": 8},
    ]
    for config in configs:
        first, _ = execute(dict(config))
        second, _ = execute(dict(config))
        assert first == second, config["mode"]
    emit("determinism", True,
         "two runs of each acceptance config emit byte-identical artifacts")
