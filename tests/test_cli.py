import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kmspec.cli as kc
from kmspec.cli import (_csv, canonical_json, config_hash, execute,
                        load_config, main)
from kmspec.sets import ClosedSetSpec

ROOT = Path(__file__).resolve().parent.parent

WREATH_CFG = {
    "mode": "wreath",
    "K": {"intervals": [["-1", "1"]]},
    "t": "2",
    "range": "6",
    "grid_n": 2001,
    "stages": 1,
}

FREE_CFG = {
    "mode": "free-product",
    "K": {"points": ["-1", "2"]},
    "k": 2,
    "range": "10",
    "grid_n": 4001,
}

GROWTH_CFG = {"mode": "growth", "preset": "coboundary", "horizon": 128,
              "radius": 200, "s_list": ["0.5", "0.1"]}

PADIC_CFG = {"mode": "padic", "p": 3, "N": 2, "max_len": 6}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(canonical_json(cfg))
    return str(path)


def test_canonical_json_stable():
    a = canonical_json({"b": 1, "a": [1.5, "x"]})
    b = canonical_json({"a": [1.5, "x"], "b": 1})
    assert a == b
    assert config_hash({"b": 1, "a": [1.5, "x"]}) == config_hash({"a": [1.5, "x"], "b": 1})


def test_load_config_validates_mode(tmp_path):
    path = write_cfg(tmp_path, {"mode": "bogus"})
    with pytest.raises(Exception):
        load_config(path, {})


def test_load_config_zero_membership_rules(tmp_path):
    bad_wreath = dict(WREATH_CFG, K={"intervals": [["1", "2"]]})
    with pytest.raises(Exception):
        load_config(write_cfg(tmp_path, bad_wreath), {})
    bad_free = dict(FREE_CFG, K={"points": ["0"]})
    with pytest.raises(Exception):
        load_config(write_cfg(tmp_path, bad_free), {})


def test_config_error_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, {"mode": "bogus"})
    assert main(["build-spectrum", "--config", path,
                 "--out", str(tmp_path / "out")]) == 2


def test_mode_command_mismatch(tmp_path):
    path = write_cfg(tmp_path, PADIC_CFG)
    assert main(["growth", "--config", path,
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command,cfg", [
    ("build-spectrum", FREE_CFG),
    ("growth", GROWTH_CFG),
    ("padic", PADIC_CFG),
])
def test_pipeline_runs_and_verifies(tmp_path, capsys, command, cfg):
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"]
    for name in manifest["artifacts"]:
        assert (out / name).exists()
    assert main(["verify", "--config", str(out)]) == 0


def test_wreath_pipeline(tmp_path, capsys):
    path = write_cfg(tmp_path, WREATH_CFG)
    out = tmp_path / "out"
    assert main(["build-spectrum", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["flat_intervals"] == [["-1.0", "1.0"]]
    assert report["clipped"] == [False]


def test_determinism_byte_identical(tmp_path):
    for cfg in (FREE_CFG, GROWTH_CFG, PADIC_CFG):
        first, _ = execute(dict(cfg))
        second, _ = execute(dict(cfg))
        assert first == second


def _tamper_report(out):
    report = out / "report.json"
    report.write_text(report.read_text().replace("648", "649"))


def _tamper_manifest(out, edit):
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(canonical_json(manifest))


@pytest.mark.parametrize("tamper,message", [
    (_tamper_report, "report.json line "),
    (lambda out: _tamper_manifest(
        out, lambda m: m["artifacts"].append("timings.txt")),
     "timings.txt is not an artifact"),
    (lambda out: _tamper_manifest(out, lambda m: m["config"].update(p=4)),
     "the stored config does not run"),
], ids=["artifact-line", "listed-sidecar", "config"])
def test_verify_detects_tampering(tmp_path, capsys, tamper, message):
    path = write_cfg(tmp_path, PADIC_CFG)
    out = tmp_path / "out"
    assert main(["padic", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    tamper(out)
    assert main(["verify", "--config", str(out)]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith("FAIL") and message in printed


def test_overrides_change_hash(tmp_path):
    path = write_cfg(tmp_path, FREE_CFG)
    base = load_config(path, {})
    tweaked = load_config(path, {"grid_n": 2001})
    assert config_hash(base) != config_hash(tweaked)
    assert tweaked["grid_n"] == 2001


MALFORMED_K = {"list": [1, 2], "text": "x", "intervals-number": {"intervals": 5},
               "points-number": {"points": 3},
               "null-endpoint": {"intervals": [[None, 2]]},
               "point-overflow": {"points": ["1e999999"]},
               "reversed-interval": {"intervals": [["2", "1"]]},
               "overlapping-intervals": {"intervals": [["1", "3"], ["2", "4"]]}}


@pytest.mark.parametrize("cfg,flags,key", [
    (dict(WREATH_CFG, range="-10"), [], "range"),
    (WREATH_CFG, ["--range", "0"], "range"),
    (WREATH_CFG, ["--range", "inf"], "range"),
    (WREATH_CFG, ["--grid-n", "1"], "grid_n"),
    (WREATH_CFG, ["--grid-n", "0"], "grid_n"),
    (dict(WREATH_CFG, stages=0), [], "stages"),
    (dict(WREATH_CFG, t="inf"), [], "t"),
    (dict(WREATH_CFG, t="1"), [], "t"),
    (dict(FREE_CFG, k="x"), [], "k"),
    (dict(FREE_CFG, lambda0_order="y"), [], "lambda0_order"),
    (dict(FREE_CFG, k=1), [], "k"),
    *((dict(FREE_CFG, K=K), [], "K") for K in MALFORMED_K.values()),
], ids=["range-negative", "range-zero", "range-inf", "grid-one", "grid-zero",
        "stages-zero", "t-inf", "t-one", "k-text",
        "order-text", "k-one", *(f"K-{name}" for name in MALFORMED_K)])
def test_bad_numbers_are_config_errors(tmp_path, capsys, cfg, flags, key):
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["build-spectrum", "--config", path, "--out", str(out),
                 *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("command,cfg,key", [
    ("padic", dict(PADIC_CFG, p="q"), "p"),
    ("padic", dict(PADIC_CFG, max_len="1.5"), "max_len"),
    ("padic", dict(PADIC_CFG, N=0), "N"),
    ("padic", dict(PADIC_CFG, max_len=11), "max_len"),
    ("growth", dict(GROWTH_CFG, horizon="z"), "horizon"),
    ("growth", dict(GROWTH_CFG, beta="nan"), "beta"),
    ("growth", dict(GROWTH_CFG, s_list=["0.5", "inf"]), "s_list"),
    ("growth", dict(GROWTH_CFG, s_list="0.5"), "s_list"),
    ("growth", dict(GROWTH_CFG, s_list=[]), "s_list"),
    ("growth", dict(GROWTH_CFG, s_list=["0.5", "0"]), "s_list"),
    ("growth", dict(GROWTH_CFG, s_list=["-0.1"]), "s_list"),
    ("growth", dict(GROWTH_CFG, horizon=16, n_states=0), "n_states"),
    ("growth", dict(GROWTH_CFG, horizon=16, n_states=-4), "n_states"),
    ("growth", dict(GROWTH_CFG, horizon=0), "horizon"),
    ("growth", dict(GROWTH_CFG, horizon=-3), "horizon"),
    ("growth", dict(GROWTH_CFG, horizon=16, x0=64), "x0"),
    ("growth", dict(GROWTH_CFG, horizon=16, x0=-65), "x0"),
    ("growth", dict(GROWTH_CFG, horizon=16, n_states=8, x0=8), "x0"),
    ("growth", dict(GROWTH_CFG, horizon=16, radius=0), "radius"),
    ("growth", dict(GROWTH_CFG, horizon=16, radius=-5), "radius"),
], ids=["p-text", "max-len-fraction", "level-zero", "max-len-eleven",
        "horizon-text", "beta-nan", "s-inf",
        "s-not-list", "s-empty", "s-zero", "s-negative", "states-zero",
        "states-negative", "horizon-zero", "horizon-negative", "x0-past-states",
        "x0-negative", "x0-past-set-states", "radius-zero", "radius-negative"])
def test_bad_numbers_are_config_errors_in_every_mode(tmp_path, capsys,
                                                     command, cfg, key):
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["growth", "--tol", "0.5"],
    ["padic", "--grid-n", "7"],
    ["padic", "--range", "10"],
    ["verify", "--out", "elsewhere"],
    ["verify", "--tol", "0.5"],
    ["build-spectrum", "--tol", "0.5"],
], ids=["growth-tol", "padic-grid-n", "padic-range", "verify-out", "verify-tol",
        "build-spectrum-tol"])
def test_commands_reject_flags_they_do_not_read(tmp_path, capsys, argv):
    # only build-spectrum reads a grid or a range, no command reads a
    # tolerance, and verify reads only --config; an override a runner
    # ignores would still enter the stored config and change its hash
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(tmp_path / "cfg.json")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_wreath_config_without_t_is_a_config_error(tmp_path, capsys):
    cfg = {key: value for key, value in WREATH_CFG.items() if key != "t"}
    out = tmp_path / "out"
    assert main(["build-spectrum", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'t'" in err
    assert not out.exists()


def test_free_product_set_beyond_the_range(tmp_path, capsys):
    # d(0, K) = 15 exceeds the range 10: no grid point has |beta| >= delta,
    # so the clamp certificate holds vacuously and nothing is reported
    cfg = dict(FREE_CFG, K={"points": ["15"]})
    out = tmp_path / "out"
    assert main(["build-spectrum", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["isolated_roots"] == report["flat_intervals"] == []
    manifest = json.loads((out / "manifest.json").read_text())
    q_cert, = (c for c in manifest["certificates"]
               if c["name"] == "q-bounded-off-delta")
    assert q_cert["passed"] and q_cert["value"] == "0.0"


def test_free_product_run_measures_its_grid_once(monkeypatch):
    # the pair's closing check leaves the grid in its memo, and the samples
    # and the solver are served from there
    sizes = []
    original = ClosedSetSpec.distance

    def counting(self, betas):
        sizes.append(np.size(betas))
        return original(self, betas)

    monkeypatch.setattr(ClosedSetSpec, "distance", counting)
    execute(dict(FREE_CFG))
    assert sizes.count(FREE_CFG["grid_n"]) == 1


def test_a_stored_tol_is_ignored():
    # configs written before the solver read K exactly carry a tol; it is a
    # key no runner reads, like any other
    plain, _ = execute(dict(FREE_CFG))
    old, manifest = execute(dict(FREE_CFG, tol="1e-6"))
    assert manifest["passed"]
    assert {n: plain[n] for n in plain if n != "manifest.json"} == {
        n: old[n] for n in old if n != "manifest.json"}


def _shifted(fn, by):
    return lambda betas: fn(betas) + by


# one row per certificate name cli.py can emit, level-at-reported-points in
# both spectrum modes: (id, config, owner and name of the producer, a tamper
# of what the producer returns, the one certificate that must then fail)
CERTIFICATE_FAILURES = [
    ("staged", dict(WREATH_CFG, grid_n=501), kc, "build_realizable",
     lambda cocycle: dataclasses.replace(
         cocycle, certified_error=2.0 * cocycle.budget),
     "staged-approximation-error"),
    ("wreath-level", dict(WREATH_CFG, grid_n=501), kc, "target_phi_from_set",
     lambda phi: _shifted(phi, 1e-9), "level-at-reported-points"),
    ("q-bounded", FREE_CFG, kc, "fraction_pair",
     lambda pair: dataclasses.replace(pair, q_max=0.75), "q-bounded-off-delta"),
    ("q-zero", FREE_CFG, kc, "fraction_pair",
     lambda pair: dataclasses.replace(pair, q_min=0.0), "q-nonzero-off-zero"),
    ("q-not-finite", FREE_CFG, kc, "fraction_pair",
     lambda pair: dataclasses.replace(pair, q_min=math.nan), "q-nonzero-off-zero"),
    ("level", FREE_CFG, kc, "fraction_pair",
     lambda pair: dataclasses.replace(pair, phi1=_shifted(pair.phi1, 1e-9)),
     "level-at-reported-points"),
    ("measure-net", GROWTH_CFG, kc, "build_measure_net",
     lambda certs: [dataclasses.replace(
         certs[0], measured_defect=2.0 * certs[0].bound + 1.0), *certs[1:]],
     "measure-net-defects"),
    ("freeness", PADIC_CFG, kc, "freeness_suite",
     lambda cert: dataclasses.replace(cert, identity_found=True), "freeness"),
    ("closure", dict(PADIC_CFG, N=1), kc, "subgroup_closure_mod",
     lambda closure: dict(closure, is_full=False), "closure-full-p3-N1"),
]


@pytest.mark.parametrize("cfg,owner,producer,tamper,name",
                         [row[1:] for row in CERTIFICATE_FAILURES],
                         ids=[row[0] for row in CERTIFICATE_FAILURES])
def test_new_free_product_certificates_can_fail(tmp_path, capsys, monkeypatch,
                                                cfg, owner, producer, tamper,
                                                name):
    """Every certificate is judged in the manifest: a run whose producer
    returns a failing value writes its artifacts and a manifest that reads
    passed: false, exits 1, and verify replays the failure."""
    real = getattr(owner, producer)

    def tampered(*args, **kwargs):
        return tamper(real(*args, **kwargs))

    monkeypatch.setattr(owner, producer, tampered)
    command, = (c for c, modes in kc.COMMANDS.items() if cfg["mode"] in modes)
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 1
    assert f"FAIL {name} " in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    failed = [c["name"] for c in manifest["certificates"] if not c["passed"]]
    assert failed == [name] and not manifest["passed"]
    assert all((out / artifact).exists() for artifact in manifest["artifacts"])
    assert main(["verify", "--config", str(out)]) == 1
    assert capsys.readouterr().out == f"FAIL certificates: {name}\n"


def _emitted_certificate_names():
    """(names, prefixes) of the certificates cli.py writes: a literal first
    argument of _cert, each name of a zip tuple of literals that feeds one,
    and the literal head of an f-string name."""
    names, prefixes, from_zip, zipped = set(), set(), 0, 0
    for node in ast.walk(ast.parse(Path(kc.__file__).read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.args):
            continue
        arg = node.args[0]
        if node.func.id == "zip" and isinstance(arg, ast.Tuple):
            names.update(elt.value for elt in arg.elts)
            zipped += 1
        elif node.func.id == "_cert":
            if isinstance(arg, ast.Constant):
                names.add(arg.value)
            elif isinstance(arg, ast.JoinedStr):
                prefixes.add(arg.values[0].value)
            else:
                assert isinstance(arg, ast.Name), ast.dump(arg)
                from_zip += 1
    assert from_zip <= zipped
    return names, prefixes


def test_every_certificate_name_has_a_failing_case():
    names, prefixes = _emitted_certificate_names()
    covered = {row[-1] for row in CERTIFICATE_FAILURES}
    assert names <= covered
    assert all(any(n.startswith(prefix) for n in covered) for prefix in prefixes)
    # and the table names no certificate cli.py cannot write
    assert all(n in names or n.startswith(tuple(prefixes)) for n in covered)
    modes = {row[1]["mode"] for row in CERTIFICATE_FAILURES
             if row[-1] == "level-at-reported-points"}
    assert modes == {"wreath", "free-product"}


@st.composite
def wreath_sets(draw):
    """(K spec, range, grid_n, expected report) for a K built left to right
    from points, intervals, half-lines and pairs closer than one grid cell,
    with points inside intervals or on their ends, and 0 added."""
    grid_n = 101
    cell = 2.0 / (grid_n - 1)   # one grid cell at the least range, 1
    step = st.floats(1e-3, 4.0)
    x = draw(st.floats(-12.0, -8.0))
    intervals, points, absorbed = [], [], [0.0]
    if draw(st.booleans()):
        intervals.append((-math.inf, x))
        x += draw(step)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("point", "pair", "interval")))
        if kind == "interval":
            hi = x + draw(st.floats(1e-3, 3.0))
            intervals.append((x, hi))
            absorbed += draw(st.lists(st.sampled_from((x, hi, (x + hi) / 2.0)),
                                      max_size=2))
            x = hi
        else:
            points.append(x)
            if kind == "pair":
                x += draw(st.floats(1e-6, cell))
                points.append(x)
        x += draw(step)
    if draw(st.booleans()):
        intervals.append((x, math.inf))
    # a range through an end of K cuts there, to a point for a half-line
    ends = [abs(e) for iv in intervals for e in iv if 1.0 <= abs(e) < math.inf]
    r = draw(st.sampled_from([10.0] + ends))
    if not any(lo <= 0.0 <= hi for lo, hi in intervals):
        points.append(0.0)
    roots, expect_ivs, clipped = {p for p in points if abs(p) <= r}, [], []
    for lo, hi in intervals:
        if max(lo, -r) < min(hi, r):
            expect_ivs.append([repr(max(lo, -r)), repr(min(hi, r))])
            clipped.append(lo < -r or hi > r)
        elif max(lo, -r) == min(hi, r):
            roots.add(max(lo, -r))
    spec = {"intervals": [[repr(lo), repr(hi)] for lo, hi in intervals],
            "points": [repr(p) for p in points + absorbed]}
    expect = {"isolated_roots": [repr(p) for p in sorted(roots)],
              "flat_intervals": expect_ivs, "clipped": clipped,
              "grid_n": grid_n, "r_max": repr(r)}
    return spec, r, grid_n, expect


@settings(max_examples=25, deadline=None)
@given(wreath_sets())
def test_wreath_report_is_K_in_range(case):
    spec, r, grid_n, expect = case
    artifacts, manifest = execute({"mode": "wreath", "K": spec, "t": "2",
                                   "range": repr(r), "grid_n": grid_n,
                                   "stages": 1})
    assert manifest["passed"], manifest["certificates"]
    assert json.loads(artifacts["report.json"]) == expect


def test_wide_wreath_range_is_rejected_before_fitting(tmp_path, capsys):
    path = write_cfg(tmp_path, dict(WREATH_CFG, range="30", grid_n=501))
    out = tmp_path / "out"
    assert main(["build-spectrum", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wreath error") and "r_max=30 " in err
    assert "Traceback" not in err


def test_overflowing_measure_net_is_a_growth_error(tmp_path, capsys):
    # (|beta c| - s) radius = 800 passes exp's range: the ball sum overflows
    path = write_cfg(tmp_path, {"mode": "growth", "preset": "homomorphism",
                                "c": "-2.5", "beta": "1", "n_states": 7,
                                "step": 1, "radius": 400, "s_list": ["0.5"]})
    out = tmp_path / "out"
    assert main(["growth", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("growth error: ") and "increase s" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("cfg", [
    # exp(800) in the analytic bound exp(|h| s) - 1
    {"preset": "coboundary", "s_list": ["800"]},
    # exp(800) of a generator's cocycle beta Omega(h, x)
    {"preset": "homomorphism", "c": "800", "beta": "1", "s_list": ["1000"]},
], ids=["bound", "generator-cocycle"])
def test_overflowing_defect_term_is_a_growth_error(tmp_path, capsys, cfg):
    path = write_cfg(tmp_path, dict(cfg, mode="growth", n_states=7, step=1,
                                    radius=10))
    out = tmp_path / "out"
    assert main(["growth", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    s = cfg["s_list"][0]
    assert err.startswith("growth error: ") and f"s = {float(s)!r}, radius 10" in err
    assert "Traceback" not in err and not out.exists()


def test_measure_net_past_inf_is_a_growth_error(tmp_path, capsys):
    # beta c = 1e309 is inf in floats, and math.exp(inf) is inf without an
    # OverflowError: the non-finite sum is the overflow all the same
    path = write_cfg(tmp_path, {"mode": "growth", "preset": "homomorphism",
                                "c": "1e308", "beta": "10", "n_states": 7,
                                "step": 1, "radius": 10, "s_list": ["0.5"]})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["growth", "--config", path, "--out", str(out)]) == 1
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("growth error: ") and "overflows" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("step", [8, 0], ids=["eight-orbits", "identity"])
def test_growth_model_that_is_not_uniquely_ergodic_is_a_config_error(
        tmp_path, capsys, step):
    # x -> x + step on 64 states has gcd(step, 64) orbits: 8 for step 8, and
    # step 0 fixes every point
    path = write_cfg(tmp_path, {"mode": "growth", "preset": "mixed", "c": "0",
                                "n_states": 64, "step": step})
    out = tmp_path / "out"
    assert main(["growth", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr("step") in err
    assert not out.exists()


def test_large_homomorphism_cocycle_passes(tmp_path):
    # c g is a cocycle for every c, yet in floats Omega(g, hx) + Omega(h, x)
    # and Omega(g + h, x) part by 6e-8 at c ~ 1.2e7: no float check of the
    # identity may fail this run
    path = write_cfg(tmp_path, {"mode": "growth", "preset": "homomorphism",
                                "c": "12345678.9", "beta": "1e-9", "n_states": 7,
                                "step": 1, "radius": 40, "s_list": ["0.5"]})
    out = tmp_path / "out"
    assert main(["growth", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"]
    assert [c["name"] for c in manifest["certificates"]] == ["measure-net-defects"]


def test_freeness_violation_writes_a_failing_manifest(tmp_path, capsys,
                                                      monkeypatch):
    # a and g1 = a^4 commute, so the search over them finds a relation
    monkeypatch.setattr(kc, "default_alphabet", lambda: ("a", "g1"))
    path = write_cfg(tmp_path, dict(PADIC_CFG, N=1, max_len=8))
    out = tmp_path / "out"
    assert main(["padic", "--config", path, "--out", str(out)]) == 1
    assert "FAIL freeness " in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert not manifest["passed"]
    assert [c["name"] for c in manifest["certificates"] if not c["passed"]] == [
        "freeness"]
    freeness = json.loads((out / "report.json").read_text())["freeness"]
    assert freeness["identity_found"] and freeness["words_certified"] == 0
    assert freeness["relation"] == [["a", 1], ["a", 1], ["g1", 1], ["a", 1],
                                    ["g1", -1], ["a", -1], ["a", -1], ["a", -1]]


def test_verify_rejects_a_stored_non_numeric_value(tmp_path, capsys):
    path = write_cfg(tmp_path, FREE_CFG)
    out = tmp_path / "out"
    assert main(["build-spectrum", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    _tamper_manifest(out, lambda m: m["config"].update(k="x"))
    assert main(["verify", "--config", str(out)]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith("FAIL") and "'k'" in printed


def test_verify_rejects_a_stored_one_point_grid(tmp_path, capsys):
    path = write_cfg(tmp_path, FREE_CFG)
    out = tmp_path / "out"
    assert main(["build-spectrum", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    _tamper_manifest(out, lambda m: m["config"].update(grid_n=1))
    assert main(["verify", "--config", str(out)]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith("FAIL") and "'grid_n'" in printed


@pytest.mark.parametrize("K", MALFORMED_K.values(), ids=MALFORMED_K.keys())
def test_verify_rejects_a_stored_malformed_K(tmp_path, capsys, K):
    path = write_cfg(tmp_path, FREE_CFG)
    out = tmp_path / "out"
    assert main(["build-spectrum", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    _tamper_manifest(out, lambda m: m["config"].update(K=K))
    assert main(["verify", "--config", str(out)]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith("FAIL certificate replay: the stored config "
                              "does not run") and "'K'" in printed


PADIC_DOMAIN_ERRORS = {"p-two": (dict(PADIC_CFG, p=2), "p"),
                       "p-nine": (dict(PADIC_CFG, p=9), "p"),
                       "p-negative": (dict(PADIC_CFG, p=-3), "p"),
                       "p-one": (dict(PADIC_CFG, p=1), "p"),
                       # 223 is prime, but 223^3 > ENUM_CAP: no level runs
                       "p-past-cap": (dict(PADIC_CFG, p=223), "p"),
                       "p-huge": (dict(PADIC_CFG, p=10 ** 40 + 1), "p"),
                       # 3^18 > ENUM_CAP >= 3^12, and 13^6 <= ENUM_CAP < 13^9
                       "level-past-cap": (dict(PADIC_CFG, N=6), "N"),
                       "level-past-cap-p13": (dict(PADIC_CFG, p=13, N=3), "N"),
                       "level-huge": (dict(PADIC_CFG, N=10 ** 12), "N")}


@pytest.mark.parametrize("cfg,key", PADIC_DOMAIN_ERRORS.values(),
                         ids=PADIC_DOMAIN_ERRORS.keys())
def test_padic_domain_is_checked_with_the_config(tmp_path, capsys, monkeypatch,
                                                 cfg, key):
    # rejected before the freeness search runs, not after it as a padic error
    def no_search(*args):
        raise AssertionError("the freeness search ran")

    monkeypatch.setattr(kc, "freeness_suite", no_search)
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["padic", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("p,N", [(3, 4), (5, 3), (7, 2), (13, 2), (211, 1)])
def test_padic_domain_keeps_every_level_under_the_cap(p, N):
    # the largest N for each p passes the check; the closures run there
    assert kc.check_config(dict(PADIC_CFG, p=p, N=N))["N"] == N


@pytest.mark.parametrize("cfg,key", [PADIC_DOMAIN_ERRORS["p-nine"],
                                     PADIC_DOMAIN_ERRORS["level-past-cap"]],
                         ids=["p-nine", "level-past-cap"])
def test_verify_rejects_a_stored_padic_domain_error(tmp_path, capsys, cfg, key):
    path = write_cfg(tmp_path, PADIC_CFG)
    out = tmp_path / "out"
    assert main(["padic", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    _tamper_manifest(out, lambda m: m["config"].update(p=cfg["p"], N=cfg["N"]))
    assert main(["verify", "--config", str(out)]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith("FAIL certificate replay: the stored config "
                              "does not run") and repr(key) in printed


def _hard_doubles():
    """Doubles where a shortest-digits writer can part from repr: signed
    zeros, subnormals, the extremes, nan and inf, the two ends of repr's
    positional range with 50 neighbours on each side, powers of two with
    their neighbours, random bit patterns and log-uniform values."""
    tiny = np.finfo(float).smallest_subnormal
    special = [0.0, -0.0, tiny, -tiny, 3 * tiny, 2.5e-308, 2.225073858507201e-308,
               np.finfo(float).tiny, np.finfo(float).max, -np.finfo(float).max,
               math.nan, math.inf, -math.inf, 0.1 + 0.2, 1e-05, 1e+16, -1.0]
    parts = [np.array(special)]
    for edge in (1e-4, -1e-4, 1e16, -1e16):
        below, above = [edge], [edge]
        for _ in range(50):
            below.append(np.nextafter(below[-1], -math.inf))
            above.append(np.nextafter(above[-1], math.inf))
        parts.append(np.array(below[::-1] + above[1:]))
    powers = np.ldexp(1.0, np.arange(-20, 61))
    parts += [powers, np.nextafter(powers, -math.inf), np.nextafter(powers, math.inf)]
    rng = np.random.default_rng(20)
    parts.append(rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(float))
    logs = rng.uniform(math.log(1e-6), math.log(1e18), size=100_000)
    parts.append(np.exp(logs) * rng.choice([-1.0, 1.0], size=logs.size))
    return np.concatenate(parts)


def test_csv_matches_a_row_wise_reference():
    floats = [-0.0, 1e-05, 1e+16, math.inf, math.nan, 0.1 + 0.2]
    ints = list(range(-2, len(floats) - 2))
    strings = ["a,b", "c, d", ", ", ",", "", "e"]
    header = ("x", "n", "s")
    expect = "\n".join([",".join(header)] + [
        ",".join(repr(v) for v in row) for row in zip(floats, ints, strings)]) + "\n"
    assert _csv(header, floats, ints, strings).encode() == expect.encode()
    assert _csv(header, np.array(floats), ints, strings).encode() == expect.encode()
    assert _csv(header, [], [], []) == "x,n,s\n"
    assert _csv(header, np.array([]), [], []) == "x,n,s\n"
    # float64 arrays go through orjson's shortest digits; an orjson whose
    # digits part from repr on any of these doubles fails here.  The two
    # columns are strided views, written as their values.
    x = _hard_doubles()
    assert x.size % 2 == 0
    a, b = x[0::2], x[1::2]
    expect = "a,b\n" + "".join(",".join(map(repr, row)) + "\n"
                               for row in zip(a.tolist(), b.tolist()))
    assert _csv(("a", "b"), a, b).encode() == expect.encode()


@pytest.mark.parametrize("rows", [0, 1, 7])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_float_columns_are_written_in_one_pass(rows, width):
    # a table of float64 columns alone is written in one pass, and a float64
    # column beside a list by itself; both write repr of each value, with
    # exponent-form, nan and inf values in every position or in none
    rng = np.random.default_rng(rows * 10 + width)
    special = np.array([1e-05, -1e+16, math.nan, math.inf, -0.0, 0.5, 1e-4])
    for values in (rng.standard_normal((width, rows)),
                   rng.choice(special, (width, rows)),
                   rng.choice(special[2:4], (width, rows))):
        header = tuple(f"c{j}" for j in range(width))
        expect = "".join(",".join(map(repr, row)) + "\n" for row in
                         zip(*values.tolist()))
        assert _csv(header, *values) == ",".join(header) + "\n" + expect
        expect = "".join(",".join(map(repr, row)) + "\n" for row in
                         zip(range(rows), *values.tolist()))
        assert _csv(("n",) + header, range(rows), *values) == (
            ",".join(("n",) + header) + "\n" + expect)


# pytest itself loads scipy, so the probe runs in a fresh interpreter: only a
# wreath fit should load scipy, and only a spectrum run's CSV orjson
SCIPY_PROBE = """
import json, sys
import kmspec
from kmspec.cli import execute, load_config

def lazy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "orjson"))

loaded = {"import kmspec": lazy_modules()}
*paths, wreath = sys.argv[1:]
for path in paths:
    execute(load_config(path, {}))
    loaded[path] = lazy_modules()
execute(load_config(wreath, {}))
loaded["wreath"] = "scipy.optimize" in sys.modules
print(json.dumps(loaded))
"""


def test_scipy_loads_only_for_a_wreath_fit(tmp_path):
    # growth and padic run first: a spectrum run loads orjson for its CSV
    paths = [str(ROOT / "configs" / f"{name}.json")
             for name in ("padic_default", "growth_coboundary", "free_points")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *paths, write_cfg(tmp_path, WREATH_CFG)],
        env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded.pop("wreath") is True
    assert {m.split(".")[0] for m in loaded.pop(paths[-1])} == {"orjson"}
    assert loaded == {name: [] for name in ["import kmspec"] + paths[:-1]}
