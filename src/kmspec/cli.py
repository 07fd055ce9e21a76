"""Command line pipeline: config ingestion, orchestration and report emission.

Configs are JSON with decimal-string numerics.  All emitted artifacts are
deterministic byte-for-byte for a fixed config: grids are evaluated in fixed
order, dictionaries are serialized with sorted keys and floats via repr.
Timings go to a separate sidecar file that is excluded from the manifest.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from itertools import zip_longest
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from ._arrays import scalar_or_array
from .errors import InvalidInputError, KmspecError
from .growth import (CocycleModel, ball_census, build_measure_net,
                     classify_spectrum, limsup_ratio, omega_mu,
                     uniquely_ergodic_classifier)
from .padic import (ENUM_CAP, default_alphabet, freeness_suite, generator,
                    is_odd_prime, subgroup_closure_mod)
from .realize import build_realizable, eval_phi, fraction_pair
from .sets import ClosedSetSpec
from .spectra import (solve_free_product_spectrum, solve_spectrum,
                      target_phi_from_set)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def _integer(v) -> bool:
    int(v)    # raises on a value that does not parse
    return True


def _finite(v) -> bool:
    return math.isfinite(float(v))


def _positive(v) -> bool:
    return 0.0 < float(v) < math.inf


# every value a runner passes through int() or float(): integers must parse
# and floats be finite; a grid needs two points, a free product k >= 2, a
# build one stage, a growth model one state, a limsup and a measure net one
# sphere and a padic run one level; the freeness search takes words of
# length 1..10; a range and every s must be positive and the wreath base t
# above 1
_INTEGER = (_integer, "an integer")
_FINITE = (_finite, "a finite number")
_NUMERIC_KEYS = {
    **dict.fromkeys(("grid_n", "k"), (lambda v: int(v) >= 2, "an integer >= 2")),
    **dict.fromkeys(("stages", "n_states", "horizon", "radius", "N"),
                    (lambda v: int(v) >= 1, "an integer >= 1")),
    "max_len": (lambda v: 1 <= int(v) <= 10, "an integer in 1..10"),
    "range": (_positive, "finite and positive"),
    "t": (lambda v: 1.0 < float(v) < math.inf, "finite and above 1"),
    **dict.fromkeys(("lambda0_order", "p", "step", "x0"), _INTEGER),
    **dict.fromkeys(("c", "beta"), _FINITE),
    "s_list": (lambda v: isinstance(v, list) and v != [] and all(map(_positive, v)),
               "a non-empty list of finite positive numbers"),
}
N_STATES = 64    # growth state count when the config sets none
STEP = 7         # and the step of its odometer
PADIC_P, PADIC_N = 3, 2    # padic prime and top level when the config sets none
# the producers measure and the manifest judges: a fraction pair passes with
# |Q_i| <= Q_BOUND (+ Q_SLACK) wherever |beta| >= d(0, K) on its grid, where
# the clamp is linear
Q_BOUND, Q_SLACK = 0.5, 1e-12


def load_config(path: str, overrides: dict) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    if isinstance(config, dict):
        config.update((k, v) for k, v in overrides.items() if v is not None)
    return check_config(config)


def check_config(config: dict) -> dict:
    """Reject a config no pipeline can run, naming the offending key; the
    config is returned unchanged.  Both a new run and `verify` pass here."""
    if not isinstance(config, dict):
        raise InvalidInputError("config must be a JSON object")
    for key, (valid, expected) in _NUMERIC_KEYS.items():
        try:
            ok = key not in config or valid(config[key])
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise InvalidInputError(f"config key {key!r} must be {expected}, "
                                    f"got {config[key]!r}")
    n_states = int(config.get("n_states", N_STATES))
    if not 0 <= int(config.get("x0", 0)) < n_states:
        raise InvalidInputError(f"config key 'x0' must be a state in 0.."
                                f"{n_states - 1}, got {config['x0']!r}")
    mode = config.get("mode")
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    if mode in ("wreath", "free-product"):
        if "K" not in config:
            raise InvalidInputError("spectrum modes require a K spec")
        K = ClosedSetSpec.from_config(config["K"])
        contains_zero = K.distance(0.0) == 0.0
        if mode == "wreath" and not contains_zero:
            raise InvalidInputError("wreath mode requires 0 in K: an invariant "
                                    "measure must exist at beta = 0")
        if mode == "free-product" and contains_zero:
            raise InvalidInputError("free-product mode requires 0 outside K")
        if mode == "wreath" and "t" not in config:
            raise InvalidInputError("config key 't' is required in wreath mode")
    # x -> x + step on the n_states-adic integers is minimal and uniquely
    # ergodic exactly when the two are coprime
    step = int(config.get("step", STEP))
    if mode == "growth" and math.gcd(step, n_states) != 1:
        raise InvalidInputError(f"config key 'step' must be coprime to n_states "
                                f"= {n_states}, got {step!r}: the odometer is "
                                "not uniquely ergodic")
    if mode == "padic":
        _check_padic_domain(int(config.get("p", PADIC_P)),
                            int(config.get("N", PADIC_N)))
    return config


def _check_padic_domain(p: int, n_level: int):
    """The closures run mod p^n for n up to N, for an odd prime p with
    p^(3N) <= ENUM_CAP.  p^3 is bounded first, so the primality test
    divides by at most sqrt(215), and the top level is found by
    multiplying, so a huge N costs nothing."""
    if not (p ** 3 <= ENUM_CAP and is_odd_prime(p)):
        raise InvalidInputError(f"config key 'p' must be an odd prime with "
                                f"p^3 <= {ENUM_CAP}, got {p!r}")
    top = 1
    while p ** (3 * top + 3) <= ENUM_CAP:
        top += 1
    if n_level > top:
        raise InvalidInputError(f"config key 'N' must be at most {top} for "
                                f"p = {p}, so that p^(3N) <= {ENUM_CAP}, got "
                                f"{n_level!r}")


def _num(config, key, default) -> float:
    return float(config[key]) if key in config else default


def _reprs(col) -> list:
    """repr of each value of a column, as a Python float for a float64
    array, which _float_rows writes as a table of one column."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return _float_rows(col[:, None]).split("\n")[:-1]
    return list(map(repr, col))


def _float_rows(table: np.ndarray) -> str:
    """The CSV lines of a float64 table, each value as repr writes it, from
    one orjson pass over the table in row order: every width-th comma of
    its text becomes a newline, in one pass over the bytes.  orjson writes
    the same shortest round-trip digits as repr except where repr uses
    exponent form (|x| < 1e-4 off 0, |x| >= 1e16) and for nan and inf,
    which it writes as null; repr is spliced in at those values alone.
    Both cut-offs are exact doubles."""
    import orjson    # loads only where used: growth and padic never reach here
    if not table.size:
        return ""
    flat = np.ascontiguousarray(table).ravel()
    text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)
    buf = np.frombuffer(text, dtype=np.uint8)[1:-1].copy()
    commas = np.flatnonzero(buf == ord(","))
    buf[commas[table.shape[1] - 1::table.shape[1]]] = ord("\n")
    data = buf.tobytes()
    magnitude = np.abs(flat)
    exp_form = np.flatnonzero(~(magnitude < 1e16) | ((magnitude < 1e-4) & (flat != 0)))
    if not len(exp_form):
        return data.decode() + "\n"
    # value i spans data[starts[i]:ends[i]]
    starts = np.concatenate([[0], commas + 1])[exp_form].tolist()
    ends = np.concatenate([commas, [len(data)]])[exp_form].tolist()
    parts, pos = [], 0
    for start, end, x in zip(starts, ends, flat[exp_form].tolist()):
        parts.append(data[pos:start].decode())
        parts.append(repr(x))
        pos = end
    parts.append(data[pos:].decode())
    return "".join(parts) + "\n"


def _csv(header: Tuple[str, ...], *columns) -> str:
    """One CSV line per row of the columns, every value written as repr of a
    Python value: a float64 array's entries as Python floats, since
    np.float64 has its own repr.  A table of float64 columns alone is
    formatted in one pass (_float_rows), any other column by column."""
    head = ",".join(header) + "\n"
    if all(isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns):
        return head + _float_rows(np.column_stack(columns))
    return head + "".join(line + "\n" for line in
                          map(",".join, zip(*map(_reprs, columns))))


def _cert(name: str, passed: bool, value: float, tol: float) -> dict:
    return {"name": name, "passed": bool(passed),
            "value": repr(float(value)), "tol": repr(float(tol))}


# ---------------------------------------------------------------------------
# Pipelines: each returns (artifacts {name: text}, certificates [dict])

def run_build_spectrum(config: dict):
    K = ClosedSetSpec.from_config(config["K"])
    r_max = _num(config, "range", 10.0)
    grid_n = int(config.get("grid_n", 10001))
    betas = np.linspace(-r_max, r_max, grid_n)
    certificates = []
    artifacts = {}

    if config["mode"] == "wreath":
        t = float(config["t"])
        stages = int(config.get("stages", 2))
        phi = target_phi_from_set(K, t)

        @scalar_or_array
        def zeta(bts):
            return np.asarray(K.distance(bts), dtype=float) / (2.0 * (1.0 + bts ** 2))

        cocycle = build_realizable(zeta, a=t, stages=stages,
                                   r_max=max(r_max, 20.0), grid_n=grid_n)
        psi_vals = np.asarray(eval_phi(cocycle, betas), dtype=float)
        certificates.append(_cert("staged-approximation-error",
                                  cocycle.certified_error <= cocycle.budget,
                                  cocycle.certified_error, cocycle.budget))
        report, level = solve_spectrum(phi, K, r_max=r_max, grid_n=grid_n)
        phi_vals = np.asarray(phi(betas), dtype=float)
        artifacts["samples.csv"] = _csv(("beta", "phi"), betas, phi_vals)
        artifacts["residuals.csv"] = _csv(("beta", "residual"), betas,
                                          np.abs(phi_vals - psi_vals))
    else:
        k = int(config.get("k", 2))
        order = int(config.get("lambda0_order", 2 * k))
        # the pair measures its own certificates and leaves this grid in its
        # memo, so the samples are read from there before the solve
        pair = fraction_pair(K, k, order, grid_n=grid_n, r_max=r_max)
        certificates.append(_cert("q-bounded-off-delta",
                                  pair.q_max <= Q_BOUND + Q_SLACK, pair.q_max,
                                  Q_BOUND))
        # a nan q_min, from a Q_i that is not finite, fails
        certificates.append(_cert("q-nonzero-off-zero", pair.q_min > 0.0,
                                  pair.q_min, 0.0))
        artifacts["samples.csv"] = _csv(("beta", "phi1", "phi2"), betas,
                                        pair.phi1(betas), pair.phi2(betas))
        report, level = solve_free_product_spectrum(pair, K, r_max=r_max,
                                                    grid_n=grid_n)

    certificates.append(_cert("level-at-reported-points", level <= 1e-12,
                              level, 1e-12))
    artifacts["report.json"] = canonical_json(report.to_dict())
    return artifacts, certificates


def run_growth(config: dict):
    preset = config.get("preset", "coboundary")
    c = _num(config, "c", 1.0)
    n_states = int(config.get("n_states", N_STATES))
    step = int(config.get("step", STEP))
    # a horizon that is a multiple of the state count makes the truncated
    # limsup exact for grid-rotation models: the sphere sup of a coboundary
    # vanishes identically once the rotation wraps around
    horizon = int(config.get("horizon", 2 * n_states))
    radius = int(config.get("radius", 400))
    s_list = [float(s) for s in config.get("s_list", ["0.5", "0.1", "0.01"])]
    x0 = int(config.get("x0", 0))
    model = CocycleModel.from_preset(preset, n_states=n_states, step=step, c=c)

    certificates = []
    artifacts = {}
    census = ball_census(min(horizon, 12))
    artifacts["census.csv"] = _csv(("k", "sphere_size"), range(len(census)),
                                   census)

    est_pos = limsup_ratio(model, x0, 1.0, horizon)
    est_neg = limsup_ratio(model, x0, -1.0, horizon)
    margin = 1e-9
    flags = (est_pos.estimate <= margin, est_neg.estimate <= margin)
    verdict = classify_spectrum(*flags)
    artifacts["limsup.csv"] = _csv(("n", "tail_sup_pos", "tail_sup_neg"),
                                   range(horizon), est_pos.tails, est_neg.tails)

    defect_rows = []
    all_ok = True
    ratios = []
    for s in s_list:
        for cert in build_measure_net(model, x0, _num(config, "beta", 1.0),
                                      s, radius):
            all_ok &= cert.passed
            ratios.append(cert.measured_defect / max(cert.bound, 1e-300))
            defect_rows.append((s, cert.generator, cert.measured_defect,
                                cert.analytic_bound, cert.truncation_slack))
    # np.max, unlike max, keeps a nan: a nan ratio must not read as 0.0
    certificates.append(_cert("measure-net-defects", all_ok, np.max(ratios), 1.0))
    artifacts["defects.csv"] = _csv(("s", "generator", "measured", "bound",
                                     "slack"), *zip(*defect_rows))

    uniform = np.full(n_states, 1.0 / n_states)
    table = omega_mu(model, uniform)
    report = {
        "preset": preset,
        "classifier": verdict,
        "limsup_estimate_pos": repr(float(est_pos.estimate)),
        "limsup_estimate_neg": repr(float(est_neg.estimate)),
        "horizon": horizon,
        "omega_mu": {str(g): repr(v) for g, v in sorted(table.items(),
                                                        key=lambda kv: str(kv[0]))},
        "uniquely_ergodic_classifier": uniquely_ergodic_classifier(table),
    }
    artifacts["report.json"] = canonical_json(report)
    return artifacts, certificates


def run_padic(config: dict):
    p = int(config.get("p", PADIC_P))
    n_level = int(config.get("N", PADIC_N))
    max_len = int(config.get("max_len", 8))
    certificates = []

    cert = freeness_suite(max_len, default_alphabet())
    certificates.append(_cert("freeness", not cert.identity_found,
                              float(cert.prefix_words_evaluated), 0.0))
    closures = []
    gens = [generator("g1"), generator("g2")]
    for level in range(1, n_level + 1):
        closure = subgroup_closure_mod(p, level, gens)
        closures.append(closure)
        certificates.append(_cert(f"closure-full-p{p}-N{level}",
                                  closure["is_full"], float(closure["order"]),
                                  float(closure["expected"])))
    report = {"freeness": cert.to_dict(), "closures": closures}
    artifacts = {"report.json": canonical_json(report)}
    return artifacts, certificates


# each command and the runner of each mode it runs; verify replays any mode
COMMANDS = {"build-spectrum": dict.fromkeys(("wreath", "free-product"),
                                            run_build_spectrum),
            "verify": {}, "growth": {"growth": run_growth},
            "padic": {"padic": run_padic}}
RUNNERS = {mode: run for modes in COMMANDS.values() for mode, run in modes.items()}
MODES = tuple(RUNNERS)


def execute(config: dict):
    artifacts, certificates = RUNNERS[config["mode"]](config)
    manifest = {
        "config": config,
        "config_hash": config_hash(config),
        "artifacts": sorted(artifacts),
        "certificates": certificates,
        "passed": all(c["passed"] for c in certificates),
    }
    artifacts["manifest.json"] = canonical_json(manifest)
    return artifacts, manifest


def emit(out_dir: str, artifacts: Dict[str, str], elapsed: float):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in sorted(artifacts):
        (out / name).write_text(artifacts[name])
    # timings are non-deterministic by nature and live outside the manifest
    (out / "timings.txt").write_text(f"elapsed_seconds {elapsed:.3f}\n")


def _first_differing_line(a: str, b: str) -> int:
    """1-based number of the first line where two different texts part."""
    pairs = zip_longest(a.splitlines(keepends=True), b.splitlines(keepends=True))
    return next(n for n, (x, y) in enumerate(pairs, start=1) if x != y)


def cmd_verify(manifest_path: str) -> int:
    path = Path(manifest_path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
        names = sorted(manifest["artifacts"])
        config = manifest["config"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"FAIL integrity: cannot read manifest: {exc!r}")
        return 1
    base = path.parent
    for name in names:
        if not (base / name).exists():
            print(f"FAIL integrity: missing artifact {name}")
            return 1
    try:
        artifacts, fresh = execute(check_config(config))
    except (KmspecError, KeyError, TypeError, ValueError) as exc:
        print(f"FAIL certificate replay: the stored config does not run: {exc!r}")
        return 1
    for name in names + ["manifest.json"]:
        if name not in artifacts:
            print(f"FAIL certificate replay: {name} is not an artifact of the "
                  "stored config")
            return 1
        stored = (base / name).read_text()
        if stored != artifacts[name]:
            line = _first_differing_line(stored, artifacts[name])
            print(f"FAIL certificate replay: {name} line {line} diverges from "
                  "stored copy")
            return 1
    if not fresh["passed"]:
        failed = [c["name"] for c in fresh["certificates"] if not c["passed"]]
        print(f"FAIL certificates: {', '.join(failed)}")
        return 1
    print("PASS all certificates replayed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kmspec",
        description="Constructions and certificates for prescribed KMS spectra")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cp = sub.add_parser(name)
        cp.add_argument("--config", required=True)
        if name != "verify":    # verify replays in memory and writes nothing
            cp.add_argument("--out", default="out")
        if name == "build-spectrum":    # the only runner with a grid
            cp.add_argument("--grid-n", type=int)
            cp.add_argument("--range")
    args = parser.parse_args(argv)

    if args.command == "verify":
        return cmd_verify(args.config)

    overrides = {key: getattr(args, key, None) for key in ("grid_n", "range")}
    try:
        config = load_config(args.config, overrides)
        if config["mode"] not in COMMANDS[args.command]:
            raise InvalidInputError(f"config mode {config['mode']!r} does not "
                                    f"match command {args.command!r}")
    except (KmspecError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        artifacts, manifest = execute(config)
    except KmspecError as exc:
        print(f"{config['mode']} error: {exc}", file=sys.stderr)
        return 1
    emit(args.out, artifacts, time.monotonic() - start)
    for cert in manifest["certificates"]:
        status = "PASS" if cert["passed"] else "FAIL"
        print(f"{status} {cert['name']} value={cert['value']} tol={cert['tol']}")
    return 0 if manifest["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
