"""Seeded workload inputs and the independent per-item oracle.

A workload is a list of items.  An item is either one CLI run (a config that
goes through ``kmspec.cli.execute`` and then ``emit``, exactly as the
``kmspec`` command does) or one exhaustive oracle check (Radon-Nikodym
cylinder ratios, conformality).  Inputs depend only on the workload name and
the seed; the library receives only the generated configs and blocks.

The oracle never calls the code it checks: closed sets are kept as the
decimal strings that were generated, distances to them are computed here, and
the SL(2, Z/p^N Z) orders and reduced-word counts come from closed formulas.
"""

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

import kmspec.blocks as kb
import kmspec.cli as kc
import kmspec.realize as kr
import kmspec.spectra as ks
from kmspec.sets import ClosedSetSpec

RANGE = 10.0

# Grids are smaller than the 10^4 of the acceptance tests so that two passes
# fit one run.  wreath-retry still fails 3 of its 5 realize_block attempts at
# 1001 points; wreath-deep keeps log_power_sum above half of its time at 4001.
RETRY_GRID_N = 501
DEEP_GRID_N = 4001
FREE_GRID_N = 10000


def _strata(lo: float, hi: float, n: int):
    width = (hi - lo) / n
    return tuple((lo + i * width, lo + (i + 1) * width) for i in range(n))


# One set per stratum of d(0, K), so every seed draws alike.  The timed
# workload keeps to the region where the free-product outputs pass the
# oracle: d(0, K) in [1, 3] and bounded components inside [-8, 8].
# fraction_pair doubles b until b^d >= 8 (b = 8 on [1, 1.5), 4 on [1.5, 3)),
# and phi_1, phi_2 approach their targets ever faster as b grows and as
# |beta| nears the range.  Outside that region the solver reports members at
# float noise: features near +-range widen by grid points, spurious clipped
# intervals appear below d = 0.75, and near d = 0 fraction_pair raises
# ConstructionError (see README.md).  The unlisted free-product-full-domain
# workload draws d(0, K) from (0, 3] with components out to 9.75 and
# reproduces those failures.
FREE_STRATA = _strata(1.0, 3.0, 40)
FREE_REACH = 8.0
FULL_DOMAIN_STRATA = _strata(0.02, 3.02, 30)
RN_BETAS = (-2.0, 0.0, 1.0)


@dataclass
class Item:
    """One unit of work: a parsed CLI config or an oracle check."""

    name: str
    config: Optional[dict] = None
    check: Optional[Callable[[], dict]] = None
    K: Optional["SetSpec"] = None


# ---------------------------------------------------------------------------
# Closed sets as generated: decimal strings plus an independent distance


@dataclass(frozen=True)
class SetSpec:
    intervals: Tuple[Tuple[str, str], ...] = ()
    points: Tuple[str, ...] = ()

    def to_config(self) -> dict:
        out = {}
        if self.intervals:
            out["intervals"] = [list(iv) for iv in self.intervals]
        if self.points:
            out["points"] = list(self.points)
        return out

    def distance(self, betas: np.ndarray) -> np.ndarray:
        d = np.full(betas.shape, np.inf)
        for lo, hi in self.intervals:
            lo_f, hi_f = float(lo), float(hi)
            inside = (betas >= lo_f) & (betas <= hi_f)
            gap = np.where(betas < lo_f, lo_f - betas, betas - hi_f)
            d = np.minimum(d, np.where(inside, 0.0, gap))
        for p in self.points:
            d = np.minimum(d, np.abs(betas - float(p)))
        return d


def _fmt(x: float) -> str:
    return "inf" if x == math.inf else "-inf" if x == -math.inf else f"{x:.3f}"


# Component kinds of each set, cycled over the items: the nearest component
# to 0 first, then the farther ones.  Fixed kinds keep the number of
# isolated points, which the solver refines one by one, alike across seeds;
# the seed moves every position and length.
SHAPES = (
    ("point", ()), ("interval", ("point",)), ("point", ("interval", "point")),
    ("half-line", ("point",)), ("interval", ()), ("point", ("point",)),
    ("interval", ("interval", "point")), ("point", ("interval",)),
)


def draw_free_set(rng: np.random.Generator, d0: float, reach: float,
                  shape) -> SetSpec:
    """A closed set of the given shape with d(0, K) = d0 (to three decimals).

    The nearest component starts at distance d0 on a random side; the others
    land farther out on random sides.  Bounded components stay inside
    [-reach, reach].
    """
    nearest, extras = shape
    side = 1.0 if rng.random() < 0.5 else -1.0
    intervals: List[Tuple[float, float]] = []
    points: List[float] = []
    if nearest == "half-line":
        intervals.append((d0, math.inf) if side > 0 else (-math.inf, -d0))
    elif nearest == "interval":
        far = min(d0 + rng.uniform(0.2, 3.0), reach)
        intervals.append((d0, far) if side > 0 else (-far, -d0))
    else:
        points.append(side * d0)
    for kind in extras:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        x = rng.uniform(d0, reach - 0.2)
        if kind == "point":
            points.append(sign * x)
        else:
            far = min(x + rng.uniform(0.2, 3.0), reach)
            intervals.append((x, far) if sign > 0 else (-far, -x))
    # round first, then merge, so the emitted intervals are disjoint as written
    rounded = sorted((float(_fmt(lo)), float(_fmt(hi))) for lo, hi in intervals)
    merged: List[List[float]] = []
    for lo, hi in rounded:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return SetSpec(intervals=tuple((_fmt(lo), _fmt(hi)) for lo, hi in merged),
                   points=tuple(_fmt(p) for p in sorted(set(points))))


def free_product_sets(seed: int, strata, reach: float) -> List[SetSpec]:
    """One set per (lo, hi) stratum, with d(0, K) uniform in the stratum."""
    rng = np.random.default_rng([seed, len(strata)])
    return [draw_free_set(rng, rng.uniform(lo, hi), reach, SHAPES[i % len(SHAPES)])
            for i, (lo, hi) in enumerate(strata)]


# ---------------------------------------------------------------------------
# Workloads


def _rand_block(rng, order, base=2.0, with_group=False):
    w = rng.uniform(0.2, 1.0, order)
    h = rng.uniform(1.0 / base, base, order)
    group = kb.FiniteGroupTable.cyclic(order) if with_group else None
    return kb.FiniteConformalBlock(base_measure=kb.ProbVector(w / w.sum()),
                                   potential=h, base=base, group=group)


def _shift_rn_check(wreath, beta: float) -> Callable[[], dict]:
    def check():
        worst = 0.0
        n = wreath.n_configs
        for cm1, c0, c1 in itertools.product(range(n), repeat=3):
            lhs = ks.shift_rn_derivative(wreath, beta, c0)
            rhs = wreath.cylinder_shift_ratio(beta, {-1: cm1, 0: c0, 1: c1})
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        return {"worst_rel_err": float(worst), "passed": bool(worst <= 1e-10)}
    return check


def _theta_rn_check(free, beta: float, x0: int) -> Callable[[], dict]:
    def check():
        worst = 0.0
        o1 = int(np.prod([b.order for b in free.blocks1]))
        o2 = int(np.prod([b.order for b in free.blocks2]))
        for x1 in range(free.q):
            for y0, z0 in itertools.product(range(o1), range(o2)):
                xc = {0: x0, 1: x1}
                yc = {0: y0, -1: (y0 + 1) % o1}
                zc = {0: z0, 1: (z0 + 1) % o2}
                lhs = ks.theta_rn_derivative(free, beta, xc, yc, zc)
                rhs = free.theta_cylinder_ratio(beta, xc, yc, zc)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
        return {"worst_rel_err": float(worst), "passed": bool(worst <= 1e-10)}
    return check


def _conformality_check(system) -> Callable[[], dict]:
    gens = [(i, g) for i, b in enumerate(system.blocks) for g in range(1, b.order)]

    def check():
        worst = 0.0
        detected = True
        for beta in (-3.0, -1.0, 0.0, 1.0, 3.0):
            measure = system.measure_on_truncation(beta)
            report = kb.check_conformality(system, measure, beta, gens, tol=1e-12)
            worst = max(worst, report.max_defect)
            # perturb the heaviest configuration, so the 1e-3 change moves
            # its mass by more than the 1e-6 tolerance at every beta
            bad = dict(measure)
            key = max(bad, key=bad.get)
            bad[key] *= 1.0 + 1e-3
            detected &= not kb.check_conformality(system, bad, beta, gens,
                                                  tol=1e-6).passed
        return {"max_defect": float(worst), "perturbation_detected": bool(detected),
                "passed": bool(worst <= 1e-12 and detected)}
    return check


def _cli_item(name: str, config: dict, config_dir: Path,
              K: Optional[SetSpec] = None) -> Item:
    """Write the config as the CLI would read it, then parse it back."""
    config_dir.mkdir(parents=True, exist_ok=True)
    path = config_dir / f"{name}.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return Item(name=name, config=kc.load_config(str(path), {}), K=K)


def _wreath(K: SetSpec, t: str, stages: int, grid_n: int) -> dict:
    return {"mode": "wreath", "K": K.to_config(), "t": t, "range": "10",
            "tol": "1e-6", "grid_n": grid_n, "stages": stages}


def _free(K: SetSpec) -> dict:
    return {"mode": "free-product", "K": K.to_config(), "k": 2, "range": "10",
            "tol": "1e-6", "grid_n": FREE_GRID_N}


def build_items(workload: str, seed: int, config_dir: Path) -> List[Item]:
    """Generate and parse the inputs of one workload for one seed."""
    if workload == "wreath-retry":
        K = SetSpec(intervals=(("1", "2"),), points=("0",))
        return [_cli_item("wreath-retry", _wreath(K, "2", 2, RETRY_GRID_N), config_dir, K)]
    if workload == "wreath-deep":
        K = SetSpec(intervals=(("-1", "1"),))
        return [_cli_item("wreath-deep", _wreath(K, "3", 3, DEEP_GRID_N), config_dir, K)]
    if workload in ("free-product-batch", "free-product-full-domain"):
        if workload == "free-product-batch":
            sets = free_product_sets(seed, FREE_STRATA, FREE_REACH)
        else:
            sets = free_product_sets(seed, FULL_DOMAIN_STRATA, RANGE - 0.25)
        return [_cli_item(f"fp-{i:02d}", _free(K), config_dir, K)
                for i, K in enumerate(sets)]
    if workload == "oracles":
        # the theta checks (one per beta and x_0 cell) are the median item,
        # so item_s_p50 is a median over many of them
        rng = np.random.default_rng([seed, 7])
        wreath = ks.WreathSystem(blocks=(_rand_block(rng, 2), _rand_block(rng, 4)))
        pair = kr.fraction_pair(ClosedSetSpec(intervals=((1.0, 2.0),)), k=2,
                                Lambda0_order=4, r_max=RANGE)
        free = ks.assemble_free_product(
            pair, window=3, extra_blocks1=(_rand_block(rng, 2, pair.a),), q=4)
        conformal = kb.TruncatedProductSystem(
            blocks=[_rand_block(rng, o, with_group=True) for o in (2, 3, 4, 2)])
        return [
            _cli_item("padic", {"mode": "padic", "p": 3, "N": 4, "max_len": 8},
                      config_dir),
            _cli_item("growth", {"mode": "growth", "preset": "coboundary",
                                 "horizon": 128, "radius": 400,
                                 "s_list": ["0.5", "0.1", "0.01"]}, config_dir),
            *(Item(name=f"rn-shift-beta{beta:+g}", check=_shift_rn_check(wreath, beta))
              for beta in RN_BETAS),
            *(Item(name=f"rn-theta-beta{beta:+g}-x{x0}",
                   check=_theta_rn_check(free, beta, x0))
              for beta in RN_BETAS for x0 in range(free.q)),
            Item(name="conformality", check=_conformality_check(conformal)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("wreath-retry", "wreath-deep", "free-product-batch", "oracles",
             "free-product-full-domain")


# ---------------------------------------------------------------------------
# Oracle


def digest(artifacts: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(artifacts):
        h.update(name.encode() + b"\0" + artifacts[name].encode() + b"\0")
    return h.hexdigest()


def _members(report: dict, betas: np.ndarray) -> np.ndarray:
    out = np.zeros(betas.shape, dtype=bool)
    for p in report["isolated_roots"]:
        out |= np.isclose(betas, float(p), rtol=0.0, atol=1e-12)
    for lo, hi in report["flat_intervals"]:
        out |= (betas >= float(lo) - 1e-12) & (betas <= float(hi) + 1e-12)
    return out


def check_spectrum(report: dict, K: SetSpec, r_max: float,
                   grid_n: int) -> Optional[str]:
    """Reported spectrum against the grid trace of d(beta, K) = 0.

    Grid membership must agree point for point (to the 1e-12 tolerance of
    the acceptance tests' members_from_report); isolated roots off the grid
    must lie within one grid cell of K, and every point of K in range must
    lie within one cell of a reported feature.
    """
    betas = np.linspace(-r_max, r_max, grid_n)
    cell = betas[1] - betas[0]
    got = _members(report, betas)
    truth = K.distance(betas) <= 1e-12
    if not np.array_equal(got, truth):
        bad = betas[got != truth]
        kind = "spurious" if got[got != truth][0] else "missing"
        return (f"{kind} members at {bad.size} grid points, first at "
                f"beta={bad[0]:.4f}, reported intervals "
                f"{report['flat_intervals']}")
    roots = [float(p) for p in report["isolated_roots"]]
    for p in roots:
        if K.distance(np.array([p]))[0] > cell:
            return f"isolated root {p!r} is farther than one grid cell from K"
    ivs = [(float(lo), float(hi)) for lo, hi in report["flat_intervals"]]
    for p in (float(q) for q in K.points):
        if abs(p) > r_max:
            continue
        covered = any(abs(p - q) <= cell for q in roots)
        covered |= any(lo - cell <= p <= hi + cell for lo, hi in ivs)
        if not covered:
            return f"point {p!r} of K is not reported"
    return None


def _sl2_order(p: int, n: int) -> int:
    # |SL(2, Z/p^n Z)| = p^(3n) (1 - p^-2)
    return p ** (3 * n - 2) * (p * p - 1)


def _reduced_words(max_len: int, letters: int) -> int:
    return sum(2 * letters * (2 * letters - 1) ** (k - 1)
               for k in range(1, max_len + 1))


def check_cli(item: Item, artifacts: dict, manifest: dict) -> Optional[str]:
    """None when the item's output is correct, else one failure reason."""
    failed = [c["name"] for c in manifest["certificates"] if not c["passed"]]
    if failed or not manifest["passed"]:
        return f"certificate failed: {', '.join(failed) or 'manifest'}"
    config = item.config
    report = json.loads(artifacts["report.json"])
    mode = config["mode"]
    if mode in ("wreath", "free-product"):
        return check_spectrum(report, item.K, float(config["range"]),
                              int(config["grid_n"]))
    if mode == "padic":
        free = report["freeness"]
        if free["identity_found"]:
            return "freeness: a reduced word evaluated to the identity"
        expected = _reduced_words(free["prefix_len"], len(free["alphabet"]))
        if free["prefix_words_evaluated"] != expected:
            return (f"freeness evaluated {free['prefix_words_evaluated']} "
                    f"prefix words, expected {expected}")
        levels = [c["N"] for c in report["closures"]]
        if levels != list(range(1, int(config["N"]) + 1)):
            return f"closure levels {levels} do not cover 1..{config['N']}"
        for c in report["closures"]:
            if c["order"] != _sl2_order(c["p"], c["N"]):
                return (f"closure order {c['order']} at N={c['N']} differs "
                        f"from |SL(2, Z/{c['p']}^{c['N']})|")
        return None
    if mode == "growth":
        if report["classifier"] != "R":
            return f"coboundary classified as {report['classifier']}, expected R"
        return None
    return f"no oracle for mode {mode!r}"


def check_values(values: dict) -> Optional[str]:
    if values.get("passed"):
        return None
    return "oracle check failed: " + json.dumps(values, sort_keys=True)
