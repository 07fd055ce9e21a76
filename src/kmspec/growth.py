"""Word-metric balls, the limsup criterion, measure nets and the four-way
spectrum classifier for groups of subexponential growth.

The group is Z, which has linear growth by construction, so the
sphere-summation argument always applies and no runtime growth guard is
needed.  State spaces are finite grids standing in for rotation actions; all
limsup style quantities are ball-truncated and reported together with their
horizon, never as verdicts about the true limits.
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import (ConvergenceError, DomainError, EnumerationError,
                     InvalidInputError)

ENUMERATION_CAP = 10 ** 7


class WordMetricGroup:
    """Finitely generated group with sphere enumeration.

    Elements are hashable; gens is the symmetric generating set.  The cocycle
    models build Z with generators +1 and -1.
    """

    def __init__(self, identity, gens: Sequence, mul: Callable):
        self.identity = identity
        self.gens = tuple(gens)
        self.mul = mul

    def spheres(self, n_max: int) -> List[set]:
        """Exact spheres G_0 .. G_{n_max} by breadth-first expansion."""
        seen = {self.identity: 0}
        spheres = [{self.identity}]
        frontier = [self.identity]
        for k in range(1, n_max + 1):
            nxt = []
            for g in frontier:
                for s in self.gens:
                    h = self.mul(g, s)
                    if h not in seen:
                        seen[h] = k
                        nxt.append(h)
                        if len(seen) > ENUMERATION_CAP:
                            raise EnumerationError(
                                f"ball enumeration exceeded {ENUMERATION_CAP}")
            spheres.append(set(nxt))
            frontier = nxt
        return spheres


def ball_census(group: WordMetricGroup, n_max: int) -> Tuple[int, ...]:
    """Exact sphere counts |G_0| .. |G_n_max|."""
    return tuple(len(s) for s in group.spheres(n_max))


class CocycleModel:
    """Group action on a finite grid with a cocycle Omega(g, x).

    Presets on Z acting by rotation on Z/m: a coboundary H(g x) - H(x), a
    homomorphism c * g, and their sum.
    """

    def __init__(self, group: WordMetricGroup, n_states: int,
                 act: Callable, omega: Callable):
        self.group = group
        self.n_states = n_states
        self.act = act
        self.omega = omega

    @classmethod
    def from_preset(cls, name: str, n_states: int = 64, step: int = 7,
                    c: float = 1.0) -> "CocycleModel":
        group = WordMetricGroup(0, (1, -1), lambda a, b: a + b)

        def act(g, x):
            return (x + g * step) % n_states

        h = np.sin(2.0 * math.pi * np.arange(n_states) / n_states)

        def coboundary(g, x):
            return float(h[act(g, x)] - h[x])

        if name == "coboundary":
            omega = coboundary
        elif name == "homomorphism":
            def omega(g, x):
                return c * g
        elif name == "mixed":
            def omega(g, x):
                return coboundary(g, x) + c * g
        else:
            raise InvalidInputError(f"unknown cocycle preset {name!r}")
        return cls(group=group, n_states=n_states, act=act, omega=omega)

    def check_cocycle_identity(self, n_samples: int = 100) -> float:
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(n_samples):
            g = int(rng.integers(-20, 21))
            h = int(rng.integers(-20, 21))
            x = int(rng.integers(0, self.n_states))
            lhs = self.omega(g, self.act(h, x)) + self.omega(h, x)
            rhs = self.omega(self.group.mul(g, h), x)
            worst = max(worst, abs(lhs - rhs))
        return worst


@dataclass(frozen=True)
class LimsupEstimate:
    tails: Tuple[float, ...]     # tails[n] = sup over spheres n+1 .. N

    @property
    def estimate(self) -> float:
        return self.tails[-1]


def limsup_ratio(model: CocycleModel, x: int, beta: float,
                 horizon: int) -> LimsupEstimate:
    """Ball-truncated over-approximation of limsup beta Omega(g,x)/|g|."""
    spheres = model.group.spheres(horizon)
    sphere_sups = []
    for k in range(1, horizon + 1):
        vals = [beta * model.omega(g, x) / k for g in spheres[k]]
        sphere_sups.append(max(vals))
    tails = []
    running = -math.inf
    for sup in reversed(sphere_sups):
        running = max(running, sup)
        tails.append(running)
    tails.reverse()
    return LimsupEstimate(tails=tuple(tails))


@dataclass(frozen=True)
class DefectCertificate:
    generator: object
    measured_defect: float
    analytic_bound: float
    truncation_slack: float

    @property
    def bound(self) -> float:
        return self.analytic_bound + self.truncation_slack

    @property
    def passed(self) -> bool:
        return self.measured_defect <= self.bound


@dataclass(frozen=True)
class MeasureNet:
    """Normalized orbit sum sum_g e^{beta Omega(g,x) - |g| s} delta_{g x}."""

    atoms: Tuple[Tuple[int, float], ...]    # (state, normalized weight)

    def __post_init__(self):
        total = math.fsum(w for _, w in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise InvalidInputError("net weights must sum to 1 within 1e-12")


def build_measure_net(model: CocycleModel, x: int, beta: float, s: float,
                      radius: int) -> Tuple[MeasureNet, List[DefectCertificate]]:
    """Measure net with a per-generator conformality defect certificate.

    The test functions are the constant 1, one cosine period over the states
    and the indicator of every third state.  For each generator h the defect
    on a test function f is bounded by ||f||_inf |e^{|h| s} - 1| plus a
    truncation slack carried by the mass of the shell |g| > radius - |h|,
    both recorded alongside the measured value.
    """
    if s <= 0.0:
        raise InvalidInputError("s must be positive")
    spheres = model.group.spheres(radius)
    weights: Dict[object, float] = {}
    for k, sphere in enumerate(spheres):
        for g in sphere:
            weights[g] = math.exp(beta * model.omega(g, x) - k * s)
    total = math.fsum(weights.values())
    last_sphere = math.fsum(weights[g] for g in spheres[radius])
    if last_sphere > 1e-2 * total:
        raise ConvergenceError(f"ball sum has not settled: the outermost "
                               f"sphere still carries {last_sphere / total:.2e} "
                               "of the mass; increase the radius or s")

    state_mass: Dict[int, float] = {}
    for g, w in weights.items():
        y = model.act(g, x)
        state_mass[y] = state_mass.get(y, 0.0) + w
    atoms = tuple(sorted((y, m / total) for y, m in state_mass.items()))
    net = MeasureNet(atoms=atoms)

    idx = np.arange(model.n_states)
    test_functions = [np.ones(model.n_states),
                      np.cos(2.0 * math.pi * idx / model.n_states),
                      (idx % 3 == 0).astype(float)]

    certificates = []
    for h in model.group.gens:
        len_h = 1
        shell_mass = math.fsum(
            weights[g] for k in range(radius - len_h + 1, radius + 1)
            for g in spheres[k]) / total
        for f in test_functions:
            f_sup = float(np.max(np.abs(f)))
            lhs = math.fsum(
                f[model.act(h, model.act(g, x))]
                * math.exp(beta * model.omega(h, model.act(g, x)))
                * w / total
                for g, w in weights.items())
            rhs = math.fsum(f[model.act(g, x)] * w / total
                            for g, w in weights.items())
            measured = abs(lhs - rhs)
            bound = f_sup * abs(math.exp(len_h * s) - 1.0)
            omega_sup = max(abs(beta * model.omega(h, y))
                            for y in range(model.n_states))
            slack = f_sup * (1.0 + math.exp(omega_sup)) * shell_mass
            certificates.append(DefectCertificate(generator=h,
                                                  measured_defect=measured,
                                                  analytic_bound=bound,
                                                  truncation_slack=slack))
    return net, certificates


SPECTRUM_CLASSES = ("{0}", "[0,inf)", "(-inf,0]", "R")


def classify_spectrum(has_nonpos_limsup_point: bool,
                      has_nonneg_liminf_point: bool) -> str:
    """Four-way rigidity for subexponential growth.

    A point with nonpositive limsup admits all beta >= 0; a point with
    nonnegative liminf admits all beta <= 0; beta = 0 is always admissible.
    """
    if has_nonpos_limsup_point and has_nonneg_liminf_point:
        return "R"
    if has_nonpos_limsup_point:
        return "[0,inf)"
    if has_nonneg_liminf_point:
        return "(-inf,0]"
    return "{0}"


def omega_mu(model: CocycleModel, measure: np.ndarray) -> Dict[object, float]:
    """Integrated cocycle Omega_mu(g) = integral Omega(g, x) d mu(x) on the
    generators; requires mu invariant under the action to within 1e-10."""
    mu = np.asarray(measure, dtype=float)
    if mu.shape != (model.n_states,) or abs(mu.sum() - 1.0) > 1e-10:
        raise InvalidInputError("measure must be a probability vector on the states")
    for h in model.group.gens:
        pushed = np.zeros_like(mu)
        for xx in range(model.n_states):
            pushed[model.act(h, xx)] += mu[xx]
        if float(np.max(np.abs(pushed - mu))) > 1e-10:
            raise DomainError(f"measure is not invariant under generator {h!r}")
    return {h: float(math.fsum(model.omega(h, xx) * mu[xx]
                               for xx in range(model.n_states)))
            for h in model.group.gens}


def uniquely_ergodic_classifier(model: CocycleModel, measure: np.ndarray) -> str:
    """For a uniquely ergodic model the spectrum is R iff Omega_mu vanishes."""
    table = omega_mu(model, measure)
    return "R" if all(abs(v) <= 1e-9 for v in table.values()) else "{0}"
