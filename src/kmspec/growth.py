"""Word-metric balls, the limsup criterion, measure nets and the four-way
spectrum classifier for groups of subexponential growth.

The group is Z, which has linear growth by construction, so the
sphere-summation argument always applies and no runtime growth guard is
needed.  State spaces are finite grids standing in for rotation actions; all
limsup style quantities are ball-truncated and reported together with their
horizon, never as verdicts about the true limits.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidInputError

_GENERATORS = (1, -1)   # the symmetric generating set of Z


def _spheres(n_max: int) -> List[Tuple[int, ...]]:
    """Z's spheres (0,), (1, -1), ..., (n_max, -n_max) for the generators +-1."""
    return [(0,)] + [(k, -k) for k in range(1, n_max + 1)]


def _elements(spheres: List[Tuple[int, ...]]) -> np.ndarray:
    return np.array([g for sphere in spheres for g in sphere])


def ball_census(n_max: int) -> Tuple[int, ...]:
    """Exact sphere counts |G_0| .. |G_n_max| of Z."""
    return tuple(len(s) for s in _spheres(n_max))


class CocycleModel:
    """Z acting on a finite grid with a cocycle Omega(g, x).

    Presets act by rotation on Z/m: a coboundary H(g x) - H(x), a
    homomorphism c * g, and their sum.  act and omega take g as an integer
    array and x as an array of its shape or a scalar, and act elementwise.
    """

    def __init__(self, n_states: int, act: Callable, omega: Callable):
        self.n_states = n_states
        self.act = act
        self.omega = omega

    @classmethod
    def from_preset(cls, name: str, n_states: int = 64, step: int = 7,
                    c: float = 1.0) -> "CocycleModel":
        def act(g, x):
            return (x + g * step) % n_states

        h = np.sin(2.0 * math.pi * np.arange(n_states) / n_states)

        def coboundary(g, x):
            return h[act(g, x)] - h[x]

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
        return cls(n_states=n_states, act=act, omega=omega)


@dataclass(frozen=True)
class LimsupEstimate:
    tails: Tuple[float, ...]     # tails[n] = sup over spheres n+1 .. N

    @property
    def estimate(self) -> float:
        return self.tails[-1]


# an Omega past the float range is an inf tail, which is what it bounds
@np.errstate(over="ignore")
def limsup_ratio(model: CocycleModel, x: int, beta: float,
                 horizon: int) -> LimsupEstimate:
    """Ball-truncated over-approximation of limsup beta Omega(g,x)/|g|."""
    g = _elements(_spheres(horizon)[1:]).reshape(horizon, 2)
    vals = beta * model.omega(g, x) / np.arange(1, horizon + 1)[:, None]
    # max(vals) of each sphere: its first element unless the second is larger
    sphere_sups = np.where(vals[:, 1] > vals[:, 0], vals[:, 1], vals[:, 0])
    tails = list(itertools.accumulate(reversed(sphere_sups.tolist()), max))
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


# an inf or nan from numpy is judged by the finiteness checks below
@np.errstate(over="ignore", invalid="ignore")
def build_measure_net(model: CocycleModel, x: int, beta: float, s: float,
                      radius: int) -> List[DefectCertificate]:
    """Conformality defect certificates, one per generator and test function,
    of the measure net: the orbit sum sum_g e^{beta Omega(g,x) - |g| s}
    delta_{g x} over the ball of the radius, normalized.

    The test functions are the constant 1, one cosine period over the states
    and the indicator of every third state.  For each generator h the defect
    on a test function f is bounded by ||f||_inf |e^{|h| s} - 1| plus a
    truncation slack carried by the mass of the shell |g| > radius - |h|,
    both recorded alongside the measured value.  A sum or a term that
    overflows raises `ConvergenceError` naming s and the radius: math.exp
    raises past the float range, but where beta Omega is already inf in
    floats the overflow shows only as a weight, total or defect term that
    is not finite, and that raises the same.
    """
    if s <= 0.0:
        raise InvalidInputError("s must be positive")
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")
    g = _elements(_spheres(radius))
    try:
        weights = np.array([math.exp(v) for v in
                            (beta * model.omega(g, x) - np.abs(g) * s).tolist()])
        total = math.fsum(weights.tolist())
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ConvergenceError(f"the ball sum overflows at s = {s!r}, radius "
                               f"{radius}; increase s")
    last_sphere = math.fsum(weights[np.abs(g) == radius].tolist())
    if last_sphere > 1e-2 * total:
        raise ConvergenceError(f"ball sum has not settled: the outermost "
                               f"sphere still carries {last_sphere / total:.2e} "
                               "of the mass; increase the radius or s")

    y = model.act(g, x)
    states = np.arange(model.n_states)
    test_functions = [np.ones(model.n_states),
                      np.cos(2.0 * math.pi * states / model.n_states),
                      (states % 3 == 0).astype(float)]
    rhs = [math.fsum((f[y] * weights / total).tolist()) for f in test_functions]

    # the shell |g| > radius - |h| is the outermost sphere
    shell_mass = last_sphere / total
    overflow = (f"a defect term overflows at s = {s!r}, radius {radius}: "
                "exp(|h| s) or exp(beta Omega(h, x)) of a generator h is past "
                "the float range")
    certificates = []
    try:
        for h in _GENERATORS:
            len_h = 1
            omega_h = beta * model.omega(np.full(model.n_states, h), states)
            omega_sup = float(np.max(np.abs(omega_h)))
            e = np.array([math.exp(v) for v in omega_h.tolist()])[y]
            hy = model.act(h, y)
            for f, rhs_f in zip(test_functions, rhs):
                f_sup = float(np.max(np.abs(f)))
                lhs = math.fsum((f[hy] * e * weights / total).tolist())
                measured = abs(lhs - rhs_f)
                bound = f_sup * abs(math.exp(len_h * s) - 1.0)
                slack = f_sup * (1.0 + math.exp(omega_sup)) * shell_mass
                certificates.append(DefectCertificate(generator=h,
                                                      measured_defect=measured,
                                                      analytic_bound=bound,
                                                      truncation_slack=slack))
    except OverflowError:
        raise ConvergenceError(overflow) from None
    if not all(math.isfinite(c.measured_defect) and math.isfinite(c.truncation_slack)
               for c in certificates):
        raise ConvergenceError(overflow)
    return certificates


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


def _orbit_count(image: np.ndarray) -> int:
    """The number of cycles of the permutation x -> image[x]: by pointer
    doubling, each state's label becomes the least state of its cycle."""
    least, jump = np.arange(len(image)), image
    for _ in range((len(image) - 1).bit_length()):
        least = np.minimum(least, least[jump])
        jump = jump[jump]
    return len(np.unique(least))


def omega_mu(model: CocycleModel, measure: np.ndarray) -> Dict[object, float]:
    """Integrated cocycle Omega_mu(g) = integral Omega(g, x) d mu(x) on the
    generators; requires mu invariant under the action to within 1e-10, and
    an action with one orbit, without which the model is not uniquely
    ergodic and Omega_mu depends on the invariant measure chosen."""
    mu = np.asarray(measure, dtype=float)
    if mu.shape != (model.n_states,) or abs(mu.sum() - 1.0) > 1e-10:
        raise InvalidInputError("measure must be a probability vector on the states")
    states = np.arange(model.n_states)
    orbits = _orbit_count(model.act(np.ones_like(states), states))
    if orbits != 1:
        raise DomainError(f"the action has {orbits} orbits on the "
                          f"{model.n_states} states, so the model is not "
                          "uniquely ergodic")
    table = {}
    for h in _GENERATORS:
        g = np.full(model.n_states, h)
        pushed = np.zeros_like(mu)
        np.add.at(pushed, model.act(g, states), mu)
        if float(np.max(np.abs(pushed - mu))) > 1e-10:
            raise DomainError(f"measure is not invariant under generator {h!r}")
        table[h] = math.fsum((model.omega(g, states) * mu).tolist())
    return table


def uniquely_ergodic_classifier(table: Dict[object, float]) -> str:
    """For a uniquely ergodic model the spectrum is R iff Omega_mu vanishes;
    table is the model's omega_mu, which checks that it is uniquely
    ergodic."""
    return "R" if all(abs(v) <= 1e-9 for v in table.values()) else "{0}"
