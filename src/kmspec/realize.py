"""Staged construction of realizable functions and the explicit fraction pairs.

A function phi with phi(0) = 1 and phi -> 1 at infinity is realized as an
infinite product prod_k (1 + P_k zeta_k) where P_k(beta) = tanh(beta ln(a_k)/2)
and each zeta_k is encoded in a finite partitioned block.  The stage residuals
contract geometrically, giving a certified sup-norm error 2^(1-K) after K
stages.  The fraction pair construction produces the two evaluators whose
level sets at 1/k and k cut out a prescribed closed set avoiding 0.
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from ._arrays import logsumexp, scalar_or_array
from .blocks import FiniteConformalBlock, ProbVector
from .errors import (ConstructionError, FitFailureError, InvalidInputError,
                     RealizationError)
from .expratio import PartitionedBlockSystem, realize_block


@scalar_or_array
def mobius_eval(a: float, betas):
    """P(beta) = (a^beta - 1)/(a^beta + 1), an odd function with limits +-1."""
    if not a > 1.0:
        raise InvalidInputError("a must exceed 1")
    return np.tanh(betas * (math.log(a) / 2.0))


@scalar_or_array
def tanh_ratio(l1: float, l2: float, betas):
    """tanh(beta l1/2)/tanh(beta l2/2) continuously extended by l1/l2 at 0."""
    num = np.tanh(betas * (l1 / 2.0))
    den = np.tanh(betas * (l2 / 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(den != 0.0, num / np.where(den != 0.0, den, 1.0), l1 / l2)
    return np.where(betas == 0.0, l1 / l2, r)


def ratio_bound(a_n: float, a_next: float) -> float:
    """Certified upper bound on sup |P_n / P_{n+1}|, in closed form.

    With c = ln(a_n)/ln(a_next) and y = beta ln(a_next)/2, the ratio is the
    even function tanh(cy)/tanh(y), equal to c at 0 and tending to 1 at
    infinity.  Its derivative in y > 0 has the sign of
    c sinh(2y) - sinh(2cy), and c sinh z < sinh(cz) for c > 1, z > 0 (the
    reverse for c < 1), so the ratio is monotone between its two limits and
    its sup is max(c, 1), widened by 1e-9 relative for rounding.
    """
    if not (a_n > 1.0 and a_next > 1.0):
        raise InvalidInputError("bases must exceed 1")
    return max(math.log(a_n) / math.log(a_next), 1.0) * (1.0 + 1e-9)


def default_schedule(a: float, stages: int) -> Tuple[float, ...]:
    """a_n = 1 + (a-1)/n^2, summable by construction; one extra base is
    returned because stage k needs the ratio bound against a_{k+1}."""
    return tuple(1.0 + (a - 1.0) / n ** 2 for n in range(1, stages + 2))


@dataclass(frozen=True)
class RealizableCocycle:
    """Product cocycle over staged blocks realizing phi = 1 + P_1 zeta."""

    stages: Tuple[PartitionedBlockSystem, ...]
    certified_error: float

    @property
    def budget(self) -> float:
        """2^(1-K), the sup-norm error a build of K stages may certify."""
        return 2.0 ** (1 - len(self.stages))


@scalar_or_array
def eval_phi(cocycle: RealizableCocycle, betas):
    """Product over blocks of the per-block conformal integral of H^beta."""
    out = np.ones_like(betas)
    for stage in cocycle.stages:
        out = out * stage.factor(betas)
    return out


def build_realizable(zeta: np.ndarray, betas: np.ndarray, a: float,
                     stages: int) -> RealizableCocycle:
    """Realize phi = 1 + P_1 zeta by a staged block product, from the values
    of zeta on the symmetric build grid betas.

    Stage k fits the running residual (phi - psi_{k-1})/(psi_{k-1} P_k) once,
    at the tolerance eps_k = min{(4 C_k)^{-1}, 2^{-k}}, with a block of order
    2^n at the base a_k = 1 + (a-1)/k^2, and keeps the block when its
    achieved sup error on the build grid is at most 4 eps_k; otherwise, or
    when the residual leaves the fit no headroom below 1/2, it raises
    `RealizationError` naming the stage.  The residual is kept as values on
    the build grid and follows the stable recursion
    res_{k+1} = (P_k/P_{k+1}) (res_k - zeta_k)/(1+P_k zeta_k), with zeta_k
    and 1 + P_k zeta_k the grid values `realize_block` returns; it has no
    singularity at beta = 0.  The sup of |phi - psi_K| on the grid is
    returned as `certified_error` for the caller to judge against `budget`.
    """
    if stages < 1:
        raise InvalidInputError("stages must be >= 1")
    # mobius_eval rejects a base a <= 1
    phi_vals = 1.0 + mobius_eval(a, betas) * zeta
    schedule = default_schedule(a, stages)

    res = zeta
    stage_blocks = []
    psi_vals = np.ones_like(betas)
    # fit bases and their design matrices, shared by every stage of this
    # build; they all fit on the same grid
    bases = {}
    for k in range(1, stages + 1):
        a_k = schedule[k - 1]
        c_k = ratio_bound(a_k, schedule[k])
        eps_k = min(1.0 / (4.0 * c_k), 2.0 ** (-k))
        try:
            system, zeta_k, factor_k = realize_block(res, betas, t=a_k,
                                                     epsilon=eps_k, bases=bases)
        except (FitFailureError, RealizationError) as exc:
            raise RealizationError(f"stage {k} failed: {exc}") from exc
        # the fit is limited by the basis resolution, not by its target, so a
        # residual with structure below that resolution may miss eps_k; the
        # stage accepts up to 4 eps_k, and the product-level 2^(1-K)
        # certificate is the binding one
        if not system.achieved_error <= 4.0 * eps_k:
            raise RealizationError(
                f"stage {k} failed: achieved error {system.achieved_error} "
                f"exceeds 4 eps_k = {4.0 * eps_k}")
        # 1 + P zeta lies in (1/2, 3/2): |P| < 1 and zeta = eta_1 - eta_2
        # with each eta in (0, 1/2)
        psi_vals = psi_vals * factor_k
        if float(np.max(np.abs(psi_vals))) > 2.0 + 1e-9:
            raise RealizationError(f"stage {k}: |psi| exceeds 2")
        stage_blocks.append(system)
        res = (tanh_ratio(math.log(a_k), math.log(schedule[k]), betas)
               * (res - zeta_k) / factor_k)

    return RealizableCocycle(stages=tuple(stage_blocks),
                             certified_error=float(np.max(np.abs(phi_vals - psi_vals))))


# ---------------------------------------------------------------------------
# Fraction pairs: phi_1 with level set {phi_1 = 1/k} = K and phi_2 with
# {phi_2 = k} = K, for closed K avoiding 0.

_CEILING = 1e12  # largest b and a the doubling searches of fraction_pair try

def clamp_f(value):
    """Piecewise-linear clamp: identity on [-1/2,1/2], folded to 0 beyond 1."""
    t = np.asarray(value, dtype=float)
    out = np.where(np.abs(t) <= 0.5, t,
                   np.where(np.abs(t) >= 1.0, 0.0,
                            np.where(t > 0.0, 1.0 - t, -1.0 - t)))
    out = np.where(np.isfinite(t), out, 0.0)
    return out


@dataclass(frozen=True)
class FractionPair:
    k: int
    block_order: int        # order 2k + l of the first block
    a: float
    b: float
    c: float
    phi1: Callable
    phi2: Callable
    # phi_1 and phi_2 on the grid of fraction_pair, read-only
    phi1_grid: np.ndarray
    phi2_grid: np.ndarray
    q_max: float    # max |Q_i| on the grid points with |beta| >= d(0, K)
    # min |Q_i| on the grid points beta != 0, nan where some Q_i is not finite
    q_min: float

    @property
    def l(self) -> int:
        return self.block_order - 2 * self.k

    def first_block(self, which: int) -> FiniteConformalBlock:
        """Explicit first-block realization of the prefactor.

        The block measure and three-valued potential are chosen so that the
        conformal integral of H^beta equals the prefactor identically.
        """
        k, l, a, b, c = self.k, self.l, self.a, self.b, self.c
        if which == 1:
            weights = [1.0] * k + [a] * k + [c] * l
            potential = [1.0] + [b] * (k - 1) + [1.0] + [b / a] * (k - 1) + [1.0] * l
        elif which == 2:
            weights = [1.0] + [b] * (2 * (k - 1)) + [a] + [c] * l
            potential = ([1.0] + [1.0 / b] * (k - 1) + [a / b] * (k - 1)
                         + [1.0] + [1.0] * l)
        else:
            raise InvalidInputError("which must be 1 or 2")
        w = np.array(weights)
        return FiniteConformalBlock(base_measure=ProbVector(w / w.sum()),
                                    potential=np.array(potential), base=a)


def fraction_pair(K, k: int, Lambda0_order: int,
                  grid_n: int = 10001, r_max: float = 20.0) -> FractionPair:
    """Construct the fraction pair for a closed set K with 0 not in K.

    b is found by doubling until the beta <= -delta inequality holds, then a
    by doubling until both a-inequalities hold; each candidate inequality is
    checked at its extremal point, where the left side is largest.
    """
    if k < 2:
        raise InvalidInputError("k must be >= 2")
    if Lambda0_order < 2 * k:
        raise InvalidInputError("first block order must be at least 2k")
    delta = float(K.distance(0.0))
    if delta <= 0.0:
        raise InvalidInputError("K must be bounded away from 0")
    l = Lambda0_order - 2 * k
    coeff = 2.0 * (k - 1) + l * (1.0 - 1.0 / k)

    b = 2.0
    while coeff * b ** (-delta) > 0.25:
        b *= 2.0
        if b > _CEILING:
            raise ConstructionError("no admissible b below the ceiling for the "
                                    "beta <= -delta inequality")
    c = b + 1.0
    a = 2.0 * (c + 1.0)
    while (2.0 * (k - 1) * (b / a) ** delta + l * (1.0 - 1.0 / k) * (c / a) ** delta
           > 0.25) or a ** delta < 3.0:
        a *= 2.0
        if a > _CEILING:
            raise ConstructionError("no admissible a below the ceiling for the "
                                    "beta >= delta inequalities")

    la, lb, lc = math.log(a), math.log(b), math.log(c)

    def columns(terms):
        # (log coefficients, log bases) of an exponential sum's terms, as
        # columns against a row of betas; zero coefficients are skipped
        kept = np.array([(math.log(cf), lbs) for cf, lbs in terms if cf > 0.0])
        return kept[:, :1], kept[:, 1:]

    q_numer = columns([(2.0 * (k - 1), lb), (l * (1.0 - 1.0 / k), lc)])
    q2_denom = columns([(1.0, 0.0), (1.0, la), (l / k, lc)])
    block_sum = columns([(1.0, 0.0), (2.0 * (k - 1), lb), (1.0, la), (float(l), lc)])
    k_sum = columns([(float(k), 0.0), (float(k), la), (float(l), lc)])

    def _lse(betas, cols):
        # row i is log_base_i * beta + log(coef_i), the same arithmetic for a
        # beta whatever array it comes in, so no value depends on the batch
        log_coef, log_base = (c.reshape(c.shape[:1] + (1,) * betas.ndim)
                              for c in cols)
        return logsumexp(log_base * betas + log_coef, axis=0)

    def _parts(betas):
        """phi_i and the q_i they are built from, on a finite float array."""
        log_block = _lse(betas, block_sum)
        log_k = _lse(betas, k_sum)
        num = _lse(betas, q_numer)
        den = _lse(betas, q2_denom)
        bump = np.maximum(0.0, 1.0 - np.asarray(K.distance(betas), dtype=float))
        th = np.tanh(betas * (la / 2.0))
        # coth = (a^beta + 1)/(a^beta - 1); huge but finite near 0, sign of beta
        with np.errstate(divide="ignore"):
            coth = np.where(th != 0.0, 1.0 / np.where(th != 0.0, th, 1.0), np.inf)
        at_zero = betas == 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            q1 = np.where(at_zero, np.inf, -np.exp(num - log_block) * coth)
            q2 = np.where(at_zero, np.inf, np.exp(num - den) * coth)
        zeta1 = np.where(at_zero, 0.0, clamp_f(q1) * bump)
        zeta2 = np.where(at_zero, 0.0, clamp_f(q2) * bump)
        return {"q1": q1, "q2": q2,
                "phi1": np.exp(log_block - log_k) * (1.0 + th * zeta1),
                "phi2": np.exp(log_k - log_block) * (1.0 + th * zeta2)}

    def evaluator(name):
        def part(betas):
            return _parts(betas)[name]
        part.__name__ = part.__qualname__ = name
        return scalar_or_array(part)

    # the q_i are measured on the grid and judged by the caller, who also
    # reads the phi_i there
    betas = np.linspace(-r_max, r_max, grid_n)
    on_grid = _parts(betas)
    for name in ("phi1", "phi2"):
        on_grid[name].flags.writeable = False
    q_off = np.abs([on_grid[n][np.abs(betas) >= delta] for n in ("q1", "q2")])
    q_max = float(np.max(q_off, initial=0.0))    # 0.0 when no point is off
    # the level sets are K only where Q_i is finite and nonzero
    q_on = np.array([on_grid[n][betas != 0.0] for n in ("q1", "q2")])
    q_min = float(np.min(np.where(np.isfinite(q_on), np.abs(q_on), np.nan)))
    return FractionPair(k=k, block_order=Lambda0_order, a=a, b=b, c=c,
                        q_max=q_max, q_min=q_min,
                        phi1=evaluator("phi1"), phi2=evaluator("phi2"),
                        phi1_grid=on_grid["phi1"], phi2_grid=on_grid["phi2"])
