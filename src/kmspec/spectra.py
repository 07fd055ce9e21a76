"""Target functions from closed sets, wreath and free product systems with
their Radon-Nikodym data, and the spectrum solvers.

The spectrum of the wreath system is {beta : phi(beta) = 1}; the free product
system requires phi_1(beta) = 1/k and phi_2(beta) = k simultaneously.  Both
level sets are generically flat, so the solver combines a strict membership
threshold with golden-section refinement of near-miss local minima.  All
brackets of a solve are refined in lockstep, with one evaluator call per
step; each bracket follows the path a search of it alone would take, bit for
bit, so the reports are byte-identical to those of a one-bracket-at-a-time
search.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ._arrays import scalar_or_array
from .blocks import (FiniteConformalBlock, ProbVector, cohomologous_transform,
                     integrate_potential, product_conformal_weights)
from .errors import DomainError, InvalidInputError, WindowError
from .realize import FractionPair
from .sets import ClosedSetSpec


def target_phi_from_set(K: ClosedSetSpec, t: float) -> Callable:
    """phi(beta) = 1 + P_t(beta) d(beta,K) / (2 (1 + beta^2)), with zero set K.

    Requires 0 in K: the correction vanishes at 0 regardless, so phi(0) = 1
    always, and a spectrum not containing 0 cannot be encoded this way.
    """
    if not t > 1.0:
        raise InvalidInputError("t must exceed 1")
    if K.distance(0.0) > 0.0:
        raise DomainError("K must contain 0; this construction carries an "
                          "invariant measure at beta = 0")
    half_log_t = math.log(t) / 2.0

    @scalar_or_array
    def phi(betas):
        d = np.asarray(K.distance(betas), dtype=float)
        return 1.0 + np.tanh(betas * half_log_t) * d / (2.0 * (1.0 + betas ** 2))

    return phi


# ---------------------------------------------------------------------------
# Spectrum solving

@dataclass(frozen=True)
class SpectrumReport:
    isolated_roots: Tuple[float, ...]
    flat_intervals: Tuple[Tuple[float, float], ...]
    clipped: Tuple[bool, ...]
    tol: float
    strict_tol: float
    grid_n: int
    r_max: float
    warnings: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "isolated_roots": [repr(p) for p in self.isolated_roots],
            "flat_intervals": [[repr(lo), repr(hi)] for lo, hi in self.flat_intervals],
            "clipped": list(self.clipped),
            "tol": repr(self.tol),
            "strict_tol": repr(self.strict_tol),
            "grid_n": self.grid_n,
            "r_max": repr(self.r_max),
            "warnings": list(self.warnings),
        }


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_mins(f: Callable, lo: np.ndarray,
                 hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Golden-section minima of f on the brackets [lo[j], hi[j]] to 1e-14;
    robust on kinks.

    The brackets are searched in lockstep, with one call of f per step over
    the brackets still open.  Each bracket does the arithmetic of a search on
    its own, so with an elementwise f each takes the same path bit for bit.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    n = lo.size
    if n == 0:
        return lo, hi
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f12 = np.asarray(f(np.concatenate((x1, x2))), dtype=float)
    f1, f2 = f12[:n], f12[n:]
    open_ = np.flatnonzero(hi - lo > 1e-14)
    while open_.size:
        left = f1[open_] <= f2[open_]
        s, t = open_[left], open_[~left]
        # the minimum lies left of x2: [lo, x2] keeps x1 as its new x2
        hi[s], x2[s], f2[s] = x2[s], x1[s], f1[s]
        x1[s] = hi[s] - _GOLDEN * (hi[s] - lo[s])
        # the minimum lies right of x1: [x1, hi] keeps x2 as its new x1
        lo[t], x1[t], f1[t] = x1[t], x2[t], f2[t]
        x2[t] = lo[t] + _GOLDEN * (hi[t] - lo[t])
        fx = np.asarray(f(np.where(left, x1[open_], x2[open_])), dtype=float)
        f1[s], f2[t] = fx[left], fx[~left]
        open_ = open_[hi[open_] - lo[open_] > 1e-14]
    first = f1 <= f2
    return np.where(first, x1, x2), np.where(first, f1, f2)


def _near_misses(m: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the local minima of m that may hide a zero within one cell.

    A zero within one cell of point i forces m[i] <= (local slope) * spacing,
    which the adjacent differences estimate; minima above that and above tol
    cannot hide one.  The first and last points have one neighbour and stand
    in for the missing one themselves, so their test is one-sided.
    """
    lo = np.concatenate((m[:1], m[:-1]))
    hi = np.concatenate((m[1:], m[-1:]))
    slope_room = 1.5 * np.maximum(np.abs(hi - m), np.abs(m - lo))
    return np.flatnonzero((m <= np.maximum(tol, slope_room))
                          & (m <= lo) & (m <= hi))


_SUB_CELLS = 64


def _report_from_metric(metric: Callable, r_max: float, tol: float,
                        grid_n: int, strict: float) -> SpectrumReport:
    """Shared solver: metric(beta) >= 0 vanishes exactly on the spectrum.

    Membership uses the strict threshold, separating first-order tangential
    near-misses from numerically-zero values; near-miss local minima are
    refined off the grid by golden section, which also finds every
    transversal zero, as one makes its nearest grid point a near miss.  A
    refined zero within one cell of another feature is merged into it, with
    a warning when the metric rises above the strict threshold between the
    two, that is when a point of the spectrum goes unreported.
    """
    betas = np.linspace(-r_max, r_max, grid_n)
    spacing = betas[1] - betas[0]
    m = np.asarray(metric(betas), dtype=float)
    member = m <= strict

    # refine near-miss local minima: the grid may straddle an off-grid root.
    # The first and last points search one-sided, over the end cell.  Golden
    # section, as parabolic steps stall on kink-shaped minima, which is the
    # generic local shape of |phi - 1| at an isolated spectrum point.
    misses = _near_misses(m, tol)
    misses = misses[~member[misses]]
    cell_lo = betas[np.maximum(misses - 1, 0)]
    cell_hi = betas[np.minimum(misses + 1, grid_n - 1)]
    x, fx = _golden_mins(metric, cell_lo, cell_hi)
    found = np.flatnonzero(fx <= strict)

    # two zeros closer than a grid cell leave a single near-miss minimum on
    # the grid, and its search finds only one of them; on a finer sub-grid
    # of the bracket the others show as further near-miss minima
    owner, sub_lo, sub_hi = [], [], []
    if found.size:
        subs = np.array([np.linspace(cell_lo[j], cell_hi[j], _SUB_CELLS + 1)
                         for j in found])
        ms = np.asarray(metric(subs.ravel()), dtype=float).reshape(subs.shape)
        for j, sub, mj in zip(found, subs, ms):
            for k in _near_misses(mj, tol):
                if k in (0, _SUB_CELLS) or sub[k - 1] <= x[j] <= sub[k + 1]:
                    continue
                owner.append(j)
                sub_lo.append(sub[k - 1])
                sub_hi.append(sub[k + 1])
    y, fy = _golden_mins(metric, sub_lo, sub_hi)

    # each zero found from the grid comes first, then the further zeros of
    # its bracket in sub-grid order
    extra = []
    for j in found:
        extra.append(float(x[j]))
        extra += [float(v) for o, v, fv in zip(owner, y, fy)
                  if o == j and fv <= strict]

    # runs of members start where the padded mask rises and end where it falls
    edges = np.diff(np.concatenate(([0], member.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    single = starts == ends
    isolated = [float(b) for b in betas[starts[single]]]
    intervals = [(float(betas[i]), float(betas[j]))
                 for i, j in zip(starts[~single], ends[~single])]
    clipped = ((starts == 0) | (ends == grid_n - 1))[~single].tolist()

    def scalar(b):
        return float(metric(np.array([b]))[0])

    warnings = []
    for p in extra:
        near = [q for q in isolated if abs(p - q) <= spacing]
        near += [min(max(p, lo), hi) for lo, hi in intervals
                 if lo - spacing <= p <= hi + spacing]
        if not near:
            isolated.append(p)
        elif scalar(0.5 * (p + near[0])) > strict:
            warnings.append(f"refined zero at beta={p:.10g} lies within one grid "
                            f"cell of the feature at beta={near[0]:.10g} and is "
                            "merged into it")
    isolated.sort()

    features = [(p, p) for p in isolated] + intervals
    features.sort()
    for (a_lo, a_hi), (b_lo, b_hi) in zip(features, features[1:]):
        if b_lo - a_hi < 2.0 * spacing:
            warnings.append(f"features near beta={a_hi:.6g} and beta={b_lo:.6g} "
                            "are separated by less than two grid cells")
    return SpectrumReport(isolated_roots=tuple(isolated),
                          flat_intervals=tuple(intervals),
                          clipped=tuple(clipped),
                          tol=tol, strict_tol=strict,
                          grid_n=grid_n, r_max=r_max,
                          warnings=tuple(warnings))


def solve_spectrum(phi: Callable, r_max: float, tol: float,
                   grid_n: int) -> SpectrumReport:
    """Zero set of phi - 1 on [-r_max, r_max]: flat intervals and isolated roots."""

    def metric(bts):
        return np.abs(np.asarray(phi(bts), dtype=float) - 1.0)

    return _report_from_metric(metric, r_max, tol, grid_n, strict=tol / 100.0)


def solve_free_product_spectrum(pair: FractionPair, r_max: float, tol: float,
                                grid_n: int) -> SpectrumReport:
    """Simultaneous solve of phi_1 = 1/k and phi_2 = k.

    Both conditions hold with exact algebraic cancellation on the spectrum but
    are approached exponentially fast away from it, so membership is decided
    at the float noise floor rather than at tol/100: values above 1e-13 are
    genuinely nonzero, values at the rounding level (~1e-15 here) are exact
    zeros of the construction.
    """
    k = float(pair.k)

    def metric(bts):
        v1 = np.abs(np.asarray(pair.phi1(bts), dtype=float) - 1.0 / k)
        v2 = np.abs(np.asarray(pair.phi2(bts), dtype=float) - k) / k
        return np.maximum(v1, v2)

    return _report_from_metric(metric, r_max, tol, grid_n,
                               strict=min(tol / 100.0, 1e-13))


# ---------------------------------------------------------------------------
# Wreath product system

@dataclass(frozen=True)
class WreathSystem:
    """Per-coordinate space X = product of blocks, shifted by Z.

    Configurations of X are flat indices in mixed-radix order over the block
    orders.  nu_beta is the product conformal measure, eta_beta its
    cohomologous transform with density phi(beta)^{-1} H^beta, and the shift
    carries the factor measures eta at coordinates n <= 0 and nu at n > 0.
    """

    blocks: Tuple[FiniteConformalBlock, ...]
    _memo: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise InvalidInputError("at least one block is required")

    @property
    def orders(self) -> Tuple[int, ...]:
        return tuple(b.order for b in self.blocks)

    @property
    def n_configs(self) -> int:
        return int(np.prod(self.orders))

    @scalar_or_array
    def phi(self, betas):
        out = np.ones_like(betas)
        for b in self.blocks:
            out = out * np.array([integrate_potential(b, float(x)) for x in betas])
        return out

    def weights(self, beta: float) -> Tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """(nu_beta, eta_beta, phi(beta), H), kept for the latest beta.

        The memo is keyed on the exact bits of the float beta, so any other
        beta, -0.0 against 0.0 included, is computed afresh; its arrays are
        read-only, so no caller can change what a later call is served.
        """
        key = float(beta).hex()
        if self._memo is None or self._memo[0] != key:
            nu, h = product_conformal_weights(self.blocks, beta), np.ones(1)
            for b in self.blocks:
                h = np.multiply.outer(h, b.potential).ravel()
            # density d(eta)/d(nu) = phi(beta)^{-1} H^beta = e^{beta log H} / phi(beta)
            eta = cohomologous_transform(ProbVector(nu), np.log(h), beta).weights
            for arr in (nu, eta, h):
                arr.flags.writeable = False
            object.__setattr__(self, "_memo",
                               (key, (nu, eta, self.phi(beta), h)))
        return self._memo[1]

    def cylinder_shift_ratio(self, beta: float, cells: Dict[int, int]) -> float:
        """Brute-force mu_beta((-1) applied cylinder) / mu_beta(cylinder).

        The coordinate n of the shifted cylinder pins the value cells[n-1];
        factor measures are eta for n <= 0 and nu for n > 0.
        """
        nu, eta, _, _ = self.weights(beta)

        def mass(assign):
            out = 1.0
            for n, c in assign.items():
                out *= eta[c] if n <= 0 else nu[c]
            return out

        shifted = {n + 1: c for n, c in cells.items()}
        return mass(shifted) / mass(cells)


def shift_rn_derivative(system: WreathSystem, beta: float, x0_cell) -> float:
    """d((-1) . mu_beta)/d mu_beta on the cylinder with coordinate 0 pinned to
    x0_cell: phi(beta) H(x0)^{-beta}."""
    _, _, phi, h = system.weights(beta)
    h0 = float(h[_flat_index(system.orders, x0_cell)])
    return phi * math.exp(-beta * math.log(h0))


def _flat_index(orders: Sequence[int], cell) -> int:
    if isinstance(cell, (int, np.integer)):
        idx = int(cell)
    else:
        idx = int(np.ravel_multi_index(tuple(cell), tuple(orders)))
    if not 0 <= idx < int(np.prod(orders)):
        raise InvalidInputError(f"cell {cell!r} outside the configuration space")
    return idx


# ---------------------------------------------------------------------------
# Free product system

@dataclass(frozen=True)
class FreeProductSystem:
    """Truncated model of Lambda_0^Z x X_1^Z x X_2^Z with the three-case map.

    The Lambda_0 factor is modelled on the coordinates [-window, window]: a
    cylinder may pin only coordinates there, and so may its preimage under
    the index shift of the insertion map.  Identity in Lambda_0 is the index
    0.  The two factor wreath systems are built once, so each keeps its
    weights for the latest beta across calls.
    """

    q: int
    window: int
    blocks1: Tuple[FiniteConformalBlock, ...]
    blocks2: Tuple[FiniteConformalBlock, ...]
    _factors: Tuple[WreathSystem, WreathSystem] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.q < 2:
            raise InvalidInputError("the finite group must be nontrivial")
        if self.window < 2:
            raise WindowError("window must be >= 2 to classify coordinates 0, 1")
        object.__setattr__(self, "blocks1", tuple(self.blocks1))
        object.__setattr__(self, "blocks2", tuple(self.blocks2))
        object.__setattr__(self, "_factors", (WreathSystem(blocks=self.blocks1),
                                              WreathSystem(blocks=self.blocks2)))

    def factor(self, which: int) -> WreathSystem:
        """The wreath system of X_1 (which = 1) or X_2 (which = 2)."""
        return self._factors[which - 1]

    def classify(self, x_cells: Dict[int, int]) -> int:
        """0, 1 or 2 according to the clopen partition of the Lambda_0 factor."""
        if 0 not in x_cells:
            raise WindowError("coordinate 0 of the Lambda_0 factor is required")
        if x_cells[0] != 0:
            return 1
        if 1 not in x_cells:
            raise WindowError("coordinate 1 is required when x_0 = e")
        return 0 if x_cells[1] == 0 else 2

    def _check_window(self, x_cells: Dict[int, int]):
        for n in x_cells:
            if abs(n) > self.window:
                raise WindowError(f"Lambda_0 coordinate {n} lies outside the "
                                  f"window [-{self.window}, {self.window}]")

    def _xyz_mass(self, beta, x_cells, y_cells, z_cells) -> float:
        out = float(self.q) ** (-len(x_cells))
        for which, cells in ((1, y_cells), (2, z_cells)):
            nu, eta, _, _ = self.factor(which).weights(beta)
            for n, c in cells.items():
                out *= eta[c] if n < 0 else nu[c]
        return out

    def theta_cylinder_ratio(self, beta: float, x_cells: Dict[int, int],
                             y_cells: Dict[int, int],
                             z_cells: Dict[int, int]) -> float:
        """Brute-force mu_beta(theta^{-1} C)/mu_beta(C) on a cylinder C.

        Raises WindowError when C, or its preimage, pins a Lambda_0
        coordinate outside [-window, window].
        """
        self._check_window(x_cells)
        case = self.classify(x_cells)
        if case == 0:
            return 1.0
        if case == 1:
            # preimages lie in Y2 and map by (inverse insertion, shift, id)
            x_pre = {n: c for n, c in x_cells.items() if n < 0}
            x_pre[0] = 0
            x_pre.update({n + 1: c for n, c in x_cells.items() if n >= 0})
            y_pre = {n - 1: c for n, c in y_cells.items()}
            z_pre = dict(z_cells)
        else:
            # preimages lie in Y1 and map by (insertion, id, shift); classify
            # returns 2 only when coordinate 1 is pinned
            x_pre = {n: c for n, c in x_cells.items() if n < 0}
            x_pre.update({n - 1: c for n, c in x_cells.items() if n >= 1})
            y_pre = dict(y_cells)
            z_pre = {n - 1: c for n, c in z_cells.items()}
        self._check_window(x_pre)
        num = self._xyz_mass(beta, x_pre, y_pre, z_pre)
        den = self._xyz_mass(beta, x_cells, y_cells, z_cells)
        return num / den


def assemble_free_product(pair: FractionPair, window: int,
                          extra_blocks1: Sequence[FiniteConformalBlock] = (),
                          q: Optional[int] = None) -> FreeProductSystem:
    """Truncated free product system over the pair's explicit first blocks."""
    return FreeProductSystem(q=pair.k if q is None else q,
                             window=window,
                             blocks1=(pair.first_block(1),) + tuple(extra_blocks1),
                             blocks2=(pair.first_block(2),))


def theta_rn_derivative(system: FreeProductSystem, beta: float,
                        x_cells: Dict[int, int], y_cells: Dict[int, int],
                        z_cells: Dict[int, int]) -> float:
    """The three-case formula: 1 on Y0, q^{-1} phi_1^{-1} H_1(y_0)^beta on Y1,
    q phi_2^{-1} H_2(z_0)^beta on Y2."""
    case = system.classify(x_cells)
    if case == 0:
        return 1.0
    cells = y_cells if case == 1 else z_cells
    if 0 not in cells:
        raise WindowError(f"coordinate 0 of the X{case} factor is required "
                          f"on Y{case}")
    factor = system.factor(case)
    _, _, phi, h = factor.weights(beta)
    scale = math.exp(beta * math.log(float(h[_flat_index(factor.orders, cells[0])])))
    if case == 1:
        return phi ** -1 / system.q * scale
    return system.q / phi * scale

