"""Target functions from closed sets, wreath and free product systems with
their Radon-Nikodym data, and the spectrum solvers.

The spectrum of the wreath system is {beta : phi(beta) = 1}; the free product
system requires phi_1(beta) = 1/k and phi_2(beta) = k simultaneously.  Each
target is built from K so that exactly one factor of its level residual
vanishes, and it vanishes exactly on K, so a solver reads the spectrum off K
and evaluates the target only to measure the residual at what it reports.
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
# Spectrum reports

@dataclass(frozen=True)
class SpectrumReport:
    """K cut to [-r_max, r_max]: its points, its intervals and, for each
    interval, whether the cut shortened it."""

    isolated_roots: Tuple[float, ...]
    flat_intervals: Tuple[Tuple[float, float], ...]
    clipped: Tuple[bool, ...]
    grid_n: int
    r_max: float

    def to_dict(self) -> dict:
        return {
            "isolated_roots": [repr(p) for p in self.isolated_roots],
            "flat_intervals": [[repr(lo), repr(hi)] for lo, hi in self.flat_intervals],
            "clipped": list(self.clipped),
            "grid_n": self.grid_n,
            "r_max": repr(self.r_max),
        }


def _report_in_range(K: ClosedSetSpec, r_max: float, grid_n: int
                     ) -> Tuple[SpectrumReport, np.ndarray]:
    """K cut to [-r_max, r_max], and its points and interval ends as an array.

    A point of K that lies in an interval of K is reported as part of the
    interval, and an interval the cut leaves without length as a point.
    """
    points, intervals, clipped = [], [], []
    for lo, hi in sorted(K.intervals):
        a, b = max(lo, -r_max), min(hi, r_max)
        if a == b:
            points.append(a)
        elif a < b:
            intervals.append((a, b))
            clipped.append((a, b) != (lo, hi))
    points += [p for p in K.points if abs(p) <= r_max
               and not any(lo <= p <= hi for lo, hi in K.intervals)]
    points = sorted(set(points))
    report = SpectrumReport(isolated_roots=tuple(points),
                            flat_intervals=tuple(intervals),
                            clipped=tuple(clipped), grid_n=grid_n, r_max=r_max)
    return report, np.array(points + [b for iv in intervals for b in iv])


def solve_spectrum(phi: Callable, K: ClosedSetSpec, r_max: float,
                   grid_n: int) -> Tuple[SpectrumReport, float]:
    """The level set {phi = 1} of the wreath target of K on [-r_max, r_max],
    with the largest |phi - 1| at its points and interval ends.

    phi - 1 = P_t d(beta, K) / (2 (1 + beta^2)) and P_t vanishes only at
    0, which lies in K, so the level set is K itself; phi is evaluated only
    to measure the residual there.
    """
    report, at = _report_in_range(K, r_max, grid_n)
    level = np.abs(np.asarray(phi(at), dtype=float) - 1.0)
    return report, float(np.max(level, initial=0.0))


def solve_free_product_spectrum(pair: FractionPair, K: ClosedSetSpec,
                                r_max: float, grid_n: int
                                ) -> Tuple[SpectrumReport, float]:
    """The joint level set {phi_1 = 1/k, phi_2 = k} of the pair of K on
    [-r_max, r_max], with the largest of |phi_1 - 1/k| and |phi_2 - k|/k at
    its points and interval ends.

    Where prefactor_i (1 + P q_i) = target_i, phi_i - target_i =
    prefactor_i P (zeta_i - q_i).  Off (-delta, delta) the clamp is the
    identity, so zeta_i - q_i = -q_i min(1, d(beta, K)); inside, d > 0 and
    |zeta_i| < |q_i|.  With q_i finite and nonzero off 0 the level set is
    K itself.  The pair measures the identity, q_i and the clamp bound on
    its grid, and the evaluators are called only to measure the residual
    at what is reported.
    """
    report, at = _report_in_range(K, r_max, grid_n)
    k = float(pair.k)
    level = np.maximum(np.abs(np.asarray(pair.phi1(at), dtype=float) - 1.0 / k),
                       np.abs(np.asarray(pair.phi2(at), dtype=float) - k) / k)
    return report, float(np.max(level, initial=0.0))


# ---------------------------------------------------------------------------
# Wreath product system

@dataclass(frozen=True)
class WreathSystem:
    """Per-coordinate space X = product of blocks, shifted by Z.

    Configurations of X are flat indices in mixed-radix order over the block
    orders.  nu_beta is the product conformal measure, eta_beta its
    cohomologous transform with density phi(beta)^{-1} H^beta, and the shift
    carries the factor measures eta at coordinates n <= 0 and nu at n > 0.
    The block orders and their product are computed once, on construction.
    """

    blocks: Tuple[FiniteConformalBlock, ...]
    orders: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    n_configs: int = field(init=False, repr=False, compare=False)
    _memo: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise InvalidInputError("at least one block is required")
        orders = tuple(b.order for b in self.blocks)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "n_configs", math.prod(orders))

    @scalar_or_array
    def phi(self, betas):
        out = np.ones_like(betas)
        for b in self.blocks:
            out = out * np.array([integrate_potential(b, float(x)) for x in betas])
        return out

    def _weights(self, beta: float) -> tuple:
        """The memo's value for beta: weights(beta) and the lists of nu, eta
        and H as Python floats, which the oracles index one cell at a time.

        The memo is keyed on the float value of beta and its sign, so any
        other beta, -0.0 against 0.0 included, is computed afresh, while 1
        and 1.0 share a key.
        """
        b = float(beta)
        sign = math.copysign(1.0, b)
        memo = self._memo
        if memo is None or memo[0] != b or memo[1] != sign:
            nu, h = product_conformal_weights(self.blocks, beta), np.ones(1)
            for blk in self.blocks:
                h = np.multiply.outer(h, blk.potential).ravel()
            # density d(eta)/d(nu) = phi(beta)^{-1} H^beta = e^{beta log H} / phi(beta)
            eta = cohomologous_transform(ProbVector(nu), np.log(h), beta).weights
            for arr in (nu, eta, h):
                arr.flags.writeable = False
            phi = self.phi(beta)
            memo = (b, sign, (nu, eta, phi, h),
                    (nu.tolist(), eta.tolist(), phi, h.tolist()))
            object.__setattr__(self, "_memo", memo)
        return memo

    def weights(self, beta: float) -> Tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """(nu_beta, eta_beta, phi(beta), H), kept for the latest beta.

        The memo is keyed on the value and sign of float(beta), so any other
        beta, -0.0 against 0.0 included, is computed afresh; its arrays are
        read-only, so no caller can change what a later call is served.
        """
        return self._weights(beta)[2]

    def cylinder_shift_ratio(self, beta: float, cells: Dict[int, int]) -> float:
        """Brute-force mu_beta((-1) applied cylinder) / mu_beta(cylinder).

        The coordinate n of the shifted cylinder pins the value cells[n-1];
        factor measures are eta for n <= 0 and nu for n > 0.
        """
        nu, eta, _, _ = self._weights(beta)[3]
        shifted = den = 1.0
        for n, c in cells.items():
            c = _flat_index(self, c)
            shifted *= eta[c] if n < 0 else nu[c]
            den *= eta[c] if n <= 0 else nu[c]
        return shifted / den


def shift_rn_derivative(system: WreathSystem, beta: float, x0_cell) -> float:
    """d((-1) . mu_beta)/d mu_beta on the cylinder with coordinate 0 pinned to
    x0_cell: phi(beta) H(x0)^{-beta}."""
    _, _, phi, h = system._weights(beta)[3]
    h0 = h[_flat_index(system, x0_cell)]
    return phi * math.exp(-beta * math.log(h0))


def _flat_index(system: WreathSystem, cell) -> int:
    """The flat index of a cell of the system, given flat or as a tuple of
    block elements; a cell outside the configuration space is an error."""
    if type(cell) is int:
        idx = cell
    elif isinstance(cell, (int, np.integer)):
        idx = int(cell)
    else:
        cell, idx = tuple(cell), -1
        if len(cell) == len(system.orders) and all(
                isinstance(c, (int, np.integer)) and 0 <= c < n
                for c, n in zip(cell, system.orders)):
            idx = 0
            for c, n in zip(cell, system.orders):
                idx = idx * n + int(c)
    if not 0 <= idx < system.n_configs:
        raise InvalidInputError(f"cell {cell!r} outside the configuration space "
                                f"of {system.n_configs} configurations")
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

    def _xyz_mass(self, weights, x_cells, y_cells, z_cells) -> float:
        out = float(self.q) ** (-len(x_cells))
        for (factor, nu, eta), cells in zip(weights, (y_cells, z_cells)):
            for n, c in cells.items():
                c = _flat_index(factor, c)
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
        weights = [(f, *f._weights(beta)[3][:2]) for f in self._factors]
        num = self._xyz_mass(weights, x_pre, y_pre, z_pre)
        den = self._xyz_mass(weights, x_cells, y_cells, z_cells)
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
    _, _, phi, h = factor._weights(beta)[3]
    scale = math.exp(beta * math.log(h[_flat_index(factor, cells[0])]))
    if case == 1:
        return phi ** -1 / system.q * scale
    return system.q / phi * scale

