"""Finite probability blocks, truncated product systems and conformality checks.

A block is a finite group carrying a full-support probability measure mu and a
positive potential H.  The translation cocycle O(g,h) = log mu(gh) - log mu(h)
has, for every inverse temperature beta, a unique conformal measure given by
the normalized beta-th power of mu; everything downstream is built from these
blocks and their finite products.
"""

from dataclasses import InitVar, dataclass, field
import itertools
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from ._arrays import logsumexp
from .errors import InvalidInputError, UnsupportedGeneratorError

NORM_TOL = 1e-12       # accepted deviation of a probability vector from 1
RENORM_LIMIT = 1e-9    # constructors renormalize below this, reject above
MAX_TABLE_ORDER = 64   # explicit multiplication tables only up to this order


def _require_finite(x, name):
    if not math.isfinite(x):
        raise InvalidInputError(f"{name} must be finite, got {x!r}")


@dataclass(frozen=True)
class FiniteGroupTable:
    """Explicit finite group: multiplication table and inverses.

    Elements are the indices 0..order-1.  Tables are validated exhaustively on
    construction, which is why the order is capped at MAX_TABLE_ORDER; the
    identity is the element the validation finds two-sided neutral.
    """

    order: int
    mul: Tuple[Tuple[int, ...], ...]
    inv: Tuple[int, ...]

    def __post_init__(self):
        n = self.order
        if n < 1 or n > MAX_TABLE_ORDER:
            raise InvalidInputError(f"group order {n} outside 1..{MAX_TABLE_ORDER}")
        if len(self.mul) != n or any(len(row) != n for row in self.mul):
            raise InvalidInputError("multiplication table has wrong shape")
        e = next((e for e in range(n)
                  if all(self.mul[e][x] == x == self.mul[x][e] for x in range(n))),
                 None)
        if e is None:
            raise InvalidInputError("no element is two-sided neutral")
        for x in range(n):
            ix = self.inv[x]
            if self.mul[ix][x] != e or self.mul[x][ix] != e:
                raise InvalidInputError(f"inv({x}) is not a two-sided inverse")
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if self.mul[self.mul[x][y]][z] != self.mul[x][self.mul[y][z]]:
                        raise InvalidInputError("multiplication is not associative")

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroupTable":
        mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        inv = tuple((-i) % n for i in range(n))
        return cls(order=n, mul=mul, inv=inv)


@dataclass(frozen=True)
class ProbVector:
    """Full-support probability weights on a finite index set."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidInputError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise InvalidInputError("weights must be strictly positive and finite")
        s = float(w.sum())
        if abs(s - 1.0) > RENORM_LIMIT:
            raise InvalidInputError(f"weights sum to {s!r}, too far from 1 to renormalize")
        if abs(s - 1.0) > NORM_TOL:
            w = w / s
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.weights.size

    @property
    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)


@dataclass(frozen=True)
class FiniteConformalBlock:
    """One finite block: group, base measure mu and potential H in [1/a, a].

    The group table is optional; blocks produced by the large staged
    constructions only carry their order, since no downstream computation on
    them needs explicit multiplication.  The base a is checked against the
    potential on construction and not kept.
    """

    base_measure: ProbVector
    potential: np.ndarray
    base: InitVar[float]
    group: Optional[FiniteGroupTable] = None

    def __post_init__(self, base):
        h = np.asarray(self.potential, dtype=float)
        if h.shape != (len(self.base_measure),):
            raise InvalidInputError("potential must have one value per group element")
        if not np.all(np.isfinite(h)) or np.any(h <= 0.0):
            raise InvalidInputError("potential values must be strictly positive")
        a = float(base)
        if not a > 1.0:
            raise InvalidInputError("block base must exceed 1")
        if np.any(h > a * (1 + 1e-12)) or np.any(h < (1 + 1e-12) / a):
            raise InvalidInputError("potential values must lie in [1/a, a]")
        if self.group is not None and self.group.order != len(self.base_measure):
            raise InvalidInputError("group order does not match measure length")
        h.setflags(write=False)
        object.__setattr__(self, "potential", h)

    @property
    def order(self) -> int:
        return len(self.base_measure)


def conformal_weights(block: FiniteConformalBlock, beta: float) -> ProbVector:
    """Unique conformal measure of the block's translation cocycle at beta.

    Returns the normalized beta-th power of the base measure, computed in the
    log domain so that |beta| * |log min weight| up to ~700 cannot overflow.
    """
    _require_finite(beta, "beta")
    logw = beta * block.base_measure.log_weights
    return ProbVector(np.exp(logw - logsumexp(logw)))


def product_conformal_weights(blocks: Sequence[FiniteConformalBlock],
                              beta: float) -> np.ndarray:
    """Product of the blocks' conformal measures at beta, flat over the
    configurations in mixed-radix order: the last block varies fastest."""
    out = np.ones(1)
    for block in blocks:
        out = np.multiply.outer(out, conformal_weights(block, beta).weights).ravel()
    return out


def integrate_potential(block: FiniteConformalBlock, beta: float) -> float:
    """Value of the block factor: integral of H^beta against the beta-conformal measure."""
    _require_finite(beta, "beta")
    logw = beta * block.base_measure.log_weights
    return float(math.exp(logsumexp(beta * np.log(block.potential) + logw) - logsumexp(logw)))


def cohomologous_transform(measure: ProbVector, H: Sequence[float], beta: float) -> ProbVector:
    """Reweight a measure by exp(beta * H) and renormalize.

    H enters as an exponent, so applying the transform again with -H inverts
    it up to rounding.
    """
    _require_finite(beta, "beta")
    h = np.asarray(H, dtype=float)
    if h.shape != (len(measure),):
        raise InvalidInputError("H must be defined on the same index set as the measure")
    logw = measure.log_weights + beta * h
    return ProbVector(np.exp(logw - logsumexp(logw)))


@dataclass(frozen=True)
class TruncatedProductSystem:
    """A finite prefix of an infinite product of blocks; its product measure
    and conformality checks are exact on the prefix, and no tail is bounded.
    The block orders and the configurations are listed once, on construction.
    """

    blocks: Tuple[FiniteConformalBlock, ...]
    orders: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _configs: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False,
                                                  compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        orders = tuple(b.order for b in self.blocks)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "_configs",
                           tuple(itertools.product(*(range(n) for n in orders))))

    def configurations(self) -> Tuple[Tuple[int, ...], ...]:
        """Every configuration, in mixed-radix order: the last block varies
        fastest."""
        return self._configs

    def measure_on_truncation(self, beta: float) -> dict:
        """Product conformal measure as a dict {configuration tuple: mass}."""
        return dict(zip(self._configs,
                        product_conformal_weights(self.blocks, beta).tolist()))


@dataclass(frozen=True)
class ConformalityReport:
    max_defect: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_defect <= self.tol


def check_conformality(system: TruncatedProductSystem,
                       measure: dict,
                       beta: float,
                       generators: Sequence[Tuple[int, int]],
                       tol: float) -> ConformalityReport:
    """Brute-force conformality defect of a measure on the truncation.

    Each generator is a pair (block index, group element) acting by left
    translation on that coordinate.  For every generator g and every
    configuration indicator f the defect
    | integral f o phi_g e^{beta O(g,.)} dm  -  integral f dm |
    is computed exactly; the report carries the maximum.
    """
    _require_finite(beta, "beta")
    n_blocks = len(system.blocks)
    for i, _ in generators:
        if not 0 <= i < n_blocks:
            raise UnsupportedGeneratorError(f"generator block index {i} outside truncation")
        if system.blocks[i].group is None:
            raise UnsupportedGeneratorError(f"block {i} carries no explicit group table")

    try:
        masses = np.array([measure[cfg] for cfg in system.configurations()],
                          dtype=float).reshape(system.orders)
    except KeyError as exc:
        raise InvalidInputError(f"the measure lacks configuration "
                                f"{exc.args[0]!r}") from None
    defects = [0.0]
    for i, g in generators:
        table = system.blocks[i].group
        logmu = system.blocks[i].base_measure.log_weights
        # the integral of the indicator of cfg composed with phi_g picks out
        # the unique preimage g^{-1} . cfg, which differs from cfg only at
        # coordinate i; e^{beta O(g, .)} takes one value per element there
        pre = np.array(table.mul[table.inv[g]])
        shape = [1] * masses.ndim
        shape[i] = -1
        factor = np.reshape([math.exp(w) for w in (beta * (logmu - logmu[pre])).tolist()],
                            shape)
        defects.append(np.max(np.abs(factor * masses.take(pre, axis=i) - masses)))
    return ConformalityReport(max_defect=float(np.max(defects)), tol=tol)
