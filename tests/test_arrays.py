"""The scalar/array contract shared by the public beta evaluators."""

import math

import numpy as np
import pytest

from kmspec.blocks import FiniteConformalBlock, ProbVector
from kmspec.errors import InvalidInputError
from kmspec.expratio import PartitionedBlockSystem, WeightedMultiset
from kmspec.realize import (RealizableCocycle, eval_phi,
                            fraction_pair, mobius_eval, tanh_ratio)
from kmspec.sets import ClosedSetSpec
from kmspec.spectra import WreathSystem, target_phi_from_set


def _block_system():
    fractions = (WeightedMultiset({0: 1}), WeightedMultiset({1: 1}),
                 WeightedMultiset({-1: 1}), WeightedMultiset({0: 1}))
    return PartitionedBlockSystem(t=2.0, fractions=fractions,
                                  scales=(1, 0, 1, 0), achieved_error=0.0)


def _pair():
    return fraction_pair(ClosedSetSpec(points=(-1.0, 2.0)), k=2, Lambda0_order=4,
                         grid_n=2001, r_max=10.0)


def _cocycle():
    return RealizableCocycle(stages=(_block_system(),), certified_error=0.0)


def _wreath():
    block = FiniteConformalBlock(base_measure=ProbVector([0.25, 0.75]),
                                 potential=np.array([1.5, 0.75]), base=2.0)
    return WreathSystem(blocks=(block,))


EVALUATORS = {
    "mobius_eval": lambda: lambda b: mobius_eval(2.0, b),
    "tanh_ratio": lambda: lambda b: tanh_ratio(1.0, 2.0, b),
    "target_phi_from_set": lambda: target_phi_from_set(
        ClosedSetSpec(intervals=((-1.0, 1.0),)), 2.0),
    "eval_phi": lambda: lambda b: eval_phi(_cocycle(), b),
    "WreathSystem.phi": lambda: _wreath().phi,
    "eta1": lambda: _block_system().eta1,
    "eta2": lambda: _block_system().eta2,
    "factor": lambda: _block_system().factor,
    "distance": lambda: ClosedSetSpec(intervals=((3.0, math.inf),)).distance,
}
for _name in ("phi1", "phi2"):
    EVALUATORS[f"fraction_pair.{_name}"] = (
        lambda name=_name: getattr(_pair(), name))


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_scalar_array_contract(name):
    fn = EVALUATORS[name]()
    for scalar in (0.7, np.array(0.7)):
        value = fn(scalar)
        assert type(value) is float
    array = fn(np.array([0.7]))
    assert isinstance(array, np.ndarray) and array.shape == (1,)
    assert array[0] == value
    for bad in (math.nan, math.inf, -math.inf, np.array([0.0, math.inf])):
        with pytest.raises(InvalidInputError):
            fn(bad)
