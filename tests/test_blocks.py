import dataclasses
import itertools
import math

import numpy as np
import pytest

from kmspec.blocks import (FiniteConformalBlock, FiniteGroupTable, ProbVector,
                           TruncatedProductSystem, check_conformality,
                           cohomologous_transform, conformal_weights,
                           integrate_potential)
from kmspec.errors import InvalidInputError, UnsupportedGeneratorError

RNG = np.random.default_rng(11)


def random_block(order, base=3.0, with_group=True, rng=RNG):
    w = rng.uniform(0.2, 1.0, order)
    h = rng.uniform(1.0 / base, base, order)
    group = FiniteGroupTable.cyclic(order) if with_group else None
    return FiniteConformalBlock(base_measure=ProbVector(w / w.sum()),
                                potential=h, base=base, group=group)


def test_cyclic_table_valid():
    g = FiniteGroupTable.cyclic(5)
    assert g.mul[2][4] == 1
    assert g.inv[3] == 2


def test_bad_tables_rejected():
    g = FiniteGroupTable.cyclic(3)
    with pytest.raises(InvalidInputError):
        FiniteGroupTable(order=3, mul=g.mul, inv=(0, 1, 2))
    # non-associative magma on 2 elements
    with pytest.raises(InvalidInputError):
        FiniteGroupTable(order=2, mul=((0, 1), (1, 1)), inv=(0, 1))
    # no element is neutral
    with pytest.raises(InvalidInputError):
        FiniteGroupTable(order=2, mul=((0, 0), (0, 0)), inv=(0, 0))


def test_probvector_guards():
    with pytest.raises(InvalidInputError):
        ProbVector(np.array([0.5, 0.0, 0.5]))
    with pytest.raises(InvalidInputError):
        ProbVector(np.array([0.7, 0.7]))
    v = ProbVector(np.array([0.5, 0.5 + 1e-11]))
    assert abs(v.weights.sum() - 1.0) <= 1e-12


def test_conformal_weights_oracle():
    # direct normalized beta-th power, no log tricks
    b = random_block(4)
    for beta in (-3.0, -1.0, 0.0, 1.0, 3.0):
        w = b.base_measure.weights ** beta
        expect = w / w.sum()
        got = conformal_weights(b, beta).weights
        assert np.max(np.abs(got - expect)) < 1e-14


def test_conformal_weights_extreme_beta():
    b = FiniteConformalBlock(base_measure=ProbVector(np.array([0.9, 0.1])),
                             potential=np.array([1.0, 1.0]), base=2.0)
    w = conformal_weights(b, 300.0).weights
    assert w[0] >= 1.0 - 1e-12 and np.all(w > 0.0)


def test_integrate_potential_oracle():
    b = random_block(5)
    for beta in (-2.0, 0.5, 2.0):
        mu = conformal_weights(b, beta).weights
        expect = float(np.sum(b.potential ** beta * mu))
        assert abs(integrate_potential(b, beta) - expect) < 1e-13


def test_cohomologous_transform_inverts():
    mu = ProbVector(np.array([0.1, 0.2, 0.3, 0.4]))
    H = [0.3, -1.2, 0.5, 0.0]
    out = cohomologous_transform(cohomologous_transform(mu, H, 1.7),
                                 [-h for h in H], 1.7)
    assert np.max(np.abs(out.weights - mu.weights)) < 1e-14


def test_measure_on_truncation_matches_a_per_configuration_product():
    # the flat product measure against the product of the block weights
    # taken configuration by configuration, left to right: equal bit for bit
    rng = np.random.default_rng(3)
    for _ in range(5):
        blocks = [random_block(int(n), with_group=False, rng=rng)
                  for n in rng.integers(1, 5, size=4)]
        system = TruncatedProductSystem(blocks=blocks)
        for beta in (-7.5, 0.0, 0.3, 11.0):
            per_block = [conformal_weights(b, beta).weights for b in blocks]
            expect = {}
            for cfg in system.configurations():
                m = 1.0
                for weights, c in zip(per_block, cfg):
                    m *= weights[c]
                expect[cfg] = float(m)
            got = system.measure_on_truncation(beta)
            assert list(got.items()) == list(expect.items())


def test_conformality_pass_and_perturbation_fail():
    blocks = [random_block(3), random_block(4)]
    system = TruncatedProductSystem(blocks=blocks)
    gens = [(0, 1), (0, 2), (1, 1), (1, 3)]
    for beta in (-3.0, -1.0, 0.0, 1.0, 3.0):
        measure = system.measure_on_truncation(beta)
        report = check_conformality(system, measure, beta, gens, tol=1e-12)
        assert report.passed, report.max_defect
        bad = dict(measure)
        key = next(iter(bad))
        bad[key] *= 1.0 + 1e-3
        report = check_conformality(system, bad, beta, gens, tol=1e-6)
        assert not report.passed


def test_conformality_requires_group_table():
    system = TruncatedProductSystem(blocks=[random_block(3, with_group=False)])
    with pytest.raises(UnsupportedGeneratorError):
        check_conformality(system, system.measure_on_truncation(1.0), 1.0,
                           [(0, 1)], tol=1e-12)


def reference_conformality_defect(system, measure, beta, generators):
    # the per-configuration loop check_conformality ran before it became one
    # array pass per generator
    max_defect = 0.0
    for i, g in generators:
        block = system.blocks[i]
        table = block.group
        logmu = block.base_measure.log_weights
        ginv = table.inv[g]
        for cfg in itertools.product(*(range(b.order) for b in system.blocks)):
            pre = list(cfg)
            pre[i] = table.mul[ginv][cfg[i]]
            pre = tuple(pre)
            omega = logmu[cfg[i]] - logmu[pre[i]]
            defect = abs(math.exp(beta * omega) * measure[pre] - measure[cfg])
            if defect > max_defect:
                max_defect = defect
    return max_defect


def relabelled_group(table, rng):
    # the same group with its elements renamed by a random permutation, so
    # the identity is not always 0 and inverses are not -x mod n
    n = table.order
    new = rng.permutation(n)
    old = np.argsort(new)
    mul = tuple(tuple(int(new[table.mul[old[x]][old[y]]]) for y in range(n))
                for x in range(n))
    inv = tuple(int(new[table.inv[old[x]]]) for x in range(n))
    return FiniteGroupTable(order=n, mul=mul, inv=inv)


def klein_four():
    mul = tuple(tuple(x ^ y for y in range(4)) for x in range(4))
    return FiniteGroupTable(order=4, mul=mul, inv=(0, 1, 2, 3))


def test_conformality_array_pass_matches_the_per_configuration_loop():
    rng = np.random.default_rng(31)
    for trial in range(6):
        blocks = []
        for n in (2, 3, 4, 2):
            table = klein_four() if n == 4 and trial % 2 else FiniteGroupTable.cyclic(n)
            w = rng.uniform(0.2, 1.0, n)
            blocks.append(FiniteConformalBlock(
                base_measure=ProbVector(w / w.sum()),
                potential=rng.uniform(1 / 3.0, 3.0, n), base=3.0,
                group=relabelled_group(table, rng)))
        system = TruncatedProductSystem(blocks=blocks)
        gens = [(i, g) for i, b in enumerate(blocks) for g in range(b.order)]
        for beta in (-3.0, -1.0, 0.0, 1.0, 3.0):
            measure = system.measure_on_truncation(beta)
            bad = dict(measure)
            key = list(bad)[rng.integers(len(bad))]
            bad[key] *= 1.0 + 1e-3
            for m, tol in ((measure, 1e-12), (bad, 1e-6)):
                report = check_conformality(system, m, beta, gens, tol=tol)
                expect = reference_conformality_defect(system, m, beta, gens)
                assert report.max_defect == expect
                assert report.passed == (expect <= tol) == (m is measure)


def test_conformality_rejects_a_measure_that_lacks_a_configuration():
    system = TruncatedProductSystem(blocks=[random_block(3), random_block(2)])
    measure = system.measure_on_truncation(1.0)
    del measure[(2, 1)]
    with pytest.raises(InvalidInputError, match=r"\(2, 1\)"):
        check_conformality(system, measure, 1.0, [(0, 1)], tol=1e-12)


def test_conformality_fails_on_a_nan_mass():
    system = TruncatedProductSystem(blocks=[random_block(3), random_block(2)])
    measure = system.measure_on_truncation(1.0)
    measure[(1, 0)] = math.nan
    report = check_conformality(system, measure, 1.0, [(0, 1)], tol=1e-12)
    assert not report.passed


def test_truncated_system_keeps_its_orders_and_configurations():
    blocks = [random_block(3), random_block(2), random_block(4)]
    system = TruncatedProductSystem(blocks=blocks)
    assert system.orders == (3, 2, 4)
    assert list(system.configurations()) == list(itertools.product(range(3), range(2), range(4)))
    smaller = dataclasses.replace(system, blocks=blocks[:2])
    assert smaller.orders == (3, 2) and len(smaller.configurations()) == 6
    assert TruncatedProductSystem(blocks=tuple(blocks)) == system != smaller
