import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kmspec import padic
from kmspec.errors import InvalidInputError
from kmspec.padic import (MAT2_IDENTITY, Mat2, _prefix_matrices,
                          default_alphabet, enumerate_reduced_words,
                          freeness_suite, generator, letter_matrix,
                          reduce_word, sl2_order, subgroup_closure_mod)


# each letter's Mat2 is built once; a word is still multiplied out afresh
_letter_matrix = functools.lru_cache(maxsize=None)(letter_matrix)


def eval_word(word):
    """A word's matrix rebuilt from the identity, letter by letter, as Mat2
    products: the from-scratch reference for the search's matrices."""
    out = MAT2_IDENTITY
    for letter in word:
        out = out * _letter_matrix(letter)
    return out


def _search_rows(half, alphabet):
    return sorted(map(tuple, _prefix_matrices(half, alphabet).reshape(-1, 4).tolist()))


def test_generator_matrices():
    assert generator("a").entries() == (1, 2, 0, 1)
    assert generator("b").entries() == (1, 0, 2, 1)
    assert generator("g1").entries() == (1, 8, 0, 1)
    assert generator("g2").entries() == (1, 0, 8, 1)
    assert (generator("a") * generator("b")).entries() == (5, 2, 2, 1)
    assert generator("h", 0).entries() == (1, 2, 2, 5)


def test_determinant_one_preserved():
    m = generator("h", 3) * generator("g1").inv() * generator("h", -2)
    a, b, c, d = m.entries()
    assert a * d - b * c == 1


def test_eval_word_examples():
    assert eval_word(()).entries() == (1, 0, 0, 1)
    assert eval_word((("g1", 1), ("g2", 1))).entries() == (65, 8, 8, 1)


def test_reduce_word_cancels():
    a, ainv, b = ("g1", 1), ("g1", -1), ("g2", 1)
    assert reduce_word((a, ainv)) == ()
    assert reduce_word((b, a, ainv)) == (b,)
    # reduction is idempotent
    w = (a, b, ("h:1", 1), ("h:1", -1), b)
    assert reduce_word(reduce_word(w)) == reduce_word(w)


def test_enumerate_reduced_words_count():
    words = [word for word, _ in enumerate_reduced_words(3, ("g1", "g2"))]
    # 4 + 4*3 + 4*9 nonempty reduced words over two free letters
    assert len(words) == 4 + 12 + 36
    assert len(set(words)) == len(words)
    assert all(reduce_word(word) == word for word in words)


def test_prefix_matrices_match_eval_word():
    # each word's matrix is built from its parent's; eval_word rebuilds it
    # from the identity, letter by letter, as Mat2 products.  The freeness
    # search's int64 arrays hold the same matrices, with the identity's
    expected = [MAT2_IDENTITY.entries()]
    for word, entries in enumerate_reduced_words(4, default_alphabet()):
        assert entries == eval_word(word).entries(), word
        expected.append(entries)
    assert len(expected) == 1 + 14 + 14 * 13 + 14 * 13 ** 2 + 14 * 13 ** 3
    assert _search_rows(4, default_alphabet()) == sorted(expected)


def test_freeness_small():
    cert = freeness_suite(4, ("g1", "g2"))
    assert not cert.identity_found and cert.relation == ()
    assert cert.to_dict()["relation"] == []
    # past the int64 bound the search runs on Python integers
    assert not freeness_suite(8, ("g1", "h:12")).identity_found


def test_freeness_detects_relations():
    # a and g1 = a^4 commute; the first collision of the search order names
    # the word below, as the search that evaluated each word afresh did
    culprit = (("a", 1), ("a", 1), ("g1", 1), ("a", 1), ("g1", -1),
               ("a", -1), ("a", -1), ("a", -1))
    cert = freeness_suite(8, ("a", "g1"))
    assert cert.identity_found and cert.relation == culprit
    assert cert.words_certified == 0
    assert cert.to_dict()["relation"] == [list(letter) for letter in culprit]
    assert eval_word(culprit) == MAT2_IDENTITY


@pytest.mark.parametrize("max_len,alphabet", [
    (8, ("a", "g1")),
    # h_12 takes the search past the int64 bound, onto Python integers
    (4, ("a", "g1", "h:12")),
    (8, default_alphabet()),
    (8, ("g1", "h:12"))])
def test_freeness_is_exact_when_every_hash_key_collides(max_len, alphabet,
                                                        monkeypatch):
    # the rows that share a key are compared exactly, so a hash that gives
    # every row one key finds the same relations, and no false one
    expected = freeness_suite(max_len, alphabet)
    monkeypatch.setattr(padic, "_row_keys",
                        lambda rows: np.zeros(len(rows), dtype=np.uint64))
    assert freeness_suite(max_len, alphabet) == expected
    assert expected.identity_found == ("a" in alphabet)


def test_freeness_at_the_largest_length():
    cert = freeness_suite(10)
    # 2n (2n - 1)^(L - 1) nonempty reduced words of length L over n letters
    assert cert.prefix_words_evaluated == sum(14 * 13 ** k for k in range(5))
    assert cert.words_certified == 14 * (13 ** 10 - 1) // 12
    assert not cert.identity_found


def test_freeness_guard():
    with pytest.raises(InvalidInputError):
        freeness_suite(11)


@pytest.mark.parametrize("alphabet", [("g1", "g1"), ("h:x",), (), ("g1", "c")],
                         ids=["repeated", "h-index-text", "empty", "unknown"])
def test_freeness_rejects_a_malformed_alphabet(alphabet):
    # the search pairs each letter with its inverse by position, so the
    # letters must be distinct and parse
    with pytest.raises(InvalidInputError):
        freeness_suite(4, alphabet)


@pytest.mark.parametrize("half,alphabet", [
    # the letters fit int64 (h:12 has row sum 8.06e18), their products do
    # not: an int64 search wraps here
    (4, ("g1", "h:12")),
    (2, ("h:6",)),
], ids=["g1-h12", "h6"])
def test_search_matrices_are_exact_products(half, alphabet):
    # the default alphabet is checked in test_prefix_matrices_match_eval_word
    words = [word for word, _ in enumerate_reduced_words(half, alphabet)]
    expected = sorted([MAT2_IDENTITY.entries()]
                      + [eval_word(word).entries() for word in words])
    assert _search_rows(half, alphabet) == expected


def test_search_dtype_follows_the_row_sum_bound():
    # int64 exactly when R^half < 2^63, R the largest row sum of |entries|:
    # 3943 for the default alphabet (h:2), 5,246,952,481 for h:6, whose
    # square is 2.98 x 2^63
    assert 3943 ** 5 < 2 ** 63 <= 5246952481 ** 2 < 3 * 2 ** 63
    assert _prefix_matrices(5, default_alphabet()).dtype == np.int64
    assert _prefix_matrices(1, ("h:6",)).dtype == np.int64
    assert _prefix_matrices(2, ("h:6",)).dtype == object


def test_mod_reduction_is_homomorphism():
    rng = random.Random(5)
    alphabet = default_alphabet()
    mod = 27
    for _ in range(30):
        letters = tuple((rng.choice(alphabet), rng.choice((1, -1)))
                        for _ in range(7))
        w = reduce_word(letters)
        full = tuple(v % mod for v in eval_word(w).entries())
        acc = (1, 0, 0, 1)
        for letter in w:
            g = tuple(v % mod for v in letter_matrix(letter).entries())
            acc = ((acc[0] * g[0] + acc[1] * g[2]) % mod,
                   (acc[0] * g[1] + acc[1] * g[3]) % mod,
                   (acc[2] * g[0] + acc[3] * g[2]) % mod,
                   (acc[2] * g[1] + acc[3] * g[3]) % mod)
        assert acc == full


def test_sl2_order_formula():
    assert sl2_order(3, 1) == 24
    assert sl2_order(3, 2) == 648
    assert sl2_order(5, 1) == 120


@pytest.mark.parametrize("N,expected", [(1, 24), (2, 648)])
def test_closure_is_full(N, expected):
    out = subgroup_closure_mod(3, N, [generator("g1"), generator("g2")])
    assert out["order"] == expected
    assert out["is_full"]
    assert sl2_order(3, N) % out["order"] == 0


def test_closure_lagrange_on_proper_subgroup():
    out = subgroup_closure_mod(3, 1, [generator("g1")])
    assert not out["is_full"]
    assert sl2_order(3, 1) % out["order"] == 0


def _closure_by_set(p, N, gens):
    """The closure as a breadth-first search over a set of entry tuples."""
    modulus = p ** N
    steps = [m.reduced(modulus) for g in gens for m in (g, g.inv())]
    seen = {(1, 0, 0, 1)}
    frontier = [(1, 0, 0, 1)]
    while frontier:
        nxt = []
        for x in frontier:
            for s in steps:
                y = ((x[0] * s[0] + x[1] * s[2]) % modulus,
                     (x[0] * s[1] + x[1] * s[3]) % modulus,
                     (x[2] * s[0] + x[3] * s[2]) % modulus,
                     (x[2] * s[1] + x[3] * s[3]) % modulus)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


GENERATOR_SETS = {"g1,g2": [generator("g1"), generator("g2")],
                  "g1": [generator("g1")],
                  "g1,h1": [generator("g1"), generator("h", 1)],
                  # a cyclic subgroup: unlike a full group, its order
                  # shows a wrong decode of the (a, b, d) keys
                  "cat": [Mat2(2, 1, 1, 1)],
                  "1,g1": [MAT2_IDENTITY, generator("g1")],
                  "1": [MAT2_IDENTITY],
                  "none": []}


CLOSURE_MODULI = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1)]


@pytest.mark.parametrize("gens", GENERATOR_SETS)
@pytest.mark.parametrize("p,N", CLOSURE_MODULI)
def test_closure_matches_set_search(p, N, gens):
    elements = _closure_by_set(p, N, GENERATOR_SETS[gens])
    out = subgroup_closure_mod(p, N, GENERATOR_SETS[gens])
    assert out["order"] == len(elements)
    assert sl2_order(p, N) % out["order"] == 0
    assert out["is_full"] == (out["order"] == sl2_order(p, N))
    if gens == "g1,g2":
        # elements with a non-unit corner take the (a, b, d) key
        assert any(x[0] % p == 0 for x in elements)


@pytest.mark.parametrize("p,N", [(3, 2), (3, 3), (5, 2)])
def test_closure_with_a_kernel_generator(p, N):
    # Mat2(1, p, 0, 1) lies in the kernel of reduction mod p and has order
    # p^(N-1); with the swap (0, -1, 1, 0) the subgroup also holds elements
    # with a non-unit corner, so both key and both decode branches run
    kernel, swap = Mat2(1, p, 0, 1), Mat2(0, -1, 1, 0)
    assert subgroup_closure_mod(p, N, [kernel])["order"] == p ** (N - 1)
    elements = _closure_by_set(p, N, [kernel, swap])
    assert subgroup_closure_mod(p, N, [kernel, swap])["order"] == len(elements)
    assert {x[0] % p == 0 for x in elements} == {True, False}


def _lift(moves):
    """An integer det-1 matrix as a product of elementary matrices; these
    reduce onto all of SL(2, Z/m Z)."""
    out = MAT2_IDENTITY
    for upper, t in moves:
        out = out * (Mat2(1, t, 0, 1) if upper else Mat2(1, 0, t, 1))
    return out


MODULI = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1), (17, 1),
          (19, 1), (23, 1)]
MOVES = st.lists(st.tuples(st.booleans(), st.integers(-30, 30)),
                 min_size=1, max_size=4)


@given(st.sampled_from(MODULI), MOVES, MOVES)
@settings(max_examples=15, deadline=None)
def test_closure_of_random_pairs_matches_set_search(modulus, moves1, moves2):
    p, N = modulus
    gens = [_lift(moves1), _lift(moves2)]
    assert subgroup_closure_mod(p, N, gens)["order"] == len(_closure_by_set(p, N, gens))


def _small(moduli):
    # the moduli whose 2 p^{3N} slices of one entry are swept quickly
    return [(p, N) for p, N in moduli if p ** (3 * N) < 2000]


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("gens", GENERATOR_SETS)
@pytest.mark.parametrize("p,N", _small(CLOSURE_MODULI))
def test_closure_order_does_not_depend_on_the_chunk(p, N, gens, chunk,
                                                    monkeypatch):
    # a slice of one or seven entries splits the (a, b, c) and (a, b, d)
    # keys at every offset, and 2 p^{3N} is no multiple of 7
    expected = subgroup_closure_mod(p, N, GENERATOR_SETS[gens])
    monkeypatch.setattr(padic, "_CLOSURE_CHUNK", chunk)
    assert subgroup_closure_mod(p, N, GENERATOR_SETS[gens]) == expected


@given(st.sampled_from(_small(MODULI)), MOVES, MOVES, st.sampled_from([1, 7]))
@settings(max_examples=15, deadline=None)
def test_closure_of_random_pairs_does_not_depend_on_the_chunk(
        modulus, moves1, moves2, chunk):
    p, N = modulus
    gens = [_lift(moves1), _lift(moves2)]
    expected = len(_closure_by_set(p, N, gens))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(padic, "_CLOSURE_CHUNK", chunk)
        assert subgroup_closure_mod(p, N, gens)["order"] == expected


def _closure_peak(p, N):
    gens = [generator("g1"), generator("g2")]
    tracemalloc.start()
    try:
        out = subgroup_closure_mod(p, N, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["order"] == sl2_order(p, N) and out["is_full"]
    return peak


def test_closure_memory_peak():
    # 2.4 MB measured at p = 3, N = 4: the lifts of the 17,496 elements
    # mod 27 as they are built and keyed.  The search over all 472,392
    # elements mod 81 peaked at 5.1 MB in slices, at 15.1 MB when it held a
    # whole level's rows and keys (frontier up to 163,798 elements), and at
    # 25.1 MB when it multiplied int64 entry arrays and sorted each step's
    # keys
    peak = _closure_peak(3, 4)
    assert peak < 3.5e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_closure_memory_peak_at_p5_N3():
    # 2.1 MB measured; the search over all 1,875,000 elements mod 125
    # peaked at 13.1 MB in slices and at 54.2 MB holding a whole level
    peak = _closure_peak(5, 3)
    assert peak < 3e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def _sweep_order(p, N, gens):
    """The closure order by the keyed search run mod p^N itself, with no
    lift through the congruence kernels."""
    m = p ** N
    steps = [np.array(s.reduced(m)) for g in gens for s in (g, g.inv())]
    return padic._sweep(p, m, steps, None)[0]


def _random_pairs(p, N, count):
    # products of elementary matrices reduce onto all of SL(2, Z/p^N Z);
    # moves that are multiples of p give subgroups that are proper at
    # level 1, or lie in its kernel, and whose kernels have rank below 3
    rng = random.Random(p ** N)
    return [[_lift([(rng.random() < 0.5, rng.choice((1, 1, p)) * rng.randint(-30, 30))
                    for _ in range(rng.randint(1, 5))]) for _ in range(2)]
            for _ in range(count)]


# at p = 3, N = 4 this pair has two independent X in one batch at level 3
# and a kernel of rank 2 at level 4: keeping the wrong one of the two as a
# kernel element read rank 3 there, order 2187 for 729
TWO_X_IN_ONE_BATCH = [Mat2(1, -55, 138, -7589), Mat2(133, -2, -66, 1)]


@pytest.mark.parametrize("p,N,count", [(3, 4, 8), (5, 3, 3), (7, 2, 8),
                                       (13, 2, 1)])
def test_lift_matches_the_sweep_mod_p_to_the_N(p, N, count):
    for gens in [TWO_X_IN_ONE_BATCH, *_random_pairs(p, N, count)]:
        assert subgroup_closure_mod(p, N, gens)["order"] == _sweep_order(p, N, gens)


@pytest.mark.parametrize("p,N", [(3, 4), (5, 3), (7, 2)])
def test_kernel_elements_are_independent_lifts(p, N, monkeypatch):
    # each level's kernel elements must be = I mod p^(n-1) with X
    # independent mod p, or the next level's lifts collide mod p^n and
    # keys of the level after it go missing from its map
    sets = [TWO_X_IN_ONE_BATCH, *GENERATOR_SETS.values(), *_random_pairs(p, N, 8)]
    basis = padic._kernel_basis
    ranks = []

    def checked_basis(p, q, lifts, steps, modulus):
        kernel = basis(p, q, lifts, steps, modulus)
        for k in kernel:
            assert tuple(k % q) == (1, 0, 0, 1)
        xs = [(k[:3] - (1, 0, 0)) // q % p for k in kernel]
        span = {tuple(sum((e * x for e, x in zip(es, xs)), np.zeros(3, int)) % p)
                for es in itertools.product(range(p), repeat=len(xs))}
        assert len(span) == p ** len(xs)
        ranks.append(len(kernel))
        return kernel

    monkeypatch.setattr(padic, "_kernel_basis", checked_basis)
    for gens in sets:
        subgroup_closure_mod(p, N, gens)
    assert len(ranks) == len(sets) * (N - 1)
    assert set(ranks) == {0, 1, 2, 3}


@pytest.mark.parametrize("batch", [1, 10 ** 6])
@pytest.mark.parametrize("gens", GENERATOR_SETS)
@pytest.mark.parametrize("p,N", [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_closure_order_does_not_depend_on_the_schreier_batch(p, N, gens, batch,
                                                             monkeypatch):
    # one lift per batch, or every lift of the largest level (17,496 at
    # p = 3, N = 4) in one
    expected = subgroup_closure_mod(p, N, GENERATOR_SETS[gens])
    monkeypatch.setattr(padic, "_SCHREIER_BATCH", batch)
    assert subgroup_closure_mod(p, N, GENERATOR_SETS[gens]) == expected


@pytest.mark.parametrize("p,N", [(3, 3), (5, 2)])
def test_kernel_rank_below_three_scans_every_lift(p, N, monkeypatch):
    # the upper triangular subgroup mod p^N, generated by (1, 1; 0, 1) and
    # diag(2, 1/2) (2 generates the units mod 9 and mod 25), has order
    # (p - 1) p^(2N - 1) and a kernel of rank 2 at every level, so each
    # level's scan keys every lift once for its map and once per step
    m = p ** N
    gens = [Mat2(1, 1, 0, 1), Mat2(2, 1, m, (1 + m) // 2)]
    keyed = []
    keys = padic._keys

    def counting_keys(rows, p, q):
        keyed.append(len(rows))
        return keys(rows, p, q)

    monkeypatch.setattr(padic, "_keys", counting_keys)
    monkeypatch.setattr(padic, "_SCHREIER_BATCH", 5)
    out = subgroup_closure_mod(p, N, gens)
    assert out["order"] == (p - 1) * p ** (2 * N - 1) == _sweep_order(p, N, gens)
    lifts = [(p - 1) * p ** (2 * n - 1) for n in range(1, N)]
    assert sum(keyed) == sum(lifts) * (1 + len(gens) * 2)
    # a full subgroup stops each level's scan at rank 3
    keyed.clear()
    assert subgroup_closure_mod(p, N, GENERATOR_SETS["g1,g2"])["is_full"]
    full = [sl2_order(p, n) for n in range(1, N)]
    assert sum(keyed) < sum(full) * (1 + 4)


def test_closure_rejects_even_prime():
    with pytest.raises(InvalidInputError):
        subgroup_closure_mod(2, 1, [generator("g1")])


@given(st.integers(-4, 4))
@settings(max_examples=9, deadline=None)
def test_h_n_has_det_one(n):
    a, b, c, d = generator("h", n).entries()
    assert a * d - b * c == 1
