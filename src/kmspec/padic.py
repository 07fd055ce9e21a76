"""Exact integer matrix certificates: freeness of the generator family and
density of the generated subgroup in finite quotients SL(2, Z/p^N Z).

A single false identity caused by overflow would be a false freeness
violation, and a wrapped entry could hide a true one, so the freeness search
takes no modular shortcut: it multiplies in int64 only when a bound proves
that no entry or partial sum can reach 2^63, and in Python integers
otherwise.  The closures work mod p^N by design, in int64.
"""

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import EnumerationError, InvalidInputError


def _mul(x: Tuple[int, ...], y: Tuple[int, ...]) -> Tuple[int, int, int, int]:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if not isinstance(v, int):
                raise InvalidInputError("entries must be exact integers")
        if self.det() != 1:
            raise InvalidInputError("determinant must be 1")

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(*_mul(self.entries(), other.entries()))

    def inv(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def pow(self, n: int) -> "Mat2":
        if n < 0:
            return self.inv().pow(-n)
        out = MAT2_IDENTITY
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def entries(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def reduced(self, modulus: int) -> Tuple[int, int, int, int]:
        return (self.a % modulus, self.b % modulus,
                self.c % modulus, self.d % modulus)


MAT2_IDENTITY = Mat2(1, 0, 0, 1)
_A = Mat2(1, 2, 0, 1)
_B = Mat2(1, 0, 2, 1)
_AB = _A * _B
_BA = _B * _A


def generator(name: str, n: int = None) -> Mat2:
    """Named generators: a, b, g1 = a^4, g2 = b^4, h_n = (ab)^n ba (ab)^{-n}."""
    if name == "a":
        return _A
    if name == "b":
        return _B
    if name == "g1":
        return _A.pow(4)
    if name == "g2":
        return _B.pow(4)
    if name == "h":
        if n is None:
            raise InvalidInputError("h requires an index n")
        conj = _AB.pow(n)
        return conj * _BA * conj.inv()
    raise InvalidInputError(f"unknown generator {name!r}")


# ---------------------------------------------------------------------------
# Reduced words

Letter = Tuple[str, int]   # (key, exponent +-1); key is "g1", "g2" or "h:n"


def letter_matrix(letter: Letter) -> Mat2:
    key, exp = letter
    if key.startswith("h:"):
        try:
            n = int(key[2:])
        except ValueError:
            raise InvalidInputError(f"letter {key!r} needs an integer index "
                                    "after 'h:'") from None
        m = generator("h", n)
    else:
        m = generator(key)
    return m if exp == 1 else m.inv()


def reduce_word(letters: Sequence[Letter]) -> Tuple[Letter, ...]:
    out: List[Letter] = []
    for key, exp in letters:
        if exp not in (1, -1):
            raise InvalidInputError("letter exponents must be +-1")
        if out and out[-1][0] == key and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((key, exp))
    return tuple(out)


def default_alphabet() -> Tuple[str, ...]:
    return ("g1", "g2") + tuple(f"h:{n}" for n in range(-2, 3))


def enumerate_reduced_words(max_len: int, alphabet: Sequence[str]
                            ) -> Iterable[Tuple[Tuple[Letter, ...],
                                                Tuple[int, int, int, int]]]:
    """All nonempty reduced words up to max_len, in deterministic order, each
    with the entries of the matrix it evaluates to.

    A word's matrix is its parent's times one letter matrix, carried down the
    search as a tuple of exact integers; the letter matrices are built, and
    their determinants checked, once per call.
    """
    signed = [(k, e) for k in alphabet for e in (1, -1)]
    letters = [(letter, letter_matrix(letter).entries())
               for letter in reversed(signed)]
    stack = [((), MAT2_IDENTITY.entries())]
    while stack:
        word, m = stack.pop()
        if word:
            yield word, m
        if len(word) == max_len:
            continue
        for letter, g in letters:
            if word and word[-1][0] == letter[0] and word[-1][1] == -letter[1]:
                continue
            stack.append((word + (letter,), _mul(m, g)))


def _word_count(max_len: int, n_letters: int) -> int:
    # nonempty reduced words: sum over lengths of 2n (2n-1)^(L-1)
    total = 0
    for length in range(1, max_len + 1):
        total += 2 * n_letters * (2 * n_letters - 1) ** (length - 1)
    return total


@dataclass(frozen=True)
class FreenessCertificate:
    max_len: int
    alphabet: Tuple[str, ...]
    prefix_len: int
    prefix_words_evaluated: int
    words_certified: int
    identity_found: bool
    relation: Tuple[Letter, ...]    # the reduced word found to be 1, or ()

    def to_dict(self) -> dict:
        return {
            "max_len": self.max_len,
            "alphabet": list(self.alphabet),
            "prefix_len": self.prefix_len,
            "prefix_words_evaluated": self.prefix_words_evaluated,
            "words_certified": self.words_certified,
            "identity_found": self.identity_found,
            "relation": [list(letter) for letter in self.relation],
        }


def _prefix_matrices(half: int, alphabet: Tuple[str, ...]) -> np.ndarray:
    """The matrices of the empty word and of every nonempty reduced word up to
    length half, as an (n, 2, 2) array built level by level: each letter
    multiplies, in one array product, the words of the level before that do
    not end in its inverse.

    The max row sum of |entries| is submultiplicative, so with R the largest
    over the letters, every entry of a product of L <= half letters, and every
    partial sum of a 2x2 product on the way, is at most R^half in absolute
    value.  The arrays are int64 when R^half < 2^63, which holds for the
    default alphabet up to max_len 10 (3943^5 < 10^18), and exact Python
    integers otherwise.
    """
    # letters 2i and 2i + 1 are a key and its inverse, so j ^ 1 inverts j
    letters = [letter_matrix((key, exp)).entries()
               for key in alphabet for exp in (1, -1)]
    row_sum = max(max(abs(a) + abs(b), abs(c) + abs(d)) for a, b, c, d in letters)
    dtype = np.int64 if row_sum ** half < 2 ** 63 else object
    gens = np.array(letters, dtype=dtype).reshape(-1, 2, 2)
    level = np.array([[[1, 0], [0, 1]]], dtype=dtype)
    last = np.array([-1])
    levels = [level]
    for _ in range(half):
        parts = [level[last != j ^ 1] @ g for j, g in enumerate(gens)]
        last = np.repeat(np.arange(len(gens)), [len(m) for m in parts])
        level = np.concatenate(parts)
        levels.append(level)
    return np.concatenate(levels)


_KEY_MIX = np.uint64(0x9E3779B97F4A7C15)   # odd, so each multiply permutes


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One uint64 hash key per row of four entries, equal for equal rows:
    each entry is taken mod 2^64 and mixed in by xor and multiply."""
    if rows.dtype == object:
        rows = (rows % 2 ** 64).astype(np.uint64)
    else:
        rows = rows.view(np.uint64)
    keys = rows[:, 0].copy()
    for j in range(1, 4):
        keys *= _KEY_MIX
        keys ^= rows[:, j]
    return keys


def _has_repeat(matrices: np.ndarray, n_short: int) -> bool:
    """Whether two of the matrices are equal, one of them among the first
    n_short.  One sort of the rows' hash keys groups the rows whose keys
    collide; equal rows have equal keys, so an exact sort of every such
    row, all groups together, finds a repeat whatever the hash.  Equal
    rows sort by position, so a group holds one of the first n_short
    exactly when its first row is one of them."""
    rows = matrices.reshape(len(matrices), 4)
    keys = _row_keys(rows)
    by_key = np.argsort(keys)
    keys = keys[by_key]
    same = keys[1:] == keys[:-1]
    collide = np.zeros(len(rows), dtype=bool)
    collide[1:] = same
    collide[:-1] |= same
    at = by_key[collide]
    order = np.lexsort((at, *rows[at].T))
    rows, at = rows[at][order], at[order]
    equal = np.all(rows[1:] == rows[:-1], axis=1)
    return bool(np.any(equal & (at[:-1] < n_short)))


def _first_relation(half: int, short: int,
                    alphabet: Tuple[str, ...]) -> Tuple[Letter, ...]:
    """The relation met first in the depth-first order of
    enumerate_reduced_words: the word whose matrix repeats an earlier
    one's, one of the two no longer than short, times the inverse of that
    earlier word."""
    identity = MAT2_IDENTITY.entries()
    seen, seen_short = set(), {identity}
    for word, key in enumerate_reduced_words(half, alphabet):
        is_short = len(word) <= short
        if key in seen_short or (is_short and key in seen):
            # only keys are kept; the earlier word is found again
            other = () if key == identity else next(
                w for w, m in enumerate_reduced_words(half, alphabet)
                if m == key and (is_short or len(w) <= short))
            return reduce_word(word + tuple((k, -e) for k, e in reversed(other)))
        (seen_short if is_short else seen).add(key)
    raise AssertionError("the array search found a repeat the word search did not")


def freeness_suite(max_len: int,
                   alphabet: Sequence[str] = None) -> FreenessCertificate:
    """Certify that no nonempty reduced word up to max_len is the identity.

    A nonempty reduced word w of length L <= max_len equals the identity
    exactly when its two halves u, v, of lengths ceil(L/2) <= half and
    floor(L/2) <= max_len - half, satisfy u = v^{-1} as matrices, with u
    and v^{-1} distinct reduced words.  Conversely two distinct reduced
    words of lengths up to half and max_len - half with equal matrices
    name a relation of length <= max_len.  So only the prefix words up to
    half are evaluated, and a repeat among them counts when one of the two
    words is no longer than max_len - half, which for an even max_len is
    every repeat.  One sort of a hash key per matrix, the identity's among
    them, and an exact sort of the matrices whose keys collide find a
    repeat; only then are the words enumerated again, depth first, to name
    the relation.  A certificate with a relation has identity_found set and
    certifies no word; the caller judges it.
    """
    if max_len < 1 or max_len > 10:
        raise InvalidInputError("max_len must be in 1..10")
    if alphabet is None:
        alphabet = default_alphabet()
    alphabet = tuple(alphabet)
    if not alphabet or len(set(alphabet)) < len(alphabet):
        raise InvalidInputError("the alphabet must hold at least one letter, "
                                f"each once, got {alphabet!r}")
    half = (max_len + 1) // 2
    short = max_len - half
    matrices = _prefix_matrices(half, alphabet)
    # the levels come in order of length: the empty word, then the words
    # no longer than short
    n_short = 1 + _word_count(short, len(alphabet))
    relation = (_first_relation(half, short, alphabet)
                if _has_repeat(matrices, n_short) else ())
    return FreenessCertificate(max_len=max_len, alphabet=alphabet,
                               prefix_len=half,
                               prefix_words_evaluated=len(matrices) - 1,
                               words_certified=0 if relation else _word_count(
                                   max_len, len(alphabet)),
                               identity_found=bool(relation), relation=relation)


# ---------------------------------------------------------------------------
# Finite quotients

def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, int(math.isqrt(p)) + 1, 2))


def sl2_order(p: int, N: int) -> int:
    """|SL(2, Z/p^N Z)| = p^{3N} (1 - p^{-2})."""
    return p ** (3 * N) - p ** (3 * N - 2)


def subgroup_closure_mod(p: int, N: int, gens: Sequence[Mat2]) -> dict:
    """Order of the subgroup H the generators generate in SL(2, Z/p^N Z),
    as |H| = |e1 H| |Stab_H(e1)|, with H acting on the row vectors mod
    m = p^N by right multiplication (Seress, Permutation Group Algorithms,
    2003, sections 4.1-4.2).

    A vector (x, y) is held as its index x m + y, and each step, a
    generator or its inverse, becomes one table of m^2 vector indices, a
    permutation.  A search from e1 = (1, 0) finds the orbit, and keeps for
    each orbit vector v the index w_v of the second row of one element t_v
    of H with first row v: I for e1, and t_v s for a vector v s first
    reached from v.  So w_{vs} = w_v s is read from the table, and no
    matrix is multiplied.

    An element of H that fixes e1 has first row e1 and det 1, so it is
    [[1, 0], [c, 1]]: the stabilizer is cyclic, of order m / gcd(m, c)
    with c the gcd of its elements' c.  By Schreier's lemma it is
    generated by t_v s t_{vs}^{-1} over the orbit vectors v and the steps
    s, and since t_{vs} has rows v s and w_{vs}, w_v s = c v s + w_{vs}
    gives that element's c as det(w_v s, w_{vs}).

    Under ENUM_CAP, m^2 <= 46,416.  By g1, g2 on a 2-core host a closure
    takes 1.0-1.5 ms and peaks at 0.7 MB in tracemalloc at (3, 4), and
    10-14 ms and 4.6 MB at (211, 1).
    """
    if not is_odd_prime(p):
        raise InvalidInputError("p must be an odd prime")
    if N < 1:
        raise InvalidInputError("N must be >= 1")
    if p ** (3 * N) > ENUM_CAP:
        raise EnumerationError(f"p^(3N) = {p ** (3 * N)} exceeds the cap {ENUM_CAP}")
    m = p ** N
    x, y = np.divmod(np.arange(m * m), m)
    tables = []
    for g in gens:
        for s0, s1, s2, s3 in (g.reduced(m), g.inv().reduced(m)):
            tables.append((x * s0 + y * s2) % m * m + (x * s1 + y * s3) % m)
    # w[v] is w_v for each orbit vector v found so far, -1 off the orbit
    w = np.full(m * m, -1)
    e1, e2 = m, 1
    w[e1] = e2
    frontier = np.array([e1])
    while len(frontier):
        # each table permutes the vectors, and w is set before the next
        # table reads it, so no vector is reached twice
        reached = [frontier[:0]]
        for table in tables:
            v = table[frontier]
            new = w[v] < 0
            w[v[new]] = table[w[frontier[new]]]
            reached.append(v[new])
        frontier = np.concatenate(reached)
    orbit = np.flatnonzero(w >= 0)
    c = 0
    for table in tables:
        ws, wvs = table[w[orbit]], w[table[orbit]]
        c = math.gcd(c, int(np.gcd.reduce(x[ws] * y[wvs] - y[ws] * x[wvs])))
    order = len(orbit) * (m // math.gcd(m, c))
    expected = sl2_order(p, N)
    if expected % order:
        raise EnumerationError("closure order does not divide the group order; "
                               "this indicates a bug")
    return {"p": p, "N": N, "order": order, "expected": expected,
            "is_full": order == expected}


ENUM_CAP = 10 ** 7
