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


def _has_repeat(matrices: np.ndarray) -> bool:
    """Whether two of the matrices are equal.  One sort of the rows' hash
    keys groups the rows whose keys collide; equal rows have equal keys, so
    an exact sort of every such row, all groups together, finds a repeat
    whatever the hash."""
    rows = matrices.reshape(len(matrices), 4)
    keys = _row_keys(rows)
    by_key = np.argsort(keys)
    keys = keys[by_key]
    same = keys[1:] == keys[:-1]
    collide = np.zeros(len(rows), dtype=bool)
    collide[1:] = same
    collide[:-1] |= same
    rows = rows[by_key[collide]]
    rows = rows[np.lexsort(rows.T)]
    return bool(np.any(np.all(rows[1:] == rows[:-1], axis=1)))


def _first_relation(half: int, alphabet: Tuple[str, ...]) -> Tuple[Letter, ...]:
    """The relation met first in the depth-first order of
    enumerate_reduced_words: the word whose matrix repeats an earlier one's,
    times the inverse of that earlier word."""
    identity = MAT2_IDENTITY.entries()
    seen = {identity}
    for word, key in enumerate_reduced_words(half, alphabet):
        if key in seen:
            # only keys are kept; the earlier word is found again
            other = () if key == identity else next(
                w for w, m in enumerate_reduced_words(half, alphabet) if m == key)
            return reduce_word(word + tuple((k, -e) for k, e in reversed(other)))
        seen.add(key)
    raise AssertionError("the array search found a repeat the word search did not")


def freeness_suite(max_len: int,
                   alphabet: Sequence[str] = None) -> FreenessCertificate:
    """Certify that no nonempty reduced word up to max_len is the identity.

    A nonempty reduced word w of length <= 2m equals the identity exactly when
    its two halves u, v satisfy u = v^{-1} as matrices with u, v^{-1} distinct
    reduced words of length <= m.  Injectivity of evaluation on all reduced
    words of half length therefore certifies the full length range while only
    evaluating the half-length prefix set.  One sort of a hash key per
    matrix, the identity's among them, and an exact sort of the matrices
    whose keys collide find a repeat; only then are the words enumerated
    again, depth first, to name the relation.  A certificate with a
    relation has identity_found set and certifies no word; the caller
    judges it.
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
    matrices = _prefix_matrices(half, alphabet)
    relation = _first_relation(half, alphabet) if _has_repeat(matrices) else ()
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
    found level by level: a search over its Cayley graph mod p (_sweep),
    then one lift through each congruence kernel up to p^N.

    For n >= 2 the kernel of SL(2, Z/p^n) -> SL(2, Z/p^{n-1}) is
    {I + p^{n-1} X : X trace zero mod p}, elementary abelian of order p^3,
    so the kernel of H_n -> H_{n-1}, with H_n the image of H mod p^n, is
    an F_p-subspace and |H_n| = |H_{n-1}| p^r, r its rank.  By Schreier's
    lemma (Seress, Permutation Group Algorithms, 2003, section 4.2) that
    kernel is spanned by the X of k = t s t'^{-1}, over one lift t of each
    element of H_{n-1}, the generators and their inverses s, and the lift
    t' congruent to t s mod p^{n-1}.  t' is found through the _sweep key
    of t s mod p^{n-1}, in a map of 2 p^{3(n-1)} lift indices.  The lifts
    are scanned in batches of _SCHREIER_BATCH, and the scan stops once the
    X found span rank 3.  The lifts of H_n, for the next level, are those
    of H_{n-1} times every product of powers of the kernel elements whose
    X were kept.  The lifts of H_1 are recorded by the sweep mod p, each
    its parent's lift times the step's matrix mod p^N.

    So the closure multiplies the |H_{N-1}| = |H_N| / p^r lifts by the
    steps, where a search mod p^N expands all |H_N| elements.  By g1, g2
    it takes 3-5 ms at (p, N) = (3, 4) (472,392 elements) and at (5, 3),
    and 2-4 ms at (13, 2) on a 2-core host, against 38-63 ms, 0.15-0.2 s
    and 0.38-0.51 s for the search mod p^N (medians of 7, two alternating
    rounds), and peaks at 2.4 MB in tracemalloc at (3, 4), against
    5.1 MB.  For N >= 2 the cap keeps p <= 13, so the sweep mod p marks
    at most 2 * 13^3 keys; for N = 1 it is the whole closure.
    """
    if not is_odd_prime(p):
        raise InvalidInputError("p must be an odd prime")
    if N < 1:
        raise InvalidInputError("N must be >= 1")
    if p ** (3 * N) > ENUM_CAP:
        raise EnumerationError(f"p^(3N) = {p ** (3 * N)} exceeds the cap {ENUM_CAP}")
    modulus = p ** N
    steps = [np.array(s.reduced(modulus)) for g in gens for s in (g, g.inv())]
    order, lifts = _sweep(p, p, steps, modulus if N > 1 else None)
    for n in range(2, N + 1):
        kernel = _kernel_basis(p, p ** (n - 1), lifts, steps, modulus)
        order *= p ** len(kernel)
        if n == N:
            break
        for k in kernel:
            powers = [lifts]
            for _ in range(p - 1):
                powers.append(_products(powers[-1], k, modulus))
            lifts = np.concatenate(powers)
    expected = sl2_order(p, N)
    if expected % order:
        raise EnumerationError("closure order does not divide the group order; "
                               "this indicates a bug")
    return {"p": p, "N": N, "order": order, "expected": expected,
            "is_full": order == expected}


def _products(x: np.ndarray, y: np.ndarray, modulus: int) -> np.ndarray:
    """The products x_i y_i mod modulus of 2x2 matrices held as rows
    (a, b, c, d); y may be one such row, a matrix applied to every x_i."""
    x0, x1, x2, x3 = x.T
    y0, y1, y2, y3 = y.T
    return np.stack((x0 * y0 + x1 * y2, x0 * y1 + x1 * y3,
                     x2 * y0 + x3 * y2, x2 * y1 + x3 * y3), axis=1) % modulus


def _keys(rows: np.ndarray, p: int, m: int) -> np.ndarray:
    """The _sweep key of each det-1 matrix (a, b, c, d) with entries in
    [0, m): (a m + b) m + c when a is a unit mod p, else (a m + b) m + d
    offset by m^3."""
    a, b, c, d = rows.T
    return (a * m + b) * m + np.where(a % p != 0, c, m ** 3 + d)


def _kernel_basis(p: int, q: int, lifts: np.ndarray, steps: List[np.ndarray],
                  modulus: int) -> List[np.ndarray]:
    """Schreier generators k = t s t'^{-1}, mod modulus, whose X = (k - I)/q
    mod p are independent and span every such X: lifts holds one lift of
    each element of the image of the subgroup mod q = p^{n-1}, and the X
    are reduced against the span found so far, kept in echelon form as
    (pivot, row) pairs with a 1 at the pivot."""
    index = np.zeros(2 * q ** 3, dtype=np.int32)
    index[_keys(lifts % q, p, q)] = np.arange(len(lifts))
    echelon, kernel = [], []
    for lo in range(0, len(lifts), _SCHREIER_BATCH):
        t = lifts[lo:lo + _SCHREIER_BATCH]
        for s in steps:
            ts = _products(t, s, modulus)
            # t'^{-1} = (d, -b, -c, a)
            inverse = lifts[index[_keys(ts % q, p, q)]][:, (3, 1, 2, 0)]
            k = _products(ts, inverse * (1, -1, -1, 1), modulus)
            # trace zero: X is fixed by its entries 11, 12 and 21
            x = (k[:, :3] - (1, 0, 0)) // q % p
            for pivot, row in echelon:
                x = (x - x[:, pivot, None] * row) % p
            # a row kept clears itself, and its pivot in every other row
            hit = np.flatnonzero(x.any(axis=1))
            while len(hit):
                i = hit[0]
                pivot = int(np.flatnonzero(x[i])[0])
                row = x[i] * pow(int(x[i, pivot]), -1, p) % p
                echelon.append((pivot, row))
                kernel.append(k[i])
                if len(kernel) == 3:
                    return kernel
                x = (x - x[:, pivot, None] * row) % p
                hit = np.flatnonzero(x.any(axis=1))
    return kernel


def _sweep(p: int, m: int, steps: List[np.ndarray], lift_modulus) -> tuple:
    """Order of the closure mod m, a power of p, by a search over its
    Cayley graph, and, unless lift_modulus is None, one lift mod
    lift_modulus of each of its elements, in the order of their keys.

    A matrix is held as its two rows, each an index x m + y in [0, m^2).
    Right multiplication by a step acts on each row alone, as a table of
    m^2 row indices built once per call.  An element is keyed by (a, b, c)
    when a is a unit mod p, else by (a, b, d) offset by m^3: with
    ad - bc = 1 the missing entry follows from the other three (b is a
    unit when a is not), so the key is injective.  Each step reads the key
    of a product straight from the rows of its factor, through lookup
    tables composed with the row table, so the search multiplies no
    matrices and reduces and sorts no entries.

    Two bool maps of 2 m^3 entries each, 40 MB at ENUM_CAP, mark the
    elements found and those not yet expanded.  The search sweeps the
    pending map in slices of _CLOSURE_CHUNK entries: the set keys of a
    slice come out sorted, are cleared, decoded back to rows and expanded,
    and each step marks its unvisited keys in both maps, which deduplicates
    them.  A key marked ahead of the sweep is expanded in the same sweep,
    one marked behind it in the next, until no key is pending.  So beyond
    the maps and the step tables the search holds a few arrays of one
    slice, however wide the frontier: measured with tracemalloc, a closure
    by g1, g2 mod 211 peaks at 48 MB and takes about 0.62 s on a 2-core
    host.
    """
    # the cap keeps m <= 215, so every key and decode product fits int64
    # with room to spare
    square = m * m
    cube = square * m
    x, y = np.divmod(np.arange(square, dtype=np.int64), m)
    # the key of rows (r1, r2) is r1 m + low[pick[r1] + r2]: pick is m^2 on
    # the rows whose first entry is a unit mod p, and low holds m^3 + d
    # for every second row r2, then c
    pick = np.where(x % p != 0, square, 0)
    low = np.concatenate([cube + y, x])
    tables = []
    for s in steps:
        s0, s1, s2, s3 = (s % m).tolist()
        image = (x * s0 + y * s2) % m * m + (x * s1 + y * s3) % m
        # the product of rows (r1, r2) with s has the key
        # head[r1] + tail[turn[r1] + r2]
        tables.append((image * m, pick[image],
                       low[np.concatenate([image, image + square])]))
    inverse = np.zeros(m, dtype=np.int64)
    for u in range(1, m):
        if u % p:
            inverse[u] = pow(u, -1, m)

    visited = np.zeros(2 * cube, dtype=bool)
    pending = np.zeros(2 * cube, dtype=bool)
    # the identity: rows (1, 0) and (0, 1), key (1, 0, 0)
    visited[square] = pending[square] = True
    lifts = None
    if lift_modulus is not None:
        lifts = np.zeros((2 * cube, 4), dtype=np.int64)
        lifts[square] = (1, 0, 0, 1)
    order = 0
    while pending.any():
        for lo in range(0, 2 * cube, _CLOSURE_CHUNK):
            k = np.flatnonzero(pending[lo:lo + _CLOSURE_CHUNK])
            if not len(k):
                continue
            pending[lo:lo + _CLOSURE_CHUNK] = False
            order += len(k)
            k += lo
            if lifts is not None:
                parents = lifts[k]
            # the keys come sorted, the (a, b, c) keys first; the missing
            # entry is d = (1 + bc) / a for those and c = (ad - 1) / b for
            # the rest
            n = np.searchsorted(k, cube)
            k[n:] -= cube
            r1 = k // m
            e = k - r1 * m
            a, b = x[r1], y[r1]
            r2 = np.empty_like(k)
            r2[:n] = e[:n] * m + (1 + b[:n] * e[:n]) * inverse[a[:n]] % m
            r2[n:] = (a[n:] * e[n:] - 1) * inverse[b[n:]] % m * m + e[n:]
            for (head, turn, tail), s in zip(tables, steps):
                k = head[r1] + tail[turn[r1] + r2]
                new = ~visited[k]
                k = k[new]
                visited[k] = True
                pending[k] = True
                if lifts is not None:
                    lifts[k] = _products(parents[new], s, lift_modulus)
    return order, None if lifts is None else lifts[visited]


ENUM_CAP = 10 ** 7
# pending-map entries read, decoded and expanded at a time by _sweep
_CLOSURE_CHUNK = 1 << 16
# lifts multiplied by each step at a time by _kernel_basis
_SCHREIER_BATCH = 1 << 8
