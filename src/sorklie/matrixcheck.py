"""Exact integer-matrix verification of the Kronecker-sum bracket identity.

Matrices are plain nested lists of Python ints, so every check is exact.
The identity is proved for given sizes (s, t) by bilinearity: checking it on
every pair of elementary basis matrices of gl_s (+) gl_t is a complete proof.
Seeded random trials on integer matrices act as an independent oracle.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from operator import mul

from .errors import ShapeError

IntMatrix = list[list[int]]


def _check_square(m: Sequence[Sequence[int]], name: str) -> int:
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ShapeError(f"{name} must be a nonempty square matrix")
    return n


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(n: int) -> IntMatrix:
    return [[0] * n for _ in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if len(b) != len(a[0]):
        raise ShapeError("inner dimensions do not match")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_add(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        raise ShapeError("shapes do not match")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        raise ShapeError("shapes do not match")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def trace(a: Sequence[Sequence[int]]) -> int:
    _check_square(a, "matrix")
    return sum(a[i][i] for i in range(len(a)))


def kronecker(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    # Row i*len(b) + k of a (x) b is the Kronecker product of rows a[i], b[k].
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def kronecker_sum(g: Sequence[Sequence[int]], k: Sequence[Sequence[int]]) -> IntMatrix:
    """g (x) I_t + I_s (x) k for square g (s x s) and k (t x t)."""
    s = _check_square(g, "g")
    t = _check_square(k, "k")
    return mat_add(kronecker(g, identity(t)), kronecker(identity(s), k))


def bracket(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def bracket_split_check(
    g: Sequence[Sequence[int]],
    gp: Sequence[Sequence[int]],
    k: Sequence[Sequence[int]],
    kp: Sequence[Sequence[int]],
) -> bool:
    """[g(x)I + I(x)k, g'(x)I + I(x)k'] == [g,g'](x)I + I(x)[k,k'], exactly.

    This is an identity, so the check must succeed for every input; a False
    return would falsify the direct-sum structure of Kronecker sum algebras.
    """
    s = _check_square(g, "g")
    if _check_square(gp, "g'") != s:
        raise ShapeError("g and g' must have equal size")
    t = _check_square(k, "k")
    if _check_square(kp, "k'") != t:
        raise ShapeError("k and k' must have equal size")
    lhs = bracket(kronecker_sum(g, k), kronecker_sum(gp, kp))
    rhs = kronecker_sum(bracket(g, gp), bracket(k, kp))
    return lhs == rhs


def _random_matrix(rng: random.Random, n: int, lo: int = -9, hi: int = 9) -> IntMatrix:
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _random_traceless(rng: random.Random, n: int) -> IntMatrix:
    m = _random_matrix(rng, n)
    m[n - 1][n - 1] = -sum(m[i][i] for i in range(n - 1))
    if all(all(x == 0 for x in row) for row in m):
        m[0][1 % n] = 1  # avoid the zero matrix
    return m


def random_bracket_split_trials(samples: int, max_size: int = 4,
                                seed: int = 0) -> bool:
    """Run the bracket identity on random integer quadruples with sizes in
    2..max_size; True iff every trial passes."""
    if max_size < 2:
        raise ShapeError("sizes must be at least 2")
    rng = random.Random(seed)
    for _ in range(samples):
        s = rng.randint(2, max_size)
        t = rng.randint(2, max_size)
        g, gp = _random_matrix(rng, s), _random_matrix(rng, s)
        k, kp = _random_matrix(rng, t), _random_matrix(rng, t)
        if not bracket_split_check(g, gp, k, kp):
            return False
    return True


def trivial_intersection_check(s: int, t: int, samples: int = 100,
                               seed: int = 0) -> bool:
    """Check that the two Kronecker embeddings meet only in zero.

    For sampled nonzero trace-zero g, k the equality g (x) I_t = I_s (x) k
    must fail, and the scalar escape hatch is confirmed on the identity
    pattern: c*I_s (x) I_t = I_s (x) c*I_t holds for scalars, but a nonzero
    scalar matrix is never trace-zero.
    """
    if s < 2 or t < 2:
        raise ShapeError("sizes must be at least 2")
    rng = random.Random(seed)
    for _ in range(samples):
        g = _random_traceless(rng, s)
        k = _random_traceless(rng, t)
        if kronecker(g, identity(t)) == kronecker(identity(s), k):
            return False
    for c in (1, 2, -3):
        cg = [[c * x for x in row] for row in identity(s)]
        ck = [[c * x for x in row] for row in identity(t)]
        if kronecker(cg, identity(t)) != kronecker(identity(s), ck):
            return False
        if trace(cg) == 0:  # nonzero scalars always have nonzero trace
            return False
    return True


def _elementary_basis(n: int) -> list[IntMatrix]:
    """The n*n elementary matrices E_ij of gl_n, in row-major order."""
    return [[[int(r == i and c == j) for c in range(n)] for r in range(n)]
            for i in range(n) for j in range(n)]


def bracket_split_basis_proof(s: int, t: int) -> bool:
    """Prove the bracket identity for all s x s g, g' and t x t k, k'.

    Both sides of [g(x)I + I(x)k, g'(x)I + I(x)k'] = [g,g'](x)I + I(x)[k,k']
    are bilinear in the pairs (g, k) and (g', k'): the Kronecker sum
    g(x)I + I(x)k is linear in the pair (g, k), and the bracket and the
    Kronecker product are bilinear.  Two bilinear maps agree everywhere iff
    they agree on every pair of basis elements, and gl_s (+) gl_t has the
    basis (E_ij, 0), (0, E_kl).  So the (s^2 + t^2)^2 exact integer checks
    below hold iff the identity holds for all matrices of these sizes.
    """
    if s < 1 or t < 1:
        raise ShapeError("sizes must be at least 1")
    basis = ([(e, zeros(t)) for e in _elementary_basis(s)]
             + [(zeros(s), e) for e in _elementary_basis(t)])
    return all(bracket_split_check(g, gp, k, kp)
               for g, k in basis for gp, kp in basis)


def symbolic_bracket_split_2x2() -> bool:
    """Prove the bracket identity for s = t = 2 over all matrices: all 16
    coordinates of both sides agree as polynomials in the 16 entries."""
    return bracket_split_basis_proof(2, 2)
