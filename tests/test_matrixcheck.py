import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_utils as dense
from oracle_utils import (
    bracket,
    dense_basis_proof,
    fraction_rank,
    identity,
    kronecker,
    mat_mul,
    random_bracket_split_trials,
    trace,
    zeros,
)
from sorklie import (
    bracket_split_basis_proof,
    matrixcheck,
    trivial_intersection_check,
)
from sorklie.errors import ShapeError


def _square(n, values=st.integers(-20, 20)):
    return st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n)


def _sparse(m):
    return {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row) if x}


def _kronecker_sum(g, k):
    """The sparse Kronecker sum of dense square g and k."""
    return matrixcheck._kronecker_sum(_sparse(g), _sparse(k), len(g), len(k))


def _split_holds(g, gp, k, kp):
    """The sparse bracket identity on dense g, g' (s x s) and k, k' (t x t)."""
    s, t = len(g), len(k)
    return matrixcheck._split_holds((_sparse(g), _sparse(k), _kronecker_sum(g, k)),
                                    (_sparse(gp), _sparse(kp), _kronecker_sum(gp, kp)), s, t)


def _vectors(rows):
    return [{(0, c): x for c, x in enumerate(row) if x} for row in rows]


class TestPrimitives:
    """The dense oracle's matrices, and the sparse Kronecker sum."""

    def test_identity_and_zeros(self):
        assert identity(2) == [[1, 0], [0, 1]]
        assert zeros(2) == [[0, 0], [0, 0]]

    def test_mat_mul(self):
        a = [[1, 2], [3, 4]]
        assert mat_mul(a, identity(2)) == a
        assert mat_mul(a, [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]

    def test_mat_mul_shape_error(self):
        with pytest.raises(ShapeError):
            mat_mul([[1, 2]], [[1, 2]])

    def test_trace(self):
        assert trace([[3, 9], [0, -5]]) == -2

    def test_kronecker_small(self):
        a = [[1, 2], [3, 4]]
        b = [[0, 1], [1, 0]]
        k = kronecker(a, b)
        assert k == [
            [0, 1, 0, 2],
            [1, 0, 2, 0],
            [0, 3, 0, 4],
            [3, 0, 4, 0],
        ]

    def test_kronecker_mixed_product_rule(self):
        rng = random.Random(3)
        for _ in range(10):
            a = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
            b = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            c = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
            d = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            assert mat_mul(kronecker(a, b), kronecker(c, d)) == \
                kronecker(mat_mul(a, c), mat_mul(b, d))

    def test_bracket_antisymmetric(self):
        a = [[1, 2], [3, 4]]
        b = [[0, -1], [5, 2]]
        ab = bracket(a, b)
        ba = bracket(b, a)
        assert ab == [[-x for x in row] for row in ba]

    def test_kronecker_sum_of_identities(self):
        assert dense.kronecker_sum(identity(2), identity(2)) == \
            [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
        assert _kronecker_sum(identity(2), identity(2)) == {(i, i): 2 for i in range(4)}

    def test_fraction_rank(self):
        assert fraction_rank([[1, 2], [2, 4]]) == 1
        assert fraction_rank([[0, 1, 0], [1, 0, 0], [1, 1, 0]]) == 2
        assert fraction_rank([]) == 0


class TestSparseAgreesWithDense:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(_square), st.integers(1, 4).flatmap(_square))
    def test_kronecker_sum(self, g, k):
        assert _kronecker_sum(g, k) == _sparse(dense.kronecker_sum(g, k))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(_square(n), _square(n))))
    def test_bracket(self, ab):
        a, b = ab
        assert matrixcheck._bracket(_sparse(a), _sparse(b)) == _sparse(bracket(a, b))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda s: st.tuples(_square(s), _square(s))),
           st.integers(1, 3).flatmap(lambda t: st.tuples(_square(t), _square(t))))
    def test_bracket_split_check(self, gs, ks):
        (g, gp), (k, kp) = gs, ks
        assert _split_holds(g, gp, k, kp) is True
        assert dense.bracket_split_check(g, gp, k, kp) is True

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=6)))
    def test_rank(self, rows):
        assert matrixcheck._rank(_vectors(rows)) == fraction_rank(rows)


def _random_rows(rng, rows, cols, bound=10):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


class TestRankAgreesWithFractions:
    """The elimination divides each reduced vector by the gcd of its
    entries, so they stay small on dense matrices, where without the
    division they grew exponentially (a 22 x 22 matrix took seconds)."""

    @pytest.mark.parametrize("n", [8, 16, 24, 32, 40])
    def test_full_rank(self, n):
        rng = random.Random(n)
        rows = _random_rows(rng, n, n)
        assert matrixcheck._rank(_vectors(rows)) == fraction_rank(rows) == n

    @pytest.mark.parametrize("n", [8, 16, 24, 32, 40])
    def test_rank_deficient(self, n):
        # the extra rows are integer combinations of independent rows, and
        # every row has entries in [-9, 9]
        rng = random.Random(100 + n)
        rank = rng.randint(n // 2, n - 2)
        rows = _random_rows(rng, rank, n, bound=3)
        while len(rows) < n:
            picks = rng.sample(rows[:rank], 3)
            coefs = [rng.choice((-1, 1)) for _ in picks]
            rows.append([sum(c * row[j] for c, row in zip(coefs, picks)) for j in range(n)])
        rng.shuffle(rows)
        assert matrixcheck._rank(_vectors(rows)) == fraction_rank(rows) == rank

    @pytest.mark.parametrize("shape", [(5, 40), (40, 5), (17, 33), (33, 17)],
                             ids=lambda shape: f"{shape[0]}x{shape[1]}")
    def test_wide_and_tall(self, shape):
        rows = _random_rows(random.Random(sum(shape)), *shape)
        assert matrixcheck._rank(_vectors(rows)) == fraction_rank(rows) == min(shape)

    def test_entries_stay_within_twice_the_hadamard_bound(self, monkeypatch):
        # a reduced vector's entries are, up to its gcd, minors of the
        # input, at most h = (10 sqrt(40))^40 in size; a reduction
        # multiplies two of them, so nothing exceeds 2 h^2
        n = 40
        limit = 2 * math.ceil(n * math.log2(10 * math.sqrt(n))) + 1
        shipped = matrixcheck._combine

        def watched(a, x, b, y):
            out = shipped(a, x, b, y)
            assert max((abs(v).bit_length() for v in out.values()), default=0) <= limit
            return out

        monkeypatch.setattr(matrixcheck, "_combine", watched)
        rows = _random_rows(random.Random(7), n, n)
        assert matrixcheck._rank(_vectors(rows)) == n


class TestBracketSplit:
    def test_handpicked(self):
        g = [[0, 1], [0, 0]]
        gp = [[0, 0], [1, 0]]
        k = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
        kp = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        assert _split_holds(g, gp, k, kp)
        assert dense.bracket_split_check(g, gp, k, kp)

    def test_shape_enforced(self):
        # the dense oracle refuses mismatched sizes, so it never compares
        # matrices the sparse proofs would not be given
        with pytest.raises(ShapeError):
            dense.bracket_split_check(identity(2), identity(3), identity(2), identity(2))
        with pytest.raises(ShapeError):
            dense.bracket_split_check(identity(2), identity(2), identity(2), identity(3))
        with pytest.raises(ShapeError):
            dense.kronecker_sum([[1, 2]], identity(2))

    def test_random_trials(self):
        # the dense oracle on seeded random quadruples
        assert random_bracket_split_trials(200, max_size=4)

    def test_random_trials_size_bound(self):
        with pytest.raises(ShapeError):
            random_bracket_split_trials(5, max_size=1)

    def test_random_trials_deterministic(self):
        # fixed seed means fixed sample sequence; both runs see the same inputs
        assert random_bracket_split_trials(50, seed=123)
        assert random_bracket_split_trials(50, seed=123)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 3), st.randoms(use_true_random=False))
    def test_property(self, s, t, rnd):
        def m(n):
            return [[rnd.randint(-20, 20) for _ in range(n)] for _ in range(n)]

        assert _split_holds(m(s), m(s), m(t), m(t))

    def test_symbolic(self):
        # the 2x2 proof that verify-kronecker reports as symbolic_2x2
        assert bracket_split_basis_proof(2, 2) and dense_basis_proof(2, 2)


_shipped_kronecker_sum = matrixcheck._kronecker_sum


def _index_off(g, k, s, t):
    """The Kronecker sum with every entry of g one row too far down."""
    return _shipped_kronecker_sum({((i + 1) % s, j): x for (i, j), x in g.items()}, k, s, t)


def _anticommutator(a, b):
    out = {}
    for x, y in ((a, b), (b, a)):
        for (i, k), u in x.items():
            for (k2, j), v in y.items():
                if k == k2:
                    out[i, j] = out.get((i, j), 0) + u * v
    return {key: v for key, v in out.items() if v}


class TestBasisProof:
    @pytest.mark.parametrize("s,t", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 5)])
    def test_holds(self, s, t):
        assert bracket_split_basis_proof(s, t)

    @pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (3, 2)])
    def test_agrees_with_the_dense_proof(self, s, t):
        assert dense_basis_proof(s, t) is bracket_split_basis_proof(s, t) is True

    @pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (3, 2)])
    def test_index_off_fails(self, monkeypatch, s, t):
        monkeypatch.setattr(matrixcheck, "_kronecker_sum", _index_off)
        assert not bracket_split_basis_proof(s, t)

    def test_anticommutator_fails(self, monkeypatch):
        # {a, b} = ab + ba does not split: the cross terms g(x)k' + g'(x)k
        # survive, so a proof that cannot fail would pass here too
        monkeypatch.setattr(matrixcheck, "_bracket", _anticommutator)
        assert not bracket_split_basis_proof(2, 2)

    def test_size_bounds(self):
        with pytest.raises(ShapeError):
            bracket_split_basis_proof(0, 2)

    def test_verify_kronecker_without_sympy(self):
        code = ("import sys; sys.modules['sympy'] = None; "
                "from sorklie.cli import main; "
                "raise SystemExit(main(['verify-kronecker']))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("PASS random_bracket_trials\n"
                               "PASS symbolic_2x2\n"
                               "PASS trivial_intersection\n")


def _without_g_diagonal(g, k, s, t):
    return _shipped_kronecker_sum({(i, j): x for (i, j), x in g.items() if i != j}, k, s, t)


class TestTrivialIntersection:
    # every pair of sizes that verify-kronecker allows
    @pytest.mark.parametrize("s,t", [(s, t) for s in range(2, 9) for t in range(2, 9)])
    def test_passes(self, s, t):
        assert trivial_intersection_check(s, t)

    @pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (4, 3)])
    def test_the_scalars_are_the_kernel_on_gl(self, s, t):
        # on all of gl_s (+) gl_t the images lose exactly the line of (I, -I)
        gl = [{(i, j): 1} for i in range(s) for j in range(s)]
        gl_t = [{(a, b): 1} for a in range(t) for b in range(t)]
        images = ([matrixcheck._kronecker_sum(g, {}, s, t) for g in gl]
                  + [matrixcheck._kronecker_sum({}, k, s, t) for k in gl_t])
        assert matrixcheck._rank(images) == s * s + t * t - 1

    @pytest.mark.parametrize("s,t", [(2, 2), (3, 2), (4, 4)])
    def test_an_embedding_that_loses_a_direction_fails(self, monkeypatch, s, t):
        monkeypatch.setattr(matrixcheck, "_kronecker_sum", _without_g_diagonal)
        assert not trivial_intersection_check(s, t)

    def test_size_bounds(self):
        with pytest.raises(ShapeError):
            trivial_intersection_check(1, 2)
