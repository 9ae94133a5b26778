import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorklie import (
    bracket_split_check,
    kronecker_sum,
    matrixcheck,
    trivial_intersection_check,
)
from sorklie.errors import ShapeError
from sorklie.matrixcheck import (
    bracket,
    bracket_split_basis_proof,
    identity,
    kronecker,
    mat_mul,
    random_bracket_split_trials,
    symbolic_bracket_split_2x2,
    trace,
    zeros,
)


class TestPrimitives:
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

    def test_kronecker_sum_of_identities(self):
        assert kronecker_sum(identity(2), identity(2)) == \
            [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]

    def test_bracket_antisymmetric(self):
        a = [[1, 2], [3, 4]]
        b = [[0, -1], [5, 2]]
        ab = bracket(a, b)
        ba = bracket(b, a)
        assert ab == [[-x for x in row] for row in ba]


class TestBracketSplit:
    def test_handpicked(self):
        g = [[0, 1], [0, 0]]
        gp = [[0, 0], [1, 0]]
        k = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
        kp = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        assert bracket_split_check(g, gp, k, kp)

    def test_shape_enforced(self):
        with pytest.raises(ShapeError):
            bracket_split_check(identity(2), identity(3), identity(2), identity(2))

    def test_random_trials(self):
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

        assert bracket_split_check(m(s), m(s), m(t), m(t))

    def test_symbolic(self):
        assert symbolic_bracket_split_2x2()


class TestBasisProof:
    @pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_holds(self, s, t):
        assert bracket_split_basis_proof(s, t)

    def test_anticommutator_fails(self, monkeypatch):
        # {a, b} = ab + ba does not split: the cross terms g(x)k' + g'(x)k
        # survive, so a proof that cannot fail would pass here too
        monkeypatch.setattr(
            matrixcheck, "bracket",
            lambda a, b: matrixcheck.mat_add(mat_mul(a, b), mat_mul(b, a)))
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


class TestTrivialIntersection:
    @pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (3, 4), (4, 4)])
    def test_passes(self, s, t):
        assert trivial_intersection_check(s, t)

    def test_size_bounds(self):
        with pytest.raises(ShapeError):
            trivial_intersection_check(1, 2)
