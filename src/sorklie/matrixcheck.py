"""Exact integer-matrix proofs about the Kronecker sum g (x) I_t + I_s (x) k.

The tensor-product embeddings sl (x) sl, so (x) so, sp (x) so and sp (x) sp
rest on two facts (Dynkin, "Maximal subgroups of the classical groups",
1952), proved here for given sizes (s, t):

- The Kronecker sum is a Lie homomorphism gl_s (+) gl_t -> gl_st:
  [g(x)I + I(x)k, g'(x)I + I(x)k'] = [g,g'](x)I + I(x)[k,k'].  Both sides
  are bilinear in (g, k) and (g', k'), and antisymmetric, as the bracket
  is ab - ba and the Kronecker sum is linear; so both vanish when the two
  arguments are equal.  Two such maps agree everywhere iff they agree on
  every unordered pair of distinct basis elements.  So
  ``bracket_split_basis_proof`` checks the identity, exactly, on the
  N(N - 1)/2 such pairs of the basis (E_ij, 0), (0, E_ab), N = s^2 + t^2.
- The images of sl_s and sl_t meet only in zero.  Entry (i*t + a, j*t + b)
  of g (x) I_t = I_s (x) k reads g_ij d_ab = d_ij k_ab, so g = c I_s and
  k = c I_t: on gl_s (+) gl_t the kernel of (g, k) -> g(x)I - I(x)k is the
  line of (I, I), and no nonzero scalar matrix is trace-zero.
  ``trivial_intersection_check`` checks that the images of a basis of
  sl_s (+) sl_t have rank s^2 + t^2 - 2, its dimension, by fraction-free
  integer elimination that divides each reduced vector by the gcd of its
  entries, so the numbers stay small.  It takes them as Kronecker sums of
  (g, 0) and (0, k), which flips the sign of each I(x)k and so changes no
  rank.

A matrix here is sparse, ``{(row, col): nonzero int}``, so a basis matrix
costs only its nonzero entries.

``verify-kronecker`` reports the facts under three names that scripts
read, kept from when it sampled: ``random_bracket_trials`` is the basis
proof for every pair of sizes up to ``--max-size``, ``symbolic_2x2`` its
(2, 2) entry, and ``trivial_intersection`` the rank check for every pair.
"""

from math import gcd

from .errors import ShapeError

Sparse = dict[tuple[int, int], int]


def _combine(a: Sparse, x: int, b: Sparse, y: int) -> Sparse:
    """x*a + y*b."""
    out = {key: x * v for key, v in a.items()}
    for key, v in b.items():
        out[key] = out.get(key, 0) + y * v
    return {key: v for key, v in out.items() if v}


def _bracket(a: Sparse, b: Sparse) -> Sparse:
    """ab - ba."""
    if not a or not b:
        return {}
    out: Sparse = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        rows: dict[int, list[tuple[int, int]]] = {}
        for (k, j), v in y.items():
            rows.setdefault(k, []).append((j, sign * v))
        for (i, k), u in x.items():
            for j, v in rows.get(k, ()):
                out[i, j] = out.get((i, j), 0) + u * v
    return {key: v for key, v in out.items() if v}


def _kronecker_sum(g: Sparse, k: Sparse, s: int, t: int) -> Sparse:
    """g (x) I_t + I_s (x) k for s x s g and t x t k: entry (i, j) of g
    lands at (i*t + a, j*t + a), entry (a, b) of k at (i*t + a, i*t + b)."""
    return _combine({(i * t + a, j * t + a): x for (i, j), x in g.items() for a in range(t)}, 1,
                    {(i * t + a, i * t + b): y for (a, b), y in k.items() for i in range(s)}, 1)


def _split_holds(x: tuple, y: tuple, s: int, t: int) -> bool:
    """The bracket identity on x = (g, k, g(x)I + I(x)k) and y likewise."""
    (g, k, gk), (gp, kp, gpkp) = x, y
    return _bracket(gk, gpkp) == _kronecker_sum(_bracket(g, gp), _bracket(k, kp), s, t)


def bracket_split_basis_proof(s: int, t: int) -> bool:
    """Prove the bracket identity for all s x s g, g' and t x t k, k', by
    bilinearity and antisymmetry (see the module docstring)."""
    if s < 1 or t < 1:
        raise ShapeError("sizes must be at least 1")
    pairs = ([({(i, j): 1}, {}) for i in range(s) for j in range(s)]
             + [({}, {(a, b): 1}) for a in range(t) for b in range(t)])
    basis = [(g, k, _kronecker_sum(g, k, s, t)) for g, k in pairs]
    return all(_split_holds(x, y, s, t)
               for i, x in enumerate(basis) for y in basis[i + 1:])


def _traceless_units(n: int) -> list[Sparse]:
    """A basis of sl_n: E_ij for i != j, and E_ii - E_(i+1)(i+1)."""
    return ([{(i, j): 1} for i in range(n) for j in range(n) if i != j]
            + [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)])


def _rank(vectors: list[Sparse]) -> int:
    """The rank of sparse integer vectors, by fraction-free elimination: a
    vector is reduced at its least key by the stored vector with that least
    key, which leaves a larger least key, until it is zero or stored.  Each
    reduced vector is divided by the gcd of its entries, which keeps the
    span and keeps the entries from growing with every reduction."""
    pivots: dict[tuple[int, int], Sparse] = {}
    for v in vectors:
        while v:
            p = min(v)
            w = pivots.get(p)
            if w is None:
                pivots[p] = v
                break
            v = _combine(v, w[p], w, -v[p])
            d = gcd(*v.values())
            if d > 1:
                v = {key: x // d for key, x in v.items()}
    return len(pivots)


def trivial_intersection_check(s: int, t: int) -> bool:
    """Prove that g (x) I_t = I_s (x) k, for trace-zero g and k, only when
    both are zero, by an exact rank (see the module docstring)."""
    if s < 2 or t < 2:
        raise ShapeError("sizes must be at least 2")
    images = ([_kronecker_sum(g, {}, s, t) for g in _traceless_units(s)]
              + [_kronecker_sum({}, k, s, t) for k in _traceless_units(t)])
    return _rank(images) == s * s + t * t - 2
