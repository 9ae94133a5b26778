"""Independent oracles used to cross-check the fast paths.

Besides the brute-force clique oracle, this holds a generic full-graph
clique solver (greedy colouring bound, lex-min probes), exact
``Fraction`` predicates on roots, with the ``DimensionError`` that
``inner_product`` raises, and the rank-one catalog of the acceptance
criteria.  The package ships none of them: its one clique search is the
orbit search of ``sorklie.sork``, checked here.
"""

from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations
from operator import add, mul

from sorklie import RealFormDescriptor, Root, RootSystem, SorklieError, nu_simple
from sorklie.realforms import catalog


def max_clique_bruteforce(neigh: list[int]) -> int:
    """Largest clique by subset enumeration; only for graphs with <= ~16
    vertices.  Deliberately independent of the branch-and-bound solver."""
    n = len(neigh)
    assert n <= 20, "oracle is exponential; keep graphs small"
    best = 0
    for size in range(n, 0, -1):
        if size <= best:
            break
        for subset in combinations(range(n), size):
            if all(neigh[a] >> b & 1 for a, b in combinations(subset, 2)):
                best = size
                break
        if best:
            break
    return best


def induced_subgraph(neigh: list[int], vertices: list[int]) -> list[int]:
    """Adjacency bitmasks of the subgraph induced on ``vertices``."""
    index = {v: i for i, v in enumerate(vertices)}
    out = [0] * len(vertices)
    for i, v in enumerate(vertices):
        for w in vertices:
            if neigh[v] >> w & 1:
                out[i] |= 1 << index[w]
    return out


def _greedy_color_order(neigh: Sequence[int], cand: int) -> list[tuple[int, int]]:
    """Greedy coloring of the candidate set; returns (vertex, color) with
    colors nondecreasing.  The color of v bounds the largest clique in cand
    containing v and vertices placed earlier."""
    order: list[tuple[int, int]] = []
    uncolored = cand
    color = 0
    while uncolored:
        color += 1
        q = uncolored
        while q:
            b = q & -q
            v = b.bit_length() - 1
            order.append((v, color))
            uncolored ^= b
            q &= ~neigh[v]
            q ^= b
            q &= uncolored
    return order


def max_clique_size(neigh: Sequence[int], cand: int | None = None,
                    stop_at: int | None = None) -> int:
    """Clique number of the graph given by bitmask adjacency ``neigh``,
    restricted to the vertex set ``cand`` (all vertices if None).

    If ``stop_at`` is given, the search returns early once a clique of that
    size is found (the result is then min(clique number, stop_at) or more
    precisely: >= stop_at iff a clique of size stop_at exists).
    """
    n = len(neigh)
    if cand is None:
        cand = (1 << n) - 1
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            if size > best:
                best = size
            return
        order = _greedy_color_order(neigh, cand)
        local = cand
        for v, color in reversed(order):
            if stop_at is not None and best >= stop_at:
                return
            if size + color <= best:
                return
            expand(size + 1, local & neigh[v])
            local &= ~(1 << v)

    expand(0, cand)
    return best


def lex_min_max_clique(neigh: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Clique number, found by a full search, plus the lexicographically
    least maximum clique (as an increasing tuple of vertex indices)."""
    n = len(neigh)
    full = (1 << n) - 1
    size = max_clique_size(neigh, full)
    chosen: list[int] = []
    cand = full
    for v in range(n):
        if len(chosen) == size:
            break
        if not (cand >> v) & 1:
            continue
        need = size - len(chosen) - 1
        rest = cand & neigh[v]
        if max_clique_size(neigh, rest, stop_at=need) >= need:
            chosen.append(v)
            cand = rest
    if len(chosen) != size:
        raise AssertionError(
            f"search bug: extracted a clique of {len(chosen)} vertices, "
            f"expected {size}"
        )
    return size, tuple(chosen)


def strong_orthogonality_graph(phi: RootSystem) -> tuple[tuple[Root, ...], list[int]]:
    """Vertices (antipodal representatives in lexicographic order) and
    bitmask adjacency of the strong orthogonality relation.

    For orthogonal roots a, b the reflection s_b maps a+b to a-b, so a+b is
    a root iff a-b is: one lookup decides strong orthogonality.
    """
    reps = phi.positive_representatives()
    coords = [r.coords for r in reps]
    n = len(coords)
    neigh = [0] * n
    for i, a in enumerate(coords):
        for j in range(i + 1, n):
            b = coords[j]
            if (sum(map(mul, a, b)) == 0
                    and not phi.contains_coords(tuple(map(add, a, b)))):
                neigh[i] |= 1 << j
                neigh[j] |= 1 << i
    return reps, neigh


class DimensionError(SorklieError, ValueError):
    """Two vectors live in ambient spaces of different dimension."""


def inner_product(a: Root, b: Root) -> Fraction:
    """Exact Euclidean inner product of the true (undoubled) coordinates."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError(
            f"ambient dimensions differ: {a.ambient_dim} != {b.ambient_dim}"
        )
    return Fraction(sum(x * y for x, y in zip(a.coords, b.coords)), 4)


def _vsub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def is_strongly_orthogonal(a: Root, b: Root, phi: RootSystem) -> bool:
    """True iff (a, b) = 0 and neither a+b nor a-b is a root of ``phi``."""
    phi.require_member(a)
    phi.require_member(b)
    if inner_product(a, b) != 0:
        return False
    return not (
        phi.contains_coords(tuple(map(add, a.coords, b.coords)))
        or phi.contains_coords(_vsub(a.coords, b.coords))
    )


def simple_root_coefficients(root: Root, phi: RootSystem) -> tuple[Fraction, ...]:
    """Coordinates of ``root`` in the simple-root basis, solved exactly."""
    phi.require_member(root)
    basis = [s.coords for s in phi.simple_roots]
    n = len(basis)
    # Solve the normal equations G x = b over Q (G is the Gram matrix of the
    # simple roots, which is invertible).
    gram = [[sum(a * b for a, b in zip(basis[i], basis[j])) for j in range(n)]
            for i in range(n)]
    rhs = [sum(a * b for a, b in zip(basis[i], root.coords)) for i in range(n)]
    mat = [[Fraction(gram[i][j]) for j in range(n)] + [Fraction(rhs[i])]
           for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if mat[i][col] != 0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for i in range(n):
            if i != col and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
    return tuple(mat[i][n] for i in range(n))


def nu_one_catalog(max_pq: int = 8, max_n: int = 8) -> list[RealFormDescriptor]:
    """All bounded-parameter catalog algebras with free subgroup rank one."""
    out = []
    for d in catalog(max_pq, max_n):
        if nu_simple(d).nu == 1:
            out.append(d)
    return sorted(set(out))
