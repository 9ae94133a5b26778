"""Strong orthogonal rank: exact search, closed formula, and certificates.

The closed formula and the closed-form canonical certificate need only the
family and the rank; they serve the free subgroup rank computation.  The
exact search below is the independent oracle: ``sork`` and the tests use
it.

The search reduces to a maximum clique problem on the graph whose vertices
are antipodal pairs of roots (a strongly orthogonal set never contains both
a root and its negative) and whose edges join strongly orthogonal pairs.
The graph is built from integer dot products of the doubled coordinates
and one membership lookup per orthogonal pair.  The Weyl group acts on it
by automorphisms, so the clique number is found by a branch-and-bound
search (greedy coloring bound) in the neighbourhood of one vertex per
Weyl orbit.  The lexicographically least maximum clique is then extracted
greedily, so the reported certificate is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul
from typing import Sequence

from .errors import CertificateError, InvalidType
from .roots import (
    Root,
    RootSystem,
    RootSystemType,
    build_root_system,
    require_buildable,
)


@dataclass(frozen=True)
class OrthCertificate:
    """An explicit pairwise strongly orthogonal set, sorted lexicographically
    on doubled coordinates."""

    system_type: RootSystemType
    roots: tuple[Root, ...]

    def to_json_dict(self) -> dict:
        return {
            "system_type": str(self.system_type),
            "n": len(self.roots),
            "roots": [list(r.coords) for r in self.roots],
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "OrthCertificate":
        """Parse a certificate document; raises :class:`CertificateError`
        if it is not an object with a string ``system_type``, a list of
        integer lists ``roots`` and, if present, an integer ``n``."""
        if not isinstance(data, dict):
            raise CertificateError("certificate must be a JSON object")
        label, rows = data.get("system_type"), data.get("roots")
        if not isinstance(label, str):
            raise CertificateError("system_type must be a string")
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(_is_int(c) for c in row)
                for row in rows):
            raise CertificateError("roots must be a list of lists of integers")
        if not _is_int(data.get("n", 0)):
            raise CertificateError("n must be an integer")
        return cls(RootSystemType.parse(label), tuple(Root(tuple(row)) for row in rows))


def _is_int(x: object) -> bool:
    return type(x) is int  # JSON true/false load as bool, a subclass of int


@dataclass(frozen=True)
class CertCheck:
    """Verification outcome; ``reason`` is one of NotARoot,
    NotStronglyOrthogonal, NotCanonical, CountMismatch when ``ok`` is
    false."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def sork_formula(t: RootSystemType) -> int:
    """Closed-form strong orthogonal rank of an irreducible type.

    D2 (= A1 x A1) and D3 (= A3) are accepted and follow the D-family
    formula, which agrees with their decompositions.
    """
    fam, r = t.family, t.rank
    if fam == "A":
        return (r + 1) // 2
    if fam in ("B", "C"):
        return r
    if fam == "D":
        return r if r % 2 == 0 else r - 1
    if fam == "E":
        return {6: 4, 7: 7, 8: 8}[r]
    if fam == "F":
        return 4
    if fam == "G":
        return 2
    raise InvalidType(f"unknown family {fam!r}")  # pragma: no cover


# The lexicographically least maximum strongly orthogonal sets of the
# exceptional types, in doubled coordinates, as the exact search finds them.
_EXCEPTIONAL_CERTIFICATES = {
    "E6": ((0, 0, 0, 2, -2, 0, 0, 0), (0, 0, 0, 2, 2, 0, 0, 0),
           (0, 2, -2, 0, 0, 0, 0, 0), (0, 2, 2, 0, 0, 0, 0, 0)),
    "E7": ((0, 0, 0, 0, 0, 0, 2, -2), (0, 0, 0, 0, 2, -2, 0, 0),
           (0, 0, 0, 0, 2, 2, 0, 0), (0, 0, 2, -2, 0, 0, 0, 0),
           (0, 0, 2, 2, 0, 0, 0, 0), (2, -2, 0, 0, 0, 0, 0, 0),
           (2, 2, 0, 0, 0, 0, 0, 0)),
    "E8": ((0, 0, 0, 0, 0, 0, 2, -2), (0, 0, 0, 0, 0, 0, 2, 2),
           (0, 0, 0, 0, 2, -2, 0, 0), (0, 0, 0, 0, 2, 2, 0, 0),
           (0, 0, 2, -2, 0, 0, 0, 0), (0, 0, 2, 2, 0, 0, 0, 0),
           (2, -2, 0, 0, 0, 0, 0, 0), (2, 2, 0, 0, 0, 0, 0, 0)),
    "F4": ((0, 0, 2, -2), (0, 0, 2, 2), (2, -2, 0, 0), (2, 2, 0, 0)),
    "G2": ((0, 2, -2), (4, -2, -2)),
}


def canonical_certificate(t: RootSystemType) -> OrthCertificate:
    """The certificate ``sork_exact`` returns for ``t``, written down from
    the family and rank alone in O(rank) roots, without building the root
    system.

    The lex-min extraction takes, in ascending order, each root that still
    lies in a maximum set together with the roots already taken.  In the
    classical families the least candidate and its strongly orthogonal
    neighbours recur on fewer coordinates (e_1, e_2, ... are the true unit
    vectors):

    - A_r: the least root e_r - e_(r+1) is strongly orthogonal exactly to
      the roots on the other r - 1 coordinates, an A_(r-2); so the set is
      e_i - e_(i+1) on disjoint pairs from the last coordinate backwards.
    - C_r: the least root 2e_r leaves C_(r-1); so the set is every 2e_i.
    - D_r: the least root e_(r-1) - e_r leaves e_(r-1) + e_r plus D_(r-2);
      so the set is e_i +- e_(i+1) on pairs from the back, 2 floor(r/2)
      roots.
    - B_r: the least root e_r leaves D_(r-1), enough for a maximum set
      only when r is odd; otherwise the recursion is that of D with B_(r-2)
      left over.  So the set is e_i +- e_(i+1) on pairs from the front,
      plus e_r when r is odd.

    The exceptional types come from a fixed table.  Ranks above
    ``MAX_BUILD_RANK`` raise :class:`InvalidType`, as construction does.
    """
    fam, r = t.family, t.rank
    if fam in "EFG":
        rows = _EXCEPTIONAL_CERTIFICATES[str(t)]
        return OrthCertificate(t, tuple(Root(c) for c in rows))
    require_buildable(t)
    dim = r + 1 if fam == "A" else r

    def vec(*entries: tuple[int, int]) -> tuple[int, ...]:
        v = [0] * dim
        for i, c in entries:
            v[i] = c
        return tuple(v)

    if fam == "A":
        rows = [vec((i, 2), (i + 1, -2)) for i in range(r - 1, -1, -2)]
    elif fam == "C":
        rows = [vec((i, 4)) for i in range(r)]
    else:
        first = 0 if fam == "B" else r % 2
        rows = [vec((i, 2), (i + 1, s))
                for i in range(first, r - 1, 2) for s in (-2, 2)]
        if fam == "B" and r % 2:
            rows.append(vec((r - 1, 2)))
    return OrthCertificate(t, tuple(Root(c) for c in sorted(rows)))


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


def lex_min_max_clique(neigh: Sequence[int],
                       size: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Clique number plus the lexicographically least maximum clique
    (as an increasing tuple of vertex indices).

    ``size`` is the clique number if the caller already knows it; when None
    it is found by a full search.
    """
    n = len(neigh)
    full = (1 << n) - 1
    if size is None:
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


def vertex_orbits(phi: RootSystem, reps: Sequence[Root]) -> list[list[int]]:
    """Orbits of the Weyl group on the antipodal pairs ``reps``, as lists of
    indices into ``reps`` in breadth-first order from their least index.

    Found by closing each vertex under the simple reflections
    s_a(v) = v - (2(v,a)/(a,a)) a, in exact integers.
    """
    index = {r.coords: i for i, r in enumerate(reps)}
    simple = [(a.coords, sum(x * x for x in a.coords)) for a in phi.simple_roots]
    seen = [False] * len(reps)
    orbits: list[list[int]] = []
    for start in range(len(reps)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for v in orbit:
            x = reps[v].coords
            for a, aa in simple:
                k = 2 * sum(map(mul, x, a)) // aa
                if not k:
                    continue
                y = tuple(xi - k * ai for xi, ai in zip(x, a))
                w = index[max(y, tuple(-c for c in y))]
                if not seen[w]:
                    seen[w] = True
                    orbit.append(w)
        orbits.append(orbit)
    return orbits


def clique_number(phi: RootSystem, reps: Sequence[Root], neigh: Sequence[int]) -> int:
    """Clique number of the strong orthogonality graph of ``phi``.

    A Weyl group element preserves the root system and inner products, so
    it maps strongly orthogonal pairs to strongly orthogonal pairs and
    maximum cliques to maximum cliques.  Every maximum clique has a vertex
    u in some orbit, and an element carrying u to that orbit's
    representative v carries the clique to a maximum clique through v.
    Hence the clique number is the maximum over orbit representatives v of
    1 + (clique number of the neighbourhood of v).

    Strongly orthogonal roots are nonzero and pairwise orthogonal, hence
    linearly independent, so no clique exceeds the rank.  Orbits are
    searched largest first, and no further orbit is searched once the
    maximum so far equals the rank.
    """
    best = 0
    for orbit in sorted(vertex_orbits(phi, reps), key=len, reverse=True):
        best = max(best, 1 + max_clique_size(neigh, neigh[orbit[0]]))
        if best == phi.type.rank:
            break
    return best


def sork_exact(phi: RootSystem) -> tuple[int, OrthCertificate]:
    """Exact strong orthogonal rank with a canonical witnessing certificate."""
    return _sork_exact_cached(phi.type)


@lru_cache(maxsize=None)
def _sork_exact_cached(t: RootSystemType) -> tuple[int, OrthCertificate]:
    phi = build_root_system(t)
    reps, neigh = strong_orthogonality_graph(phi)
    size, clique = lex_min_max_clique(neigh, size=clique_number(phi, reps, neigh))
    cert = OrthCertificate(t, tuple(reps[v] for v in clique))
    return size, cert


def verify_certificate(cert: OrthCertificate, phi: RootSystem | None = None) -> CertCheck:
    """Re-check a certificate from scratch: membership, pairwise strong
    orthogonality, and canonical (ascending lexicographic) ordering.

    Each pair is checked on the doubled integer coordinates, as in
    :func:`strong_orthogonality_graph`: a repeated root, a nonzero dot
    product or a root a+b makes the pair not strongly orthogonal.  For
    orthogonal roots a, b the reflection s_b maps a+b to a-b, so a+b is a
    root iff a-b is and one lookup decides.
    """
    if phi is None:
        phi = build_root_system(cert.system_type)
    for r in cert.roots:
        if r not in phi:
            return CertCheck(False, "NotARoot")
    coords = [r.coords for r in cert.roots]
    for i, a in enumerate(coords):
        for b in coords[i + 1:]:
            if (a == b or sum(map(mul, a, b)) != 0
                    or phi.contains_coords(tuple(map(add, a, b)))):
                return CertCheck(False, "NotStronglyOrthogonal")
    if coords != sorted(coords):
        return CertCheck(False, "NotCanonical")
    return CertCheck(True)
