"""Strong orthogonal rank: exact search, closed formula, and the cache of
canonical certificates.

For A, B, C and D the closed formula and the closed-form canonical
certificate need only the family and the rank, so the free subgroup rank
runs no search for them.  E, F and G take both from the exact search
below, on at most 240 roots.  ``canonical_certificate`` keeps the
canonical certificate of each type asked for in ``_CANONICAL``, and
``assert_valid`` checks every certificate found here, for it and for the
``sork`` command, with the checker in ``check``, on the root system it
was found on.  The certificate record and its checker live in ``check``,
which loads none of this module.

The search reduces to a maximum clique problem on the graph whose vertices
are antipodal pairs of roots (a strongly orthogonal set never contains both
a root and its negative) and whose edges join strongly orthogonal pairs.
``sork_exact`` runs one orbit-recursive branch and bound,
:func:`orbit_clique_search`, on a :class:`LazyRootGraph`:

- a row of the graph is built only when the search branches on its vertex,
  from per-coordinate value masks and one membership lookup per orthogonal
  pair whose squared lengths add up to a root length, so most rows are
  never built;
- at every node, once a branch on v returns, v's orbit under the Weyl
  group of the roots orthogonal to the chosen set (its pointwise
  stabiliser) is dropped: the roots of v's length in v's irreducible
  component of that subsystem.  A v adjacent to every other candidate
  closes the node;
- the rank bounds the clique (strongly orthogonal roots are linearly
  independent), so a greedy path that reaches it ends the search.

Branching in ascending order makes the first maximum clique found the
lexicographically least, so the same search returns the clique number and
the canonical certificate.  It answers every rank that
``build_root_system`` builds.  This is the package's only clique search;
the tests cross-check it against a generic full-graph solver and a
brute-force oracle, which live in ``tests/oracle_utils.py``.
"""

from collections.abc import Callable
from operator import add, mul

from .check import OrthCertificate, _check
from .roots import RootSystem, RootSystemType, _vec, build_root_system


def sork_formula(t: RootSystemType) -> int:
    """Strong orthogonal rank of an irreducible type: a closed formula for
    A, B, C and D, the size of the canonical certificate for E, F and G,
    which is verified once per type per process, against the one root
    system it was found on.

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
    return len(canonical_certificate(t).roots)


# The verified canonical certificate of each type asked for in this process.
_CANONICAL: dict[RootSystemType, OrthCertificate] = {}


def canonical_certificate(t: RootSystemType) -> OrthCertificate:
    """The certificate ``sork_exact`` returns for ``t``, verified once per
    type per process, against the one root system it was found on.

    The first call builds that system, takes the certificate from
    :func:`_closed_form` (A-D) or ``sork_exact`` (E, F, G) and checks it
    with :func:`assert_valid` and, for A-D, its length against
    ``sork_formula``.  Ranks above ``MAX_BUILD_RANK`` raise
    :class:`InvalidType`, as construction does.
    """
    if t not in _CANONICAL:
        phi = build_root_system(t)
        cert = _closed_form(t) if t.family in "ABCD" else sork_exact(phi)[1]
        assert_valid(cert, phi)
        if t.family in "ABCD" and len(cert.roots) != sork_formula(t):
            raise AssertionError(f"certificate bug: the canonical certificate of {t} "
                                 f"has {len(cert.roots)} roots, the closed formula "
                                 f"{sork_formula(t)}")
        _CANONICAL[t] = cert
    return _CANONICAL[t]


def assert_valid(cert: OrthCertificate, phi: RootSystem) -> None:
    """Raise "certificate bug" unless ``check`` accepts ``cert`` on ``phi``."""
    if not (check := _check(cert, phi)):
        raise AssertionError(f"certificate bug: the canonical certificate of "
                             f"{phi.type} fails verification ({check.reason})")


def _closed_form(t: RootSystemType) -> OrthCertificate:
    """The canonical certificate of an A, B, C or D type, written down from
    the family and rank alone in O(rank) roots.

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
    """
    fam, r = t.family, t.rank
    dim = r + 1 if fam == "A" else r
    if fam == "A":
        rows = [_vec(dim, (i, 2), (i + 1, -2)) for i in range(r - 1, -1, -2)]
    elif fam == "C":
        rows = [_vec(dim, (i, 4)) for i in range(r)]
    else:
        first = 0 if fam == "B" else r % 2
        rows = [_vec(dim, (i, 2), (i + 1, s))
                for i in range(first, r - 1, 2) for s in (-2, 2)]
        if fam == "B" and r % 2:
            rows.append(_vec(dim, (r - 1, 2)))
    return OrthCertificate(t, tuple(sorted(rows)))


def orbit_clique_search(n: int, row: Callable[[int], tuple[int, int]],
                        orbit: Callable[[int, int], int],
                        limit: int) -> tuple[int, ...]:
    """Lexicographically least maximum clique of a graph on the vertices
    0..n-1, as an increasing tuple, found by one branch-and-bound search
    that uses a group of automorphisms at every node.

    ``row(v)`` gives ``(neigh, key)``: the bitmask of the neighbours of v,
    and a bitmask that the search ANDs over the chosen vertices (starting
    from all ones) and hands to ``orbit``.  ``orbit(v, key)`` gives the
    bitmask of the whole orbit of v under a group of automorphisms that
    fix every chosen vertex; the group it uses at a node must lie inside
    the one used at the node's parent.  It is asked only for a candidate
    v; when every row's neighbours lie inside its key, as in
    :class:`LazyRootGraph`, the candidates of a node lie inside its key,
    the only vertices that ``LazyRootGraph.orbit`` is defined for.
    ``limit`` bounds the clique number from above.  Rows and orbits are
    asked for only when needed: a row when the search branches on its
    vertex, an orbit when a branch returns without ending the search, so
    a greedy path that reaches ``limit`` computes no orbit at all.

    A node holds the chosen clique C and its candidates, the common
    neighbours of C still in play.  It branches on the least candidate v,
    which covers every clique through v.  Then:

    - if v is adjacent to every other candidate, any clique without v
      extends by v, so the node is closed;
    - otherwise v's orbit is dropped.  An automorphism fixing C maps a
      clique through an orbit-mate u of v to one through v of the same
      size, and it maps the candidate set to itself, because every set
      dropped above lies in orbits of a larger group.

    A branch is cut when the clique plus all candidates cannot beat the
    best clique so far, and the whole search ends once the best reaches
    ``limit``.  Branches go in ascending order and only a strictly larger
    clique replaces the best one, so the first maximum clique found is the
    lexicographically least: each rule above removes a vertex only after a
    branch on a smaller vertex that holds a clique as large as any through
    the removed one.
    """
    best: list[int] = []
    path: list[int] = []

    def expand(cand: int, key: int) -> bool:
        """Search below the current path; True once ``limit`` is reached."""
        if not cand:
            if len(path) > len(best):
                best[:] = path
            return len(best) == limit
        while cand and len(path) + cand.bit_count() > len(best):
            low = cand & -cand
            v = low.bit_length() - 1
            neigh, v_key = row(v)
            path.append(v)
            done = expand(cand & neigh, key & v_key)
            path.pop()
            if done:
                return True
            if cand & ~neigh == low:
                return False
            cand &= ~orbit(v, key)
        return False

    expand((1 << n) - 1, (1 << n) - 1)
    return tuple(best)


class LazyRootGraph:
    """The strong orthogonality graph of a root system, for
    :func:`orbit_clique_search`: rows built on demand and per-node Weyl
    orbits.

    Vertices are the antipodal pairs, indexed by ``reps`` (the
    lexicographically greater root of each pair, in ascending order).  For
    every coordinate and value there is a mask of the vertices that have
    that value at that coordinate.  The vertices orthogonal to v are those
    whose partial dot products with v over v's support end at 0: a map
    from partial sum to mask, folded one support coordinate at a time.  A
    vertex's row is built when the search first branches on it.  An
    orthogonal w is a neighbour of v unless v+w is a root (for orthogonal
    roots s_w(v+w) = v-w, so v+w is a root iff v-w is); since then
    |v+w|^2 = |v|^2 + |w|^2, v+w is looked up only for the w whose squared
    length plus v's is a root length.  The key of v is the mask of the
    vertices orthogonal to it, so the key of a node whose chosen set is C
    holds the positive roots of Phi' = Phi meet C-perp.

    The pointwise stabiliser of C in the Weyl group is W(Phi'), generated
    by the reflections it contains (Steinberg, Trans. AMS 112, 1964).  The
    Weyl group of an irreducible root system is transitive on the roots of
    each length (Humphreys, *Introduction to Lie Algebras and
    Representation Theory*, §10.4 Lemma C), and the reflections of one
    irreducible component of Phi' fix every other.  So the orbit of a v in
    Phi' is the set of roots of Phi' of v's length in v's component, the
    closure of v under non-orthogonality inside the key.  The stabiliser of
    a larger C lies inside that of a smaller one, as the search requires.
    """

    def __init__(self, phi: RootSystem):
        self.phi = phi
        self.reps = phi.positive_representatives()
        self._norms = [sum(map(mul, a, a)) for a in self.reps]
        self._lengths: dict[int, int] = {}  # squared length -> mask
        self._values: list[dict[int, int]] = [{} for _ in range(phi.ambient_dim)]
        for w, a in enumerate(self.reps):
            bit, norm = 1 << w, self._norms[w]
            self._lengths[norm] = self._lengths.get(norm, 0) | bit
            for i, c in enumerate(a):
                if c:
                    values = self._values[i]
                    values[c] = values.get(c, 0) | bit
        self._all = (1 << len(self.reps)) - 1
        for values in self._values:
            values[0] = self._all & ~sum(values.values())  # the masks are disjoint
        self._orth: dict[int, int] = {}
        self._neigh: dict[int, int] = {}

    def _orthogonal(self, v: int) -> int:
        """Mask of the vertices orthogonal to v."""
        if v not in self._orth:
            partial = {0: self._all}
            for i, x in enumerate(self.reps[v]):
                if x:
                    folded: dict[int, int] = {}
                    for s, mask in partial.items():
                        for c, column in self._values[i].items():
                            if hit := mask & column:
                                folded[s + x * c] = folded.get(s + x * c, 0) | hit
                    partial = folded
            self._orth[v] = partial.get(0, 0)
        return self._orth[v]

    def row(self, v: int) -> tuple[int, int]:
        """Masks of the vertices strongly orthogonal and orthogonal to v."""
        orth = self._orthogonal(v)
        if v not in self._neigh:
            a, norm, lengths = self.reps[v], self._norms[v], self._lengths
            ask = orth & sum(m for n, m in lengths.items() if norm + n in lengths)
            neigh = orth & ~ask
            while ask:
                low = ask & -ask
                ask ^= low
                b = self.reps[low.bit_length() - 1]
                if tuple(map(add, a, b)) not in self.phi:
                    neigh |= low
            self._neigh[v] = neigh
        return self._neigh[v], orth

    def orbit(self, v: int, key: int) -> int:
        """Mask of the orbit of vertex v under the Weyl group of the
        subsystem whose positive roots are the vertices of ``key``.  Only
        defined for v in ``key``, as every candidate of the search is."""
        component = todo = 1 << v
        while todo and component != key:
            low = todo & -todo
            todo ^= low
            grow = key & ~self._orthogonal(low.bit_length() - 1) & ~component
            component |= grow
            todo |= grow
        return component & self._lengths[self._norms[v]]


def sork_exact(phi: RootSystem) -> tuple[int, OrthCertificate]:
    """Exact strong orthogonal rank of ``phi`` with a canonical witnessing
    certificate, by :func:`orbit_clique_search`.  Every buildable rank is
    answered."""
    graph = LazyRootGraph(phi)
    # Strongly orthogonal roots are nonzero and pairwise orthogonal, hence
    # linearly independent: no clique exceeds the rank.
    clique = orbit_clique_search(len(graph.reps), graph.row, graph.orbit, phi.type.rank)
    return len(clique), OrthCertificate(phi.type, tuple(graph.reps[v] for v in clique))
