import json
import random

import oracle_utils
import pytest
from oracle_utils import (
    a1n_subsystem,
    induced_subgraph,
    is_closed_subsystem,
    is_strongly_orthogonal,
    lex_min_max_clique,
    max_clique_bruteforce,
    max_clique_size,
    neg,
    strong_orthogonality_graph,
)

from sorklie import (
    CertificateError,
    InvalidType,
    OrthCertificate,
    RootSystemType,
    all_types,
    build_root_system,
    canonical_certificate,
    sork_exact,
    sork_formula,
    verify_certificate,
)
from sorklie.errors import MAX_BUILD_RANK
from sorklie.sork import LazyRootGraph, orbit_clique_search


def _phi(label):
    return build_root_system(RootSystemType.parse(label))


EXPECTED = {
    "A1": 1, "A2": 1, "A3": 2, "A4": 2, "A5": 3,
    "B2": 2, "B3": 3, "C2": 2, "C3": 3,
    "D2": 2, "D3": 2, "D4": 4, "D5": 4, "D6": 6,
    "E6": 4, "E7": 7, "E8": 8, "F4": 4, "G2": 2,
}


class TestFormula:
    @pytest.mark.parametrize("label,expected", sorted(EXPECTED.items()))
    def test_known_values(self, label, expected):
        assert sork_formula(RootSystemType.parse(label)) == expected

    def test_d_family_parity(self):
        for r in range(2, 20):
            v = sork_formula(RootSystemType("D", r))
            assert v == (r if r % 2 == 0 else r - 1)


class TestExactSearch:
    @pytest.mark.parametrize("t", list(all_types(8)), ids=str)
    def test_matches_formula(self, t):
        cert = sork_exact(build_root_system(t))
        assert len(cert.roots) == sork_formula(t)

    @pytest.mark.parametrize("t", list(all_types(8)), ids=str)
    def test_certificates_verify(self, t):
        phi = build_root_system(t)
        assert verify_certificate(sork_exact(phi))

    def test_deterministic_certificate(self):
        phi = _phi("F4")
        assert sork_exact(phi) == sork_exact(phi)

    def test_certificate_is_lex_min(self):
        # recompute the canonical clique independently for a small case
        phi = _phi("B3")
        reps, neigh = strong_orthogonality_graph(phi)
        size, clique = lex_min_max_clique(neigh)
        best = None
        n = len(reps)
        import itertools
        for subset in itertools.combinations(range(n), size):
            if all(neigh[a] >> b & 1 for a, b in itertools.combinations(subset, 2)):
                if best is None or subset < best:
                    best = subset
        assert clique == best

    def test_json_round_trip(self):
        cert = sork_exact(_phi("E6"))
        doc = json.loads(json.dumps(cert.to_json_dict()))
        again = OrthCertificate.from_json_dict(doc)
        assert again == cert
        assert verify_certificate(again)


class TestA1nSubsystem:
    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "F4", "G2", "E6"])
    def test_closed_and_negation_closed(self, label):
        phi = _phi(label)
        cert = sork_exact(phi)
        sub = a1n_subsystem(cert)
        assert len(sub) == 2 * len(cert.roots)
        assert all(neg(r) in sub for r in sub)
        assert is_closed_subsystem(sub, phi)

    def test_invalid_certificate_raises(self):
        phi = _phi("B2")
        bad = OrthCertificate(phi.type, ((0, 2), (2, 0)))
        with pytest.raises(CertificateError):
            a1n_subsystem(bad)


class TestCliqueSolver:
    def test_empty_graph(self):
        assert max_clique_size([]) == 0

    def test_single_vertex(self):
        assert max_clique_size([0]) == 1

    def test_triangle_plus_isolated(self):
        neigh = [0b0110, 0b0101, 0b0011, 0b0000]
        assert max_clique_size(neigh) == 3
        size, clique = lex_min_max_clique(neigh)
        assert (size, clique) == (3, (0, 1, 2))

    def test_monotone_under_vertex_removal(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 12)
            neigh = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        neigh[i] |= 1 << j
                        neigh[j] |= 1 << i
            full = max_clique_size(neigh)
            drop = rng.randrange(n)
            sub = induced_subgraph(neigh, [v for v in range(n) if v != drop])
            assert max_clique_size(sub) <= full <= max_clique_size(sub) + 1

    def test_against_bruteforce_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 14)
            neigh = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < rng.choice((0.2, 0.5, 0.8)):
                        neigh[i] |= 1 << j
                        neigh[j] |= 1 << i
            assert max_clique_size(neigh) == max_clique_bruteforce(neigh)

    def test_orbit_search_with_trivial_group(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 14)
            neigh = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < rng.choice((0.2, 0.5, 0.8)):
                        neigh[i] |= 1 << j
                        neigh[j] |= 1 << i
            clique = orbit_clique_search(n, lambda v: (neigh[v], 0),
                                         lambda v, key: 1 << v, n)
            assert len(clique) == max_clique_bruteforce(neigh)
            assert (len(clique), clique) == lex_min_max_clique(neigh)

    def test_given_size_too_large_raises(self, monkeypatch):
        # A clique number one too large, as a faulty full search would
        # report it, makes the extraction fall short and raise.
        neigh = [0b0110, 0b0101, 0b0011, 0b0000]
        assert lex_min_max_clique(neigh) == (3, (0, 1, 2))
        real = oracle_utils.max_clique_size

        def one_too_many(neigh, cand=None, stop_at=None):
            found = real(neigh, cand, stop_at)
            return found + 1 if stop_at is None else found

        monkeypatch.setattr(oracle_utils, "max_clique_size", one_too_many)
        with pytest.raises(AssertionError, match="search bug"):
            lex_min_max_clique(neigh)

    def test_stop_at_short_circuit(self):
        # complete graph on 10 vertices
        n = 10
        full = (1 << n) - 1
        neigh = [full & ~(1 << i) for i in range(n)]
        assert max_clique_size(neigh) == n
        assert max_clique_size(neigh, stop_at=3) >= 3


class TestGraph:
    def test_antipodal_vertex_count(self):
        for label in ("A3", "B3", "G2", "F4"):
            phi = _phi(label)
            reps, neigh = strong_orthogonality_graph(phi)
            assert len(reps) == len(phi.roots) // 2
            assert len(neigh) == len(reps)

    def test_adjacency_symmetric(self):
        _, neigh = strong_orthogonality_graph(_phi("B3"))
        n = len(neigh)
        for i in range(n):
            assert not neigh[i] >> i & 1
            for j in range(n):
                assert (neigh[i] >> j & 1) == (neigh[j] >> i & 1)

    @pytest.mark.parametrize("t", list(all_types(8)), ids=str)
    def test_matches_pairwise_predicate(self, t):
        phi = build_root_system(t)
        reps, neigh = strong_orthogonality_graph(phi)
        n = len(reps)
        ref = [0] * n
        for i in range(n):
            for j in range(n):
                if i != j and is_strongly_orthogonal(reps[i], reps[j], phi):
                    ref[i] |= 1 << j
        assert neigh == ref


class TestLazyRows:
    @pytest.mark.parametrize(
        "t", list(all_types(8)) + [RootSystemType(fam, 16) for fam in "BCD"], ids=str)
    def test_rows_match_full_graph(self, t):
        phi = build_root_system(t)
        reps, neigh = strong_orthogonality_graph(phi)
        graph = LazyRootGraph(phi)
        assert graph.reps == reps
        for v, a in enumerate(reps):
            orth = sum(1 << w for w, b in enumerate(reps)
                       if sum(p * q for p, q in zip(a, b)) == 0)
            assert graph.row(v) == (neigh[v], orth)


ORBIT_COUNTS = {"A": 1, "B": 2, "C": 2, "D": 1, "E": 1, "F": 2, "G": 2}


def _node_orbits(graph, key):
    """The orbits that the per-node orbit step finds for the vertices of
    ``key``, the only ones it is defined for."""
    orbits, left = [], key
    while left:
        orbit = graph.orbit((left & -left).bit_length() - 1, key)
        orbits.append(orbit)
        left &= ~orbit
    return orbits


def _reflection_orbit(reps, start, mirrors):
    """Orbit of reps[start] under the reflections in every root of
    ``mirrors``, closed by the plain formula on antipodal pairs."""
    index = {r: i for i, r in enumerate(reps)}
    seen, queue = {start}, [start]
    for u in queue:
        x = reps[u]
        for a in mirrors:
            k = 2 * sum(p * q for p, q in zip(x, a)) // sum(p * p for p in a)
            y = tuple(p - k * q for p, q in zip(x, a))
            w = index[max(y, tuple(-p for p in y))]
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return sum(1 << w for w in seen)


def _check_node_orbits(graph, chosen, key, cand, checked):
    """At the node with the chosen vertices ``chosen``: the key holds the
    vertices orthogonal to them, every orbit of the key is its orbit under
    the reflections in every root of the key, and the candidates are a
    union of orbits.  ``checked`` holds the (key, vertex) pairs already
    compared with the reflection oracle."""
    reps = graph.reps
    mirrors = [r for r in reps
               if all(sum(p * q for p, q in zip(r, reps[c])) == 0 for c in chosen)]
    assert key == sum(1 << reps.index(m) for m in mirrors)
    for orbit in _node_orbits(graph, key):
        v = (orbit & -orbit).bit_length() - 1
        if (key, v) not in checked:
            assert orbit == _reflection_orbit(reps, v, mirrors)
            checked.add((key, v))
        assert orbit & cand in (0, orbit)


class TestWeylOrbits:
    """The per-node orbit step of the search, ``LazyRootGraph.orbit``."""

    @pytest.mark.parametrize("t", list(all_types(8)), ids=str)
    def test_orbits_partition_vertices(self, t):
        graph = LazyRootGraph(build_root_system(t))
        full = (1 << len(graph.reps)) - 1
        orbits = _node_orbits(graph, full)
        assert sum(orbits) == full  # disjoint and covering
        expected = 2 if t.is_reducible else ORBIT_COUNTS[t.family]
        assert len(orbits) == expected

    def test_d2_orbits_have_equal_length(self):
        graph = LazyRootGraph(_phi("D2"))
        assert _node_orbits(graph, 0b11) == [0b01, 0b10]
        assert len({sum(c * c for c in r) for r in graph.reps}) == 1

    @pytest.mark.parametrize("t", list(all_types(7)), ids=str)
    def test_node_orbits_match_all_orthogonal_reflections(self, t):
        # at the nodes along the canonical clique, the orbits of the key are
        # those that all reflections of the orthogonal subsystem give, and
        # the candidates are a union of orbits
        graph = LazyRootGraph(build_root_system(t))
        reps = graph.reps
        chosen = [reps.index(r) for r in canonical_certificate(t).roots]
        key = cand = (1 << len(reps)) - 1
        for depth in range(min(3, len(chosen)) + 1):
            _check_node_orbits(graph, chosen[:depth], key, cand, set())
            if depth < len(chosen):
                neigh, orth = graph.row(chosen[depth])
                key &= orth
                cand &= neigh

    @pytest.mark.parametrize("t", list(all_types(8)), ids=str)
    def test_orbits_along_random_chains(self, t):
        # the same at every node of random strongly orthogonal chains
        graph = LazyRootGraph(build_root_system(t))
        rng = random.Random(f"chains {t}")
        checked = set()
        for _ in range(30):
            chosen, key = [], (1 << len(graph.reps)) - 1
            cand = key
            while True:
                _check_node_orbits(graph, chosen, key, cand, checked)
                if not cand:
                    break
                v = rng.choice([w for w in range(len(graph.reps)) if cand >> w & 1])
                chosen.append(v)
                neigh, orth = graph.row(v)
                key &= orth
                cand &= neigh


class TestOrbitSearchAgainstFullGraph:
    @pytest.mark.parametrize("t", list(all_types(11)), ids=str)
    def test_same_size_and_certificate(self, t):
        phi = build_root_system(t)
        reps, neigh = strong_orthogonality_graph(phi)
        _, clique = lex_min_max_clique(neigh)
        assert sork_exact(phi).roots == tuple(reps[v] for v in clique)

    @pytest.mark.parametrize("label", ["B13", "D13", "D14"])
    def test_beyond_rank_12_matches_formula(self, label):
        phi = _phi(label)
        cert = sork_exact(phi)
        assert len(cert.roots) == sork_formula(phi.type)
        assert verify_certificate(cert)


class TestCanonicalCertificate:
    # E, F and G are left to test_exceptional_equals_full_graph_oracle:
    # their certificate is the exact search's own result
    @pytest.mark.parametrize("t", [t for t in all_types(MAX_BUILD_RANK)
                                   if t.family in "ABCD"], ids=str)
    def test_equals_exact_search(self, t):
        assert canonical_certificate(t) == sork_exact(build_root_system(t))

    @pytest.mark.parametrize("t", list(all_types(MAX_BUILD_RANK)), ids=str)
    def test_verifies_with_formula_length(self, t):
        cert = canonical_certificate(t)
        assert verify_certificate(cert)
        assert len(cert.roots) == sork_formula(t)

    @pytest.mark.parametrize("label", ["E6", "E7", "E8", "F4", "G2"])
    def test_exceptional_equals_full_graph_oracle(self, label):
        # the exact search makes these certificates: compare with a solver
        # that shares no code with orbit_clique_search, and with the
        # literature's ranks
        phi = _phi(label)
        reps, neigh = strong_orthogonality_graph(phi)
        size, clique = lex_min_max_clique(neigh)
        assert canonical_certificate(phi.type).roots == tuple(reps[v] for v in clique)
        assert size == EXPECTED[label]

    def test_rank_above_cap_refused(self):
        for label in ("A65", "B65", "D99999999"):
            with pytest.raises(InvalidType):
                canonical_certificate(RootSystemType.parse(label))
