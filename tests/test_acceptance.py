"""Acceptance gate: one test per criterion, one printed PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import random
import time

import pytest
from oracle_utils import (
    a1n_subsystem,
    failures,
    is_closed_subsystem,
    max_clique_bruteforce,
    max_clique_size,
    neg,
    nu_one_catalog,
)

from sorklie import (
    DirectProduct,
    Extension,
    FiniteAtom,
    FiniteIndex,
    FreeProduct,
    OrthCertificate,
    RootSystemType,
    RuleNotApplicable,
    SimpleLie,
    SolvableAtom,
    all_types,
    bracket_split_basis_proof,
    build_root_system,
    nu_eval,
    nu_upper_bound,
    parse_group_expr,
    sl_R,
    sork_exact,
    sork_formula,
    su,
    table1_audit,
    table2_audit,
    table3_audit,
    trivial_intersection_check,
    verify_certificate,
)
from sorklie.matrixcheck import _kronecker_sum, _split_holds
from sorklie.sork import orbit_clique_search

ALL_TYPES = list(all_types(12))


def _report(name):
    print(f"\n[ACCEPT] PASS {name}")


def test_criterion_1_exact_search_matches_formula_under_time_budget():
    start = time.monotonic()
    for t in ALL_TYPES:
        n, cert = sork_exact(build_root_system(t))
        assert n == sork_formula(t), f"mismatch for {t}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"exact search took {elapsed:.2f}s (budget 10s)"
    _report(f"criterion 1: sork_exact == sork_formula for {len(ALL_TYPES)} "
            f"types of rank <= 12 in {elapsed:.2f}s")


def test_criterion_2_lorentz_series():
    for n in range(2, 13):
        got = nu_eval(parse_group_expr(f"so({n},1)"))
        assert got == n // 2, f"so({n},1): {got} != {n // 2}"
    _report("criterion 2: nu(so(n,1)) = floor(n/2) for n = 2..12")


def test_criterion_3_nu_one_catalog():
    got = sorted(str(d) for d in nu_one_catalog())
    expected = sorted([
        "su(2)", "su(3)", "complex(A1)", "complex(A2)",
        "sl(2,R)", "sl(3,R)", "su(2,1)",
    ])
    assert got == expected, got
    _report("criterion 3: the rank-one catalog is exactly the seven "
            "expected algebras")


def test_criterion_4_sopq_exception_values():
    for expr in ("so(3,5)", "so(7,1)"):
        assert nu_eval(parse_group_expr(expr)) == 3
    assert sork_formula(RootSystemType.parse("D4")) == 4
    _report("criterion 4: nu(so(3,5)) = nu(so(7,1)) = 3 = sork(D4) - 1")


def test_criterion_5_table_audits():
    for name, report in (("table1", table1_audit()),
                         ("table2", table2_audit(rank_cap=24)),
                         ("table3", table3_audit(rank_cap=24))):
        assert report.ok, f"{name}: {[e.row_id for e in failures(report)]}"
    _report("criterion 5: tables 1-3 audits pass with zero failures "
            "(rank cap 24)")


def test_criterion_6_certificates_verify_and_generate_a1n():
    rng = random.Random(2024)
    checked = 0
    for t in ALL_TYPES:
        phi = build_root_system(t)
        n, cert = sork_exact(phi)
        assert verify_certificate(cert)
        sub = a1n_subsystem(cert)
        assert len(sub) == 2 * n
        assert all(neg(r) in sub for r in sub)
        assert is_closed_subsystem(sub, phi)
    for _ in range(100):
        t = rng.choice(ALL_TYPES)
        phi = build_root_system(t)
        _, cert = sork_exact(phi)
        k = rng.randint(0, len(cert.roots))
        picked = sorted(rng.sample(cert.roots, k))
        assert verify_certificate(OrthCertificate(t, tuple(picked)))
        checked += 1
    _report(f"criterion 6: all canonical certificates verify, span closed "
            f"(A1)^n subsystems, and {checked} random sub-certificates "
            f"re-verify")


def test_criterion_7_clique_solver_vs_bruteforce():
    rng = random.Random(404)
    for trial in range(50):
        n = rng.randint(1, 16)
        p = rng.choice((0.15, 0.35, 0.55, 0.75, 0.95))
        neigh = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    neigh[i] |= 1 << j
                    neigh[j] |= 1 << i
        fast = max_clique_size(neigh)
        slow = max_clique_bruteforce(neigh)
        assert fast == slow, f"trial {trial}: solver {fast} != oracle {slow}"
        shipped = len(orbit_clique_search(n, lambda v: (neigh[v], 0),
                                          lambda v, key: 1 << v, n))
        assert shipped == slow, f"trial {trial}: search {shipped} != oracle {slow}"
    _report("criterion 7: the full-graph solver and the shipped orbit search "
            "agree with the brute-force oracle on 50 random graphs "
            "(<= 16 vertices)")


def test_criterion_8_kronecker_bracket_identity():
    rng = random.Random(99)
    for _ in range(200):
        s, t = rng.randint(2, 4), rng.randint(2, 4)

        def m(n):
            return {(i, j): x for i in range(n) for j in range(n)
                    if (x := rng.randint(-9, 9))}

        g, gp, k, kp = m(s), m(s), m(t), m(t)
        assert _split_holds((g, k, _kronecker_sum(g, k, s, t)),
                            (gp, kp, _kronecker_sum(gp, kp, s, t)), s, t)
    sizes = range(2, 5)
    assert all(bracket_split_basis_proof(s, t) for s in sizes for t in sizes)
    assert all(trivial_intersection_check(s, t) for s in sizes for t in sizes)
    _report("criterion 8: bracket identity holds on 200 random integer "
            "quadruples and is proved by bilinearity for every 2 <= s, t <= 4, "
            "and the embeddings of sl_s and sl_t meet trivially for each")


def test_criterion_9_nu_calculus():
    su2 = SimpleLie(su(2, 0))
    sl2r = SimpleLie(sl_R(2))
    for k in range(6):
        for m in range(6):
            if k + m == 0:
                continue
            e = DirectProduct((su2,) * k + (sl2r,) * m) if k + m > 1 else \
                (su2 if k else sl2r)
            assert nu_eval(e) == k + m
    assert nu_eval(FreeProduct((SolvableAtom("Z"), SolvableAtom("Z")))) == 1
    with pytest.raises(RuleNotApplicable):
        nu_eval(FreeProduct((FiniteAtom(2), FiniteAtom(2))))
    assert nu_eval(FiniteIndex(parse_group_expr("so(7,1)"))) == 3
    split_ext = Extension(SolvableAtom("R^3"), sl2r, "split")
    central_ext = Extension(SolvableAtom("Z"), sl2r, "central")
    general_ext = Extension(SolvableAtom("solvable"), sl2r, "general")
    assert nu_eval(split_ext) == nu_eval(central_ext) == 1
    with pytest.raises(RuleNotApplicable):
        nu_eval(general_ext)
    assert nu_upper_bound(general_ext) == 1
    _report("criterion 9: the reduction calculus (products, free products, "
            "extensions, finite index) evaluates as specified")
