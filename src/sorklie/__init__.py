"""Free subgroup rank of Lie groups via strong orthogonal rank.

Exact-arithmetic root systems, a certificate-producing maximum clique search
for the strong orthogonal rank, subalgebra table audits, real form
classification data, and a small group-expression calculus, all behind one
CLI (``sorklie``).

``import sorklie`` loads no submodule: each public name below is resolved
on first use (PEP 562), so a process imports only the layers it touches.
It imports a submodule with the builtin ``__import__``, whose non-empty
``fromlist`` makes it return the submodule itself: ``importlib`` would
load ``warnings`` and more into every process that imports the package.
"""

# Public name -> submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "CertCheck", "OrthCertificate", "verify_certificate",
    ), "check"),
    **dict.fromkeys((
        "CertificateError", "ExprSyntaxError",
        "InvalidRealForm", "InvalidType",
        "RuleNotApplicable", "ShapeError", "SorklieError",
    ), "errors"),
    **dict.fromkeys((
        "DirectProduct", "Extension", "FiniteAtom", "FiniteIndex",
        "FreeProduct", "GroupExpr", "SimpleLie", "SolvableAtom", "nu_eval",
        "nu_upper_bound", "parse_group_expr", "pretty",
    ), "groups"),
    **dict.fromkeys((
        "bracket_split_basis_proof", "trivial_intersection_check",
    ), "matrixcheck"),
    **dict.fromkeys((
        "NuCase", "NuResult", "RealFormDescriptor", "compact_form",
        "complex_simple", "complexification_type", "exceptional_form",
        "is_sopq_exception", "nu_simple", "sl_H", "sl_R",
        "so", "so_star", "sp", "sp_R", "split_form", "su",
    ), "realforms"),
    **dict.fromkeys((
        "RootSystem", "RootSystemType", "all_types", "build_root_system",
    ), "roots"),
    **dict.fromkeys((
        "canonical_certificate", "sork_exact", "sork_formula",
    ), "sork"),
    **dict.fromkeys((
        "AuditReport", "table1_audit", "table2_audit", "table3_audit",
    ), "tables"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return __import__(f"{__name__}.{name}", fromlist=["*"])
    if name in _EXPORTS:
        value = getattr(__getattr__(_EXPORTS[name]), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
