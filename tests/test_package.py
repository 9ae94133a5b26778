import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sorklie

# The public names of the package, each with the submodule that defines it.
EXPORTS = {
    "check": ["CertCheck", "OrthCertificate", "verify_certificate"],
    "errors": [
        "CertificateError", "ExprSyntaxError",
        "InvalidRealForm", "InvalidType",
        "RuleNotApplicable", "ShapeError", "SorklieError",
    ],
    "groups": [
        "DirectProduct", "Extension", "FiniteAtom", "FiniteIndex",
        "FreeProduct", "GroupExpr", "SimpleLie", "SolvableAtom", "nu_eval",
        "nu_upper_bound", "parse_group_expr", "pretty",
    ],
    "matrixcheck": [
        "bracket_split_basis_proof", "trivial_intersection_check",
    ],
    "realforms": [
        "NuCase", "NuResult", "RealFormDescriptor", "compact_form",
        "complex_simple", "complexification_type", "exceptional_form",
        "is_sopq_exception", "nu_simple", "sl_H", "sl_R",
        "so", "so_star", "sp", "sp_R", "split_form", "su",
    ],
    "roots": [
        "RootSystem", "RootSystemType", "all_types", "build_root_system",
    ],
    "sork": ["canonical_certificate", "sork_exact", "sork_formula"],
    "tables": ["AuditReport", "table1_audit", "table2_audit", "table3_audit"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
PAIRS = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_the_public_names():
    assert len(NAMES) == 52
    assert sorted(sorklie.__all__) == NAMES


@pytest.mark.parametrize("module,name", PAIRS, ids=[n for _, n in PAIRS])
def test_name_is_the_submodule_attribute(module, name):
    submodule = importlib.import_module(f"sorklie.{module}")
    assert getattr(sorklie, name) is getattr(submodule, name)


def test_dir_lists_every_name():
    listed = dir(sorklie)
    assert set(NAMES) <= set(listed)
    assert set(EXPORTS) <= set(listed)
    assert "__version__" in listed


def test_star_import_binds_every_name():
    namespace = {}
    exec("from sorklie import *", namespace)
    assert set(NAMES) <= set(namespace)
    for name in NAMES:
        assert namespace[name] is getattr(sorklie, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        sorklie.no_such_name
    with pytest.raises(ImportError):
        exec("from sorklie import no_such_name", {})


def test_submodules_import_from_the_package():
    from sorklie import realforms, sork
    assert realforms is importlib.import_module("sorklie.realforms")
    assert sork is importlib.import_module("sorklie.sork")


def test_submodules_load_on_first_use():
    code = ("import sys\n"
            "def loaded():\n"
            "    print(sorted(m for m in sys.modules if m.startswith('sorklie.')))\n"
            "import sorklie\n"
            "loaded()\n"
            "sorklie.trivial_intersection_check\n"
            "loaded()\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", str(["sorklie.errors", "sorklie.matrixcheck"])]


REPO = Path(__file__).parents[1]


def _names_read(node: ast.AST) -> set[str]:
    """The names the code of ``node`` reads: bare names, attribute names and
    imported names."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) or n.name
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def test_every_top_level_definition_is_read_outside_the_tests():
    # A function or class of the package is read by other code of the
    # package (its own body does not count), is public, or is named by the
    # CI workflow or the benchmark, which drive the package from outside.
    # What only the tests read belongs in tests/oracle_utils.py.
    statements = [stmt for path in sorted((REPO / "src" / "sorklie").glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [(stmt, _names_read(stmt)) for stmt in statements]
    outside = "\n".join(path.read_text(encoding="utf-8") for path in
                        [REPO / ".github" / "workflows" / "tests.yml",
                         *sorted((REPO / "bench").glob("*.py"))])
    unread = [stmt.name for stmt in statements
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("__")  # read by Python itself
              and not any(stmt.name in names for other, names in reads if other is not stmt)
              and stmt.name not in sorklie.__all__
              and not re.search(rf"\b{stmt.name}\b", outside)]
    assert unread == []
