"""Free subgroup rank of Lie groups via strong orthogonal rank.

Exact-arithmetic root systems, a certificate-producing maximum clique search
for the strong orthogonal rank, subalgebra table audits, real form
classification data, and a small group-expression calculus, all behind one
CLI (``sorklie``).
"""

from .errors import (
    CertificateError,
    DimensionError,
    ExprSyntaxError,
    InvalidRealForm,
    InvalidType,
    MembershipError,
    RuleNotApplicable,
    ShapeError,
    SorklieError,
)
from .groups import (
    DirectProduct,
    Extension,
    FiniteAtom,
    FiniteIndex,
    FreeProduct,
    GroupExpr,
    SimpleLie,
    SolvableAtom,
    nu_eval,
    nu_upper_bound,
    parse_group_expr,
    pretty,
)
from .matrixcheck import bracket_split_check, kronecker_sum, trivial_intersection_check
from .realforms import (
    NuCase,
    NuResult,
    RealFormDescriptor,
    compact_form,
    complex_simple,
    complexification_type,
    exceptional_form,
    is_sopq_exception,
    nu_one_catalog,
    nu_simple,
    sl_H,
    sl_R,
    so,
    so_star,
    sp,
    sp_R,
    split_form,
    su,
)
from .roots import (
    Root,
    RootSystem,
    RootSystemType,
    a1n_subsystem,
    all_types,
    build_root_system,
    inner_product,
    is_closed_subsystem,
    is_strongly_orthogonal,
)
from .sork import (
    CertCheck,
    OrthCertificate,
    canonical_certificate,
    sork_exact,
    sork_formula,
    verify_certificate,
)
from .tables import AuditReport, table1_audit, table2_audit, table3_audit

__version__ = "0.1.0"
