"""Exception types shared across the package, and its input limits, which
the CLI reads without loading a layer."""

# Most digits an integer may be written with: a rank label, an integer
# literal of a group expression, an option value or a number in a certify
# document.  It lies below 640, the least limit PYTHONINTMAXSTRDIGITS may
# set on int() and str(), with headroom: every integer the package writes
# (p+q-1, 2n-1, 2r+1, a rank, a label) has at most one digit more than
# some input integer.  So plain int() and str() work under every setting,
# and no answer depends on it.
MAX_DIGITS = 600

# Largest rank that roots.build_root_system materialises.  Labels of any
# rank still parse, since closed formulas and table audits need no roots;
# above this cap construction is refused before a single root is built
# (B64 has 8192 roots, while A99999999 would never finish).
MAX_BUILD_RANK = 64


class SorklieError(Exception):
    """Base class for all errors raised by this package."""


class InvalidType(SorklieError, ValueError):
    """A root system label violates the rank bounds of its family."""


class CertificateError(SorklieError, ValueError):
    """A certificate document is malformed or oversized.  A document that
    parses but fails verification gives a ``CertCheck``, not this error."""


class InvalidRealForm(SorklieError, ValueError):
    """Parameters do not describe a simple real Lie algebra."""


class RuleNotApplicable(SorklieError, ValueError):
    """The hypotheses of an evaluation rule for the free subgroup rank fail."""


class ShapeError(SorklieError, ValueError):
    """A matrix size is below the least that a proof accepts."""


class ExprSyntaxError(SorklieError, ValueError):
    """A group expression failed to parse.  Carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
