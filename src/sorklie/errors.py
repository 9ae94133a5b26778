"""Exception types shared across the package, and its one reader of
decimal integers, which the CLI reaches without loading a layer."""

# Most digits an integer may be written with: a rank label, an integer
# literal of a group expression, an option value or a number in a certify
# document.  It is Python's default limit for int(), and it bounds the
# time read_int takes, quadratic in the digits.
MAX_DIGITS = 4300

# The least limit that PYTHONINTMAXSTRDIGITS may set on int().
_INT_CHUNK = 640


def read_int(text: str) -> int:
    """The value of ``text``, ``-?[0-9]+`` in ASCII digits, which the caller
    has checked.  It is read ``_INT_CHUNK`` digits at a time, which int()
    converts under any limit, so that no value depends on the limit."""
    digits = text.removeprefix("-")
    value = 0
    for i in range(0, len(digits), _INT_CHUNK):
        chunk = digits[i:i + _INT_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


class SorklieError(Exception):
    """Base class for all errors raised by this package."""


class InvalidType(SorklieError, ValueError):
    """A root system label violates the rank bounds of its family."""


class CertificateError(SorklieError, ValueError):
    """A strongly orthogonal certificate failed verification."""


class InvalidRealForm(SorklieError, ValueError):
    """Parameters do not describe a simple real Lie algebra."""


class RuleNotApplicable(SorklieError, ValueError):
    """The hypotheses of an evaluation rule for the free subgroup rank fail."""


class ShapeError(SorklieError, ValueError):
    """Matrix shapes are inconsistent with the requested operation."""


class ExprSyntaxError(SorklieError, ValueError):
    """A group expression failed to parse.  Carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
