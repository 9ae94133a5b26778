"""Exception types shared across the package."""


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
