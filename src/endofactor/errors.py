"""Typed errors shared across the package.

The exit-code mapping used by the CLI: ParseError -> 3, arithmetic errors
(ArithmeticFailure and its subclasses) -> 2, validation or matching
failures -> 1.
"""


class EndofactorError(Exception):
    """Base class for all package errors."""


# --- arithmetic-layer errors (exit code 2) ---

class ArithmeticFailure(EndofactorError):
    """Base for errors raised while computing, as opposed to validating."""


class ZeroValuation(ArithmeticFailure):
    """Valuation requested for a value indistinguishable from zero."""


class DivisionByZero(ArithmeticFailure):
    """A denominator that regularity should have kept invertible vanished."""


class DepthTooSmall(ArithmeticFailure):
    """Oracle search depth below the bound that makes lifting sound."""


class PoleAtMinusOne(ArithmeticFailure):
    """Cayley transform evaluated where 1 + y is not invertible."""


class PoleAtOne(ArithmeticFailure):
    """Inverse Cayley transform evaluated where 1 - X is not invertible."""


class NotInFixedField(ArithmeticFailure):
    """A value that must be fixed by the involution has a nonzero odd part."""


# --- validation-layer errors (exit code 1) ---

class ValidationFailure(EndofactorError):
    """An input failed the structural checks required by an operation."""


class NotEisenstein(ValidationFailure):
    """Defining polynomial is not Eisenstein over the unramified step."""


class DyadicRamifiedUnsupported(ValidationFailure):
    """Proper extensions with residue characteristic 2 are out of scope."""


class NonSymmetric(ValidationFailure):
    """A quadratic Gram matrix was requested from non-symmetric data."""


class Degenerate(ValidationFailure):
    """A form that must be nondegenerate is singular."""


class IndexMismatch(ValidationFailure):
    """Two parameter packs do not share index set / towers / algebras."""


class MatchFailure(ValidationFailure):
    """The stable-conjugacy matching relation does not hold."""


class UnsupportedCase(ValidationFailure):
    """Operation undefined for this group case or base field."""


# --- input-layer errors (exit code 3) ---

class ParseError(EndofactorError):
    """Malformed document or element literal.

    ``where`` is a human-readable position (JSON path and/or line:column).
    """

    def __init__(self, message, where=None):
        self.where = where
        super().__init__(message if where is None else f"{where}: {message}")
