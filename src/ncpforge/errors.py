"""Exception hierarchy for ncpforge.

Theorem-falsification errors (CatalanMismatch, MeetJoinMissing, ...) must
never fire on catalog groups; they exist so that a wrong construction fails
loudly instead of silently producing bad counts.
"""


class NcpForgeError(Exception):
    """Base class for all ncpforge errors."""


class ConfigError(NcpForgeError):
    """Invalid group spec or run configuration."""


class DivisionByZero(NcpForgeError, ZeroDivisionError):
    """Inversion of zero in a cyclotomic field."""


class FieldMismatch(NcpForgeError, ArithmeticError):
    """Exact arithmetic on operands of different cyclotomic fields or
    sizes, or a broken invariant of the field arithmetic."""


class OrderCapExceeded(NcpForgeError):
    """Group order above the configured cap."""


class CoxeterValidationFailed(NcpForgeError):
    """Catalog Coxeter element failed a post-check."""


class ElementNotInGroup(NcpForgeError):
    """Element index or matrix does not belong to the group."""


class CatalanMismatch(NcpForgeError):
    """|NCP| differs from the product formula."""


class MeetJoinMissing(NcpForgeError):
    """A pair of lattice members has no meet or join."""


class LedgerDisagreement(NcpForgeError):
    """The three independent fact_p computations disagree."""


class IndexOutOfRange(NcpForgeError):
    """Braid generator index outside the tuple."""


class OrbitCapExceeded(NcpForgeError):
    """Hurwitz orbit grew past the configured cap."""


class ClassificationMismatch(NcpForgeError):
    """Primitive orbit <-> conjugacy class bijection failed."""


class NonIntegralCount(NcpForgeError):
    """A closed-form count evaluated to a non-integer."""


class NonIntegralDegree(NcpForgeError):
    """Derived stratum degree is not a positive integer."""


class TableMismatch(NcpForgeError):
    """Computed (r, u) multiset differs from the reference table row."""


class NotADivisor(NcpForgeError):
    """Element is not a divisor of the Coxeter element."""
