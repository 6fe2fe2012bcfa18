"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point, exponent, or pair of arguments is outside an operation's domain."""


class PreconditionError(ValueError):
    """Inputs are well formed but violate a documented contract."""


class SizeLimitError(ValueError):
    """An input is past a size guard.

    The guards: the brute-force oracle enumerates at most n + m = 9 atoms
    (assignment.EXHAUSTIVE_LIMIT), and a diagram payload holds at most
    10,000 atoms counted with multiplicity (io.MAX_DIAGRAM_ATOMS).
    """
