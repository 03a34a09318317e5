"""Exception types shared across the package.

The CLI maps these to exit codes: ParseError -> 2, DomainError -> 3,
CapacityError -> 4.
"""


class ParseError(ValueError):
    """Malformed generator text.  ``position`` is the 0-based character
    offset of the offending token in the original input, when known."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class DomainError(ValueError):
    """Operation undefined for the given input (e.g. the Hilbert depth of the
    zero module, or a report for the zero/unit ideal)."""


class CapacityError(ValueError):
    """Input exceeds a documented size limit (the variable count N_MAX, or an
    enumeration or alpha-counting ceiling)."""
