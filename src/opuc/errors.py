"""Error types shared across the library."""


class ZeroVerblunsky(ValueError):
    """A method whose weights or formulas divide by alpha_j met alpha_j = 0.

    Carries the offending index so callers (and the CLI exit-code
    contract) can report which coefficient broke the hypothesis.
    """

    def __init__(self, index):
        self.index = index
        super().__init__("alpha_%d = 0" % index)


class UnsupportedFamily(ValueError):
    """The requested closed form does not exist for this family/mode."""


class EnumerationCapExceeded(RuntimeError):
    """Exhaustive path enumeration would produce more paths than the cap."""


class PositivityViolation(AssertionError):
    """A moment failed the nonnegative-integer coefficient certificate.

    Reaching this indicates an implementation bug, not a math fact.
    """


class ExactDivisionError(ArithmeticError):
    """Symbolic division had a nonzero remainder (no exact quotient)."""
