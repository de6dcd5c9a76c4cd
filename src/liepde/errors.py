"""Exception types shared across the package."""


class LiepdeError(Exception):
    """Base class for all package errors."""


class DegenerateInputError(LiepdeError):
    """Division by an expression that is identically zero."""


class UnsupportedDivisionError(LiepdeError):
    """Division by anything other than a nonzero monomial."""


class ExpansionLimitError(LiepdeError):
    """A power of a sum over its budget: written in a system file, one that
    could expand past `parser.POWER_TERMS` terms; formed by a stage, one
    whose terms times exponent pass `expr.POWER_COST`."""


class UnsupportedCompositionError(LiepdeError):
    """Chain-rule derivative of a function with composite arguments."""


class NonPolynomialError(LiepdeError):
    """Expression is not polynomial in the requested variables."""


class OrderLimitError(LiepdeError):
    """A jet coordinate beyond the configured derivative order was requested."""


class IllPosedSystemError(LiepdeError):
    """Solved form of a PDE system does not terminate under reduction."""


class UnsupportedGeneratorError(LiepdeError):
    """Generator is neither a pure translation nor a pure scaling."""


class UnsupportedSpectrumError(LiepdeError):
    """Matrix has eigenvalues outside the rationals."""


class NormalFormError(LiepdeError):
    """Adjoint-orbit normalization did not reach a fixpoint within its bound,
    or could not decide a component's power-free part exactly."""


class InternalCheckError(LiepdeError):
    """A computed result failed the package's own re-check of it."""


class NotASubalgebraError(LiepdeError):
    """A set of vector fields does not close under the Lie bracket."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class ParseError(LiepdeError):
    """Syntax or semantic error in a system-definition document."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class PipelineError(LiepdeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
