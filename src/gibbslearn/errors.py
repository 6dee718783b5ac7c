"""Exception hierarchy shared across the package."""


class GibbsLearnError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(GibbsLearnError):
    """Operands act on different numbers of sites."""


class DenseLimitExceeded(GibbsLearnError):
    """A dense 2^n x 2^n object was requested above the configured site limit."""


class IncompleteData(GibbsLearnError):
    """An expectation table is missing a required Pauli string."""

    def __init__(self, pauli_text):
        self.pauli_text = pauli_text
        super().__init__(f"expectation table has no entry for '{pauli_text}'")


class BadTable(GibbsLearnError, ValueError):
    """A table file that does not parse or breaks a rule of ``ExpectationTable``."""


class GramDegenerate(GibbsLearnError):
    """The Gram matrix of the perturbing operators is numerically singular.

    Carries the offending eigenvalues (everything at or below the floor).
    """

    def __init__(self, eigenvalues, floor):
        self.eigenvalues = list(eigenvalues)
        self.floor = floor
        super().__init__(
            f"Gram matrix has {len(self.eigenvalues)} eigenvalue(s) <= floor "
            f"{floor:.3e}: {self.eigenvalues}"
        )


class DeltaNotPositive(GibbsLearnError):
    """The compressed modular matrix is not positive definite.

    On a self-adjoint string basis the modular matrix is a *-congruence of
    the conjugated Gram matrix, so noise that destroys its positivity
    surfaces first as ``GramDegenerate``.  With the default floors this
    error is reachable only through a direct ``log_psd`` call; the
    offending eigenvalues are attached.
    """

    def __init__(self, eigenvalues, floor):
        self.eigenvalues = list(eigenvalues)
        self.floor = floor
        super().__init__(
            f"modular matrix has {len(self.eigenvalues)} eigenvalue(s) <= floor "
            f"{floor:.3e}: {self.eigenvalues}"
        )


class NormalizationDegenerate(GibbsLearnError):
    """All candidate kernel directions have vanishing expectation value.

    The normalization hyperplane of the optimization is empty.  A library
    caller can pin the temperature instead, with
    ``ReconstructOptions(sdp=SdpOptions(fixed_temperature=T))``.
    """


class SolverFailure(GibbsLearnError):
    """The conic solver did not return a certified optimum."""


class ConfigError(GibbsLearnError):
    """Invalid experiment configuration."""
