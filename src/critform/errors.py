"""Exception types shared across the package."""


class CritformError(Exception):
    """Base class for all package-specific errors."""


# ---- form construction / evaluation ----

class NonSymmetricWeights(CritformError):
    pass


class NonPositiveMeasure(CritformError):
    pass


class FormNotNonnegative(CritformError):
    def __init__(self, count: int, tol: float):
        self.count = count
        self.tol = tol
        super().__init__(
            f"form is not nonnegative: {count} nonpositive pivot(s) of Q + "
            f"(tol/2) M, tol = {tol:.3e}"
        )


class DisconnectedDirichletSpec(CritformError):
    pass


class DomainMismatch(CritformError):
    pass


class ViolationFound(CritformError):
    """A claimed inequality failed beyond tolerance; carries the witness."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


# ---- solvers / limits ----

class SolverFailure(CritformError):
    pass


class GreenDiverges(CritformError):
    def __init__(self, message: str, trace=None):
        self.trace = trace
        super().__init__(message)


class GreenInconclusive(CritformError):
    """The vanishing-shift trace neither stabilized nor diverged; carries the trace."""

    def __init__(self, message: str, trace=None):
        self.trace = trace
        super().__init__(message)


# ---- classification ----

class NotCritical(CritformError):
    pass


class NoConvergence(CritformError):
    pass


class InconsistentCertificates(CritformError):
    pass


# ---- weights and transforms ----

class NonPositiveInput(CritformError):
    pass


class NonPositiveH(CritformError):
    pass


class ValidationFailure(CritformError):
    pass


# ---- profiles ----

class KernelMismatch(CritformError):
    pass


class GridTooCoarse(CritformError):
    pass


class ExcessivityFailure(CritformError):
    pass


class BisectionFailure(CritformError):
    pass


# ---- kernel operators ----

class NotIrreducible(CritformError):
    pass


class ScheduleTooShort(CritformError):
    pass


class EmptySelection(CritformError):
    pass


class NoViolationFound(CritformError):
    pass


# ---- configuration / io ----

class ParseError(CritformError):
    pass


class BadConfig(CritformError):
    pass


class UnknownFamily(CritformError):
    pass
