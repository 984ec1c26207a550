"""Exception types shared across the package."""


class CsplpError(Exception):
    """Base class for all package errors."""


# --- instance construction / validation ---

class DegreeExceeded(CsplpError):
    def __init__(self, variable, degree, limit):
        super().__init__(f"variable {variable} has degree {degree} > t = {limit}")
        self.variable = variable
        self.degree = degree
        self.limit = limit


class WeightOutOfRange(CsplpError):
    pass


class ArityExceeded(CsplpError):
    pass


class BadTruthTableLength(CsplpError):
    pass


# --- enumeration oracles ---

class BudgetExceeded(CsplpError):
    pass


# --- exact LP solving ---

class Unbounded(CsplpError):
    pass


class Infeasible(CsplpError):
    pass


class SizeLimit(CsplpError):
    pass


class IterationLimit(CsplpError):
    pass


class NegativeEntry(CsplpError):
    pass


# --- pipeline / repair ---

class NotFeasibleForLp3(CsplpError):
    pass


# --- robustness ---

class ZeroRow(CsplpError):
    pass


class NotADistribution(CsplpError):
    pass


# --- rounding ---

class FoldTooLarge(CsplpError):
    pass


# --- gap laboratory ---

class InfeasibleSeedSolution(CsplpError):
    pass


class ArityMismatch(CsplpError):
    pass


class UnseenVariableQuery(CsplpError):
    pass
