"""Exception hierarchy shared across the toolkit."""


class IsoforgeError(Exception):
    """Base class for all toolkit errors."""


class InvalidLattice(IsoforgeError):
    """Lattice parameters out of range (lambda <= 0, wrong kind, ...)."""


class StripExceeded(IsoforgeError):
    """|Im z| beyond the strip covered by the truncation guarantee."""


class PoleProximity(IsoforgeError):
    """A theta denominator is too close to one of its zeros."""


class DomainW(IsoforgeError):
    """w outside the admissible open band."""


class NoBracket(IsoforgeError):
    """A bracketed root find failed.

    A scan found no sign change on the search interval, the two ends of a
    bracket have the same sign, the function is NaN inside it, or Brent's
    method did not converge within its iteration limit.
    """


class NoCriticalOmega(NoBracket):
    """`solve_critical_omega` finds no zero of theta2'(omega) in (0, pi/4):
    none exists when lambda >= lambda0, and below lambda0 it can lie out of
    the solver's reach."""


class NoOscillation(IsoforgeError):
    """The quartic Q admits no oscillation interval with Q3 > 0."""


class SingularRoot(IsoforgeError):
    """A root of Q bounding the oscillation interval is not simple."""


class StepFailure(IsoforgeError):
    """Adaptive ODE integration could not meet the error tolerance."""


class DegenerateRotation(IsoforgeError):
    """Monodromy is (plus or minus) the identity; no axis is defined."""


class ZeroQuaternion(IsoforgeError):
    """Operation requires a nonzero quaternion."""


class DegenerateFit(IsoforgeError):
    """Least-squares sphere/plane fit is rank deficient."""


class SpecInvalid(IsoforgeError):
    """A reparametrization spec or run config fails validation."""
