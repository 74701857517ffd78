"""Exception types shared across the package."""


class CosetLFunError(Exception):
    """Base class for all library errors."""


class InvalidModulus(CosetLFunError):
    """Modulus is not an odd prime power in the supported range."""


class NotInvertible(CosetLFunError):
    """Requested inverse of a residue sharing a factor with the modulus."""


class NotOneUnit(CosetLFunError):
    """p-adic logarithm argument is not congruent to 1 mod p."""


class DegenerateConductor(CosetLFunError):
    """Operation needs modulus exponent k >= 2."""


class NotPrimitive(CosetLFunError):
    """Character is imprimitive where a primitive one is required."""


class PrincipalCharacter(CosetLFunError):
    """Principal character passed where a non-principal one is required."""


class OddCharacter(CosetLFunError):
    """Character, or coset base character, must be even here."""


class UnsupportedRegime(CosetLFunError):
    """Closed form does not exist for this (p, k) combination."""


class RegimeMismatch(CosetLFunError):
    """The (j, k) window does not match the requested prediction."""


class PreconditionViolated(CosetLFunError):
    """Arguments fail a stated precondition of the identity being checked."""


class PoleAtOne(CosetLFunError):
    """Hurwitz zeta evaluated at its pole s = 1."""


class BadShiftBound(CosetLFunError):
    """Shift bound H must be a positive integer."""


class QuadratureTooCoarse(CosetLFunError):
    """Quadrature step too large relative to the window length."""


class ConfigError(CosetLFunError):
    """Command-line configuration is inconsistent."""
