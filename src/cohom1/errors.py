"""Exception taxonomy shared by all modules, :func:`require_int`, the one
integer policy of every argument, and :func:`is_real`, the one real-number
policy.  Imports no numpy."""

import numbers
import operator
from contextlib import suppress

_KINDS = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def require_int(name: str, value, low: int | None = None, error: type = ValueError) -> int:
    """``value``, a Python or numpy integer but no bool, as a Python int at
    least ``low`` (None, 0 or 1); else ``error`` naming ``name``."""
    # Python ints take one compare: the oracles check thousands of counts.
    if type(value) is int and (low is None or value >= low):
        return value
    with suppress(TypeError):
        index = operator.index(value)
        if not isinstance(value, bool) and (low is None or index >= low):
            return index
    raise error(f"{name} must be {_KINDS[low]}, got {value!r}")


def int_as_float(name: str, value: int) -> float:
    """float(value); ValueError naming ``name`` if it overflows a float."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must round to a float below 2**1024 in magnitude") from None


def is_real(value) -> bool:
    """Is ``value`` a Python or numpy int or float, but no bool?

    Numpy's scalar types register with the ``numbers`` tower, so no numpy
    is imported; a rational that is no integer, such as a Fraction, is
    refused, as are Decimal, complex and numpy's bool."""
    if type(value) is float or type(value) is int:
        return True
    return not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational)
    )


class CohomError(Exception):
    """Base class for package-specific errors."""


class InvalidTriple(CohomError):
    """The (g, m0, m1) data violates a parity/dimension rule or the
    classification list.  The message names the rule that failed."""


class InvalidSpace(CohomError):
    """Ambient space incompatible with the multiplicity data."""


class InadmissibleJ(CohomError):
    """No k-map exists for this j on the given action (parity rule)."""


class PoleProximity(CohomError):
    """Evaluation point within ``ode.DEFAULT_POLE_MARGIN`` of a coefficient pole."""


class UnequalMultiplicities(CohomError):
    """Operation is only defined for m0 == m1."""


class OddG(CohomError):
    """Operation requires an even curvature count."""


class ProfileTooCoarse(CohomError):
    """Too few interior samples for finite-difference reconstruction."""


class TrajectoryEscaped(CohomError):
    """An integrated trajectory exceeded the blow-up cap.

    Carries the escape time and the state at escape.
    """

    def __init__(self, t: float, r: float, rdot: float):
        self.t = t
        self.r = r
        self.rdot = rdot
        super().__init__(
            f"trajectory escaped at t={t:.6g} (r={r:.6g}, rdot={rdot:.6g})"
        )


class IntegratorStall(CohomError):
    """Adaptive step size underflowed before reaching the target time."""

    def __init__(self, t: float, detail: str = "step size underflow"):
        self.t = t
        super().__init__(f"integrator stalled at t={t:.6g}: {detail}")


class NoConvergence(CohomError):
    """Shooting iteration failed; carries the final gaps and iterate."""

    def __init__(self, gaps, iterate, iterations: int, detail: str = ""):
        self.gaps = tuple(gaps)
        self.iterate = tuple(iterate)
        self.iterations = iterations
        msg = (
            f"no convergence after {iterations} iterations at "
            f"(a, b)={self.iterate}, gaps={self.gaps}"
        )
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
