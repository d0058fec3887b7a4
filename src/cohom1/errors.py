"""Exception taxonomy shared by all modules."""


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
