"""Exception types shared across the package."""


class Error(Exception):
    """Base class for every error raised by this package."""


class SingularState(Error):
    """State lies in (or numerically at) the singular set of the field."""


class InnerRegion(Error):
    """Compactification chart evaluated inside its inner cutoff radius."""


class NotOnBoundary(Error):
    """Terminal point is not on the boundary of the inflated target."""


class NonConvexControlSet(Error):
    """Operation requires a convex control set."""


class ZeroTerminalCovector(Error):
    """Adjoint seed is the zero covector."""


class IntegrationFailed(Error):
    """Adaptive integration ran out of its step budget or its step size underflowed."""


class StepStall(IntegrationFailed):
    """The step size fell below the stall floor at t, where the derivative is f."""

    def __init__(self, t, f):
        super().__init__(f"step size fell below the stall floor at t = {t:.17g}")
        self.t, self.f = t, f


class Infeasible(Error):
    """No admissible trajectory reaching the target was found."""


class NotHit(Error):
    """Candidate trajectory does not reach the target."""


class BelowThreshold(Error):
    """Radius argument is at or below the supercritical threshold r0."""


class OutOfRange(Error):
    """A barrier quantity lies outside the range its table or map covers: a
    time outside the invertible range of the envelope time map, a radius
    past the table cap, a horizon past the lower map's domain, or a damped
    solution that leaves the integrable range."""


class AlphaOutOfRange(Error):
    """An alpha outside its admissible interval: the decay exponent of a
    barrier bound, or the target inflation of a solve or a ladder."""


class BelowMtilde(Error):
    """Initial radius below the lower-bound threshold M-tilde."""


class BaselineQuenchedEarly(Error):
    """Baseline comparison trajectory quenches before the requested horizon."""


class NotQuenchingSystem(Error):
    """Check is specific to the quenching example system."""


class ConfigError(Error):
    """Run configuration failed validation.

    Carries the JSON path of the offending field so CLI errors are actionable.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
