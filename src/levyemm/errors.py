"""Exception types shared across the package."""


class LevyEmmError(Exception):
    """Base class for all package errors."""


class NonIntegrable(LevyEmmError):
    """An integral against the Levy measure diverges or cannot be resolved
    within the configured tolerance."""


class InvalidRegion(LevyEmmError):
    """Integration region touches 0 with an integrand that is not declared
    quadratic near 0."""


class MissingDensity(LevyEmmError):
    """The kernel has no density phi' attached."""


class TruncationViolated(LevyEmmError):
    """A band mass F((-b,-a)) or F((a,b)) is zero, so the two-sided band
    condition fails."""


class ZetaOutOfRange(LevyEmmError):
    """The target conditional mean zeta is not reachable by reweighting the
    normalized tail law (degenerate tail, or drift exceeds the tail reach)."""


class NonPositiveAlpha(LevyEmmError):
    """A density-process jump factor came out <= 0 (kernel bug guard)."""


class DominanceViolated(LevyEmmError):
    """Sampled W(t,x) exceeded |P_t| g(x) at a probed point."""


class KernelDomain(LevyEmmError):
    """phi is not evaluable at a required lag."""


class InvalidConfig(LevyEmmError):
    """Simulation configuration violates its invariants."""


class UnsupportedModel(LevyEmmError):
    """The model is outside what the requested construction supports."""


class ConfigError(LevyEmmError):
    """Scenario file is missing, malformed, or fails schema validation."""


class DomainError(LevyEmmError):
    """Argument outside a function's mathematical domain."""
