"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the operation's domain, such as fewer samples
    than estimator groups; the CLI reports it with exit code 2."""


class DegenerateError(ValueError):
    """The input admits no meaningful result (single-atom input, or a
    point-mass trimmed core with no mean gap)."""


class RegimeError(ValueError):
    """The (n, delta) pair is outside the asserted small-parameter regime."""
