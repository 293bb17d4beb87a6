"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


class DegenerateError(ValueError):
    """The input admits no meaningful result (single-atom input, or a
    point-mass trimmed core with no mean gap)."""


class RegimeError(ValueError):
    """The (n, delta) pair is outside the asserted small-parameter regime."""


class InsufficientSamplesError(DomainError):
    """Fewer samples than estimator groups; a :class:`DomainError`, so the
    CLI reports it with exit code 2."""

    def __init__(self, group_count: int, n: int):
        super().__init__(
            f"need at least {group_count} samples for {group_count} groups, got {n}"
        )
        self.group_count = group_count
        self.n = n
