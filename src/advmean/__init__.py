"""Adversarial lower-bound constructions and benchmarks for one-dimensional
mean estimation on finite atomic distributions.  The names imported below
are the package's public surface."""

from .adversary import (
    AdversaryResult,
    construct_q,
    density_ratio,
)
from .distribution import (
    AtomicDistribution,
    TrimResult,
    epsilon,
    load_distribution,
    mean,
    mixture,
    standard_trim,
    std,
    trim,
    variance,
)
from .divergence import hellinger_sq
from .errors import (
    DegenerateError,
    DomainError,
    InsufficientSamplesError,
)
from .estimators import group_count, median_of_means, sample_mean
from .harness import (
    TrialConfig,
    asymptotic_scan,
    bench_mom,
    lr_test_error,
    sample,
    trial_stream,
    verify_neighborhood,
    verify_theorem,
)

__version__ = "0.1.0"
