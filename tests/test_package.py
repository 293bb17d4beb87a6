import types

import advmean

PUBLIC_NAMES = {
    "AdversaryResult",
    "AtomicDistribution",
    "DegenerateError",
    "DomainError",
    "InsufficientSamplesError",
    "TrialConfig",
    "TrimResult",
    "asymptotic_scan",
    "bench_mom",
    "construct_q",
    "density_ratio",
    "epsilon",
    "group_count",
    "hellinger_sq",
    "load_distribution",
    "lr_test_error",
    "mean",
    "median_of_means",
    "mixture",
    "sample",
    "sample_mean",
    "standard_trim",
    "std",
    "trial_stream",
    "trim",
    "variance",
    "verify_neighborhood",
    "verify_theorem",
}


def test_public_surface():
    """Adding or removing a top-level name is a deliberate change to this
    list; submodules are not part of it."""
    public = {
        name
        for name, value in vars(advmean).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
