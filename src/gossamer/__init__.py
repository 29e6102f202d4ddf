"""Exact arithmetic with infinitesimals and infinities, and the calculus built on it.

The core value type is a finite series in the infinite unit ``w`` with
rational coefficients; on top of it sit exact polynomial calculus,
closed-form Riemann sums at infinite partition counts, discrete
summation as a difference of point values, and continuous
representations of step functions with infinitesimal bridges.
Public names resolve on first use: ``import gossamer`` loads no
submodule, and the first read of a name imports the module that defines it.
"""
from importlib import import_module

# Each public name, by the submodule it is read from.
_EXPORTS = {
    "core": (
        "DEFAULT_TRUNCATION_FLOOR",
        "Gossamer",
        "InfinitePartError",
        "Kind",
        "NotInfinitesimalError",
        "ParseError",
        "ZeroMagnitudeError",
        "bounded_series_sum",
        "omega",
    ),
    "polynomial": (
        "Polynomial",
        "ftc_inverse_check",
        "order_swap_demo",
        "scale_integral_identity",
        "shift_integral_identity",
    ),
    "report": ("CaseResult", "SUITE_NAMES", "VerificationReport", "run_suite"),
    "riemann": (
        "UniformRiemannSum",
        "bernoulli_number",
        "conjecture_probe",
        "definite_to_sum_pipeline",
        "divergent_integral_via_sum",
        "faulhaber",
        "integrability_check",
        "panel_asymptotic",
        "riemann_limit",
        "riemann_remainder",
        "uniform_riemann_sum",
    ),
    "steps": (
        "BridgeShape",
        "SmoothedFunction",
        "StepFunction",
        "area_delta",
        "iverson_step",
        "sample_curve",
        "smooth",
        "smoothed_area",
        "step_sum",
        "transfer_to_real",
        "trapezoid_discontinuity_budget",
    ),
    "sums": (
        "ClosedFormSum",
        "indefinite_sum",
        "prefix_sums_match",
        "sum_at_point",
        "sum_ftc",
        "sum_interval_bruteforce",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name or a submodule, imported on first read and kept in the package."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS or name == "parsing":  # what ``import gossamer`` once loaded
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
