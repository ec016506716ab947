"""Pseudo-spectral MHD with Fourier-multiplier dissipation, plus a dyadic
frequency-analysis toolkit for tracking the quantities behind the a priori
estimates of the zero-diffusivity system."""

from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    divergence,
    forward_transform,
    fractional_derivative,
    gradient,
    hs_norm,
    inverse_transform,
    leray_project,
    lp_norm,
    make_grid,
    read_snapshot,
    solenoidal_residual,
    write_snapshot,
)
from .multiplier import (
    DissipationSpec,
    GFunction,
    OsgoodVerdict,
    make_g,
    osgood_classify,
    symbol,
)
from .dynamics import SolutionPair, SystemParams, nonlinear_tendency
from .integrator import BlowupError, StepperConfig, run
from .lpaley import (
    BesovIndex,
    DyadicPartition,
    bernstein_ratio,
    besov_norm,
    commutator_ratio,
    dyadic_blocks,
    make_partition,
)
from .diagnostics import (
    DiagnosticRecord,
    DiagnosticTracker,
    RunConfig,
    energy_balance_residual,
    gamma_log_derivative_check,
    gronwall_bound_check,
    initial_condition,
    parse_config,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
