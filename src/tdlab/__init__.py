"""tdlab: a laboratory for linear, nonlinear, and hybrid tracking differentiators.

Simulates the differentiator family as continuous-time systems, computes
their amplitude-dependent equivalent second-order linearizations, identifies
frequency characteristics by swept sinusoids, and reconstructs unknown
disturbances of a scalar uncertain plant.
"""

from ._kernels import backend
from .describing import (
    DegenerateError,
    EquivalentLinearization,
    FreqPoint,
    OverdampedError,
    bode_table,
    describing_gain,
    first_order_response,
    freq_response,
    linearize,
    natural_frequency,
    omega_factor,
)
from .dynamics import (
    DiffParams,
    DiffState,
    first_order_filter_rhs,
    highgain_rhs,
    hybrid_rhs,
    sig_pow,
    w_of_x,
)
from .presets import PRESETS, ExperimentPreset, get_preset, uncertainty_plant
from .signals import (
    DEFAULT_SEED,
    NoiseSpec,
    SignalSpec,
    bl_white_noise,
    noise_holds,
    sinusoid,
    sinusoid_derivative,
)
from .simulate import (
    InstabilityError,
    SimConfig,
    TimeSeries,
    default_dt,
    eps_ladder,
    rk4_step,
    rms_error,
    run,
    run_highgain,
)
from .sweep import (
    MeasuredResponse,
    convergence_order,
    sweep,
    tracking_bandwidth,
)
from .uncertainty import PlantConfig, estimate_delta, simulate_plant

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "DegenerateError",
    "DiffParams",
    "DiffState",
    "EquivalentLinearization",
    "ExperimentPreset",
    "FreqPoint",
    "InstabilityError",
    "MeasuredResponse",
    "NoiseSpec",
    "OverdampedError",
    "PRESETS",
    "PlantConfig",
    "SignalSpec",
    "SimConfig",
    "TimeSeries",
    "backend",
    "bl_white_noise",
    "bode_table",
    "convergence_order",
    "default_dt",
    "describing_gain",
    "eps_ladder",
    "estimate_delta",
    "first_order_filter_rhs",
    "first_order_response",
    "freq_response",
    "get_preset",
    "highgain_rhs",
    "hybrid_rhs",
    "linearize",
    "natural_frequency",
    "noise_holds",
    "omega_factor",
    "rk4_step",
    "rms_error",
    "run",
    "run_highgain",
    "sig_pow",
    "simulate_plant",
    "sinusoid",
    "sinusoid_derivative",
    "sweep",
    "tracking_bandwidth",
    "uncertainty_plant",
    "w_of_x",
]
