"""Named experiment presets with the published parameter values.

Each preset bundles a differentiator parameter set, the input signal it was
demonstrated on, and the duration of its time-domain run.  Preset names follow the source
experiment labels (paper-3A .. paper-5) so that a run maps one-to-one onto
the experiment it reproduces.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import DiffParams
from .signals import DEFAULT_SEED, NoiseSpec, SignalSpec
from .uncertainty import PlantConfig


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    params: DiffParams
    signal: SignalSpec
    t_end: float


_noise_3ab = NoiseSpec(power=0.01, sample_time=0.01, seed=DEFAULT_SEED)
_noise_3c = NoiseSpec(power=1e-4, sample_time=0.01, seed=DEFAULT_SEED)

PRESETS = {
    p.name: p for p in (
        ExperimentPreset(
            "paper-3A",
            DiffParams(eps=1 / 45, a0=0.05, b0=0.3),
            SignalSpec(amplitude=5.0, omega=2.0, noise=_noise_3ab),
            t_end=50.0),
        ExperimentPreset(
            "paper-3B",
            DiffParams(eps=1 / 45, a1=0.099, b1=0.268, alpha=0.5),
            SignalSpec(amplitude=5.0, omega=2.0, noise=_noise_3ab),
            t_end=50.0),
        ExperimentPreset(
            "paper-3C-linear",
            DiffParams(eps=1 / 45, a0=0.005, b0=0.05),
            SignalSpec(amplitude=0.5, omega=2.0, noise=_noise_3c),
            t_end=50.0),
        ExperimentPreset(
            "paper-3C-hybrid",
            DiffParams(eps=1 / 45, a0=0.005, a1=0.005, b0=0.05, b1=0.005,
                       alpha=0.5),
            SignalSpec(amplitude=0.5, omega=2.0, noise=_noise_3c),
            t_end=50.0),
        ExperimentPreset(
            "paper-4-linear",
            DiffParams(eps=0.01, a0=0.1, b0=0.3),
            SignalSpec(amplitude=1.0, omega=2.0),
            t_end=20.0),
        ExperimentPreset(
            "paper-4-nonlinear",
            DiffParams(eps=1 / 45, a1=0.015, b1=0.015, alpha=0.6),
            SignalSpec(amplitude=1.0, omega=2.0),
            t_end=20.0),
        ExperimentPreset(
            "paper-4-hybrid",
            DiffParams(eps=0.01, a0=0.1, a1=0.015, b0=0.3, b1=0.015,
                       alpha=0.6),
            SignalSpec(amplitude=1.0, omega=2.0),
            t_end=20.0),
        ExperimentPreset(
            "paper-5",
            DiffParams(eps=1 / 45, a0=0.05, a1=0.015, b0=0.3, b1=0.015,
                       alpha=0.6),
            SignalSpec(amplitude=1.0, omega=1.0, noise=_noise_3c),
            t_end=20.0),
    )
}


def get_preset(name: str) -> ExperimentPreset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None


def uncertainty_plant(noise=None) -> PlantConfig:
    """The scalar uncertain plant of the estimation experiment, from x0 = 0.

    Control u = 0.1*sin(t), disturbance delta = cos(t); the truth channel
    for delta is recorded alongside the run.
    """
    return PlantConfig(u=lambda t: 0.1 * np.sin(t), delta=np.cos, noise=noise)
