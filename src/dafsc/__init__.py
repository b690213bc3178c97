"""Differential amplify-and-forward relay link simulator and exact
analytical engine, with post-detection selection combining and fixed-weight
(semi-MRC) combining at the destination.

The package splits into: the special functions the closed forms need
(scaled E1 and K1, 1 - x K1) and quadrature (``specfn``),
correlated Rayleigh fading and noise generation (``fading``), the
transmit/relay/receive chain (``phy``), closed-form BER / outage analysis
(``analysis``), experiment orchestration and CSV emission (``harness``), the
validation suite with its independent quadrature oracles (``validate``,
loaded only by ``dafsc validate``), and the CLI (``cli``).
"""

from .analysis import (
    analytical_ber,
    ber_high_snr_approx,
    conditional_gamma_max_cdf,
    outage_probability,
)
from .fading import FadingConfig, generate_awgn, generate_fading
from .harness import (
    BerPoint,
    ExperimentConfig,
    run_ber_curve,
    run_outage_curve,
    run_power_allocation_sweep,
)
from .phy import ModulationParams, PowerProfile
from .specfn import QuadratureConvergenceError, scaled_e1

__version__ = "0.1.0"

# Every kernel is numpy code; there is no other backend.
BACKEND = "numpy"
HAS_NUMBA = False

__all__ = [
    "BACKEND",
    "HAS_NUMBA",
    "analytical_ber",
    "ber_high_snr_approx",
    "conditional_gamma_max_cdf",
    "outage_probability",
    "FadingConfig",
    "generate_awgn",
    "generate_fading",
    "BerPoint",
    "ExperimentConfig",
    "run_ber_curve",
    "run_outage_curve",
    "run_power_allocation_sweep",
    "ModulationParams",
    "PowerProfile",
    "QuadratureConvergenceError",
    "scaled_e1",
    "__version__",
]
