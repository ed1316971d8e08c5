"""chainlab: dispersive decay in harmonic chains with a finite defect block.

The package classifies a chain's constant regime (condition C, condition C0,
or resonance), evaluates its spectral kernels and Green functions, integrates
the dynamics directly, and measures the weighted-norm decay rates the theory
predicts.
"""

from importlib.resources import files as _files

from .chain import (Chain, LatticeState, SideParams, build_chain, energy,
                    load_chain, parse_chain_config, state_from_dict,
                    weighted_norm)
from .classify import (ClassificationVerdict, classify, classify_general,
                       classify_n0, find_spectral_zero, k_functions, k_minus,
                       k_plus, k_zero)
from .decay import (DecayFit, fit_decay, resonance_witness)
from .dispersion import (DispersionBranch, edge_series, exp_itheta,
                         theta_branch)
from .errors import (ChainConfigError, ConvergenceError, OnCutError,
                     PivotBreakdownError, ResonancePoleError,
                     SingularFrameError, UnsupportedConfigurationError)
from .jacobi import (TridiagonalFrame, assemble_frame, inner_minor,
                     invert_usmani, leading_minors, pivots, trailing_minors)
from .propagator import (GammaSeries, KernelSeries, free_green, gamma_kernel,
                         green_table, halfline_field, halfline_green,
                         kernel_N)
from .simulate import (Trajectory, boundary_feeds, decompose, defect_response,
                       evolve)

__version__ = "0.1.0"


def bundled_config_dir():
    """Directory of the example chain configurations shipped in the package."""
    return _files("chainlab") / "configs"


def bundled_config(name):
    """Path of a bundled chain configuration (``name`` without extension)."""
    path = bundled_config_dir() / f"{name}.cfg"
    if not path.is_file():
        raise FileNotFoundError(f"no bundled config named {name!r}")
    return path


def bundled_chain(name):
    """Load a bundled chain by name (e.g. ``p1_condition_c``)."""
    return load_chain(bundled_config(name))


BUNDLED_CHAINS = (
    "p1_condition_c", "p1_c0_i", "p1_c0_ii", "p1_c0_iii",
    "p2_condition_c", "p3_condition_c",
    "r1_zero_mode", "r1_zero_mode_n1", "r2_real_zero", "r3_real_zero",
    "n2_uniform_c",
)
