"""Toolkit for diffusive dynamics of gravitationally coupled oscillators.

Submodules:

* :mod:`gravdiff.model` - physical setup, linearization, dimensionless forms
* :mod:`gravdiff.dynamics` - covariance evolution, uncertainty and PPT checks
* :mod:`gravdiff.bounds` - no-entanglement bounds on the diffusion matrix
* :mod:`gravdiff.spectra` - displacement-noise spectra from one resolvent
* :mod:`gravdiff.montecarlo` - Langevin sampling, Welch estimation, reheating
* :mod:`gravdiff.feasibility` - torsion-pendulum design calculus
* :mod:`gravdiff.cli` - command-line front end
"""

from .constants import G_NEWTON, HBAR, KB, OSMIUM_DENSITY
from .errors import (
    ConfigError,
    DomainError,
    GravdiffError,
    NonPhysicalInputError,
    ProtocolError,
    PSDError,
    SeedError,
    StabilityError,
    StepSizeError,
    SymmetryError,
)
from .model import (
    DiffusionMatrix,
    GaussianState,
    LinearizedSystem,
    PhysicalSetup,
    ground_state,
    linearize,
    propagator,
    symplectic_form,
    to_dimensionless,
)
from .dynamics import (
    EvolutionResult,
    entanglement_onset,
    evolve_covariance,
    ppt_separable,
    uncertainty_valid,
)
from .bounds import (
    BoundReport,
    alpha_bound,
    com_reduction,
    dimensional_bound,
    final_bound,
    minimal_diffusion,
    strongest_bound,
    weak_bound,
)
from .spectra import (
    NoiseSpectrum,
    dns_fixed_source,
    dns_symmetric_pair,
    gravitational_frequency,
)
from .montecarlo import (
    NoiseModel,
    ReheatResult,
    TrajectoryEnsemble,
    desk_rescale,
    phonon_heating_rate,
    reheating_run,
    simulate,
    welch_spectrum,
)
from .feasibility import (
    REFERENCE_PENDULUM,
    FeasibilityParams,
    FeasibilityReport,
    feasibility_report,
    gravitational_heating_rate,
    required_integration_time,
    table1_report,
    thermal_heating_rate,
)

__version__ = "0.1.0"
