"""Work statistics and fluctuation-theorem checks for quantum systems in curved spacetime."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConvergenceError,
    CurvedWorkError,
    DomainError,
    GeometryError,
    InputError,
    NumericError,
)
from .frame import (
    FrameData,
    FramePoint,
    MetricComponents,
    metric_components,
    redshift_exact,
    redshift_weakfield,
    time_dilation,
    validate_frame,
)
from .spacetimes import desitter_frame, flat_frame, uniform_gravity_frame
from .quantum import (
    AffinePath,
    EnergyBasis,
    HermitianOperator,
    UnitaryOperator,
    energy_basis,
    perturbative_amplitude,
    propagator,
    qho_hamiltonian,
    thermal_state,
    transition_probability_formula,
    two_level_hamiltonian,
    x_squared_matrix,
)
from .tpm import (
    ProtocolReport,
    WorkDistribution,
    crooks_check,
    delta_F,
    entropy_production_two_level,
    forward_distribution,
    jarzynski_average,
    mean_work,
    reverse_distribution,
)
from .scenarios import (
    RunArtifacts,
    ScenarioConfig,
    run_scenario,
    sample_work,
)
from .verify import run_verification
