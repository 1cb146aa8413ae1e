"""Time-varying-gain barrier chains and closed-form safety filtering
for disturbed integrator chains.

The pieces compose bottom-up: an integrator system plus a scalar
barrier oracle and a gain schedule give a backstepping barrier chain;
the chain's top level feeds a single-constraint safety filter with a
closed-form solution; the simulation harness runs the filtered loop
and checks the analytic decay floors along the way.
"""

from .barrier import (
    BarrierChain,
    BarrierEvaluation,
    ChainEvaluation,
    CircularObstacle,
    HalfPlane,
    PolynomialBarrier,
    auto_gains,
    robust_margin,
)
from .chain import (
    Channel,
    DisturbanceProfile,
    IntegratorChain,
    Sinusoid,
    certified_bound,
    sample_disturbance,
)
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    InfeasibleConstraintError,
    NumericalBlowupError,
    ParameterError,
    TvcbfError,
    UnsafeInitializationError,
)
from .gains import (
    ExponentialGain,
    GainFunction,
    GainSchedule,
    LinearGain,
    PolynomialGain,
    PrescribedTimeGain,
    gain_function,
    initial_gain_perturbed,
    initial_gain_unperturbed,
)
from .qp import FilterDecision, safety_filter
from .sim import (
    Scenario,
    Trajectory,
    build_chain,
    chain_bound,
    default_nominal_gains,
    rk4_step,
    run_scenario,
    safety_lower_bound,
    state_feedback,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierChain",
    "BarrierEvaluation",
    "ChainEvaluation",
    "CircularObstacle",
    "HalfPlane",
    "PolynomialBarrier",
    "auto_gains",
    "robust_margin",
    "Channel",
    "DisturbanceProfile",
    "IntegratorChain",
    "Sinusoid",
    "certified_bound",
    "sample_disturbance",
    "ConfigError",
    "DimensionError",
    "DomainError",
    "InfeasibleConstraintError",
    "NumericalBlowupError",
    "ParameterError",
    "TvcbfError",
    "UnsafeInitializationError",
    "ExponentialGain",
    "GainFunction",
    "GainSchedule",
    "LinearGain",
    "PolynomialGain",
    "PrescribedTimeGain",
    "gain_function",
    "initial_gain_perturbed",
    "initial_gain_unperturbed",
    "FilterDecision",
    "safety_filter",
    "Scenario",
    "Trajectory",
    "build_chain",
    "chain_bound",
    "default_nominal_gains",
    "rk4_step",
    "run_scenario",
    "safety_lower_bound",
    "state_feedback",
    "write_trajectory_csv",
    "__version__",
]
