"""Analytically optimized (nonlinear) squeezing parameters for collective
spin systems and single bosonic modes, benchmarked against Fisher information."""

from .cv import (
    FockBasis,
    QuadratureDirection,
    build_cv_second_order_family,
    build_cv_third_order_family,
    build_quadratures,
    coherent_state,
    default_cutoff,
    fock_state,
    quadrature_generator,
)
from .dynamics import (
    EvolutionSpec,
    HermitianPropagator,
    coherent_spin_state_z,
    evolve,
    twisting_generator,
)
from .errors import BasisMismatchError, CalibrationError, ZeroSignalError
from .fisher import (
    FisherReport,
    classical_fisher,
    f_max_density,
    qfi,
)
from .moments import (
    EstimatorReport,
    MomentData,
    SqueezingResult,
    chi2_error_propagation,
    chi2_inverse_opt,
    commutator_matrix,
    covariance_matrix,
    entanglement_bound,
    moment_data,
    moment_matrix,
    optimal_measurement,
    optimize_generator,
    principal_eigenpair,
    shot_noise_limit,
    simulate_moment_estimator,
    spin_squeezing_profile,
)
from .operators import HermitianOperator, OperatorFamily, combine, symmetric_product
from .spin import (
    DickeBasis,
    build_spin_family,
    build_spin_operators,
    parity_operator,
    spin_family_size,
)
from .states import QuantumState

__version__ = "0.1.0"

__all__ = [
    "BasisMismatchError",
    "CalibrationError",
    "DickeBasis",
    "EstimatorReport",
    "EvolutionSpec",
    "FisherReport",
    "FockBasis",
    "HermitianOperator",
    "HermitianPropagator",
    "MomentData",
    "OperatorFamily",
    "QuadratureDirection",
    "QuantumState",
    "SqueezingResult",
    "ZeroSignalError",
    "build_cv_second_order_family",
    "build_cv_third_order_family",
    "build_quadratures",
    "build_spin_family",
    "build_spin_operators",
    "chi2_error_propagation",
    "chi2_inverse_opt",
    "classical_fisher",
    "coherent_spin_state_z",
    "coherent_state",
    "combine",
    "commutator_matrix",
    "covariance_matrix",
    "default_cutoff",
    "entanglement_bound",
    "evolve",
    "f_max_density",
    "fock_state",
    "moment_data",
    "moment_matrix",
    "optimal_measurement",
    "optimize_generator",
    "parity_operator",
    "principal_eigenpair",
    "qfi",
    "quadrature_generator",
    "shot_noise_limit",
    "simulate_moment_estimator",
    "spin_family_size",
    "spin_squeezing_profile",
    "symmetric_product",
    "twisting_generator",
]
