import nlsqueeze

PUBLIC = [
    "BasisMismatchError", "CalibrationError", "DickeBasis", "EstimatorReport", "EvolutionSpec",
    "FockBasis", "HermitianOperator", "HermitianPropagator", "MomentData", "OperatorFamily",
    "QuadratureDirection", "QuantumState", "SqueezingResult", "ZeroSignalError",
    "build_cv_second_order_family", "build_cv_third_order_family", "build_spin_family",
    "build_spin_operators", "check_chain", "chi2_error_propagation", "chi2_inverse_opt",
    "classical_fisher",
    "coherent_spin_state_z", "coherent_state", "combine", "covariance_matrix", "default_cutoff",
    "entanglement_bound", "evolve", "f_max_density", "fock_state", "moment_data", "moment_matrix",
    "optimal_measurement", "optimize_generator", "parity_operator", "qfi", "quadrature_generator",
    "simulate_moment_estimator", "spin_family_size", "spin_squeezing_profile",
    "symmetric_product", "twisting_generator",
]


def test_public_names_are_pinned_and_import():
    assert nlsqueeze.__all__ == PUBLIC
    namespace = {}
    exec("from nlsqueeze import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC

