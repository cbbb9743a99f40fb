import ast
from pathlib import Path

import nlsqueeze

MODULES = sorted(p for p in Path(nlsqueeze.__file__).parent.glob("*.py") if p.name != "__init__.py")
# imported only so that perfbench's tracer can patch the name where the module looks it up
TRACE_TARGET_IMPORTS = {
    "fisher": {"build_spin_family", "build_spin_operators", "covariance_matrix"},
    "spin": {"symmetric_product"},
    "cv": {"symmetric_product"},
    "dynamics": {"build_spin_operators"},
}

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



def _unread_imports(path: Path) -> set:
    """Names a module imports (`__future__` features aside) and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_modules_read_every_name_they_import():
    assert MODULES
    unread = {p.stem: names for p in MODULES if (names := _unread_imports(p))}
    assert unread == TRACE_TARGET_IMPORTS
