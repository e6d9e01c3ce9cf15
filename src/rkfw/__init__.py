"""Runge-Kutta conditional gradient methods with feasibility certificates.

The package wires five pieces together: tableaus and their step-size
certificates, linear minimization oracles over standard regions, smooth
objectives, the multistage solver loop with its variants, and diagnostics
(zig-zag energy, rate slopes, flow references) for studying trajectories.
"""

__version__ = "0.1.0"  # set before the submodules load: harness writes it into manifests

from .diagnostics import (ZigzagReport, decrease_bound_check,
                          decrease_bound_d4, fit_rate_slope,
                          sup_envelope_all, zigzag_energy)
from .flow import (FlowReference, absorption_time, closed_form_reference,
                   flow_bound, huber_flow_exact, reference_trajectory,
                   total_accumulation_error)
from .geometry import (Box, DenseAtom, L1Ball, NuclearBall,
                       PowerIterationError, VertexHull)
from .harness import (ExperimentConfig, build_problem, load_movielens,
                      load_svmlight, parse_config, render, run_experiment)
from .objectives import (DistanceSq, HuberMatrix, HuberScalar, LeastSquares,
                         Logistic, check_gradient)
from .problems import (ProblemInstance, make_logistic, make_matrix_completion,
                       make_scalar_huber, make_sensing, make_sensing_logistic,
                       make_triangle)
from .solvers import (SolverConfig, Trajectory, fw_gap, momentum_step,
                      rk_fw_step, run)
from .tableau import (ButcherTableau, CertificateReport, TABLEAU_NAMES,
                      cancellability_margin, feasibility_certificate,
                      load_tableau_file, make_tableau, resolve_tableau)

__all__ = [
    "ButcherTableau", "CertificateReport", "TABLEAU_NAMES", "make_tableau",
    "resolve_tableau", "load_tableau_file",
    "feasibility_certificate", "cancellability_margin",
    "Box", "L1Ball", "VertexHull", "NuclearBall", "DenseAtom",
    "PowerIterationError",
    "DistanceSq", "LeastSquares", "Logistic", "HuberScalar", "HuberMatrix",
    "check_gradient",
    "ProblemInstance", "make_triangle", "make_scalar_huber", "make_sensing",
    "make_sensing_logistic", "make_logistic", "make_matrix_completion",
    "SolverConfig", "Trajectory", "run", "rk_fw_step", "fw_gap",
    "momentum_step",
    "FlowReference", "flow_bound", "huber_flow_exact", "absorption_time",
    "reference_trajectory", "closed_form_reference",
    "total_accumulation_error",
    "ZigzagReport", "zigzag_energy", "sup_envelope_all",
    "fit_rate_slope", "decrease_bound_d4", "decrease_bound_check",
    "ExperimentConfig", "parse_config", "render", "load_svmlight",
    "load_movielens", "build_problem", "run_experiment",
]
