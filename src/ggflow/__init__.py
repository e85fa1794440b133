"""Generalized gradient flows for Markov jump processes on finite graphs.

The package realizes the building blocks of the (energy, dissipation,
dual-dissipation) structure on a finite state space: graph calculus and
detailed-balance systems (`graph`), dissipation/entropy catalogues and the
fields they generate (`potentials`), the variational functionals and the
energy-dissipation certificate (`functionals`), the nonlinear semigroup
(`evolution`), dynamical transport costs (`dvt`), minimizing movements
(`jko`), and the particle-level grounding (`ldp`).  `cli` ties everything
into a reproducible experiment runner.
"""

from .errors import (
    ContinuityEquationViolated,
    DetailedBalanceViolation,
    Disconnected,
    GGFlowError,
    GridMismatch,
    Infeasible,
    InvalidDistribution,
    NegativeRate,
    NonConcaveAlpha,
    NonFiniteField,
    NonPositivePi,
    SingularLaplacian,
    SolverStalled,
    StepSizeUnderflow,
    UnsupportedParameter,
)
from .graph import (
    CurveWithFlux,
    Flux,
    GraphSystem,
    Measure,
    build_system,
    ce_residual,
    graph_div,
    graph_grad,
)
from .potentials import (
    DissipationSpec,
    EntropySpec,
    compatibility_residual,
    continuous_field,
    dissipation_from_dict,
    edge_force,
    entropy_from_dict,
    flux_cost,
    flux_field,
    make_dissipation,
    make_entropy,
)
from .functionals import (
    EDBReport,
    action_rate,
    chain_rule_residual,
    energy,
    energy_dissipation_report,
    fisher_information,
    fisher_integrands,
)
from .evolution import l1_contraction_check, solve_forward, stationarity_report
from .dvt import (
    DVTProblem,
    DVTSolution,
    cost_axioms_check,
    dvt_cost,
    feasible_curve,
    poincare_constant,
    w_action,
)
from .jko import (
    MMRun,
    generalized_slope_estimate,
    mm_solve,
    mm_step,
    moreau_yosida,
)
from .ldp import ParticleEnsemble, empirical_path, gillespie, net_flux_cost, path_rate

__version__ = "0.1.0"
