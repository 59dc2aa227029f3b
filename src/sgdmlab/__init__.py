"""Numerical verification lab for a stochastic momentum method: discrete
optimizers, Lyapunov descent checks, continuous-time (ODE/SDE) limits,
high-probability concentration machinery, and ensemble statistics.
"""

from .concentration import (
    AnytimeConstants,
    GammaBrackets,
    anytime_bound,
    anytime_constants,
    anytime_coverage,
    gamma_constants,
    mgf_lemma_check,
    supermartingale_trace,
    tail_lemma_check,
)
from .continuous import (
    OdeParams,
    OdeSolution,
    l2_limit_estimate,
    ode_compare,
    ode_integrate,
    ode_rate_check,
    sde_sample_paths,
    sgdm_warm_start,
)
from .lyapunov import DescentReport, check_descent, continuous_energy
from .optimizers import (
    EnsembleTrace,
    StepSchedule,
    TrajectoryRecord,
    run_ensemble,
    run_trajectory,
    schedule_eval,
)
from .problems import (
    NoiseModel,
    Objective,
    load_csv_dataset,
    logreg_new,
    quadratic_new,
    synthetic_blobs,
)
from .seeding import rng_for, rngs_for, seed_split
from .stats import (
    expectation_rate_check,
    smoothness_comparison,
    subsequence_rate_check,
)

__version__ = "0.1.0"
