"""Model averaging over nested minimum-norm least-squares candidates.

The library splits into: exact fitting of nested candidate models
(``models``), closed-form limiting risk of weighted averages
(``risk_theory``), data-driven weight criteria and their quadratic programs
(``criteria``, ``qp``), experiment harnesses with replayable randomness
(``experiments``), bundled example data (``datasets``), and a command-line
front end (``cli``).
"""

from .criteria import (
    QuadraticProgram,
    info_criterion_weights,
    jma_program,
    lama_program,
    mma_program,
    sigma_hat,
    xi,
)
from .models import (
    Dataset,
    ModelFits,
    default_model_counts,
    fit_all,
    load_csv,
    order_by_cp,
)
from .qp import SolveReport, simplex_project, solve_simplex_qp
from .risk_theory import (
    PowerLawProfile,
    RiskSurface,
    risk_surface,
)
from .experiments import (
    SimulationConfig,
    WeightChoice,
    compute_weights,
    evaluate_real,
    generate_data,
    relative_losses,
    rng_for,
    run_simulation,
    validate_rmt,
    validate_theorem1,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ModelFits",
    "PowerLawProfile",
    "QuadraticProgram",
    "RiskSurface",
    "SimulationConfig",
    "SolveReport",
    "WeightChoice",
    "compute_weights",
    "default_model_counts",
    "evaluate_real",
    "fit_all",
    "generate_data",
    "info_criterion_weights",
    "jma_program",
    "lama_program",
    "load_csv",
    "mma_program",
    "order_by_cp",
    "relative_losses",
    "risk_surface",
    "rng_for",
    "run_simulation",
    "sigma_hat",
    "simplex_project",
    "solve_simplex_qp",
    "validate_rmt",
    "validate_theorem1",
    "xi",
    "__version__",
]
