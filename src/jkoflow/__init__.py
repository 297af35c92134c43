"""Learning potential, interaction and diffusion energies from population
snapshots, by minimizing the first-order optimality residual of the
variational time-discretization of the underlying flow."""

from .measures import (
    Coupling,
    EmpiricalSnapshot,
    PopulationTrajectory,
    load_coupling,
    load_trajectory,
    save_coupling,
    save_trajectory,
    split_train_test,
    uniform_snapshot,
)
from .functionals import KINDS, EnergySpec, GroundTruthFunction
from .ot import (
    OtConfig,
    couple_snapshots,
    couple_trajectory,
    emd,
    solve_exact,
    solve_sinkhorn,
    trajectory_emd,
    transport_cost,
)
from .density import EmReport, GaussianMixture, fit_gmm, log_density, score
from .features import FeatureMap, build_default, grid_centers, polynomial_map
from .datagen import (
    GenConfig,
    generate,
    generate_time_varying_1d,
    implicit_step,
    interaction_gradient_mean,
)
from .nn import AdamState, Mlp, MlpEnergyModel, adam_step, build_model
from .linear_solver import FeatureStatistic, LinearEnergyModel, accumulate, fit_linear
from .trainer import (
    FitResult,
    TrainConfig,
    VARIANTS,
    evaluate,
    fit,
    load_model,
    predict,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Coupling",
    "EmReport",
    "EmpiricalSnapshot",
    "EnergySpec",
    "FeatureMap",
    "FeatureStatistic",
    "FitResult",
    "GaussianMixture",
    "GenConfig",
    "GroundTruthFunction",
    "KINDS",
    "LinearEnergyModel",
    "Mlp",
    "MlpEnergyModel",
    "OtConfig",
    "PopulationTrajectory",
    "TrainConfig",
    "VARIANTS",
    "accumulate",
    "adam_step",
    "build_default",
    "build_model",
    "couple_snapshots",
    "couple_trajectory",
    "emd",
    "evaluate",
    "fit",
    "fit_gmm",
    "fit_linear",
    "generate",
    "generate_time_varying_1d",
    "grid_centers",
    "implicit_step",
    "interaction_gradient_mean",
    "load_coupling",
    "load_model",
    "load_trajectory",
    "log_density",
    "polynomial_map",
    "predict",
    "save_coupling",
    "save_model",
    "save_trajectory",
    "score",
    "solve_exact",
    "solve_sinkhorn",
    "split_train_test",
    "trajectory_emd",
    "transport_cost",
    "uniform_snapshot",
    "__version__",
]
