"""Medoid Silhouette clustering with fast swap-based optimization and
automatic cluster-count selection."""

from .core import (
    ClusteringResult,
    InputError,
    MatrixError,
    MedoidError,
    build_matrix,
    check_matrix,
    check_medoids,
    init_build,
    init_random,
    load_matrix_csv,
    load_points_csv,
    nearest_three_all,
)
from .dynmsc import SweepResult, dynmsc
from .extval import ari, nmi
from .fastmsc import fastermsc, fastmsc
from .naive import pammedsil, pamsil
from .oracle import axiom_suite, exhaustive_best_medoids, recompute_delta
from .silhouette import SilhouetteReport, ams, medoid_silhouette, silhouette, silhouette_plot_data

__version__ = "0.1.0"

__all__ = [
    "ClusteringResult",
    "InputError",
    "MatrixError",
    "MedoidError",
    "SilhouetteReport",
    "SweepResult",
    "ams",
    "ari",
    "axiom_suite",
    "build_matrix",
    "check_matrix",
    "check_medoids",
    "dynmsc",
    "exhaustive_best_medoids",
    "fastermsc",
    "fastmsc",
    "init_build",
    "init_random",
    "load_matrix_csv",
    "load_points_csv",
    "medoid_silhouette",
    "nearest_three_all",
    "nmi",
    "pammedsil",
    "pamsil",
    "recompute_delta",
    "silhouette",
    "silhouette_plot_data",
]
