"""Medoid Silhouette clustering with fast swap-based optimization and
automatic cluster-count selection."""

from .core import (
    ClusteringResult,
    InputError,
    MatrixError,
    MedoidError,
    build_matrix,
    init_build,
    init_random,
    nearest_three_all,
)
from .dynmsc import SweepResult, dynmsc
from .extval import ari, nmi
from .fastmsc import fastermsc, fastmsc
from .naive import pammedsil, pamsil
from .silhouette import SilhouetteReport, ams, medoid_silhouette, silhouette

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
    "build_matrix",
    "dynmsc",
    "fastermsc",
    "fastmsc",
    "init_build",
    "init_random",
    "medoid_silhouette",
    "nearest_three_all",
    "nmi",
    "pammedsil",
    "pamsil",
    "silhouette",
]
