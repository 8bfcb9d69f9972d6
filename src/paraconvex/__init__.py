"""Parameterized-convex function approximators with training and solvers."""

from .networks import (
    Bank,
    FeedforwardNet,
    forward_batch,
    grad_u_batch,
    load_model,
    save_model,
)
from .numerics import BoxDomain, Rng
from .solver import SolveOptions, SolveResult, minimize, minimize_batch
from .training import Dataset, TrainConfig, init_network, train
from .verification import run_check_suite

__version__ = "0.1.0"

__all__ = [
    "Bank",
    "BoxDomain",
    "Dataset",
    "FeedforwardNet",
    "Rng",
    "SolveOptions",
    "SolveResult",
    "TrainConfig",
    "forward_batch",
    "grad_u_batch",
    "init_network",
    "load_model",
    "minimize",
    "minimize_batch",
    "save_model",
    "train",
    "run_check_suite",
    "__version__",
]
