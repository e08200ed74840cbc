from .base import EnvironmentSpec, load_custom_env
from .builtin import BUILTIN_FACTORIES, make_lr, make_rps, make_sis, make_toy_lr
from .taxi import DEFAULT_MAP, TaxiEnvironment, TaxiState, make_taxi

__all__ = [
    "EnvironmentSpec",
    "load_custom_env",
    "BUILTIN_FACTORIES",
    "make_lr",
    "make_toy_lr",
    "make_rps",
    "make_sis",
    "DEFAULT_MAP",
    "TaxiEnvironment",
    "TaxiState",
    "make_taxi",
]
