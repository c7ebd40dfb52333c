"""Fusion rings, quantum dimensions and certified summability criteria
for class-function algebras of compact quantum groups.

The public names below are imported from their home submodule on each
access (PEP 562), so ``import qclassfun`` loads no submodule and a command
line run loads only what its subcommand uses.  Nothing is cached here:
a name rebound in its home module is seen through the package too.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bicrossed": (
        "BicrossedParams", "RatioIrrational", "RatioRational", "ScalingTime",
        "center_description", "factor_report", "is_inner_scaling", "is_trivial_scaling",
        "iso_necessary",
    ),
    "criteria": (
        "MasaVerdict", "SeriesResult", "Verdict", "block_sum_S", "bound_S_dim2",
        "bound_S_dimge3", "kac_part", "masa_verdict", "quasi_split_sum_ladder",
        "threshold_dim2", "threshold_ratio_dimge3", "threshold_remark", "total_sum_free",
        "verify_decay",
    ),
    "errors": ("BudgetError", "DomainError", "FamilyError", "KacTypeError"),
    "fusion": (
        "FamilyKind", "FusionFamily", "dim", "factorize", "free_unitary",
        "invariant_multiplicity", "rho_spectrum", "so3_ladder", "su2_ladder", "tensor_free",
        "tensor_fundamental", "tensor_reduce",
    ),
    "scalars": ("LaurentScalar", "q_number", "solve_fundamental_q"),
    "spectral": (
        "JacobiOperator", "build_jacobi", "commutant_dim", "krylov_rank",
        "modular_eigencoefficients", "modular_norm_sq", "suq2_relation_residuals",
    ),
}

#: Public name -> the submodule that defines it.
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
