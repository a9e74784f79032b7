"""Six-vertex model with domain wall boundary conditions.

Exact finite-size partition functions via scaled Hankel determinants,
brute-force enumeration oracles, and the thermodynamic-limit layer
(saddle-point geometry, phase-resolved bulk free energies, densities and
subleading corrections), all in arbitrary-precision arithmetic.

Names and submodules are imported on first access (PEP 562), so that
``import sixvertex`` and the command line's help and usage errors load no
numeric code.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each submodule and the public names it provides; the one list behind
# __getattr__, __all__ and __dir__
_EXPORTS = {
    "precision": ("Precision",),
    "errors": ("SixVertexError", "PhaseDomainError", "DomainError",
               "PrecisionExhaustedError", "CutoffTooSmallError",
               "QuadratureError", "DegenerateGeometryError",
               "InsufficientDataError"),
    "specfun": ("EllipticData", "elliptic_K", "elliptic_E",
                "elliptic_data_from_gamma", "jacobi_sn_cn_dn", "jacobi_zeta",
                "theta", "theta_all", "theta1_prime_zero"),
    "exactcore": ("PhaseParams", "Weights", "DerivativeTable", "TauValue",
                  "PHASES", "phase_params", "weights_from", "phi_derivatives",
                  "tau_scaled", "tau_sequence", "partition_Z",
                  "tau_discrete_sum", "toda_residual", "toda_residuals",
                  "laplace_moment_check", "c_factor"),
    "oracle": ("EnumResult", "enumerate_dwbc", "Z_bruteforce", "asm_count"),
    "asymptotics": ("SaddleGeometry", "endpoints", "chemb_residual",
                    "FreeEnergy", "bulk_f", "dfdzeta", "f_small_gamma",
                    "F_modular", "ode_check", "resolvent",
                    "density_normalization", "rho_at", "saddle_residual",
                    "subleading_AF_fit", "smooth_fit_D"),
}

# public name or submodule name -> the submodule it comes from
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__.append("__version__")


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
