"""Six-vertex model with domain wall boundary conditions.

Exact finite-size partition functions via scaled Hankel determinants,
brute-force enumeration oracles, and the thermodynamic-limit layer
(saddle-point geometry, phase-resolved bulk free energies, densities and
subleading corrections), all in arbitrary-precision arithmetic.
"""

from .precision import Precision
from .errors import (SixVertexError, PhaseDomainError, DomainError,
                     PrecisionExhaustedError, CutoffTooSmallError,
                     QuadratureError, DegenerateGeometryError,
                     InsufficientDataError)
from .specfun import (EllipticData, elliptic_K, elliptic_E,
                      elliptic_data_from_gamma, jacobi_sn_cn_dn, jacobi_zeta,
                      theta, theta_all, theta1_prime_zero)
from .exactcore import (PhaseParams, Weights, DerivativeTable, TauValue,
                        PHASES, phase_params, weights_from, phi_derivatives,
                        tau_scaled, tau_sequence, partition_Z,
                        tau_discrete_sum, toda_residual, toda_residuals,
                        laplace_moment_check, c_factor)
from .oracle import EnumResult, enumerate_dwbc, Z_bruteforce, asm_count
from .asymptotics import (SaddleGeometry, endpoints, chemb_residual,
                          FreeEnergy, bulk_f, dfdzeta, f_small_gamma,
                          F_modular, ode_check, resolvent,
                          density_normalization, subleading_AF_fit,
                          smooth_fit_D)
from .asymptotics.resolvent import rho_at, saddle_residual

__version__ = "0.1.0"

__all__ = [
    "Precision",
    "SixVertexError", "PhaseDomainError", "DomainError",
    "PrecisionExhaustedError", "CutoffTooSmallError", "QuadratureError",
    "DegenerateGeometryError", "InsufficientDataError",
    "EllipticData", "elliptic_K", "elliptic_E", "elliptic_data_from_gamma",
    "jacobi_sn_cn_dn", "jacobi_zeta", "theta", "theta_all",
    "theta1_prime_zero",
    "PhaseParams", "Weights", "DerivativeTable", "TauValue", "PHASES",
    "phase_params", "weights_from", "phi_derivatives", "tau_scaled",
    "tau_sequence", "partition_Z", "tau_discrete_sum", "toda_residual",
    "toda_residuals", "laplace_moment_check", "c_factor",
    "EnumResult", "enumerate_dwbc", "Z_bruteforce", "asm_count",
    "SaddleGeometry", "endpoints", "chemb_residual", "FreeEnergy", "bulk_f",
    "dfdzeta", "f_small_gamma", "F_modular", "ode_check", "resolvent",
    "density_normalization", "rho_at",
    "saddle_residual", "subleading_AF_fit", "smooth_fit_D",
    "__version__",
]
