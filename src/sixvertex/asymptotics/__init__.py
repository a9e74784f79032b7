"""Thermodynamic-limit layer: saddle-point geometry, bulk free energies,
resolvents and densities, expansion cross-checks, subleading fits."""

from .geometry import SaddleGeometry, endpoints, chemb_residual
from .freenergy import (FreeEnergy, bulk_f, dfdzeta, f_small_gamma, F_modular,
                        ode_check)
from .resolvent import (resolvent, density_normalization, rho_at,
                        saddle_residual)
from .fits import subleading_AF_fit, smooth_fit_D
