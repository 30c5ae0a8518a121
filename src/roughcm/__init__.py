"""Taylor approximations of local random center manifolds for rough SDEs.

The package derives the coefficient equations of the Taylor ansatz
symbolically, solves them as stationary paths along sampled geometric rough
paths, and validates the resulting graph map against a discretized
Lyapunov-Perron fixed point.
"""
from .controlled import ControlledPath, D2GNorm, norm_d2g
from .gubinelli import (cell_terms, convolve_diffusion, convolve_drift,
                        semigroup_step)
from .invariance import (CoefficientSystem, FieldValidationError,
                         NumericField, NumericHierarchy, NumericSystem,
                         PolyField, SystemSpec, derive_system, load_system,
                         propagate_zeros, residuals)
from .manifold import (LPConfig, LPResult, ManifoldApproximation,
                       NewtonConvergenceError, NonContractionError,
                       NonConvergenceError, evaluate_phi,
                       leading_order_happ, lyapunov_perron_hc,
                       lyapunov_perron_sweep, order_fit, smoothstep)
from .rde import solve_affine
from .roughpath import (CovarianceFactorizationError, Grid, RoughPath,
                        coarsen, lift_brownian, lift_fbm, unit_block, validate)
from .stationary import HierarchyResult, NonStableOrderError, solve_hierarchy

__version__ = "0.1.0"
