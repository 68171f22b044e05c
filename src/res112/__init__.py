"""Bifurcations, energy-momentum fibers, and monodromy of the axially
symmetric 1:1:-2 resonant oscillator."""

from .errors import (AmbiguousClassificationError, LoopError, NumericalError,
                     Res112Error, RootFindingError, UnsupportedRegimeError,
                     ValidationError)
from .model import (CasimirValues, KappaScaled, ModelParams, detuning_lambda,
                    kappa_scaling)
from .reduced_space import TipClass, TipKind, r_min, section_sq, tip_class
from .reduced_dynamics import (Equilibrium, ReducedParams, Stability,
                               equilibria, h_min, tip_energy)
from .bifurcations import (BifurcationEvent, BifurcationKind, CatalogPoint,
                           InstabilityInterval, LambdaStratum, Quartic,
                           a0_root, catalog_point, catalog_slice,
                           catalog_surface, classify_multiple_root, f_quartic,
                           families_at, family_domain, hopf_cusp_slice,
                           instability_interval, oracle_slice,
                           solve_bifurcations_numeric)
from .critical_values import (ComponentDescriptor, CriticalSlice, FiberKind,
                              FiberReport, SliceNode, ThreadSegments,
                              classify_fiber, classify_fibers, crease_span,
                              critical_slice, thread_segments)
from .monodromy import (MonodromyMatrix, MonodromyResult, MonodromyVector,
                        RotationData, generator_loop, monodromy_vector,
                        rotation_numbers, to_matrix)

__version__ = "0.1.0"
