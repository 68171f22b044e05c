"""Bifurcations, energy-momentum fibers, and monodromy of the axially
symmetric 1:1:-2 resonant oscillator."""

from .errors import (AmbiguousClassificationError, LoopError, NumericalError,
                     Res112Error, RootFindingError, SingularityProximityError,
                     UnsupportedRegimeError, ValidationError)
from .model import (CasimirValues, Chart, FullState, InvariantPoint,
                    KappaScaled, ModelParams, ReducedState, detuning_lambda,
                    from_oscillator, kappa_scaling, reduce, structure_matrix,
                    syzygy_gradient, syzygy_residual, to_oscillator,
                    torus_action)
from .reduced_space import TipClass, TipKind, r_min, section_sq, tip_class
from .reduced_dynamics import (Equilibrium, ReducedParams, Stability,
                               Trajectory, equilibria, h_min,
                               integrate_orbit, reduced_h, tip_energy,
                               vector_field)
from .bifurcations import (BifurcationEvent, BifurcationKind, CatalogPoint,
                           InstabilityInterval, LambdaStratum, Quartic,
                           a0_root, catalog_point, catalog_slice,
                           catalog_surface, classify_multiple_root, f_quartic,
                           families_at, family_domain, hopf_cusp_slice,
                           instability_interval, oracle_slice,
                           solve_bifurcations_numeric)
from .critical_values import (ComponentDescriptor, CriticalSlice, FiberKind,
                              FiberReport, SliceNode, ThreadSegments,
                              classify_fiber, crease_span, critical_slice,
                              thread_segments)
from .monodromy import (MonodromyMatrix, MonodromyResult, MonodromyVector,
                        RotationData, generator_loop, lift_turning_point,
                        monodromy_vector, rotation_numbers, to_matrix)

__version__ = "0.1.0"
