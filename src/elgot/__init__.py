"""Iteration monads, coinductive resumption trees, unguarded iteration on
them, handlers into other iteration monads, and two small interpreters."""

from .core import (Carrier, CarrierMismatchError, ConfigError, ElgotMonad,
                   Inl, Inr, KleisliFn, Pair, carrier, compose_kleisli,
                   copair, kleisli_unit, make_kleisli, prod_carrier,
                   strong_iterate, sum_carrier)
from .base_monads import (FinSetMonad, MaybeMonad, NondetStateMonad, NOTHING,
                          Just, FinSet, NdState, elgot_instance, finset,
                          kleene_iterate, partition_iterate_maybe, reach_iterate)
from .resumption import (OpDecl, ResTree, ResumptionMonad, Signature, Thunk)
from .iteration import (UnguardedError, bare_recursive_leaf, guard_transform,
                        iterate_res, pre_iterate, solve_guarded, solve_system)
from .handler import (EffectInterpretation, HandleResult, InterpretationError,
                      MonadMorphism, handle, identity_morphism,
                      maybe_to_finset, zeta)

__all__ = [name for name in dir() if not name.startswith("_")]
