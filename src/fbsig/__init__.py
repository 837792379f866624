"""Feedback differential invariants and signature manifolds of scalar
first-order control systems dx/dt = F(x, u, du/dt).

The package computes the invariants J (order 2) and K (order 3), the three
invariant derivations and their nested derivatives, assembles the
14-component signature vector per base point, samples signature manifolds,
and decides local feedback equivalence of two systems by comparing the
sampled manifolds.  A companion orbit-dimension laboratory verifies the
rank and invariant-count bookkeeping on jet spaces numerically.
"""

from .errors import (ArityError, ConfigError, DependentBasis,
                     DivisionBySingular, DomainError, EmptyCloud,
                     ExpressionSyntaxError, FbsigError, NonRegular,
                     OrderExceeded, RelationViolation, SingularTransform,
                     TooFewSamples, UnknownIdentifier)
from .expr import Expression, parse
from .invariants import (SIGNATURE_COMPONENTS, DerivationField,
                         RegularityFlags, SignatureVector, apply_nabla,
                         bracket, bracket_scalars, eval_J, eval_K,
                         nabla_from_taylor, pullback_from_taylor, regularity,
                         signature_series, signature_vector, system_jet)
from .orbits import (Generator, generating_function, orbit_rank,
                     prolonged_vector, random_jet_point, invariant_counts)
from .signature import (SignatureCloud, Verdict, build_cloud, compare,
                        export_cloud, intrinsic_dimension, select_chart,
                        tresse)
from .systems import Box, SystemDef
from .taylor import (TaylorValue, compose_elementary, lift_variables,
                     poly_compose)
from .transform import (FeedbackMap, TransformedSystem, invertibility_check,
                        pushforward_point, random_feedback, transformed_jet,
                        transformed_taylor)

__version__ = "0.1.0"
