"""Exact arithmetic for integer-valued rational functions over valued fields.

The package computes, with no floating point anywhere: lexicographically
ordered value groups and their divisible closures; four exactly computable
valued fields (p-adic rationals, t-adic rational functions, a rank-2 lex
field, and a Hahn-style field with divisible value group); polynomial and
rational-function arithmetic over any of them; the piecewise-linear
minimum-valuation envelope with local polynomials and valuation prediction;
certification of membership in rings and ideals of integer-valued rational
functions over valuation rings, residue-subfield pullbacks, and finite
intersections; and the explicit separator constructions with their
verification suites.
"""

from .errors import (ConfigError, IvrfError, ParseError, PreconditionError,
                     ResourceError, StructuralError, UndecidedError,
                     UnsupportedCaseError)
from .ordgroup import GroupElement, GroupSpec, INFINITY
from .ratfun import POLE, Polynomial, RationalFunction, parse_ratfun
from .ff import FFElement, FiniteField, RatFuncField
from .fields import (ConstantSubfield, FrobeniusSubfield, HahnElement,
                     HahnFinite, LexRank2, PAdicQ, PrimePowerSubfield, QQ,
                     SubfieldSpec, TAdicRat, ValuedField, field_from_config)
from .newton import (Envelope, PiecewiseLinear, RatEnvelope, Segment,
                     local_poly, minval_poly, minval_rat, predict,
                     slopes_check)
from .intr import (CertifiedIn, CertifiedOut, DomainSpec, MStar, Pointed,
                   Unknown, ValueIdeal, WHOLE_FIELD, WHOLE_RING,
                   characteristic_set, dichotomy_check, domain_from_config,
                   ideal_member, intr_member)
from .constructions import (FieldMapReport, SingularData, build_psi,
                            build_rho, build_separator, build_theta,
                            coprime_grid, field_map_scan, notlocal_witness,
                            preset, verify_psi, verify_rho, verify_separator,
                            verify_theta)

__version__ = "0.1.0"
