"""Composition collisions of univariate polynomials at degree p^2 over F_q.

Construction of the three collision families (Frobenius, simply original,
multiply original), parameter identification, collision classification,
exact closed-form counting, and an exhaustive census oracle verifying the
counts at small field sizes.
"""

from .census import CensusReport, class_partition_check, run_census, verify
from .constructions import (HEqualsXr, InvalidParams, MultiplyParams,
                            NoValidM, SimplyParams, build_M, build_S,
                            decompositions_S, frobenius_collision,
                            frobenius_map, root_set_T)
from .counting import (NonIntegerResult, NotAPower, Spectrum,
                       count_decomposable, count_multiply, count_simply,
                       c2_pairs, gamma, nu, spectrum, tau)
from .decomp_core import (Collision, Decomposition, DegreeMismatch,
                          MonicOriginal, NotOriginal, left_divide,
                          original_shift, shift_decomposition)
from .gf import (FIELD_LIMIT, DegenerateLeadingCoefficient, DivisionByZero,
                 FieldElem, FieldSpec, FieldTooLarge, MixedFields,
                 NoModulusFound, NotPrime,
                 ReducibleModulus, enumerate_elements, field_new,
                 format_field, frobenius, parse_field, projective_roots,
                 pth_root, solve_quadratic, sqrt)
from .identify import (CollisionClass, CollisionTag, MultiplyMatch,
                       SimplyMatch, brute_force_decompositions, classify,
                       enumerate_decompositions, identify_multiply,
                       identify_simply)
from .polyring import (ConstantBase, NEG_INFINITY, NotMonic, Poly,
                       ZeroPolynomial, compose, derivative, divrem, evaluate,
                       exact_div, format_poly, gcd, is_squarefree,
                       max_power_dividing, parse_poly, poly_pth_root,
                       second_degree, taylor_expansion)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
