"""Localisation of finite categories by a three-arrow calculus of fractions.

The library verifies the denominator-structure axioms on explicit finite
composition tables, builds the category of double fractions from the
partition of three-arrows into fraction-equality classes, and exhaustively
validates the structural statements the construction is supposed to
satisfy (well-definedness, universal property, the 3-by-3 equality
criterion, saturation transfer, and transport of finite (co)products) on
desk-scale instances.
"""

from .core import (
    DomainError,
    FinCategory,
    FunctorTable,
    InvariantError,
    validate_category,
    validate_functor,
)
from .denominators import (
    AxiomError,
    DenominatorData,
    check_Fac,
    check_WU,
    classify_saturation,
    is_multiplicative,
    is_two_of_six,
    is_two_of_three,
    is_uni_fractionable,
    is_weak_pullback,
    is_weak_pushout,
    validate_uf_morphism,
)
from .three_arrows import (
    ThreeArrow,
    common_denominator,
    enumerate_three_arrows,
    fraction_equivalence,
    fraction_generators,
    generating_denominators,
    is_denominator_class,
    normalise,
)
from .fraction import (
    FractionCategory,
    build_fraction_category,
    classify_isomorphisms,
    compose_fractions,
    induced_functor,
    induced_functor_on_fractions,
    induced_transformation,
    inverse_of_denominator,
    invert_class,
    is_saturated,
    st_independence_check,
    subcategory_equivalence,
)
from .calculus import (
    ThreeByThreeWitness,
    equal_by_3x3,
    factorisation_square,
    flip,
    mixed_composite_equal,
)
from .instances import make_monoid, make_named, make_poset
from .fileio import Instance, dump, dumps, load, loads

__all__ = [name for name in dir() if not name.startswith("_")]
