"""
Transporting (co)products into the localisation
===============================================

When the denominators are closed under coproducts of morphisms, the
localisation keeps initial objects and pairwise coproducts, and the
induced morphism of two classes with a shared leg has a closed formula.
This script verifies everything on the diamond lattice (joins/bottom,
meets/top) and finishes with the hom-addition formula on a one-object
additive shell.
"""

from catfrac import build_fraction_category
from catfrac.fileio import AdditionTables
from catfrac.instances import make_monoid, make_named, poset_coproducts, poset_products
from catfrac.three_arrows import ThreeArrow
from catfrac.transport import (
    check_localisation_preserves_coproducts,
    check_localisation_preserves_products,
    denominators_closed_under_coproducts,
    sum_formula_check,
    validate_coproducts,
)

# ---------------------------------------------------------------------------
# Lattice joins are chosen coproducts; meets are chosen products.

dia = make_named("DIA")
cp = poset_coproducts(dia)
print("diamond joins validate as coproducts:",
      validate_coproducts(dia.base, cp) == [])
print("denominators closed under joins:",
      denominators_closed_under_coproducts(dia, cp)[0])

fc = build_fraction_category(dia)
print("localisation preserves coproducts:",
      check_localisation_preserves_coproducts(fc, cp) == [])

# a product table is the coproduct table of the opposite category
pd = poset_products(dia)
print("localisation preserves products:",
      check_localisation_preserves_products(fc, pd) == [])

# ---------------------------------------------------------------------------
# Hom-addition: the multiplicative shell of Z/2 carries the additive
# structure of the ring, and sums transport classwise:
# [b/f/a] + [b/g/a] = [b/(f+g)/a].

shell = make_monoid(["z", "u"], [["z", "z"], ["z", "u"]], ["u"], name="Z2")
add = AdditionTables(
    zero={("pt", "pt"): "z"},
    plus={("z", "z"): "z", ("z", "u"): "u", ("u", "z"): "u", ("u", "u"): "z"},
)
fc = build_fraction_category(shell)
print("\nshell sum formula holds:", sum_formula_check(fc, add) == [])

mi = shell.base.mor_index
twice_u = add.plus[("u", "u")]
lhs = fc.partition.class_id(ThreeArrow(mi["u"], mi[twice_u], mi["u"]))
zero_class = fc.partition.class_id(ThreeArrow(mi["u"], mi["z"], mi["u"]))
print("[u/u/u] + [u/u/u] =", lhs, "=", zero_class, "(the zero class)")
