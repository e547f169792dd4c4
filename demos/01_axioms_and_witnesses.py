"""
Checking the denominator-structure axioms
=========================================

A structure on a finite category consists of three morphism subsets
D (the morphisms to be inverted) and S, T (the denominators supporting
one-sided completions).  This script builds a few instances and walks
through the axiom battery: multiplicativity, the 2-out-of-3 closure,
weakly universal completion squares and S-then-T factorisations.
"""

from catfrac import classify_saturation, is_uni_fractionable, is_weak_pushout
from catfrac.instances import make_named

# ---------------------------------------------------------------------------
# The 3-object chain with D = {identities, 0<=1} passes everything.

ch3 = make_named("CH3")
ok, certificate = is_uni_fractionable(ch3)
print("CH3")
for line in certificate.lines():
    print("   ", line)
print("    ladder level:", classify_saturation(ch3))

# ---------------------------------------------------------------------------
# The idempotent monoid {1, e} is the classic failure: every commuting
# square over (e, e) exists, but none of them is weakly universal.  The
# checker names the offending pair.

idem = make_named("IDEM")
ok, certificate = is_uni_fractionable(idem)
print("\nIDEM")
for line in certificate.lines():
    print("   ", line)

e = idem.base.mor_index["e"]
one = idem.base.mor_index["1"]
for square in ((e, e, e, e), (e, e, one, one)):
    print(f"    weak pushout {square}?", is_weak_pushout(idem.base, square))

# ---------------------------------------------------------------------------
# Witness caches: every factorisation the checker records is the smallest
# S-then-T splitting in file order, so later constructions are replayable.
# A witness is a plain pair of morphism indices: witnesses[d] == (i, p).

certificate = ch3.certificate()
print("\nCH3 factorisation witnesses")
names = ch3.base.morphisms
for d, (i, p) in certificate.fac.witnesses.items():
    print(f"    {names[d]} = {names[i]} ; {names[p]}")
