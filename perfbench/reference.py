"""Arithmetic answers for the benchmark instances, computed without catfrac.

Two instance families are used, and both have a closed-form description of
their localisation:

* ``chain(n)``, the total order 0 < 1 < ... < n-1 with every morphism
  inverted.  Morphism ``m_x_y`` is x -> y and ``i_x`` is the identity.  The
  localisation is the indiscrete category on n objects, so a class is fixed
  by its (source, target) pair and there are n * n classes.
* ``Z/n``, the multiplicative monoid of the integers mod n with its units
  inverted.  A three-arrow (b, f, a) has the value f * b^-1 * a^-1 mod n,
  which is constant on each class and separates classes, so there are n
  classes and composition multiplies values.

A three-arrow ``b,f,a`` is the diagram X <=b= . -f-> . <=a= Y: b and f share
their source, f and a share their target, the source is tgt(b) and the
target is src(a).
"""

from __future__ import annotations

import random
from math import gcd


# -- chain(n) ------------------------------------------------------------------

def chain_morphism(x: int, y: int) -> str:
    return f"i_{x}" if x == y else f"m_{x}_{y}"


def chain_ends(name: str) -> tuple[int, int]:
    """(source, target) of a chain morphism id."""
    parts = name.split("_")
    if parts[0] == "i" and len(parts) == 2:
        x = int(parts[1])
        return x, x
    if parts[0] == "m" and len(parts) == 3:
        x, y = int(parts[1]), int(parts[2])
        if x < y:
            return x, y
    raise ValueError(f"not a chain morphism id: {name!r}")


def chain_arrow_ends(text: str) -> tuple[int, int]:
    """(source, target) of a chain three-arrow; raises on a malformed one."""
    b, f, a = (chain_ends(p) for p in text.split(","))
    if b[0] != f[0] or a[1] != f[1]:
        raise ValueError(f"endpoint mismatch in {text!r}")
    return b[1], a[0]


def chain_arrow(rng: random.Random, n: int, x: int, y: int) -> str:
    """A random three-arrow of chain(n) from x to y."""
    u = rng.randrange(x + 1)
    v = rng.randrange(max(u, y), n)
    return ",".join(
        (chain_morphism(u, x), chain_morphism(u, v), chain_morphism(y, v))
    )


def chain_arrow_count(n: int) -> int:
    """Number of three-arrows of chain(n)."""
    return sum(_chain_hom_counts(n))


def chain_theorem_pairs(n: int) -> int:
    """Unordered parallel pairs, diagonal included, the theorem suite checks."""
    return sum(c * (c + 1) // 2 for c in _chain_hom_counts(n))


def _chain_hom_counts(n: int) -> list[int]:
    # three-arrows x -> y are (u, v) with u <= x, u <= v and y <= v
    return [
        sum(n - max(u, y) for u in range(x + 1))
        for x in range(n)
        for y in range(n)
    ]


# -- Z/n -----------------------------------------------------------------------

def units(n: int) -> list[int]:
    return [k for k in range(n) if gcd(k, n) == 1]


def zmod_value(n: int, text: str) -> int:
    """f * b^-1 * a^-1 mod n; raises when b or a is not a unit."""
    b, f, a = (int(p) for p in text.split(","))
    return f * pow(b, -1, n) * pow(a, -1, n) % n


def zmod_arrow(rng: random.Random, n: int, value: int | None = None) -> str:
    """A random three-arrow of Z/n, with the given value when one is given."""
    us = units(n)
    b, a = rng.choice(us), rng.choice(us)
    f = rng.randrange(n) if value is None else value * b * a % n
    return f"{b},{f},{a}"


def zmod_theorem_pairs(n: int) -> int:
    c = len(units(n)) ** 2 * n
    return c * (c + 1) // 2
