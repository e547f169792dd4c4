"""Built-in instance generators.

Poset instances use one morphism per comparable pair, named ``m_X_Y`` for
X < Y and ``i_X`` for identities; the strict relations come first in the
morphism list (in object order), identities after them.  Every
tie-breaking rule downstream keys on this order, so generator output is
byte-stable across runs.
"""

from __future__ import annotations

from itertools import product

from .core import DomainError, FinCategory
from .denominators import DenominatorData
from .fileio import CoproductData, Instance

NAMED = ("WALK", "CH3", "DIA", "DIA-B", "PAR", "IDEM", "Z4")


def make_poset(
    objects: list[str],
    leq: set[tuple[str, str]],
    denominators: str | list[str] = "all",
    s_denominators: list[str] | None = None,
    t_denominators: list[str] | None = None,
    name: str = "poset",
) -> DenominatorData:
    """Category of a finite partial order, one morphism per comparable pair.

    ``denominators`` is "all", "identities" or an explicit id list; S and T
    default to D.  Raises DomainError when ``leq`` is not reflexive,
    antisymmetric and transitive on ``objects``.
    """
    order = {x: i for i, x in enumerate(objects)}
    for x, y in leq:
        if x not in order or y not in order:
            raise DomainError(f"relation mentions unknown object ({x!r}, {y!r})")
    rel = set(leq) | {(x, x) for x in objects}
    for x in objects:
        if (x, x) not in rel:
            raise DomainError(f"not reflexive at {x!r}")
    for x, y in rel:
        if x != y and (y, x) in rel:
            raise DomainError(f"not antisymmetric on ({x!r}, {y!r})")
    for x, y in rel:
        for z in objects:
            if (y, z) in rel and (x, z) not in rel:
                raise DomainError(f"not transitive on ({x!r}, {y!r}, {z!r})")

    def mor_name(x: str, y: str) -> str:
        return f"i_{x}" if x == y else f"m_{x}_{y}"

    strict = [
        (x, y)
        for x in objects
        for y in objects
        if x != y and (x, y) in rel
    ]
    strict.sort(key=lambda p: (order[p[0]], order[p[1]]))
    pairs = strict + [(x, x) for x in objects]
    morphisms = [mor_name(x, y) for x, y in pairs]
    src = {mor_name(x, y): x for x, y in pairs}
    tgt = {mor_name(x, y): y for x, y in pairs}
    comp = {}
    for x, y in pairs:
        for y2, z in pairs:
            if y2 == y:
                comp[(mor_name(x, y), mor_name(y, z))] = mor_name(x, z)
    cat = FinCategory(
        name, list(objects), morphisms, src, tgt,
        {x: mor_name(x, x) for x in objects}, comp,
    )
    if denominators == "all":
        den = morphisms
    elif denominators == "identities":
        den = [mor_name(x, x) for x in objects]
    else:
        den = list(denominators)
    return DenominatorData(cat, den, s_denominators, t_denominators, name=name)


def make_monoid(
    labels: list[str],
    table: list[list[str]],
    denominators: list[str],
    s_denominators: list[str] | None = None,
    t_denominators: list[str] | None = None,
    name: str = "monoid",
    obj: str = "pt",
) -> DenominatorData:
    """One-object category from a multiplication table.

    ``table[i][j]`` is the composite "labels[i] then labels[j]".  Raises
    DomainError unless the table is associative with a two-sided unit.
    """
    n = len(labels)
    idx = {x: i for i, x in enumerate(labels)}
    if len(idx) != n or any(len(row) != n for row in table) or len(table) != n:
        raise DomainError("table must be square over distinct labels")
    t = [[idx[entry] for entry in row] for row in table]
    unit = None
    for e in range(n):
        if all(t[e][x] == x and t[x][e] == x for x in range(n)):
            unit = e
            break
    if unit is None:
        raise DomainError("no two-sided unit")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise DomainError(
                        f"not associative on ({labels[a]}, {labels[b]}, {labels[c]})"
                    )
    cat = FinCategory(
        name,
        [obj],
        list(labels),
        {x: obj for x in labels},
        {x: obj for x in labels},
        {obj: labels[unit]},
        {(labels[a], labels[b]): table[a][b] for a in range(n) for b in range(n)},
    )
    return DenominatorData(cat, denominators, s_denominators, t_denominators, name=name)


def transformation_monoid(n: int) -> DenominatorData:
    """The full transformation monoid T_n: every map {0..n-1} -> {0..n-1},
    with its units (the permutations) as D = S = T.

    A map is named by its images, e.g. "120" sends 0 to 1, 1 to 2 and 2 to
    0; maps come in lexicographic order.  The composite "f then g" is the
    map x -> g(f(x)), which is associative by construction.
    """
    if not 1 <= n <= 9:
        raise DomainError(f"transformation monoid needs 1 <= n <= 9, got {n}")
    maps = list(product(range(n), repeat=n))
    label = {m: "".join(map(str, m)) for m in maps}
    labels = [label[m] for m in maps]
    cat = FinCategory(
        f"T{n}",
        ["pt"],
        labels,
        {x: "pt" for x in labels},
        {x: "pt" for x in labels},
        {"pt": label[tuple(range(n))]},
        {
            (label[f], label[g]): label[tuple(g[x] for x in f)]
            for f in maps
            for g in maps
        },
    )
    units = [label[m] for m in maps if len(set(m)) == n]
    return DenominatorData(cat, units, name=cat.name)


def chain(n: int, denominators="all", name=None, **kw) -> DenominatorData:
    objects = [str(k) for k in range(n)]
    leq = {(str(a), str(b)) for a in range(n) for b in range(n) if a <= b}
    return make_poset(objects, leq, denominators, name=name or f"chain{n}", **kw)


def diamond(denominators="all", name="DIA", **kw) -> DenominatorData:
    objects = ["bot", "a", "b", "top"]
    leq = {(x, x) for x in objects} | {
        ("bot", "a"), ("bot", "b"), ("bot", "top"), ("a", "top"), ("b", "top"),
    }
    return make_poset(objects, leq, denominators, name=name, **kw)


def make_named(name: str) -> DenominatorData:
    """The seven named instances used by the verification suites."""
    if name == "WALK":
        return chain(2, "all", name="WALK")
    if name == "CH3":
        return chain(3, ["m_0_1", "i_0", "i_1", "i_2"], name="CH3")
    if name == "DIA":
        return diamond("all")
    if name == "DIA-B":
        # same underlying category with denominators as DIA; only S, T differ
        dd = diamond("all", name="DIA")
        return DenominatorData(
            dd.base,
            dd.denominator_ids,
            s_denominators=dd.denominator_ids,
            t_denominators=[f"i_{x}" for x in ("bot", "a", "b", "top")],
            name="DIA-B",
        )
    if name == "PAR":
        cat = FinCategory(
            "PAR",
            ["X", "Y"],
            ["f", "g", "i_X", "i_Y"],
            {"f": "X", "g": "X", "i_X": "X", "i_Y": "Y"},
            {"f": "Y", "g": "Y", "i_X": "X", "i_Y": "Y"},
            {"X": "i_X", "Y": "i_Y"},
            {
                ("i_X", "f"): "f", ("f", "i_Y"): "f",
                ("i_X", "g"): "g", ("g", "i_Y"): "g",
                ("i_X", "i_X"): "i_X", ("i_Y", "i_Y"): "i_Y",
            },
        )
        return DenominatorData(cat, ["i_X", "i_Y"], name="PAR")
    if name == "IDEM":
        return make_monoid(
            ["1", "e"],
            [["1", "e"], ["e", "e"]],
            ["1", "e"],
            name="IDEM",
        )
    if name == "Z4":
        labels = ["0", "1", "2", "3"]
        table = [
            [str((a * b) % 4) for b in range(4)] for a in range(4)
        ]
        return make_monoid(labels, table, ["1", "3"], name="Z4")
    raise DomainError(f"unknown instance name {name!r}; known: {', '.join(NAMED)}")


def poset_coproducts(dd: DenominatorData) -> CoproductData:
    """Joins and bottom of a poset instance, as chosen-coproduct data.

    Raises DomainError unless the base is a poset: at most one arrow per
    hom-set and no arrows both ways between distinct objects.
    """
    cat = dd.base
    leq = {
        (cat.src_of(f), cat.tgt_of(f)) for f in cat.morphisms
    }
    if len(leq) != cat.n_morphisms or any(x != y and (y, x) in leq for x, y in leq):
        raise DomainError("not a poset")
    bottoms = [x for x in cat.objects if all((x, y) in leq for y in cat.objects)]
    if not bottoms:
        raise DomainError(f"{cat.name} has no bottom element")

    def arrow(x: str, y: str) -> str:
        return cat.morphisms[cat.hom(cat.obj_index[x], cat.obj_index[y])[0]]

    pairwise = {}
    for x in cat.objects:
        for y in cat.objects:
            ubs = [z for z in cat.objects if (x, z) in leq and (y, z) in leq]
            joins = [z for z in ubs if all((z, w) in leq for w in ubs)]
            if not joins:
                raise DomainError(f"no join for ({x!r}, {y!r}) in {cat.name}")
            j = joins[0]
            pairwise[(x, y)] = (j, arrow(x, j), arrow(y, j))
    return CoproductData(bottoms[0], pairwise)


def poset_products(dd: DenominatorData) -> CoproductData:
    """Meets and top of a poset instance: the joins and bottom of its
    opposite, which is how a product table is held."""
    return poset_coproducts(dd.opposite())


def as_instance(dd: DenominatorData, with_structure: bool = False) -> Instance:
    """File-format view of a denominator structure."""
    inst = Instance(
        category=dd.base,
        denominators=dd.denominator_ids,
        s_denominators=dd.s_ids,
        t_denominators=dd.t_ids,
    )
    if with_structure:
        try:
            inst.coproducts = poset_coproducts(dd)
            inst.products = poset_products(dd)
        except DomainError:
            pass
    return inst


def from_instance(inst: Instance) -> DenominatorData:
    return DenominatorData(
        inst.category,
        inst.denominators,
        inst.s_denominators,
        inst.t_denominators,
        name=inst.category.name,
    )
