"""Canonical instance files.

An instance is one JSON document with a fixed key order:

    name, objects, morphisms, identities, composition,
    denominators, s_denominators, t_denominators,
    [initial], [coproducts], [terminal], [products], [addition],
    [classes], [localisation]

The writer sorts every set-like list by morphism/object index and emits
two-space indentation, so two semantically equal instances serialise to
byte-identical documents and writer(loader(file)) == file for files the
writer produced.

This module is the only one that knows the JSON shape of the optional
fields.  The loader reads ``initial``/``coproducts`` into a
:class:`CoproductData`, ``terminal``/``products`` into the coproduct table
of the opposite category (the terminal object as its unit, the
projections as its legs) and ``addition`` into :class:`AdditionTables`.
It refuses what those keyed tables cannot hold losslessly: a unit without
its table or the reverse, a repeated pair, block or row, and an addition
row whose first summand lies outside its block's hom.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import DomainError, FinCategory


@dataclass
class CoproductData:
    """Chosen initial object and pairwise coproducts (object, emb1, emb2).

    A product table is the coproduct table of the opposite category: the
    terminal object sits in ``initial`` and the projections are the legs.
    """

    initial: str
    pairwise: dict[tuple[str, str], tuple[str, str, str]]


@dataclass
class AdditionTables:
    """Hom-wise commutative-monoid addition.

    ``zero[(x, y)]`` names the additive unit of hom(x, y) and
    ``plus[(f, g)]`` the sum of two parallel morphisms.
    """

    zero: dict[tuple[str, str], str]
    plus: dict[tuple[str, str], str]


@dataclass
class Instance:
    """A category with denominator structure, plus optional extras."""

    category: FinCategory
    denominators: list[str]
    s_denominators: list[str]
    t_denominators: list[str]
    coproducts: CoproductData | None = None
    products: CoproductData | None = None
    addition: AdditionTables | None = None
    classes: dict[str, list[str]] | None = None
    localisation: dict[str, str] | None = None


def _as_instance(doc: dict, where: str) -> Instance:
    """Check the shape and ids of the category fields, build the category,
    then check and build the optional unit, (co)product and addition
    tables; each error names its JSON path."""

    def fail(path: str, msg: str):
        raise DomainError(f"{where}: {path}: {msg}")

    for key in ("name", "objects", "morphisms", "identities", "composition"):
        if key not in doc:
            raise DomainError(f"{where}: missing field {key!r}")
    objects = doc["objects"]
    if not isinstance(objects, list) or not all(isinstance(x, str) for x in objects):
        fail("objects", "expected a list of strings")
    for key in ("morphisms", "composition"):
        if not isinstance(doc[key], list):
            fail(key, "expected a list")
    known: dict[str, set[str]] = {"object": set(), "morphism": set()}

    def declare(path: str, value: str, kind: str) -> None:
        if value in known[kind]:
            fail(path, f"duplicate {kind} id {value!r}")
        known[kind].add(value)

    def ident(path: str, value, kind: str) -> None:
        if not isinstance(value, str):
            fail(path, "expected a string")
        if value not in known[kind]:
            fail(path, f"unknown {kind} id {value!r}")

    def idents(path: str, value, count: int, kind: str) -> None:
        if not isinstance(value, list) or len(value) != count:
            fail(path, f"expected {count} ids")
        for k, x in enumerate(value):
            ident(f"{path}[{k}]", x, kind)

    for n, x in enumerate(objects):
        declare(f"objects[{n}]", x, "object")
    for n, m in enumerate(doc["morphisms"]):
        path = f"morphisms[{n}]"
        if not isinstance(m, dict):
            fail(path, "expected an object")
        for field in ("id", "src", "tgt"):
            if field not in m:
                fail(path, f"missing field {field!r}")
        if not isinstance(m["id"], str):
            fail(f"{path}.id", "expected a string")
        declare(f"{path}.id", m["id"], "morphism")
        ident(f"{path}.src", m["src"], "object")
        ident(f"{path}.tgt", m["tgt"], "object")
    if not isinstance(doc["identities"], dict):
        fail("identities", "expected an object")
    for x, e in doc["identities"].items():
        ident(f"identities[{x!r}]", x, "object")
        ident(f"identities[{x!r}]", e, "morphism")
    for x in objects:
        if x not in doc["identities"]:
            fail("identities", f"no identity for object {x!r}")
    for n, entry in enumerate(doc["composition"]):
        idents(f"composition[{n}]", entry, 3, "morphism")
    for key in ("denominators", "s_denominators", "t_denominators"):
        if not isinstance(doc.get(key, []), list):
            fail(key, "expected a list")
        for k, f in enumerate(doc.get(key, [])):
            ident(f"{key}[{k}]", f, "morphism")

    cat = FinCategory(
        doc["name"],
        list(doc["objects"]),
        [m["id"] for m in doc["morphisms"]],
        {m["id"]: m["src"] for m in doc["morphisms"]},
        {m["id"]: m["tgt"] for m in doc["morphisms"]},
        dict(doc["identities"]),
        {(f, g): h for f, g, h in doc["composition"]},
    )

    def records(key: str, fields):
        if not isinstance(doc[key], list):
            fail(key, "expected a list")
        for n, entry in enumerate(doc[key]):
            path = f"{key}[{n}]"
            if not isinstance(entry, dict):
                fail(path, "expected an object")
            for field in fields:
                if field not in entry:
                    fail(path, f"missing field {field!r}")
            yield path, entry

    def coproduct_table(unit: str, key: str, legs: str) -> CoproductData | None:
        if doc.get(unit) is None and doc.get(key) is None:
            return None
        for given, other in ((unit, key), (key, unit)):
            if doc.get(other) is None:
                fail(given, f"given without {other!r}")
        ident(unit, doc[unit], "object")
        pairwise: dict[tuple[str, str], tuple[str, str, str]] = {}
        for path, e in records(key, ("of", "object", legs)):
            idents(f"{path}.of", e["of"], 2, "object")
            ident(f"{path}.object", e["object"], "object")
            idents(f"{path}.{legs}", e[legs], 2, "morphism")
            pair = (e["of"][0], e["of"][1])
            if pair in pairwise:
                fail(f"{path}.of", f"repeated pair {pair}")
            pairwise[pair] = (e["object"], e[legs][0], e[legs][1])
        return CoproductData(doc[unit], pairwise)

    addition = None
    if doc.get("addition") is not None:
        addition = AdditionTables({}, {})
        for path, e in records("addition", ("src", "tgt", "zero", "table")):
            ident(f"{path}.src", e["src"], "object")
            ident(f"{path}.tgt", e["tgt"], "object")
            ident(f"{path}.zero", e["zero"], "morphism")
            block = (e["src"], e["tgt"])
            if block in addition.zero:
                fail(path, f"repeated block {block}")
            addition.zero[block] = e["zero"]
            if not isinstance(e["table"], list):
                fail(f"{path}.table", "expected a list")
            for n, row in enumerate(e["table"]):
                idents(f"{path}.table[{n}]", row, 3, "morphism")
                f, g, total = row
                if (cat.src_of(f), cat.tgt_of(f)) != block:
                    fail(f"{path}.table[{n}][0]", f"{f!r} is not in hom{block}")
                if (f, g) in addition.plus:
                    fail(f"{path}.table[{n}]", f"repeated summands {(f, g)}")
                addition.plus[(f, g)] = total

    return Instance(
        category=cat,
        denominators=list(doc.get("denominators", [])),
        s_denominators=list(doc.get("s_denominators", [])),
        t_denominators=list(doc.get("t_denominators", [])),
        coproducts=coproduct_table("initial", "coproducts", "emb"),
        products=coproduct_table("terminal", "products", "proj"),
        addition=addition,
        classes=doc.get("classes"),
        localisation=doc.get("localisation"),
    )


def loads(text: str, where: str = "<string>") -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{where}: line {exc.lineno}, col {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise DomainError(f"{where}: top level must be an object")
    return _as_instance(doc, where)


def load(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise DomainError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
    return loads(text, where=path)


def dumps(inst: Instance) -> str:
    cat = inst.category
    mi, oi = cat.mor_index, cat.obj_index

    def mors(ids: list[str]) -> list[str]:
        return sorted(set(ids), key=lambda f: mi[f])

    doc: dict = {
        "name": cat.name,
        "objects": list(cat.objects),
        "morphisms": [
            {"id": f, "src": cat.src_of(f), "tgt": cat.tgt_of(f)}
            for f in cat.morphisms
        ],
        "identities": {x: cat.identity_of(x) for x in cat.objects},
        "composition": [
            [cat.morphisms[i], cat.morphisms[j], cat.morphisms[k]]
            for (i, j), k in sorted(cat.icomp.items())
        ],
        "denominators": mors(inst.denominators),
        "s_denominators": mors(inst.s_denominators),
        "t_denominators": mors(inst.t_denominators),
    }
    for unit, key, legs, table in (
        ("initial", "coproducts", "emb", inst.coproducts),
        ("terminal", "products", "proj", inst.products),
    ):
        if table is not None:
            doc[unit] = table.initial
            doc[key] = [
                {"of": list(pair), "object": table.pairwise[pair][0],
                 legs: list(table.pairwise[pair][1:])}
                for pair in sorted(table.pairwise, key=lambda p: (oi[p[0]], oi[p[1]]))
            ]
    if inst.addition is not None:
        # each row goes to the block of its first summand's hom
        rows: dict[tuple[str, str], list[list[str]]] = {}
        plus = inst.addition.plus
        for f, g in sorted(plus, key=lambda p: (mi[p[0]], mi[p[1]])):
            hom = (cat.src_of(f), cat.tgt_of(f))
            rows.setdefault(hom, []).append([f, g, plus[(f, g)]])
        doc["addition"] = [
            {"src": x, "tgt": y, "zero": inst.addition.zero[(x, y)],
             "table": rows.get((x, y), [])}
            for x, y in sorted(inst.addition.zero, key=lambda p: (oi[p[0]], oi[p[1]]))
        ]
    # classes/localisation key order is fixed by the builder (class order,
    # base morphism order); insertion order is the canonical order here
    if inst.classes is not None:
        doc["classes"] = dict(inst.classes)
    if inst.localisation is not None:
        doc["localisation"] = dict(inst.localisation)
    return json.dumps(doc, indent=2) + "\n"


def dump(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(inst))
