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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import DomainError, FinCategory


@dataclass
class Instance:
    """A category with denominator structure, plus optional extras."""

    category: FinCategory
    denominators: list[str]
    s_denominators: list[str]
    t_denominators: list[str]
    initial: str | None = None
    coproducts: list[dict] | None = None
    terminal: str | None = None
    products: list[dict] | None = None
    addition: list[dict] | None = None
    classes: dict[str, list[str]] | None = None
    localisation: dict[str, str] | None = None


def _check_schema(doc: dict, where: str) -> None:
    """Shape of the category fields, and shape and resolving ids of the
    optional unit, (co)product and addition fields; each error names its
    JSON path."""

    def fail(path: str, msg: str):
        raise DomainError(f"{where}: {path}: {msg}")

    def is_ids(value) -> bool:
        return isinstance(value, list) and all(isinstance(x, str) for x in value)

    for key in ("name", "objects", "morphisms", "identities", "composition"):
        if key not in doc:
            raise DomainError(f"{where}: missing field {key!r}")
    if not is_ids(doc["objects"]):
        fail("objects", "expected a list of strings")
    for key in ("morphisms", "composition"):
        if not isinstance(doc[key], list):
            fail(key, "expected a list")
    for n, m in enumerate(doc["morphisms"]):
        if not isinstance(m, dict):
            fail(f"morphisms[{n}]", "expected an object")
        for field in ("id", "src", "tgt"):
            if field not in m:
                fail(f"morphisms[{n}]", f"missing field {field!r}")
            if not isinstance(m[field], str):
                fail(f"morphisms[{n}].{field}", "expected a string")
    if not isinstance(doc["identities"], dict):
        fail("identities", "expected an object")
    for x in doc["objects"]:
        if x not in doc["identities"]:
            fail("identities", f"no identity for object {x!r}")
    for n, entry in enumerate(doc["composition"]):
        if not is_ids(entry) or len(entry) != 3:
            fail(f"composition[{n}]", "expected 3 ids")
    for key in ("denominators", "s_denominators", "t_denominators"):
        if not is_ids(doc.get(key, [])):
            fail(key, "expected a list of strings")

    known = {
        "object": set(doc["objects"]),
        "morphism": {m["id"] for m in doc["morphisms"]},
    }

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

    for key in ("initial", "terminal"):
        if doc.get(key) is not None:
            ident(key, doc[key], "object")
    for key, legs in (("coproducts", "emb"), ("products", "proj")):
        if doc.get(key) is not None:
            for path, e in records(key, ("of", "object", legs)):
                idents(f"{path}.of", e["of"], 2, "object")
                ident(f"{path}.object", e["object"], "object")
                idents(f"{path}.{legs}", e[legs], 2, "morphism")
    if doc.get("addition") is not None:
        for path, e in records("addition", ("src", "tgt", "zero", "table")):
            ident(f"{path}.src", e["src"], "object")
            ident(f"{path}.tgt", e["tgt"], "object")
            ident(f"{path}.zero", e["zero"], "morphism")
            if not isinstance(e["table"], list):
                fail(f"{path}.table", "expected a list")
            for n, row in enumerate(e["table"]):
                idents(f"{path}.table[{n}]", row, 3, "morphism")


def _as_instance(doc: dict, where: str) -> Instance:
    _check_schema(doc, where)
    morphisms = [m["id"] for m in doc["morphisms"]]
    cat = FinCategory(
        doc["name"],
        list(doc["objects"]),
        morphisms,
        {m["id"]: m["src"] for m in doc["morphisms"]},
        {m["id"]: m["tgt"] for m in doc["morphisms"]},
        dict(doc["identities"]),
        {(f, g): h for f, g, h in doc["composition"]},
    )
    for key in ("denominators", "s_denominators", "t_denominators"):
        for f in doc.get(key, []):
            if f not in cat.mor_index:
                raise DomainError(f"{where}: unknown morphism id {f!r} in {key}")
    return Instance(
        category=cat,
        denominators=list(doc.get("denominators", [])),
        s_denominators=list(doc.get("s_denominators", [])),
        t_denominators=list(doc.get("t_denominators", [])),
        initial=doc.get("initial"),
        coproducts=doc.get("coproducts"),
        terminal=doc.get("terminal"),
        products=doc.get("products"),
        addition=doc.get("addition"),
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
        return loads(handle.read(), where=path)


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
    if inst.initial is not None:
        doc["initial"] = inst.initial
    if inst.coproducts is not None:
        doc["coproducts"] = sorted(
            (
                {"of": list(e["of"]), "object": e["object"], "emb": list(e["emb"])}
                for e in inst.coproducts
            ),
            key=lambda e: (oi[e["of"][0]], oi[e["of"][1]]),
        )
    if inst.terminal is not None:
        doc["terminal"] = inst.terminal
    if inst.products is not None:
        doc["products"] = sorted(
            (
                {"of": list(e["of"]), "object": e["object"], "proj": list(e["proj"])}
                for e in inst.products
            ),
            key=lambda e: (oi[e["of"][0]], oi[e["of"][1]]),
        )
    if inst.addition is not None:
        doc["addition"] = sorted(
            (
                {
                    "src": e["src"],
                    "tgt": e["tgt"],
                    "zero": e["zero"],
                    "table": sorted(
                        [list(row) for row in e["table"]],
                        key=lambda row: (mi[row[0]], mi[row[1]]),
                    ),
                }
                for e in inst.addition
            ),
            key=lambda e: (oi[e["src"]], oi[e["tgt"]]),
        )
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
