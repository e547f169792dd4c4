import json
from dataclasses import replace

import pytest

from catfrac import fileio
from catfrac.core import DomainError
from catfrac.fraction import build_fraction_category, fraction_instance
from catfrac.instances import (
    as_instance,
    from_instance,
    make_named,
    poset_coproducts,
    poset_products,
)

from conftest import POSITIVE, poset_addition, z2_shell


@pytest.mark.parametrize("name", POSITIVE + ("IDEM",))
def test_round_trip_byte_identity(name, tmp_path):
    inst = as_instance(make_named(name), with_structure=True)
    path = tmp_path / f"{name}.json"
    fileio.dump(inst, str(path))
    text = path.read_text()
    again = fileio.dumps(fileio.loads(text))
    assert again == text


@pytest.mark.parametrize("name", ("WALK", "CH3", "DIA"))
def test_localise_output_round_trips(name):
    fc = build_fraction_category(make_named(name))
    text = fileio.dumps(fraction_instance(fc))
    assert fileio.dumps(fileio.loads(text)) == text


def test_semantically_equal_inputs_serialise_identically():
    inst = as_instance(make_named("CH3"))
    doc = json.loads(fileio.dumps(inst))
    # permute the set-like lists and the composition triples
    doc["denominators"] = list(reversed(doc["denominators"]))
    doc["composition"] = list(reversed(doc["composition"]))
    shuffled = fileio.loads(json.dumps(doc))
    assert fileio.dumps(shuffled) == fileio.dumps(inst)


def test_loaded_instance_rebuilds_the_structure():
    inst = fileio.loads(fileio.dumps(as_instance(make_named("CH3"))))
    dd = from_instance(inst)
    assert dd.certificate().ok
    assert dd.denominator_ids == ["m_0_1", "i_0", "i_1", "i_2"]


def test_malformed_json_reports_location():
    with pytest.raises(DomainError) as err:
        fileio.loads("{ not json }", where="bad.json")
    assert "bad.json" in str(err.value) and "line" in str(err.value)


def test_missing_field_rejected():
    with pytest.raises(DomainError) as err:
        fileio.loads('{"name": "x"}')
    assert "objects" in str(err.value)


def test_unknown_denominator_id_rejected():
    doc = json.loads(fileio.dumps(as_instance(make_named("WALK"))))
    doc["denominators"].append("nope")
    with pytest.raises(DomainError) as err:
        fileio.loads(json.dumps(doc))
    assert "nope" in str(err.value)


def test_unknown_morphism_endpoint_rejected():
    doc = json.loads(fileio.dumps(as_instance(make_named("WALK"))))
    doc["morphisms"][0]["src"] = "ghost"
    with pytest.raises(DomainError):
        fileio.loads(json.dumps(doc))


def test_product_table_is_the_coproduct_table_of_the_opposite():
    dd = make_named("DIA")
    inst = fileio.loads(fileio.dumps(as_instance(dd, with_structure=True)))
    assert inst.coproducts == poset_coproducts(dd)
    assert inst.products == poset_products(dd)
    assert inst.products == poset_coproducts(dd.opposite())


@pytest.mark.parametrize("shell", ("Z2", "CH3"))
def test_addition_tables_round_trip(shell):
    if shell == "Z2":
        dd, add = z2_shell()
    else:
        dd = make_named(shell)
        add = poset_addition(dd)
    text = fileio.dumps(replace(as_instance(dd), addition=add))
    assert fileio.loads(text).addition == add
    assert fileio.dumps(fileio.loads(text)) == text
    # rows and blocks are set-like: any order serialises to the same bytes
    doc = json.loads(text)
    doc["addition"].reverse()
    for block in doc["addition"]:
        block["table"].reverse()
    assert json.dumps(doc, indent=2) + "\n" != text
    assert fileio.dumps(fileio.loads(json.dumps(doc))) == text
