import contextlib
import copy
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from catfrac import cli, fileio, three_arrows
from catfrac.cli import run
from catfrac.core import DomainError, InvariantError
from catfrac.denominators import DenominatorData
from catfrac.calculus import grid_relations
from catfrac.instances import (
    as_instance,
    chain,
    from_instance,
    make_named,
    transformation_monoid,
)
from catfrac.three_arrows import ThreeArrow, check_normal, source_of, target_of

from conftest import POSITIVE, block_partitions, poset_addition


@pytest.fixture()
def ch3_file(tmp_path):
    path = tmp_path / "ch3"
    assert run(["instance", "CH3", "-o", str(path)]) == 0
    return str(path)


def test_instance_then_localise_pipeline(ch3_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["localise", ch3_file, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["classes"]) == 7
    assert doc["name"] == "Fr(CH3)"
    assert set(doc["localisation"]) == {
        "m_0_1", "m_0_2", "m_1_2", "i_0", "i_1", "i_2"
    }


def test_localise_round_trip_byte_identity(ch3_file, tmp_path):
    out = tmp_path / "out"
    run(["localise", ch3_file, "-o", str(out)])
    text = out.read_text()
    assert fileio.dumps(fileio.load(str(out))) == text


def test_localise_output_is_itself_a_valid_structure(ch3_file, tmp_path):
    from catfrac.core import validate_category
    from catfrac.instances import from_instance

    out = tmp_path / "out"
    run(["localise", ch3_file, "-o", str(out)])
    dd = from_instance(fileio.load(str(out)))
    assert validate_category(dd.base) == []
    assert dd.certificate().ok


@pytest.mark.parametrize("name", POSITIVE + ("IDEM",))
def test_shipped_files_round_trip(name, tmp_path):
    path = tmp_path / name
    assert run(["instance", name, "-o", str(path)]) == 0
    text = path.read_text()
    assert fileio.dumps(fileio.load(str(path))) == text


def test_equal_both_methods(ch3_file, capsys):
    status = run(
        [
            "equal", ch3_file,
            "--left", "i_1,m_1_2,i_2",
            "--right", "m_0_1,m_0_2,i_2",
            "--method", "both",
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert out.strip().splitlines()[-1] == "equal"


@pytest.mark.parametrize(
    "name, equal, compose",
    [
        ("CH3", ("i_1,m_1_2,i_2", "m_0_1,m_0_2,i_2"), ("i_0,m_0_1,i_1", "i_1,m_1_2,i_2")),
        ("Z4", ("1,2,1", "3,2,1"), ("1,2,1", "3,2,1")),
    ],
)
def test_requests_free_their_structures_by_refcount(
    name, equal, compose, tmp_path, monkeypatch, capsys
):
    # with the cycle collector off, a request's structure, its category
    # and that category's opposite die as soon as the request returns
    path = str(tmp_path / name)
    assert run(["instance", name, "-o", path]) == 0
    refs = []

    def capture(inst):
        dd = from_instance(inst)
        refs.append((weakref.ref(dd), weakref.ref(dd.base),
                     weakref.ref(dd.base.opposite())))
        return dd

    monkeypatch.setattr(cli, "from_instance", capture)
    requests = (
        ["equal", path, "--left", equal[0], "--right", equal[1], "--method", "both"],
        ["compose", path, "--left", compose[0], "--right", compose[1]],
    )
    gc.disable()
    try:
        for argv in requests:
            assert run(argv) == 0
        # read before the collector is back on: its first run would free
        # what a reference cycle still holds
        alive = [ref() is not None for triple in refs for ref in triple]
    finally:
        gc.enable()
    assert len(refs) == len(requests)
    assert alive == [False] * 6
    capsys.readouterr()


@pytest.mark.parametrize(
    "name, equal, compose, blocks",
    [
        ("CH3", ("i_1,m_1_2,i_2", "m_0_1,m_0_2,i_2"),
         ("i_0,m_0_1,i_1", "i_1,m_1_2,i_2"), [(1, 2), (0, 2)]),
        ("Z4", ("1,2,1", "3,2,1"), ("1,2,1", "3,2,1"), [(0, 0), (0, 0)]),
    ],
)
def test_equal_and_compose_build_one_block(
    name, equal, compose, blocks, tmp_path, monkeypatch, capsys
):
    path = str(tmp_path / name)
    assert run(["instance", name, "-o", path]) == 0
    structures, built = [], []
    init = three_arrows.FractionPartition.__init__

    def capture(inst):
        structures.append(from_instance(inst))
        return structures[-1]

    def counted(self, dd, block=None):
        built.append(block)
        init(self, dd, block)

    monkeypatch.setattr(cli, "from_instance", capture)
    monkeypatch.setattr(three_arrows.FractionPartition, "__init__", counted)
    for argv in (
        ["equal", path, "--left", equal[0], "--right", equal[1], "--method", "both"],
        ["compose", path, "--left", compose[0], "--right", compose[1]],
    ):
        assert run(argv) == 0
    # each request builds the block it reads, and never the whole partition
    assert built == blocks
    for dd, block in zip(structures, blocks):
        assert ("partition", None) not in dd.derived
        assert block_partitions(dd) == [block]
    capsys.readouterr()


def test_each_derived_structure_is_built_once(ch3_file, tmp_path, monkeypatch, capsys):
    structures, builds = [], []
    keep = DenominatorData.keep

    def capture(inst):
        structures.append(from_instance(inst))
        return structures[-1]

    def counted(self, key, build, *args):
        def counting(*built_from):
            builds.append((self, key))
            return build(*built_from)

        return keep(self, key, counting, *args)

    monkeypatch.setattr(cli, "from_instance", capture)
    monkeypatch.setattr(DenominatorData, "keep", counted)
    shared = ["certificate", "generators", "ranks"]
    requests = (
        (["equal", ch3_file, "--left", "i_1,m_1_2,i_2", "--right", "m_0_1,m_0_2,i_2",
          "--method", "both"],
         shared + [("arrows", (1, 2)), ("partition", (1, 2)), ("grid", 1, 2)]),
        (["compose", ch3_file, "--left", "i_0,m_0_1,i_1", "--right", "i_1,m_1_2,i_2"],
         shared + [("arrows", (0, 2)), ("partition", (0, 2))]),
        (["localise", ch3_file, "-o", str(tmp_path / "fr")],
         shared + [("arrows", None), ("partition", None)]),
    )
    for argv, keys in requests:
        assert run(argv) == 0
        dd = structures[-1]
        built = [key for owner, key in builds if owner is dd]
        assert sorted(built, key=repr) == sorted(keys, key=repr)
        assert sorted(dd.derived, key=repr) == sorted(keys, key=repr)
    capsys.readouterr()


def test_equal_both_enumerates_its_block_once(ch3_file, monkeypatch, capsys):
    calls = []
    enumerate_three_arrows = three_arrows.enumerate_three_arrows

    def counted(dd, block=None):
        calls.append(block)
        return enumerate_three_arrows(dd, block)

    monkeypatch.setattr(three_arrows, "enumerate_three_arrows", counted)
    argv = ["equal", ch3_file, "--left", "i_1,m_1_2,i_2", "--right",
            "m_0_1,m_0_2,i_2", "--method", "both"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "equal\n"
    assert calls == [(1, 2)]


@pytest.mark.parametrize(
    "method, status, out, err",
    [
        ("oracle", 0, "not equal\n", ""),
        ("3x3", 1, "", "error: inputs are not parallel\n"),
        ("both", 1, "", "error: inputs are not parallel\n"),
    ],
)
def test_equal_on_non_parallel_inputs(method, status, out, err, ch3_file, capsys):
    argv = ["equal", ch3_file, "--left", "i_1,m_1_2,i_2", "--right",
            "i_0,m_0_2,i_2", "--method", method]
    assert run(argv) == status
    assert capsys.readouterr() == (out, err)


def test_parser_is_built_once_and_keeps_no_arguments(ch3_file, capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    pair = ["--left", "i_1,m_1_2,i_2", "--right", "m_0_1,m_0_2,i_2"]
    flagged = parser.parse_args(
        ["equal", ch3_file, *pair, "--witness", "--method", "both"]
    )
    plain = parser.parse_args(["equal", ch3_file, *pair])
    assert (flagged.witness, flagged.method) == (True, "both")
    assert (plain.witness, plain.method) == (False, "oracle")
    assert not hasattr(parser.parse_args(["check", ch3_file]), "witness")
    # the same requests through run, after others with other flags, print
    # what they print first
    requests = (
        ["axioms", ch3_file, "--witness"],
        ["equal", ch3_file, *pair, "--method", "both", "--witness"],
        ["check", ch3_file, "--suite", "axioms"],
        ["compose", ch3_file, "--left", "i_0,m_0_1,i_1", "--right", "i_1,m_1_2,i_2",
         "--mode", "lax"],
        ["equal", ch3_file, *pair],
        ["axioms", ch3_file],
        ["check", ch3_file],
        ["equal", ch3_file, "--left", "i_1,m_1_2"],
        ["--help"],
        ["compose", ch3_file, "--left", "i_0,m_0_1,i_1", "--right", "i_1,m_1_2,i_2"],
    )

    def outputs(order):
        seen = {}
        for k in order:
            status = run(list(requests[k]))
            captured = capsys.readouterr()
            seen[k] = (status, captured.out, captured.err)
        return seen

    forward = outputs(range(len(requests)))
    assert outputs(reversed(range(len(requests)))) == forward
    assert [forward[k][0] for k in range(len(requests))] == [0] * 7 + [2, 0, 0]
    assert "(Fac) witness" in forward[0][1] and "(Fac) witness" not in forward[5][1]
    assert forward[1][1].startswith("witness ") and forward[4][1] == "equal\n"
    assert "theorem PASS" in forward[6][1] and "theorem" not in forward[2][1]


def test_optimised_mode_answers_through_on_demand_witnesses(ch3_file, tmp_path, capsys):
    # the library reads no assert and no __debug__, so under `python -O`
    # equal, compose, every suite (transport through common_denominator)
    # and localise answer as in-process, from witnesses looked up on demand
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def optimised(argv):
        done = subprocess.run(
            [sys.executable, "-O", "-m", "catfrac", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    dia_file = str(tmp_path / "dia")
    assert run(["instance", "DIA", "-o", dia_file]) == 0
    pair = ["--left", "i_1,m_1_2,i_2", "--right", "m_0_1,m_0_2,i_2"]
    for argv in (
        ["equal", ch3_file, *pair, "--method", "both"],
        ["compose", ch3_file, "--left", "i_0,m_0_1,i_1", "--right", "i_1,m_1_2,i_2"],
        ["compose", ch3_file, "--left", "m_0_1,m_0_2,i_2", "--right", "i_2,i_2,i_2"],
        ["check", ch3_file, "--suite", "all"],
        ["check", dia_file, "--suite", "all"],
    ):
        capsys.readouterr()
        assert run(argv) == 0
        expected = capsys.readouterr().out
        assert optimised(argv) == (0, expected, "")
    assert "coproducts-preserved PASS" in expected
    for source in (ch3_file, dia_file):
        written = {}
        for mode in ("in-process", "optimised"):
            out = tmp_path / mode
            argv = ["localise", source, "-o", str(out), "--dot", f"{out}.dot"]
            if mode == "in-process":
                capsys.readouterr()
                assert run(argv) == 0
                expected = capsys.readouterr().out.replace("in-process", "optimised")
            else:
                assert optimised(argv) == (0, expected, "")
            written[mode] = (out.read_bytes(), (tmp_path / f"{mode}.dot").read_bytes())
        assert written["optimised"] == written["in-process"]


def test_equal_not_equal_is_still_success(tmp_path, capsys):
    par = tmp_path / "par"
    run(["instance", "PAR", "-o", str(par)])
    status = run(
        [
            "equal", str(par),
            "--left", "i_X,f,i_Y",
            "--right", "i_X,g,i_Y",
            "--method", "both",
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert out.strip().splitlines()[-1] == "not equal"


def test_equal_witness_flag(ch3_file, capsys):
    status = run(
        [
            "equal", ch3_file,
            "--left", "i_1,m_1_2,i_2",
            "--right", "m_0_1,m_0_2,i_2",
            "--method", "3x3",
            "--witness",
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "witness rows" in out


def test_axioms_failure_output(tmp_path, capsys):
    idem = tmp_path / "idem"
    run(["instance", "IDEM", "-o", str(idem)])
    status = run(["axioms", str(idem)])
    out = capsys.readouterr().out
    assert status == 1
    assert "(WU) FAIL witness i=e f=e" in out


def test_axioms_pass_output(ch3_file, capsys):
    assert run(["axioms", ch3_file]) == 0
    out = capsys.readouterr().out
    assert "(WU) PASS" in out and "(Fac) PASS" in out


AXIOM_LINES = [
    f"{name} PASS"
    for name in (
        "(Base)", "(Cat)", "(2 of 3)", "(S-mult)", "(T-mult)",
        "(S<=D)", "(T<=D)", "(WU)", "(Fac)",
    )
]


@pytest.mark.parametrize(
    "name, witnesses",
    [
        ("CH3", ["m_0_1 = m_0_1 ; i_1", "i_0 = i_0 ; i_0", "i_1 = i_1 ; i_1",
                 "i_2 = i_2 ; i_2"]),
        ("DIA-B", ["m_bot_a = m_bot_a ; i_a", "m_bot_b = m_bot_b ; i_b",
                   "m_bot_top = m_bot_top ; i_top", "m_a_top = m_a_top ; i_top",
                   "m_b_top = m_b_top ; i_top", "i_bot = i_bot ; i_bot",
                   "i_a = i_a ; i_a", "i_b = i_b ; i_b", "i_top = i_top ; i_top"]),
        ("Z4", ["1 = 1 ; 1", "3 = 1 ; 3"]),
    ],
)
def test_axioms_witness_output_is_pinned(name, witnesses, tmp_path, capsys):
    # one (Fac) line per member of D, in the index order of D, d = i ; p
    path = str(tmp_path / name)
    assert run(["instance", name, "-o", path]) == 0
    capsys.readouterr()
    assert run(["axioms", path, "--witness"]) == 0
    lines = AXIOM_LINES + [f"(Fac) witness {line}" for line in witnesses]
    assert capsys.readouterr() == ("\n".join(lines) + "\n", "")


def test_validate_command(ch3_file, capsys):
    assert run(["validate", ch3_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_rejects_broken_file(tmp_path, capsys):
    doc = {
        "name": "broken",
        "objects": ["X"],
        "morphisms": [{"id": "1", "src": "X", "tgt": "X"}],
        "identities": {"X": "1"},
        "composition": [],
        "denominators": ["1"],
        "s_denominators": ["1"],
        "t_denominators": ["1"],
    }
    path = tmp_path / "broken"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 1
    assert "missing-composite" in capsys.readouterr().out


def test_compose_command(ch3_file, capsys):
    assert run(
        [
            "compose", ch3_file,
            "--left", "i_0,m_0_1,i_1",
            "--right", "i_1,m_1_2,i_2",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "i_0,m_0_2,i_2" in out


def test_compose_lax_mode_agrees(ch3_file, capsys):
    run(["compose", ch3_file, "--left", "i_0,m_0_1,i_1",
         "--right", "i_1,m_1_2,i_2", "--mode", "strict"])
    strict_out = capsys.readouterr().out
    run(["compose", ch3_file, "--left", "i_0,m_0_1,i_1",
         "--right", "i_1,m_1_2,i_2", "--mode", "lax"])
    lax_out = capsys.readouterr().out
    assert strict_out.split(":")[0] == lax_out.split(":")[0]


def test_normalise_command(ch3_file, capsys):
    assert run(["normalise", ch3_file, "--arrow", "m_0_1,m_0_2,i_2"]) == 0
    out = capsys.readouterr().out.strip()
    assert len(out.split(",")) == 3


def test_normalise_guard_survives_optimised_mode(tmp_path, capsys, monkeypatch):
    # the normality guard raises DomainError rather than asserting, so
    # `python -O` keeps it: called directly it rejects a non-normal arrow,
    # and a non-normal result makes the command print one error line
    dd = make_named("DIA-B")
    mi = dd.base.mor_index
    bad = ThreeArrow(mi["m_bot_a"], mi["m_bot_a"], mi["i_a"])
    with pytest.raises(DomainError, match="is not normal"):
        check_normal(dd, bad)
    path = str(tmp_path / "diab")
    assert run(["instance", "DIA-B", "-o", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr("catfrac.cli.normalise", lambda dd, t: bad)
    assert run(["normalise", path, "--arrow", "i_bot,i_bot,i_bot"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: m_bot_a,m_bot_a,i_a is not normal\n"


def test_check_all_suites(ch3_file, capsys):
    assert run(["check", ch3_file, "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "theorem PASS" in out
    assert "coproducts-preserved PASS" in out
    assert "products-preserved PASS" in out


def test_invalid_base_reports_base_failure(ch3_file, capsys):
    doc = json.loads(open(ch3_file).read())
    doc["composition"].remove(["m_0_1", "m_1_2", "m_0_2"])
    with open(ch3_file, "w") as handle:
        json.dump(doc, handle)
    line = "(Base) FAIL witness missing-composite: (m_0_1, m_1_2)"
    assert run(["axioms", ch3_file]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [line]
    assert run(["check", ch3_file, "--suite", "all"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        line,
        "theorem SKIP (structure axioms fail)",
        "transport SKIP (category laws fail)",
    ]
    assert "Traceback" not in captured.err


def test_failed_axiom_keeps_the_transport_report(tmp_path, capsys):
    # with S = T = identities on chain(3), (Fac) fails; the tables are still
    # validated and the transport checks are skipped, not an error line
    identities = ["i_0", "i_1", "i_2"]
    dd = chain(3, "all", s_denominators=identities, t_denominators=identities)
    path = tmp_path / "chain3"
    fileio.dump(
        replace(as_instance(dd, with_structure=True), addition=poset_addition(dd)),
        str(path),
    )
    assert run(["check", str(path), "--suite", "all"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[7:] == [
        "(WU) PASS",
        "(Fac) FAIL witness m_0_1",
        "theorem SKIP (structure axioms fail)",
        "coproducts-valid PASS",
        "coproducts-preserved SKIP (structure axioms fail)",
        "products-valid PASS",
        "products-preserved SKIP (structure axioms fail)",
        "sum-formula SKIP (structure axioms fail)",
    ]


def test_check_axioms_failure_exit(tmp_path):
    idem = tmp_path / "idem"
    run(["instance", "IDEM", "-o", str(idem)])
    assert run(["check", str(idem), "--suite", "axioms"]) == 1


def test_dot_export(ch3_file, tmp_path):
    out, dot = tmp_path / "out", tmp_path / "g.dot"
    assert run(["localise", ch3_file, "-o", str(out), "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith('digraph "Fr(CH3)"')
    assert text.count("->") == 7


@pytest.mark.parametrize("bad", ("output", "dot"))
def test_localise_with_a_bad_path_writes_neither_file(bad, ch3_file, tmp_path, capsys):
    paths = {"output": tmp_path / "fr.json", "dot": tmp_path / "fr.dot"}
    paths[bad] = tmp_path / "missing" / "x"
    argv = ["localise", ch3_file, "-o", str(paths["output"])]
    argv += ["--dot", str(paths["dot"])]
    capsys.readouterr()
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{paths[bad]}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ch3"]


def test_broken_invariant_is_one_divergence_line(ch3_file, monkeypatch, capsys):
    # the grid relations admit a grid that the witness search then misses
    monkeypatch.setattr("catfrac.calculus.find_bridge", lambda *args, **kw: None)
    argv = ["equal", ch3_file, "--left", "i_1,m_1_2,i_2", "--right", "m_0_1,m_0_2,i_2"]
    capsys.readouterr()
    assert run([*argv, "--method", "3x3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "DIVERGENCE grid relations admit a grid for i_1,m_1_2,i_2 and "
        "m_0_1,m_0_2,i_2 that the witness search does not find\n"
    )


@pytest.mark.parametrize("name, pairs", [("CH3", 18), ("Z4", 136)])
def test_theorem_suite_searches_no_witness(name, pairs, tmp_path, monkeypatch, capsys):
    # the suite's verdicts come from the grid relations alone; a witness
    # search would surface as a DIVERGENCE line
    def searched(*args, **kw):
        raise InvariantError("the theorem suite searched for a witness")

    monkeypatch.setattr("catfrac.calculus.find_bridge", searched)
    path = str(tmp_path / name)
    assert run(["instance", name, "-o", path]) == 0
    capsys.readouterr()
    assert run(["check", path, "--suite", "theorem"]) == 0
    assert capsys.readouterr() == (f"theorem PASS pairs={pairs} divergences=0\n", "")


@pytest.mark.parametrize(
    "dd",
    [make_named("CH3"), make_named("Z4"), chain(5), transformation_monoid(3)],
    ids=lambda dd: dd.name,
)
def test_theorem_suite_counts_a_planted_divergence(dd, tmp_path, monkeypatch, capsys):
    # a partition that merges pairs of classes and splits every third one
    # by position parity; the suite's row counts must equal the pairwise ones
    class_index = three_arrows.FractionPartition.class_index

    def planted(part, t):
        gi = class_index(part, t)
        return gi // 2, part.arrow_index[t] % 2 if gi % 3 == 0 else 0

    monkeypatch.setattr(three_arrows.FractionPartition, "class_index", planted)
    path = str(tmp_path / dd.name)
    fileio.dump(as_instance(dd, with_structure=True), path)
    part = three_arrows.fraction_equivalence(dd)
    checked = diverged = 0
    for block in {(source_of(dd, t), target_of(dd, t)) for t in part.arrows}:
        rel = grid_relations(dd, *block)
        members = list(rel.index)
        for k, t1 in enumerate(members):
            for t2 in members[k:]:
                checked += 1
                if rel.grid_exists(t1, t2, False) != part.same_class(t1, t2):
                    diverged += 1
    assert diverged > 0
    assert run(["check", path, "--suite", "theorem"]) == 1
    assert capsys.readouterr() == (
        f"theorem FAIL pairs={checked} divergences={diverged}\n", ""
    )


def test_unknown_ids_exit_one(ch3_file, capsys):
    status = run(["equal", ch3_file, "--left", "zz,zz,zz", "--right", "zz,zz,zz"])
    assert status == 1
    assert "zz" in capsys.readouterr().err


def test_missing_file_exit_one(capsys):
    assert run(["axioms", "/nonexistent/file"]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "{dir}"], "Is a directory"),
        (["instance", "CH3", "-o", "{dir}"], "Is a directory"),
        (["validate", "{dir}/latin1.json"], "latin1.json: not UTF-8 text"),
    ],
)
def test_bad_paths_are_one_error_line(argv, message, tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    assert run([arg.format(dir=tmp_path) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_usage_error_exit_two(capsys):
    assert run(["equal"]) == 2
    assert run(["no-such-command"]) == 2


def test_localise_refuses_bad_structure(tmp_path, capsys):
    idem = tmp_path / "idem"
    run(["instance", "IDEM", "-o", str(idem)])
    assert run(["localise", str(idem), "-o", str(tmp_path / "out")]) == 1
    assert "(WU)" in capsys.readouterr().err


def test_monoid_instance_carries_no_poset_tables(tmp_path, capsys):
    path = tmp_path / "z4"
    assert run(["instance", "Z4", "-o", str(path)]) == 0
    capsys.readouterr()
    assert run(["check", str(path), "--suite", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "coproducts-valid SKIP (no coproduct data)" in lines
    assert "products-valid SKIP (no product data)" in lines


ZERO_BLOCK = {
    "src": "0", "tgt": "0", "zero": "i_0", "table": [["i_0", "i_0", "i_0"]]
}


@pytest.mark.parametrize(
    "mutate, message",
    (
        (
            lambda doc: doc["morphisms"][0].pop("src"),
            "morphisms[0]: missing field 'src'",
        ),
        (lambda doc: doc["composition"][0].pop(), "composition[0]: expected 3 ids"),
        (lambda doc: doc.update(objects="012"), "objects: expected a list of strings"),
        (
            lambda doc: doc["identities"].pop("1"),
            "identities: no identity for object '1'",
        ),
        (
            lambda doc: doc["coproducts"][0].pop("emb"),
            "coproducts[0]: missing field 'emb'",
        ),
        (
            lambda doc: doc["coproducts"][0].update(object="nope"),
            "coproducts[0].object: unknown object id 'nope'",
        ),
        (
            lambda doc: doc["products"][0].update(proj=["nope", "i_0"]),
            "products[0].proj[0]: unknown morphism id 'nope'",
        ),
        (
            lambda doc: doc["coproducts"][0].update(of=["0"]),
            "coproducts[0].of: expected 2 ids",
        ),
        (lambda doc: doc.update(coproducts="abc"), "coproducts: expected a list"),
        (
            lambda doc: doc.update(addition=[{"src": "0", "zero": "i_0", "table": []}]),
            "addition[0]: missing field 'tgt'",
        ),
        (lambda doc: doc.pop("coproducts"), "initial: given without 'coproducts'"),
        (lambda doc: doc.pop("initial"), "coproducts: given without 'initial'"),
        (lambda doc: doc.pop("products"), "terminal: given without 'products'"),
        (lambda doc: doc.pop("terminal"), "products: given without 'terminal'"),
        (
            lambda doc: doc["products"].append(dict(doc["products"][4])),
            "products[9].of: repeated pair ('1', '1')",
        ),
        (
            lambda doc: doc.update(addition=[ZERO_BLOCK, ZERO_BLOCK]),
            "addition[1]: repeated block ('0', '0')",
        ),
        (
            lambda doc: doc.update(
                addition=[dict(ZERO_BLOCK, table=[["i_1", "i_1", "i_1"]])]
            ),
            "addition[0].table[0][0]: 'i_1' is not in hom('0', '0')",
        ),
        (
            lambda doc: doc.update(
                addition=[dict(ZERO_BLOCK, table=ZERO_BLOCK["table"] * 2)]
            ),
            "addition[0].table[1]: repeated summands ('i_0', 'i_0')",
        ),
        (
            lambda doc: doc["morphisms"][0].update(src="ghost"),
            "morphisms[0].src: unknown object id 'ghost'",
        ),
        (
            lambda doc: doc["morphisms"][2].update(tgt="ghost"),
            "morphisms[2].tgt: unknown object id 'ghost'",
        ),
        (
            lambda doc: doc["identities"].update({"1": "nope"}),
            "identities['1']: unknown morphism id 'nope'",
        ),
        (
            lambda doc: doc["identities"].update({"1": ["i_1"]}),
            "identities['1']: expected a string",
        ),
        (
            lambda doc: doc["identities"].update(ghost="i_0"),
            "identities['ghost']: unknown object id 'ghost'",
        ),
        (
            lambda doc: doc["composition"][0].__setitem__(2, "nope"),
            "composition[0][2]: unknown morphism id 'nope'",
        ),
        (
            lambda doc: doc["morphisms"].append(dict(doc["morphisms"][3])),
            "morphisms[6].id: duplicate morphism id 'i_0'",
        ),
    ),
    ids=(
        "missing-src", "short-triple", "objects-string", "missing-identity",
        "coproduct-without-emb", "unknown-object", "unknown-projection",
        "short-of", "coproducts-string", "addition-without-tgt",
        "initial-without-coproducts", "coproducts-without-initial",
        "terminal-without-products", "products-without-terminal",
        "repeated-pair", "repeated-block", "row-outside-block", "repeated-row",
        "unknown-src", "unknown-tgt", "unknown-identity", "identity-not-a-string",
        "identity-of-unknown-object", "unknown-composite",
        "repeated-morphism",
    ),
)
def test_malformed_file_is_one_error_line(mutate, message, ch3_file, capsys):
    with open(ch3_file, encoding="utf-8") as handle:
        doc = json.load(handle)
    mutate(doc)
    with open(ch3_file, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    capsys.readouterr()
    for argv in (["validate", ch3_file], ["check", ch3_file, "--suite", "all"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].endswith(message)


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    return status, out.getvalue(), err.getvalue()


def test_missing_sums_fail_check_with_one_error_line(ch3_file):
    with open(ch3_file, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["addition"] = [dict(ZERO_BLOCK, table=[])]
    with open(ch3_file, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    status, out, err = run_captured(["check", ch3_file, "--suite", "transport"])
    assert status == 1
    assert "Traceback" not in out + err
    assert err.splitlines() == [
        "error: addition tables invalid: missing-zero: (0, 1)"
    ]


def _leaves(value, path):
    """JSON paths of every leaf below ``value``."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _with_all_tables(name):
    dd = make_named(name)
    inst = as_instance(dd, with_structure=True)
    return json.loads(fileio.dumps(replace(inst, addition=poset_addition(dd))))


TABLE_DOCS = {name: _with_all_tables(name) for name in ("CH3", "DIA")}
TABLE_LEAVES = [
    (name, path)
    for name, doc in TABLE_DOCS.items()
    for key in ("initial", "coproducts", "terminal", "products", "addition")
    for path in _leaves(doc[key], (key,))
]
DELETE = "<delete>"


@given(st.sampled_from(TABLE_LEAVES), st.data())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_mutated_tables_give_at_most_one_error_line(tmp_path_factory, leaf, data):
    name, path = leaf
    doc = copy.deepcopy(TABLE_DOCS[name])
    ids = doc["objects"] + [m["id"] for m in doc["morphisms"]]
    value = data.draw(st.sampled_from(ids + ["nope", 0, None, [], DELETE]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.copy(value)
    file = tmp_path_factory.getbasetemp() / "mutated.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", str(file)], ["check", str(file), "--suite", "all"]):
        status, out, err = run_captured(argv)
        assert status in (0, 1)
        assert "Traceback" not in out + err
        assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
