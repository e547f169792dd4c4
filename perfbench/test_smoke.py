"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402


def test_reference_counts():
    # chain(8) and Z/12 are the instances whose theorem suites the
    # benchmark runs exhaustively; the pair counts are what `check` reports
    assert ref.chain_arrow_count(8) == 1086
    assert ref.chain_theorem_pairs(8) == 13224
    assert ref.zmod_theorem_pairs(12) == 18528
    assert ref.units(16) == [1, 3, 5, 7, 9, 11, 13, 15]


def test_reference_values():
    assert ref.zmod_value(16, "3,6,1") == 6 * 11 % 16
    assert ref.chain_arrow_ends("m_0_1,m_0_5,m_3_5") == (1, 3)


def test_smoke():
    """Every workload, tiny, in both modes: every metric named in
    BENCHMARK.json appears with its unit and failed_share is 0."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
