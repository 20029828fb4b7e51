"""Every bundled fixture classifies to its documented verdict, and the
simulator refuses exactly the fixtures that do not generate a
C0-semigroup."""

import json
from pathlib import Path

import numpy as np
import pytest

import phs

from conftest import FIXTURES

# written by scripts/make_classify_reports.py
CLASSIFY_REPORTS = json.loads(
    (Path(__file__).resolve().parent / "data" / "classify_reports.json").read_text())

# (contraction, unitary_group, c0_semigroup)
EXPECTED = {
    "transport_w1_1_w0_0.json": (True, False, True),
    "transport_w1_2_w0_1.json": (True, False, True),
    "transport_w1_1_w0_1.json": (True, True, True),
    "transport_w1_1_w0_m1.json": (True, True, True),
    "transport_w1_1_w0_2.json": (False, False, True),
    "transport_w1_0_w0_1.json": (False, False, False),
    "transport_variable_h.json": (True, False, True),
    "transport_grid_h.json": (True, False, True),
    "string_uniform.json": (False, False, False),
    "string_stiffening.json": (False, False, True),
    "network_three_lines.json": (False, False, True),
}


def test_fixture_library_is_complete():
    found = {p.name for p in FIXTURES.glob("*.json")}
    assert found == set(EXPECTED) == set(CLASSIFY_REPORTS)
    assert len(found) >= 8


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_verdict(name):
    system = phs.load_system(FIXTURES / name)
    verdict = phs.classify(system)
    assert (verdict.contraction, verdict.unitary_group, verdict.c0_semigroup) \
        == EXPECTED[name]
    # the verdict is the simulator's only ill-posed gate
    config = phs.SimConfig(nx=16, t_final=0.1)
    x0 = lambda z: np.zeros(system.n)
    if EXPECTED[name][2] is True:
        phs.setup(system, config, x0)
    else:
        with pytest.raises(phs.IllPosedError):
            phs.setup(system, config, x0)


def assert_same_report(got, pinned, where="report"):
    """Booleans, integers, None and strings exactly, floats within 1e-12
    relative with an absolute floor of 1e-12 for values at zero."""
    if isinstance(pinned, dict):
        assert got.keys() == pinned.keys(), where
        for key in pinned:
            assert_same_report(got[key], pinned[key], f"{where}.{key}")
    elif isinstance(pinned, list):
        assert len(got) == len(pinned), where
        for i, (a, b) in enumerate(zip(got, pinned)):
            assert_same_report(a, b, f"{where}[{i}]")
    elif isinstance(pinned, float):
        assert type(got) is float and got == pytest.approx(pinned, rel=1e-12, abs=1e-12), where
    else:
        assert type(got) is type(pinned) and got == pinned, where


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_pinned_classify_report(name):
    # the whole report that phs classify prints, not only the verdicts
    report = phs.classify(phs.load_system(FIXTURES / name)).as_dict()
    assert_same_report(report, CLASSIFY_REPORTS[name])
