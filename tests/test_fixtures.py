"""Every bundled fixture classifies to its documented verdict, and the
simulator refuses exactly the fixtures that do not generate a
C0-semigroup."""

import numpy as np
import pytest

import phs

from conftest import FIXTURES

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
    assert found == set(EXPECTED)
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
