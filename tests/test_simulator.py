"""Simulator: setup, stepping, norms, boundary closure, stability guards."""

import io
import math

import numpy as np
import pytest

import phs
from phs.errors import (
    ContinuityError,
    IllPosedError,
    PreconditionError,
    StabilityError,
    ValidationError,
)

from conftest import FIXTURES, crossing_system, network_system, string_system, transport_system


def gaussian(center, width):
    return lambda z: np.exp(-0.5 * ((z - center) / width) ** 2)


class TestNorms:
    def test_unit_state_identity_density(self, network):
        cfg = phs.SimConfig(nx=64, t_final=1.0)
        state = phs.setup(network, cfg, lambda z: np.array([1.0, 0.0, 0.0]),
                          allow_illposed=True)
        # closure changes two boundary nodes; evaluate on untouched interior data
        state.g = np.zeros_like(state.g)
        state.g[:, 0] = 1.0
        assert phs.energy(state) == pytest.approx(1.0, rel=1e-12)
        for p in (1.0, 2.0, 3.0):
            assert phs.lp_norm(state, p) == pytest.approx(1.0, rel=1e-12)

    def test_scalar_weighted_energy(self):
        system = transport_system(1.0, 0.0, h=2.0)
        cfg = phs.SimConfig(nx=32, t_final=1.0)
        state = phs.setup(system, cfg, lambda z: 1.0, allow_illposed=True)
        state.g = state._disc.s[:, 0, 0].reshape(-1, 1).copy()
        assert phs.energy(state) == pytest.approx(2.0, rel=1e-12)
        assert phs.lp_norm(state, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_density_energy(self):
        system = phs.make_system(np.eye(2), np.zeros((2, 2)), np.diag([1.0, 4.0]),
                                 np.hstack([np.eye(2), np.zeros((2, 2))]))
        cfg = phs.SimConfig(nx=32, t_final=1.0)
        state = phs.setup(system, cfg, lambda z: np.array([1.0, 1.0]))
        x = np.ones((33, 2), dtype=complex)
        state.g = np.einsum("nij,nj->ni", state._disc.s, x)
        assert phs.energy(state) == pytest.approx(5.0, rel=1e-12)

    def test_lp_norm_domain(self, transport):
        cfg = phs.SimConfig(nx=32, t_final=1.0)
        state = phs.setup(transport, cfg, gaussian(0.5, 0.1))
        with pytest.raises(phs.DomainError):
            phs.lp_norm(state, 0.5)


class TestSetup:
    def test_transport_state(self, transport):
        cfg = phs.SimConfig(nx=128, t_final=1.0)
        state = phs.setup(transport, cfg, lambda z: np.sin(np.pi * z))
        assert state.g.shape == (129, 1)
        assert state.t == 0.0
        assert state.verdict.c0_semigroup is True
        # trapezoid energy of sin(pi z) is 1/2 up to quadrature error
        assert phs.energy(state) == pytest.approx(0.5, abs=1e-3)
        assert state.history["t"] == [0.0]

    def test_illposed_rejected_without_flag(self):
        cfg = phs.SimConfig(nx=32, t_final=0.5)
        with pytest.raises(IllPosedError):
            phs.setup(string_system(), cfg, gaussian(0.5, 0.1))

    def test_illposed_demonstration_flag(self):
        cfg = phs.SimConfig(nx=32, t_final=0.1)
        state = phs.setup(string_system(), cfg, gaussian(0.5, 0.1), allow_illposed=True)
        phs.step(state)
        assert state.t > 0.0

    def test_network_valid(self, network):
        cfg = phs.SimConfig(nx=64, t_final=1.0)
        state = phs.setup(network, cfg, gaussian(0.5, 0.1))
        assert state.g.shape == (65, 3)

    def test_crossing_rejected(self):
        cfg = phs.SimConfig(nx=32, t_final=0.5)
        with pytest.raises(ContinuityError), pytest.warns(phs.ContinuityWarning):
            phs.setup(crossing_system(), cfg, gaussian(0.5, 0.1))

    def test_cfl_bound(self):
        system = string_system((1.0, 1.0))  # speeds up to sqrt(2)
        cfg = phs.SimConfig(nx=64, t_final=1.0, cfl=0.8)
        state = phs.setup(system, cfg, gaussian(0.5, 0.1), allow_illposed=False)
        disc = state._disc
        assert disc.dt * np.abs(disc.speeds).max() / disc.dz <= 0.8 + 1e-12
        assert disc.dt == pytest.approx(0.8 * disc.dz / np.sqrt(2.0), rel=1e-12)

    def test_infinite_horizon_rejected(self):
        # run() would never return
        with pytest.raises(ValidationError, match="finite"):
            phs.SimConfig(t_final=math.inf)

    def test_nonfinite_initial_field_rejected(self, transport):
        cfg = phs.SimConfig(nx=32, t_final=1.0)
        for bad in (np.nan, np.inf):
            x0 = lambda z, bad=bad: bad if z == 0.5 else 1.0
            with pytest.raises(StabilityError, match=r"not finite at z = 0\.5"):
                phs.setup(transport, cfg, x0)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            phs.SimConfig(nx=8)
        with pytest.raises(ValidationError):
            phs.SimConfig(t_final=0.0)
        with pytest.raises(ValidationError):
            phs.SimConfig(cfl=1.5)
        with pytest.raises(ValidationError):
            phs.SimConfig(p_norms=(0.5,))
        with pytest.raises(ValidationError):
            phs.SimConfig(record_every=0)



def _rank_deficient_system():
    return phs.make_system([[1.0]], [[0.0]], [[1.0]], [[0.0, 0.0]])


class TestClosureUnderVerdict:
    """The verdict is the only ill-posed gate; the closure map is -K^+ Q."""

    def test_generator_map_is_minus_q(self, network):
        # W1 = H = S = I on the network, so K = I
        state = phs.setup(network, phs.SimConfig(nx=64, t_final=0.1), gaussian(0.5, 0.1))
        assert state.verdict.c0_semigroup is True
        closure = phs.boundary_closure_matrix(network, phs.diagonalize_field(network, [0.0, 1.0]))
        np.testing.assert_array_equal(closure.k, np.eye(3))
        np.testing.assert_array_equal(state._disc.closure_map, -closure.q)

    @pytest.mark.parametrize("make, c0", [
        (lambda: phs.load_system(FIXTURES / "string_uniform.json"), False),
        (_rank_deficient_system, None),
    ], ids=["string_uniform", "rank_deficient"])
    def test_illposed_map_is_least_squares(self, make, c0):
        system = make()
        cfg = phs.SimConfig(nx=64, t_final=0.1)
        x0 = lambda z: np.full(system.n, 1.0 + z)
        with pytest.raises(IllPosedError):
            phs.setup(system, cfg, x0)
        state = phs.setup(system, cfg, x0, allow_illposed=True)
        assert state.verdict.c0_semigroup is c0
        closure = phs.boundary_closure_matrix(
            system, phs.diagonalize_field(system, state.zetas))
        np.testing.assert_allclose(state._disc.closure_map,
                                   -np.linalg.pinv(closure.k) @ closure.q,
                                   rtol=0, atol=1e-14)
        for _ in range(5):
            phs.step(state)
        assert np.isfinite(state.g).all()
        assert all(np.isfinite(v).all() for v in state.history.values())

class TestStep:
    def test_transport_shift_solution(self):
        # w1=1, w0=0: profile moves left, zero inflow from z = 1
        system = transport_system(1.0, 0.0)
        x0 = lambda z: np.where(
            (np.asarray(z) >= 0.2) & (np.asarray(z) <= 0.8),
            np.sin(np.pi * (np.asarray(z) - 0.2) / 0.6) ** 2, 0.0)
        cfg = phs.SimConfig(nx=256, t_final=0.5, record_every=10 ** 9)
        state = phs.run(system, cfg, x0)
        z = state.zetas
        exact = np.where(z + 0.5 <= 1.0, x0(z + 0.5), 0.0)
        err = np.sqrt(np.sum(state._disc.weights * np.abs(state.x()[:, 0] - exact) ** 2))
        assert err <= 12.0 / 256  # first-order: O(dz)

    def test_unitary_energy_drift(self):
        state = phs.run(transport_system(1.0, 1.0),
                        phs.SimConfig(nx=256, t_final=1.0, record_every=10 ** 9),
                        lambda z: np.sin(np.pi * z))
        e = state.history["energy"]
        # scheme dissipation for sine data is ~ pi^2 * dz: about 3.9% here
        assert abs(e[-1] - e[0]) / e[0] <= 0.05

    def test_network_transient_energy_growth(self, network):
        g = gaussian(0.3, 0.08)
        x0 = lambda z: np.array([g(z), 0.0, g(z)])
        state = phs.run(network, phs.SimConfig(nx=256, t_final=1.0), x0)
        e = np.array(state.history["energy"])
        assert (e.max() - e[0]) / e[0] > 1e-3

    def test_network_energy_rate_matches_trace_formula(self, network):
        # for this network dE/dt = 2 Re x1(0,t) conj(x3(0,t)); the discrete
        # rate should track it up to scheme dissipation
        g = gaussian(0.3, 0.08)
        cfg = phs.SimConfig(nx=512, t_final=0.45, record_every=1)
        state = phs.setup(network, cfg, lambda z: np.array([g(z), 0.0, g(z)]))
        rates, preds = [], []
        e_prev = phs.energy(state)
        while state.t < 0.4:
            x = state.x()
            preds.append(2.0 * np.real(x[0, 0] * np.conj(x[0, 2])))
            phs.step(state)
            e_now = phs.energy(state)
            rates.append((e_now - e_prev) / state._disc.dt)
            e_prev = e_now
        rates, preds = np.array(rates), np.array(preds)
        k = int(np.argmax(preds))
        assert rates[k] == pytest.approx(preds[k], rel=0.15)
        assert np.all(rates[preds > 0.5 * preds.max()] > 0)

    def test_step_after_final_rejected(self, transport):
        cfg = phs.SimConfig(nx=32, t_final=0.05)
        state = phs.run(transport, cfg, gaussian(0.5, 0.1))
        with pytest.raises(PreconditionError):
            phs.step(state)

    def test_nonfinite_interior_field_trips_guard(self, transport):
        # an interior node never enters a boundary trace or the closure
        cfg = phs.SimConfig(nx=32, t_final=1.0)
        for bad in (np.nan, np.inf):
            state = phs.setup(transport, cfg, gaussian(0.5, 0.1))
            state.g[16, 0] = bad
            with pytest.raises(StabilityError), np.errstate(invalid="ignore"):
                phs.step(state)

    def test_blowup_guard(self, transport):
        cfg = phs.SimConfig(nx=32, t_final=1.0)
        state = phs.setup(transport, cfg, gaussian(0.5, 0.1))
        state.g = state.g + 1e8  # corrupt the field beyond the guard
        with pytest.raises(StabilityError):
            phs.step(state)


class TestRun:
    def test_contraction_energy_monotone(self):
        state = phs.run(transport_system(2.0, 1.0),
                        phs.SimConfig(nx=256, t_final=1.0),
                        gaussian(0.5, 0.1))
        e = np.array(state.history["energy"])
        assert np.all(np.diff(e) <= phs.simulator.TOL_MONO * e[0])

    def test_contraction_variable_density(self):
        field = phs.CoefficientField.polynomial(np.array([[[1.0, 0.5]]]))
        system = phs.make_system([[1.0]], [[0.0]], field, [[2.0, 1.0]])
        state = phs.run(system, phs.SimConfig(nx=256, t_final=1.0), gaussian(0.5, 0.1))
        e = np.array(state.history["energy"])
        assert np.all(np.diff(e) <= phs.simulator.TOL_MONO * e[0])

    def test_network_l1_monotone_for_opposed_channels(self, network):
        g = gaussian(0.3, 0.08)
        x0 = lambda z: np.array([g(z), 0.5 * gaussian(0.5, 0.1)(z), -g(z)])
        state = phs.run(network, phs.SimConfig(nx=256, t_final=1.0), x0)
        l1 = np.array(state.history["l1"])
        assert np.all(np.diff(l1) <= phs.simulator.TOL_MONO * l1[0])

    def test_network_l2_growth_for_aligned_channels(self, network):
        g = gaussian(0.3, 0.08)
        x0 = lambda z: np.array([g(z), 0.0, g(z)])
        state = phs.run(network, phs.SimConfig(nx=256, t_final=1.0), x0)
        l2 = np.array(state.history["l2"])
        assert l2.max() > l2[0] * (1.0 + 1e-3)

    def test_random_unitary_energy_never_rises(self):
        # complex coefficients, random unitary-class boundary conditions:
        # the monotone scheme may only dissipate the conserved energy
        x0 = lambda z: np.array([1.0 + 0.2 * np.sin(2 * np.pi * z),
                                 0.8 + 0.2 * np.cos(2 * np.pi * z)])
        for seed in (3, 11):
            system = phs.random_system(seed=seed, n=2, class_hint="unitary")
            state = phs.run(system, phs.SimConfig(nx=128, t_final=0.25), x0)
            e = np.array(state.history["energy"])
            assert e.max() <= e[0] * (1.0 + 1e-12)
            assert state.max_bc_residual <= 1e-12

    @pytest.mark.parametrize("h, p0", [
        (np.eye(3), np.zeros((3, 3))),
        (np.array([[2.0, 0.5j, 0.2], [-0.5j, 1.5, 0.1], [0.2, 0.1, 1.0]]),
         np.array([[-0.5, 1.0, 0.0], [-1.0, -0.2, 0.3j], [0.0, 0.3j, -0.1]])),
    ], ids=["network", "coupled"])
    def test_constant_field_matches_per_node_path(self, network, h, p0):
        # the same H given as a degree-0 polynomial takes the per-node path
        constant = phs.make_system(network.p1, p0, h, network.wb_tilde)
        general = phs.make_system(network.p1, p0,
                                  phs.CoefficientField.polynomial(np.asarray(h)[:, :, None]),
                                  network.wb_tilde)
        g = gaussian(0.3, 0.08)
        x0 = lambda z: np.array([g(z), 0.5 - 0.5j * g(z), -g(z)])
        cfg = phs.SimConfig(nx=128, t_final=0.5, p_norms=(1.0, 2.0, 3.0))
        a, b = phs.run(constant, cfg, x0), phs.run(general, cfg, x0)
        assert a._disc.constant and not b._disc.constant
        assert a.history.keys() == b.history.keys()
        for column in a.history:
            np.testing.assert_allclose(a.history[column], b.history[column], rtol=1e-12, atol=0)
        np.testing.assert_allclose(a.x(), b.x(), rtol=0, atol=1e-12 * np.abs(b.x()).max())
        assert a.max_bc_residual <= 1e-10 and b.max_bc_residual <= 1e-10

    def test_boundary_residual_every_step(self):
        for system in (network_system(), string_system((1.0, 1.0)),
                       transport_system(2.0, 1.0)):
            state = phs.run(system, phs.SimConfig(nx=64, t_final=0.5),
                            gaussian(0.4, 0.1))
            assert state.max_bc_residual <= 1e-10

    def test_record_every(self, transport):
        cfg = phs.SimConfig(nx=64, t_final=0.5, record_every=7)
        state = phs.run(transport, cfg, gaussian(0.5, 0.1))
        ts = state.history["t"]
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(0.5, abs=1e-12)
        # initial sample, every 7th step, and the forced final sample
        assert len(ts) == 1 + state.step_count // 7 + (state.step_count % 7 != 0)

    def test_final_time_hit_exactly(self, transport):
        state = phs.run(transport, phs.SimConfig(nx=64, t_final=0.3), gaussian(0.5, 0.1))
        assert state.t == pytest.approx(0.3, abs=1e-12)


class TestCsv:
    def test_history_csv(self, transport):
        state = phs.run(transport, phs.SimConfig(nx=32, t_final=0.1, p_norms=(1.0, 2.0)),
                        gaussian(0.5, 0.1))
        buf = io.StringIO()
        phs.write_history_csv(state, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,energy,l1,l2"
        assert len(lines) == 1 + len(state.history["t"])
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0

    def test_field_csv(self, network):
        state = phs.run(network, phs.SimConfig(nx=32, t_final=0.1), gaussian(0.5, 0.1))
        buf = io.StringIO()
        phs.write_field_csv(state, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "zeta,re(x_1),im(x_1),re(x_2),im(x_2),re(x_3),im(x_3)"
        assert len(lines) == 1 + 33
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == 0.0
