"""Simulator: setup, stepping, norms, boundary closure, stability guards."""

import io
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import phs
from phs.errors import (
    ContinuityError,
    IllPosedError,
    PreconditionError,
    ShapeError,
    StabilityError,
    ValidationError,
)

from conftest import FIXTURES, crossing_system, network_system, string_system, transport_system

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import make_sim_histories  # noqa: E402

# Maximum admissible relative increase per step for monotone-norm checks.
TOL_MONO = 1e-3


def gaussian(center, width):
    return lambda z: np.exp(-0.5 * ((z - center) / width) ** 2)


def constant_string() -> phs.PHSystem:
    """A string with a constant, coupled H and dissipative P0: one lam and
    one theta component, so a stage reads the nodes behind and ahead."""
    h = np.array([[2.0, 0.5j], [-0.5j, 1.5]])
    p0 = np.array([[-0.5, 1.0], [-1.0, -0.2]])
    wb = np.hstack([np.eye(2), np.diag([-1.0, 1.0])])
    return phs.make_system([[0.0, 1.0], [1.0, 0.0]], p0, h, wb)


def backward_transport() -> phs.PHSystem:
    """Scalar transport toward z = 1 (a theta component only), damped."""
    return phs.make_system([[-1.0]], [[-0.3]], [[1.5]], [[1.0, 2.0]])


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))
# the fixtures that are not classified as generators
ILLPOSED = {"string_uniform", "transport_w1_0_w0_1"}


def fixture_state(name: str) -> phs.SimState:
    """A fixture set up at nx = 64 with the pinned histories' initial field."""
    system = phs.load_system(FIXTURES / f"{name}.json")
    return phs.setup(system, phs.SimConfig(nx=64, t_final=1.0),
                     make_sim_histories.x0(system.n), allow_illposed=name in ILLPOSED)


CONSTANT_SYSTEMS = {
    "network_three_lines": lambda: phs.load_system(FIXTURES / "network_three_lines.json"),
    "constant_string": constant_string,
    "backward_transport": backward_transport,
}
# the constant systems and one variable fixture, which step on the same buffers
SYSTEMS = dict(CONSTANT_SYSTEMS,
               string_stiffening=lambda: phs.load_system(FIXTURES / "string_stiffening.json"))
VARIABLE_FIXTURES = ["string_stiffening", "string_uniform", "transport_grid_h",
                     "transport_variable_h"]


def assert_step_is_mean_with_closed_euler_stages(system, nx, dt_scale):
    """The step is (g + C E C E g) / 2 with E the Euler stage g + dt rhs(g)
    and C the closure, on every row and also for a g that is not closed;
    the final, shorter dt builds its own maps.  Returns the discretization."""
    state = phs.setup(system, phs.SimConfig(nx=nx, t_final=1.0), gaussian(0.5, 0.1),
                      allow_illposed=True)
    disc, dt = state._disc, dt_scale * state._disc.dt

    def closed_euler(g):
        g = g + dt * disc.rhs(g)
        disc.close(g)
        return g

    rng = np.random.default_rng(nx)
    g = rng.standard_normal((nx + 1, system.n)) + 1j * rng.standard_normal((nx + 1, system.n))
    expected = (g + closed_euler(closed_euler(g))) / 2.0
    disc._fields[0][...] = g
    got = disc.heun(0, dt)
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(g).max()
    return disc


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
        state.g = state._disc.apply("s", np.ones((33, 1), dtype=complex))
        assert phs.energy(state) == pytest.approx(2.0, rel=1e-12)
        assert phs.lp_norm(state, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_density_energy(self):
        system = phs.make_system(np.eye(2), np.zeros((2, 2)), np.diag([1.0, 4.0]),
                                 np.hstack([np.eye(2), np.zeros((2, 2))]))
        cfg = phs.SimConfig(nx=32, t_final=1.0)
        state = phs.setup(system, cfg, lambda z: np.array([1.0, 1.0]))
        x = np.ones((33, 2), dtype=complex)
        state.g = state._disc.apply("s", x)
        assert phs.energy(state) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_energy_weights_diagonalize_h(self, name):
        # S^-1 = H^-1/2 q D with q unitary and D diagonal, so
        # S^-* H S^-1 is diagonal at every node and the record's energy, a
        # weighting of |g|^2, leaves out no cross term
        state = fixture_state(name)
        system, zetas = state.system, state.zetas
        s_inv = phs.diagonalize_field(system, zetas).s_inv
        m = np.conj(np.swapaxes(s_inv, 1, 2)) @ system.h.eval_many(zetas) @ s_inv
        diag = np.diagonal(m, axis1=1, axis2=2)
        off = np.abs(m - diag[:, :, None] * np.eye(system.n))
        assert np.all(off.max(axis=(1, 2)) <= 1e-13 * np.abs(diag).max(axis=1))
        weights = state._disc.weights[:, None] * diag.real
        np.testing.assert_allclose(state._disc._energy_weights[:, ::2], weights,
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_one_norm_route(self, name):
        # energy() and lp_norm() compute the record's columns, and both are
        # trapezoid sums over the nodes
        system = phs.load_system(FIXTURES / f"{name}.json")
        p_norms = (1.0, 1.5, 2.0, 3.0)
        cfg = phs.SimConfig(nx=64, t_final=1.0, p_norms=p_norms)
        state = phs.setup(system, cfg, gaussian(0.4, 0.1), allow_illposed=name in ILLPOSED)
        for _ in range(7):
            phs.step(state)
        x = state.x()
        w = np.full(cfg.nx + 1, 1.0 / cfg.nx)
        w[0] = w[-1] = 0.5 / cfg.nx
        hx = np.einsum("nij,nj->ni", system.h.eval_many(state.zetas), x)
        energy = sum(w[i] * np.vdot(x[i], hx[i]).real for i in range(cfg.nx + 1))
        assert phs.energy(state) == state.history["energy"][-1]
        assert phs.energy(state) == pytest.approx(energy, rel=1e-13)
        for p in p_norms:
            norm = sum(w[i] * np.linalg.norm(x[i]) ** p for i in range(cfg.nx + 1)) ** (1 / p)
            assert phs.lp_norm(state, p) == state.history[f"l{p:g}"][-1]
            assert phs.lp_norm(state, p) == pytest.approx(norm, rel=1e-13)

    def test_lp_norm_domain(self, transport):
        cfg = phs.SimConfig(nx=32, t_final=1.0)
        state = phs.setup(transport, cfg, gaussian(0.5, 0.1))
        for p in (0.5, math.nan, math.inf):
            with pytest.raises(phs.DomainError):
                phs.lp_norm(state, p)
        # numbers as SimConfig takes them: no bool, string, None, complex or
        # integer too large for a float
        for p in (True, "2", None, 2 + 0j, 10**400):
            with pytest.raises(phs.DomainError, match="^p: "):
                phs.lp_norm(state, p)


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
        with pytest.raises(ContinuityError):
            phs.setup(crossing_system(), cfg, gaussian(0.5, 0.1))

    def test_cfl_bound(self):
        system = string_system((1.0, 1.0))  # speeds up to sqrt(2)
        cfg = phs.SimConfig(nx=64, t_final=1.0)
        state = phs.setup(system, cfg, gaussian(0.5, 0.1), allow_illposed=False)
        disc = state._disc
        cfl = phs.simulator.CFL
        assert disc.dt * np.abs(disc.speeds).max() / disc.dz <= cfl + 1e-12
        assert disc.dt == pytest.approx(cfl * disc.dz / np.sqrt(2.0), rel=1e-12)

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

    @pytest.mark.parametrize("value, shape", [
        (np.ones(2), r"\(2,\)"), (np.ones((3, 1)), r"\(3, 1\)"), ("one", r"\(\)")],
        ids=["short", "column", "text"])
    def test_misshapen_initial_value_rejected(self, network, value, shape):
        # a value that is not one number or n numbers is a typed error naming
        # z and its shape, not a bare numpy error
        cfg = phs.SimConfig(nx=32, t_final=1.0)
        x0 = lambda z: value if z == 0.5 else np.zeros(3)
        with pytest.raises(ShapeError, match=rf"x0\(0\.5\) .* of shape {shape}"):
            phs.setup(network, cfg, x0)
        # a scalar is taken for every component
        state = phs.setup(network, cfg, lambda z: 2.0)
        np.testing.assert_allclose(state.x()[1:-1], 2.0, rtol=1e-13)

    def test_step_bound(self):
        # dt = 5.6e-102 at nx 16: a run to t = 1 would take 1.8e101 steps,
        # and x0 is not sampled
        fast = phs.make_system([[1.0]], [[0.0]], [[1e100]], [[1.0, -0.5]])
        assert phs.classify(fast).c0_semigroup is True
        sampled = []
        with pytest.raises(ValidationError, match=r"N = t_final / dt = 1\.77+8e\+101 steps "
                           r"of dt = 5\.625e-102 \(largest speed 1\.000e\+100\), more than "
                           r"MAX_STEPS = 1000000"):
            phs.setup(fast, phs.SimConfig(nx=16, t_final=1.0), lambda z: sampled.append(z))
        assert not sampled
        # a run of MAX_STEPS steps is let through: dt = 0.9 / 16 here
        slow = phs.make_system([[1.0]], [[0.0]], [[1.0]], [[1.0, -0.5]])
        t_final = phs.simulator.MAX_STEPS * 0.9 / 16
        state = phs.setup(slow, phs.SimConfig(nx=16, t_final=t_final), lambda z: 1.0)
        assert t_final / state._disc.dt <= phs.simulator.MAX_STEPS
        with pytest.raises(ValidationError, match="MAX_STEPS"):
            phs.setup(slow, phs.SimConfig(nx=16, t_final=t_final * 1.001), lambda z: 1.0)

    @pytest.mark.parametrize("name, nx, t_final", [
        ("transport_w1_1_w0_1", 2 * 10**6, 1.0), ("string_stiffening", 20000, 100.0)])
    def test_step_bound_before_the_grid(self, name, nx, t_final):
        # the speeds at z = 0 and 1 already take the run past MAX_STEPS, so
        # it is refused before any array of the grid's size: the grid alone
        # is 16 MB and 160 kB here
        system = phs.load_system(FIXTURES / f"{name}.json")
        config = phs.SimConfig(nx=nx, t_final=t_final)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="needs at least N = t_final / dt"):
                phs.setup(system, config, gaussian(0.5, 0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_step_bound_reads_the_whole_grid(self):
        # H = 1 + 4 z (1 - z): speed 1 at the ends and 2 at z = 1/2, a node
        # at nx 16, so a run that the ends' speed allows in 3/4 MAX_STEPS
        # takes 3/2 MAX_STEPS on the grid
        field = phs.CoefficientField.polynomial(np.array([[[1.0, 4.0, -4.0]]]))
        system = phs.make_system([[1.0]], [[0.0]], field, [[1.0, -0.5]])
        t_final = 0.75 * phs.simulator.MAX_STEPS * 0.9 / 16
        with pytest.raises(ValidationError, match=r"needs N = t_final / dt = 1500000 steps "
                           r"of dt = 2\.812e-02 \(largest speed 2\.000e\+00\)"):
            phs.setup(system, phs.SimConfig(nx=16, t_final=t_final), lambda z: 1.0)

    def test_config_validation(self):
        for kwargs in ({"nx": 8}, {"t_final": 0.0}, {"p_norms": (0.5,)},
                       {"record_every": 0},
                       # bool subclasses int, but is not taken for a number
                       {"nx": True}, {"t_final": True}, {"p_norms": (True, 2.0)},
                       {"record_every": True},
                       # an lnan column, and a linf that reads 1 whatever the field
                       {"p_norms": (math.nan,)}, {"p_norms": (2.0, math.inf)},
                       {"nx": 16.5}, {"record_every": 2.0},
                       # two exponents with one column label l2
                       {"p_norms": (2, 2.0)}, {"p_norms": (2, 2.0000001)},
                       {"p_norms": ("2",)}, {"p_norms": 2}, {"t_final": "1"},
                       # integers too large for a float
                       {"t_final": 10**400}, {"p_norms": (10**400,)},
                       {"p_norms": (1.0, -10**400)}, {"nx": 10**400},
                       {"record_every": 10**400}):
            with pytest.raises(ValidationError):
                phs.SimConfig(**kwargs)
        assert phs.SimConfig(nx=np.int64(32), record_every=np.int64(2)).nx == 32


def _beam_system():
    """Timoshenko beam with K/rho = 1 + z and EI/I_rho = 1.5, clamped at 0
    and free at 1: the speeds sqrt(1 + z) and sqrt(1.5) cross at z = 1/2."""
    p1 = np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
    p0 = np.zeros((4, 4))
    p0[0, 3], p0[3, 0] = -1.0, 1.0
    coeffs = np.zeros((4, 4, 2))
    coeffs[:, :, 0] = np.diag([1.0, 1.0, 1.5, 1.0])
    coeffs[0, 0, 1] = 1.0
    wb = np.zeros((4, 8))
    wb[0, 0] = wb[1, 2] = wb[2, 5] = wb[3, 7] = 1.0  # e1(1) = e3(1) = e2(0) = e4(0) = 0
    return phs.make_system(p1, p0, phs.CoefficientField.polynomial(coeffs), wb)


class TestCrossingReportedOnce:
    """A crossing of analytic speed curves leaves the generation test valid
    (Rellich): it is listed by diagonalize_field and refused by the
    simulator's sorted transform, and reported nowhere else."""

    def test_beam_classified_without_notes(self):
        v = phs.classify(_beam_system())
        assert v.unitary_group and v.c0_semigroup
        assert v.notes == ()

    def test_beam_crossing_listed_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = phs.diagonalize_field(_beam_system(), np.linspace(0.0, 1.0, 65))
        assert field.crossings == (32, 33)

    def test_beam_setup_refused(self):
        with pytest.raises(ContinuityError, match=r"indices \[32, 33\]"):
            phs.setup(_beam_system(), phs.SimConfig(nx=64), gaussian(0.5, 0.1))


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

    @pytest.mark.parametrize("name, allow_illposed", [
        ("network_three_lines", False), ("string_stiffening", False),
        ("transport_grid_h", False), ("string_uniform", True)])
    def test_closure_holds_after_every_step(self, name, allow_illposed):
        # the mean that ends a step is closed because both of its terms are
        system = phs.load_system(FIXTURES / f"{name}.json")
        x0 = lambda z: (1.0 + z) * np.arange(1, system.n + 1) + 1j * np.cos(3.0 * z)
        state = phs.setup(system, phs.SimConfig(nx=64, t_final=1.0), x0,
                          allow_illposed=allow_illposed)
        disc, n1 = state._disc, state._disc.n1
        for _ in range(20):
            phs.step(state)
            g = state.g
            incoming = np.concatenate([g[-1, :n1], g[0, n1:]])
            outgoing = np.concatenate([g[0, :n1], g[-1, n1:]])
            np.testing.assert_allclose(incoming, disc.closure_map @ outgoing,
                                       rtol=0, atol=1e-14 * np.abs(g).max())

    @pytest.mark.parametrize("name", ["network_three_lines", "string_stiffening"])
    def test_step_calls_no_closure(self, name, monkeypatch):
        # the end map of a step carries both of its closures, for both
        # kinds: only setup closes (the initial field, and the unit fields
        # from which the step maps read the closure)
        calls = []
        close = phs.simulator._Discretization.close
        monkeypatch.setattr(phs.simulator._Discretization, "close",
                            lambda disc, g: calls.append(g) or close(disc, g))
        state = phs.setup(SYSTEMS[name](), phs.SimConfig(nx=64, t_final=1.0), gaussian(0.5, 0.1))
        after_setup = len(calls)
        for _ in range(5):
            phs.step(state)
        assert len(calls) == after_setup

    @pytest.mark.parametrize("name", ["network_three_lines", "constant_string",
                                      "backward_transport", "string_stiffening"])
    def test_close_on_a_stack_closes_each_field(self, name):
        disc = phs.setup(SYSTEMS[name](), phs.SimConfig(nx=16, t_final=1.0),
                         gaussian(0.5, 0.1))._disc
        rng = np.random.default_rng(7)
        n, n1 = disc.speeds.shape[1], disc.n1
        original = rng.standard_normal((2, 3, 17, n)) + 1j * rng.standard_normal((2, 3, 17, n))
        stack, each = original.copy(), original.copy()
        for g in each.reshape(-1, 17, n):
            disc.close(g)
        disc.close(stack)
        # equal to rounding: BLAS may sum a stacked product in another order
        np.testing.assert_allclose(stack, each, rtol=0, atol=1e-14 * np.abs(each).max())
        # the incoming traces are set from the outgoing ones, which stay
        incoming = np.concatenate([stack[..., -1, :n1], stack[..., 0, n1:]], axis=-1)
        outgoing = np.concatenate([original[..., 0, :n1], original[..., -1, n1:]], axis=-1)
        np.testing.assert_allclose(incoming, outgoing @ disc.closure_map.T, rtol=1e-14)
        np.testing.assert_array_equal(stack[..., 1:-1, :], original[..., 1:-1, :])
        np.testing.assert_array_equal(stack[..., 0, :n1], original[..., 0, :n1])
        np.testing.assert_array_equal(stack[..., -1, n1:], original[..., -1, n1:])

    @pytest.mark.parametrize("name", ["network_three_lines", "string_stiffening"])
    def test_setup_field_is_a_buffer(self, name):
        # setup writes the initial field into a buffer and keeps that buffer
        # object, not a new view of it, so the first step reads it in place
        state = phs.setup(SYSTEMS[name](), phs.SimConfig(nx=64, t_final=1.0), gaussian(0.5, 0.1))
        assert state.g is state._disc._fields[0]
        assert state._k == 0

    @pytest.mark.parametrize("name", ["network_three_lines", "string_stiffening"])
    def test_assigned_field_is_copied_at_once(self, name):
        # assignment copies into the buffer that holds g, so the assigned
        # array stays the caller's
        state = phs.setup(SYSTEMS[name](), phs.SimConfig(nx=64, t_final=1.0), gaussian(0.5, 0.1))
        phs.step(state)
        arr = np.full_like(state.g, 2.0 + 1.0j)
        state.g = arr
        assert state.g is state._disc._fields[state._k]
        assert state.g is not arr
        arr[...] = 0.0
        assert (state.g == 2.0 + 1.0j).all()

    @pytest.mark.parametrize("name", ["network_three_lines", "string_stiffening"])
    def test_setup_evaluates_h_once(self, name, monkeypatch):
        # diagonalize_field evaluates H on its grid; the coupling, the
        # energy weights and the closure read those values.  The step
        # budget reads the speeds at z = 0 and 1 first, which are the grid
        # of a constant field
        system, calls = SYSTEMS[name](), []
        eval_many = phs.CoefficientField.eval_many
        monkeypatch.setattr(phs.CoefficientField, "eval_many",
                            lambda field, zetas: calls.append(len(zetas))
                            or eval_many(field, zetas))
        phs.setup(system, phs.SimConfig(nx=64, t_final=1.0), gaussian(0.5, 0.1))
        assert calls == ([2] if system.h.kind == "constant" else [2, 65])

    @pytest.mark.parametrize("name", ["network_three_lines", "string_stiffening"])
    def test_step_allocates_no_field(self, name):
        # one field is (nx+1) n complex entries; both kinds step and record
        # on preallocated buffers
        system = SYSTEMS[name]()
        cfg = phs.SimConfig(nx=4096, t_final=1.0, p_norms=(1.0, 2.0, 3.0))
        state = phs.setup(system, cfg, gaussian(0.5, 0.1))
        phs.step(state)
        tracemalloc.start()
        try:
            for _ in range(20):
                phs.step(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(state.history["t"]) == 22
        assert peak < (cfg.nx + 1) * system.n * 16

    def test_variable_step_allocates_two_fields(self):
        # variable fields step on the two buffers like constant ones
        # (the step allocates about 1.4 kB at this nx), well inside a bound of
        # three fields; no record falls inside the window
        system = phs.load_system(FIXTURES / "string_stiffening.json")
        cfg = phs.SimConfig(nx=1024, t_final=1.0, record_every=10**9)
        state = phs.setup(system, cfg, gaussian(0.5, 0.1))
        phs.step(state)
        tracemalloc.start()
        try:
            for _ in range(20):
                phs.step(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.step_count == 21 and len(state.history["t"]) == 1
        assert peak < 3 * (cfg.nx + 1) * system.n * 16

    @pytest.mark.parametrize("nx", [1024, 4096])
    def test_step_maps_hold_one_stack(self, nx):
        # the composites are built in window-group order, each group one
        # contiguous slice of one stack, and the four end rows have none:
        # the build holds no second stack of them
        system = phs.random_system(2, 4, "contraction")
        state = phs.setup(system, phs.SimConfig(nx=nx, t_final=1.0), gaussian(0.5, 0.1))
        disc = state._disc
        assert not disc.constant and len(disc._reach) == 5
        tracemalloc.start()
        try:
            bodies, _ = disc._step_maps(disc.dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(body.flags.c_contiguous for body in bodies)
        assert sum(len(body) for body in bodies) == nx - 3
        assert peak < 2 * sum(body.nbytes for body in bodies)

    @pytest.mark.parametrize("name, taps", [
        ("network_three_lines", range(0, 2)), ("constant_string", range(-1, 2)),
        ("backward_transport", range(-1, 1))])
    # every residue of nx + 1 modulo the step's window widths 3 and 5
    @pytest.mark.parametrize("nx", [16, 17, 18, 19, 20])
    @pytest.mark.parametrize("dt_scale", [1.0, 0.3])
    def test_constant_stage_is_euler_step_of_rhs(self, name, taps, nx, dt_scale):
        # the composite stencil and the end map; a stage row i reads the
        # rows i + t for t in taps, so a step row reads twice as far
        disc = assert_step_is_mean_with_closed_euler_stages(CONSTANT_SYSTEMS[name](), nx,
                                                             dt_scale)
        assert disc.constant and disc._reach == range(2 * taps.start, 2 * taps.stop - 1)

    @pytest.mark.parametrize("name", [*VARIABLE_FIXTURES, "random_contraction_n4"])
    @pytest.mark.parametrize("nx", [16, 17, 18, 19, 20])
    @pytest.mark.parametrize("dt_scale", [1.0, 0.3])
    def test_variable_step_is_mean_with_closed_euler_stages(self, name, nx, dt_scale):
        # the per-node composite stencil and the end map; the fixtures have
        # n <= 2, and the random system (affine H, n1 = 3 of 4, P0 != 0) has
        # full 2n x 2n own maps with both blocks
        system = (phs.random_system(2, 4, "contraction") if name == "random_contraction_n4"
                  else phs.load_system(FIXTURES / f"{name}.json"))
        disc = assert_step_is_mean_with_closed_euler_stages(system, nx, dt_scale)
        assert not disc.constant

    # 200 steps at dt and nx = 32, recorded every 40 steps by the two-stage
    # Heun step (a stage, a closure, a stage, a closure and the mean)
    STEPS_200 = {
        "constant_string": {
            "energy": [25.759015014670041, 147.59736716364932, 276.78815942973466,
                       266.43904626753863, 214.5798419481857, 152.30279034854172],
            "l1": [3.7571378861707574, 9.9621473697874396, 13.646099332823582,
                   13.287557761482306, 11.981535320723507, 10.128800414150991],
            "l2": [4.0698399747421279, 10.469481765245535, 13.886278378731895,
                   13.504843475722266, 12.20107273872253, 10.329874056651777],
            "l3": [4.5975715544438893, 10.900328166979461, 14.106071864915645,
                   13.70591270598449, 12.402118383278269, 10.512409826671988],
        },
        "backward_transport": {
            "energy": [4.1977247747546445, 0.29988442851994684, 0.024189247536519843,
                       0.001891741709836633, 0.00014181302161099426, 1.0259753001837741e-05],
            "l1": [1.6514315938310453, 0.4293953361933428, 0.11976419273734958,
                   0.033206259569973993, 0.0091142010873504539, 0.0024835618376362213],
            "l2": [1.672866755952118, 0.44712744530685122, 0.1269888381880335,
                   0.035512830637546886, 0.0097232717954055716, 0.0026153078852323474],
            "l3": [1.6951878409293057, 0.4609077741730862, 0.1328767947383532,
                   0.037542585534017146, 0.010309993460097635, 0.0027536160888350387],
        },
    }

    @pytest.mark.parametrize("name", sorted(STEPS_200))
    def test_constant_steps_match_two_stage_reference(self, name):
        # the three- and five-tap composites with their end maps, which no
        # pinned history covers: constant_string reads both neighbours and
        # backward_transport only the node behind
        system = CONSTANT_SYSTEMS[name]()
        cfg = phs.SimConfig(nx=32, t_final=100.0, p_norms=(1.0, 2.0, 3.0), record_every=40)
        x0 = lambda z: (1.0 + z) * np.arange(1, system.n + 1) + 1j * np.cos(3.0 * z)
        state = phs.setup(system, cfg, x0)
        for _ in range(200):
            phs.step(state)
        np.testing.assert_allclose(state.history["t"], state._disc.dt * np.arange(0, 201, 40),
                                   rtol=1e-13)
        for column, expected in self.STEPS_200[name].items():
            np.testing.assert_allclose(state.history[column], expected, rtol=0,
                                       atol=1e-12 * np.abs(expected).max(), err_msg=column)

    @pytest.mark.parametrize("name", ["network_three_lines", "constant_string",
                                      "string_stiffening"])
    @pytest.mark.parametrize("foreign", [
        np.copy, np.asfortranarray, lambda g: np.array(g.tolist())],
        ids=["copy", "fortran", "user"])
    def test_foreign_field_steps_like_a_buffer(self, name, foreign):
        # an array assigned to state.g is copied into a buffer before the
        # step reads it
        system = SYSTEMS[name]()
        cfg = phs.SimConfig(nx=64, t_final=1.0)
        x0 = lambda z: (1.0 + z) * np.arange(1, system.n + 1) + 1j * np.cos(3.0 * z)
        kept, assigned = (phs.setup(system, cfg, x0) for _ in range(2))
        for k in range(50):
            phs.step(kept)
            if k % 10 == 0:
                assigned.g = foreign(assigned.g)
            phs.step(assigned)
            assert np.array_equal(assigned.g, kept.g)

    @pytest.mark.parametrize("constant", [True, False])
    def test_previous_field_is_overwritten(self, network, constant):
        # both kinds alternate g between two buffers, so the array read from
        # state.g before a recorded step is overwritten by that step's record
        system = network if constant else string_system((1.0, 1.0))
        assert (system.h.kind == "constant") is constant
        state = phs.setup(system, phs.SimConfig(nx=64, t_final=1.0), gaussian(0.5, 0.1))
        phs.step(state)
        kept = state.g
        before = kept.copy()
        phs.step(state)
        assert state.g is not kept
        assert not np.array_equal(kept, before)

    def test_constant_setup_diagonalizes_the_two_ends(self, network, monkeypatch):
        points = []
        diagonalize = phs.simulator.diagonalize_field
        monkeypatch.setattr(phs.simulator, "diagonalize_field",
                            lambda system, grid: points.append(len(grid))
                            or diagonalize(system, grid))
        phs.setup(network, phs.SimConfig(nx=64), gaussian(0.5, 0.1))
        phs.setup(string_system((1.0, 1.0)), phs.SimConfig(nx=64), gaussian(0.5, 0.1))
        # a variable field's ends are diagonalized for the step budget first
        assert points == [2, 2, 65]

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

    @pytest.mark.parametrize("modulus, raises", [(0.99, False), (1.01, True)])
    def test_guard_compares_the_modulus(self, transport, modulus, raises):
        # re = im = modulus * limit / sqrt(2): each part is below the limit
        # and above half of it, so only the modulus decides
        state = phs.setup(transport, phs.SimConfig(nx=32, t_final=1.0), gaussian(0.5, 0.1))
        limit = phs.simulator.BLOWUP_FACTOR * state._g0_max
        state.g = np.full_like(state.g, modulus * limit / math.sqrt(2.0) * (1.0 + 1.0j))
        if raises:
            with pytest.raises(StabilityError, match="exceeds"):
                phs.step(state)
        else:
            phs.step(state)
            assert np.abs(state.g).max() == pytest.approx(modulus * limit, rel=1e-12)

    @pytest.mark.parametrize("value, raises", [
        (1.0 - 1e-9, False), (1.0 + 1e-9, True),
        (math.nan, True), (math.inf, True), (complex(0.0, -math.inf), True)],
        ids=["below", "above", "nan", "inf", "imag_minus_inf"])
    def test_guard_at_one_node(self, transport, monkeypatch, value, raises):
        # a step whose new field is zero but at one node: its norm is the
        # modulus there, so the one-pass test accepts just below the limit
        # and the exact peak decides above it and for NaN and inf
        state = phs.setup(transport, phs.SimConfig(nx=32, t_final=1.0), gaussian(0.5, 0.1))
        limit = phs.simulator.BLOWUP_FACTOR * state._g0_max
        # like heun, into the field buffer that does not hold g
        new = state._disc._fields[1 - state._k]
        new[...] = 0.0
        new[16, 0] = value * limit * (0.6 + 0.8j) if math.isfinite(abs(value)) else value
        monkeypatch.setattr(state._disc, "heun", lambda k, dt: new)
        if raises:
            with pytest.raises(StabilityError, match="not finite or exceeds"):
                phs.step(state)
            assert state.step_count == 0
        else:
            phs.step(state)
            assert state.g is new and state.step_count == 1

    def test_guard_sum_of_squares_overflows(self, transport, monkeypatch):
        # entries of about 1e200 are far below the blow-up limit, but their
        # squares overflow in the record: set-up refuses them, and without a
        # numpy warning, which the test configuration turns into an error
        cfg = phs.SimConfig(nx=32, t_final=1.0)
        with pytest.raises(StabilityError, match="overflows the record"):
            phs.setup(transport, cfg, lambda z: 1e200 * (1.0 + z))
        # entries of about 1e150 square without overflow: accepted and recorded
        state = phs.setup(transport, cfg, lambda z: 1e150 * (1.0 + z))
        phs.step(state)
        assert state.step_count == 1 and np.abs(state.g).max() > 1e150
        assert all(np.isfinite(column).all() for column in state.history.values())
        # a step to entries that the blow-up limit allows but whose squares
        # overflow is refused before the state changes
        new = state._disc._fields[1 - state._k]
        new[...] = 1e-3 * phs.simulator.BLOWUP_FACTOR * state._g0_max
        monkeypatch.setattr(state._disc, "heun", lambda k, dt: new)
        with pytest.raises(StabilityError, match="overflows the record"):
            phs.step(state)
        assert state.step_count == 1

    @pytest.mark.parametrize("t_final, error, match", [
        (0.05, ValidationError, "MAX_STEPS"), (1e-203, StabilityError, "overflows the record")])
    def test_large_field_bound_without_warning(self, t_final, error, match):
        # H = 1e200: the norms behind the record's bound scale each matrix
        # before squaring, so set-up ends in its typed error, without a numpy
        # warning (the test configuration turns warnings into errors)
        system = phs.make_system([[1]], [[0]], [[1e200]], [[1, -0.5]])
        with pytest.raises(error, match=match):
            phs.setup(system, phs.SimConfig(nx=32, t_final=t_final), lambda z: 1.0)

    def test_record_power_overflows(self, monkeypatch):
        # |x|^400 overflows from |x| = 10 on, but the norm divides the node
        # squares by their maximum first: l400 of a constant 10 (closed, as
        # the boundary condition is x(1) = x(0)) is 10, also after a step to
        # twice the field, and no numpy warning is raised (the test
        # configuration turns warnings into errors)
        cfg = phs.SimConfig(nx=32, t_final=1.0, p_norms=(2.0, 400.0))
        state = phs.setup(transport_system(1.0, -1.0), cfg, lambda z: 10.0)
        assert state.history["l400"] == [pytest.approx(10.0, rel=1e-12)]
        assert phs.lp_norm(state, 400.0) == pytest.approx(10.0, rel=1e-12)
        new = np.multiply(state.g, 2.0, out=state._disc._fields[1 - state._k])
        monkeypatch.setattr(state._disc, "heun", lambda k, dt: new)
        phs.step(state)
        assert state.history["l400"][-1] == pytest.approx(20.0, rel=1e-12)
        assert phs.lp_norm(state, 400.0) == pytest.approx(20.0, rel=1e-12)


class TestRun:
    def test_contraction_energy_monotone(self):
        state = phs.run(transport_system(2.0, 1.0),
                        phs.SimConfig(nx=256, t_final=1.0),
                        gaussian(0.5, 0.1))
        e = np.array(state.history["energy"])
        assert np.all(np.diff(e) <= TOL_MONO * e[0])

    def test_contraction_variable_density(self):
        field = phs.CoefficientField.polynomial(np.array([[[1.0, 0.5]]]))
        system = phs.make_system([[1.0]], [[0.0]], field, [[2.0, 1.0]])
        state = phs.run(system, phs.SimConfig(nx=256, t_final=1.0), gaussian(0.5, 0.1))
        e = np.array(state.history["energy"])
        assert np.all(np.diff(e) <= TOL_MONO * e[0])

    def test_network_l1_monotone_for_opposed_channels(self, network):
        g = gaussian(0.3, 0.08)
        x0 = lambda z: np.array([g(z), 0.5 * gaussian(0.5, 0.1)(z), -g(z)])
        state = phs.run(network, phs.SimConfig(nx=256, t_final=1.0), x0)
        l1 = np.array(state.history["l1"])
        assert np.all(np.diff(l1) <= TOL_MONO * l1[0])

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

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_residual_from_end_rows(self, name):
        # the record reads the traces from the two end rows of g; here they
        # come from H x on the whole grid
        state = fixture_state(name)
        system = state.system
        h = system.h.eval_many(state.zetas)

        def from_hx():
            hx = np.einsum("nij,nj->ni", h, state.x())
            traces = np.concatenate([hx[-1], hx[0]])
            scale = np.linalg.norm(system.wb_tilde) * np.linalg.norm(traces)
            return np.linalg.norm(system.wb_tilde @ traces) / max(scale, 1.0)

        expected = [from_hx()]
        for _ in range(5):
            phs.step(state)
            expected.append(from_hx())
            assert state._disc.residual(state.g) == pytest.approx(expected[-1], rel=1e-12,
                                                                  abs=1e-15)
        assert state.max_bc_residual == pytest.approx(max(expected), rel=1e-12, abs=1e-15)
        assert (state.max_bc_residual > 0.5) is (name in ILLPOSED)

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


# written by scripts/make_sim_histories.py
SIM_HISTORIES = json.loads((Path(__file__).resolve().parent / "data" / "sim_histories.json")
                           .read_text())


@pytest.mark.parametrize("key", sorted(SIM_HISTORIES))
def test_pinned_history(key):
    """Every pinned history value, and the final field at every pinned node,
    within 1e-12 of the largest magnitude in its column (a field column is
    one component of x)."""
    name, nx = key.split(" nx=")
    state = make_sim_histories.simulate(name, int(nx))
    pinned = SIM_HISTORIES[key]
    rows = pinned["rows"]
    assert rows[-1] == len(state.history["t"]) - 1
    assert state.history.keys() == pinned["history"].keys()
    for column, expected in pinned["history"].items():
        got = np.array(state.history[column])[rows]
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max(), err_msg=column)
    x = state.x()[::make_sim_histories.STRIDE]
    expected = np.array(pinned["x_re"]) + 1j * np.array(pinned["x_im"])
    assert np.all(np.abs(x - expected) <= 1e-12 * np.abs(expected).max(axis=0))
    assert abs(state.max_bc_residual - pinned["max_bc_residual"]) \
        <= 1e-12 * max(1.0, pinned["max_bc_residual"])


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2)])
def test_sim_histories_generator_arguments(argv, code, capsys):
    # asking the generator for its usage, or giving it an argument it does
    # not know, leaves the pinned file as it is
    before = make_sim_histories.OUT.read_bytes()
    with pytest.raises(SystemExit) as exit_info:
        make_sim_histories.main(argv)
    assert exit_info.value.code == code
    assert make_sim_histories.OUT.read_bytes() == before
    out, err = capsys.readouterr()
    assert "usage:" in (out if code == 0 else err)
