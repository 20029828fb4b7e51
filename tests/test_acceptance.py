"""Acceptance suite: one test per gate criterion, each printing a pass/fail
line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time

import numpy as np

import phs

from conftest import network_system, pinned_report, string_system, transport_system


class _Timer:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"[{self.label}] {status} ({elapsed:.2f}s / budget {self.budget_s:.0f}s)")
        assert elapsed < self.budget_s, f"{self.label}: {elapsed:.2f}s over budget"


def test_criterion_1_transport_sweep():
    """Scalar transport sweep: c0 iff w1 != 0, contraction iff w1^2 >= w0^2,
    unitary iff w1^2 = w0^2."""
    with _Timer("criterion 1: transport sweep", 1.0):
        for w1, w0 in [(1, 0), (2, 1), (1, 1), (1, -1), (1, 2), (0, 1)]:
            v = phs.classify(transport_system(float(w1), float(w0)))
            assert v.c0_semigroup == (w1 != 0), (w1, w0)
            assert v.contraction == (w1 ** 2 >= w0 ** 2), (w1, w0)
            assert v.unitary_group == (w1 ** 2 == w0 ** 2), (w1, w0)


def test_criterion_2_string_direct_sum():
    """Vibrating string with W1 = I, W0 = diag(-1,1): uniform coefficients
    make the two boundary direction vectors parallel (no generation); a
    stiffening modulus T(z) = 1 + z makes them independent (generation)."""
    with _Timer("criterion 2: string direct sum", 1.0):
        ok_uniform, smin_uniform, _ = phs.direct_sum_check(string_system())
        assert not ok_uniform
        assert smin_uniform <= 1e-12
        ok_stiff, smin_stiff, _ = phs.direct_sum_check(string_system((1.0, 1.0)))
        assert ok_stiff
        assert smin_stiff > 0.1


def test_criterion_3_network_of_transport_lines():
    """Three coupled lines: not an L2 contraction but still well posed;
    the kernel form is sign-indefinite with max eigenvalue 1/3; simulation
    shows monotone L1 for opposed channels and a transient energy rise
    above 1e-3 for aligned channels."""
    with _Timer("criterion 3: transport network", 30.0):
        network = network_system()
        v = phs.classify(network)
        assert (v.contraction, v.unitary_group, v.c0_semigroup) == (False, False, True)

        max_value, _ = phs.boundary_form_on_kernel(network)
        assert max_value > 0.1

        bump = lambda z: np.exp(-0.5 * ((z - 0.3) / 0.08) ** 2)
        mid = lambda z: np.exp(-0.5 * ((z - 0.5) / 0.1) ** 2)
        cfg = phs.SimConfig(nx=256, t_final=1.0, p_norms=(1.0, 2.0), record_every=1)

        # (a) L1 non-increasing within 1e-3 relative per step
        state = phs.run(network, cfg, lambda z: np.array([bump(z), 0.5 * mid(z), -bump(z)]))
        l1 = np.array(state.history["l1"])
        assert np.all(np.diff(l1) <= 1e-3 * l1[0])

        # (b) aligned channels at z = 0 produce a transient L2-energy increase
        state = phs.run(network, cfg, lambda z: np.array([bump(z), 0.0, bump(z)]))
        e = np.array(state.history["energy"])
        assert (e.max() - e[0]) / e[0] > 1e-3


def test_criterion_4_oracle_equivalence_campaign():
    """1000 random systems per n in {1,2,3,4,6}: the boundary-form oracle and
    the sigma-form test agree on all non-frontier instances; frontier < 5%.
    Each report equals the pinned one."""
    with _Timer("criterion 4: oracle equivalence", 60.0):
        for n in (1, 2, 3, 4, 6):
            report = phs.agreement_campaign(n, 1000, seed=42)
            assert report == pinned_report(n, 1000, 42)
            assert report["disagree"] == 0, report["mismatch_indices"]
            assert report["frontier_fraction"] < 0.05
            assert report["monotonicity_violations"] == 0
            non_frontier = report["count"] - report["frontier"]
            assert report["agree"] == non_frontier


def test_criterion_5_contraction_independent_of_density():
    """200 random (P1, P0, wb_tilde) triples, 3 random valid densities each:
    the contraction verdict never depends on the density."""
    with _Timer("criterion 5: density independence", 30.0):
        rng = np.random.default_rng(2024)
        for i in range(200):
            n = int(rng.integers(1, 5))
            hint = ("general", "contraction", "unitary")[i % 3]
            base = phs.random_system(seed=10_000 + i, n=n, class_hint=hint)
            verdicts = set()
            for j in range(3):
                donor = phs.random_system(seed=50_000 + 10 * i + j, n=n)
                system = phs.make_system(base.p1, base.p0, donor.h, base.wb_tilde)
                verdicts.add(phs.check_contraction(system).contraction)
            assert len(verdicts) == 1, f"triple {i}: verdict depends on H"


def test_criterion_6_simulator_convergence_and_conservation():
    """Transport against the analytic shift: observed L2 order >= 0.9 over
    nx in {64,...,512}; unitary fixture: energy drift <= 1% at nx = 256,
    halving under refinement."""
    with _Timer("criterion 6: convergence and conservation", 60.0):
        system = transport_system(1.0, 0.0)
        x0 = lambda z: np.sin(np.pi * np.asarray(z)) ** 2
        grids = np.array([64, 128, 256, 512])
        errors = []
        for nx in grids:
            cfg = phs.SimConfig(nx=int(nx), t_final=0.5, record_every=10 ** 9)
            state = phs.run(system, cfg, x0)
            z = state.zetas
            exact = np.where(z + 0.5 <= 1.0, x0(z + 0.5), 0.0)
            diff = np.abs(state.x()[:, 0] - exact) ** 2
            errors.append(float(np.sqrt(np.sum(state._disc.weights * diff))))
        order = -np.polyfit(np.log(grids), np.log(errors), 1)[0]
        print(f"    transport L2 errors {errors} -> observed order {order:.3f}")
        assert order >= 0.9

        # unitary transport with periodic coupling w1 = 1, w0 = -1; the
        # low-mode profile keeps the first-order scheme dissipation small
        unitary = transport_system(1.0, -1.0)
        wave = lambda z: 1.0 + 0.3 * np.sin(2.0 * np.pi * z)
        drifts = {}
        for nx in (256, 512):
            cfg = phs.SimConfig(nx=nx, t_final=1.0, record_every=10 ** 9)
            state = phs.run(unitary, cfg, wave)
            e = state.history["energy"]
            drifts[nx] = abs(e[-1] - e[0]) / e[0]
        print(f"    unitary energy drift {drifts}")
        assert drifts[256] <= 0.01
        assert drifts[512] <= 0.62 * drifts[256]


def test_criterion_7_verdict_monotonicity():
    """Across all random campaigns: no unitary verdict without contraction,
    no contraction verdict with a failed generation test.  Each campaign
    report equals the pinned one."""
    with _Timer("criterion 7: verdict monotonicity", 60.0):
        violations = 0
        for n in (1, 2, 3, 4, 6):
            report = phs.agreement_campaign(n, 200, seed=7)
            assert report == pinned_report(n, 200, 7)
            violations += report["monotonicity_violations"]
        for i in range(300):
            hint = ("general", "contraction", "unitary")[i % 3]
            v = phs.classify(phs.random_system(seed=77_000 + i, n=1 + i % 6, class_hint=hint))
            assert not (v.unitary_group and not v.contraction)
            assert not (v.contraction and v.c0_semigroup is False)
            violations += sum("InternalInconsistency" in note for note in v.notes)
        assert violations == 0
