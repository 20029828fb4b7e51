"""Kernel-form oracle, random system generation, agreement campaign."""

import numpy as np
import pytest

import phs

from conftest import pinned_report, transport_system


def sample_form_on_kernel(system, samples, seed):
    """Monte-Carlo reference for the kernel form: extremes of
    u* P1 u - y* P1 y over random unit vectors [u; y] in ker(wb_tilde)."""
    basis = phs.kernel_basis(system.wb_tilde)
    rng = np.random.default_rng(seed)
    k = basis.shape[1]
    z = rng.standard_normal((samples, k)) + 1j * rng.standard_normal((samples, k))
    traces = (z / np.linalg.norm(z, axis=1, keepdims=True)) @ basis.T
    u, y = traces[:, :system.n], traces[:, system.n:]
    vals = np.real(np.einsum("si,ij,sj->s", u.conj(), system.p1, u)
                   - np.einsum("si,ij,sj->s", y.conj(), system.p1, y))
    return float(vals.max()), float(vals.min())


class TestKernelBasis:
    def test_scalar_transport(self):
        basis = phs.kernel_basis(np.array([[1.0, 0.0]]))
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0], atol=1e-14)

    def test_network_constraints(self, network):
        b = phs.kernel_basis(network.wb_tilde)
        assert b.shape == (6, 3)
        assert np.linalg.norm(network.wb_tilde @ b) <= 1e-12
        np.testing.assert_allclose(b.conj().T @ b, np.eye(3), atol=1e-12)
        # coordinates: (x1(1), x2(1), x3(1), x1(0), x2(0), x3(0))
        np.testing.assert_allclose(b[0], 0.0, atol=1e-13)                 # x1(1) = 0
        np.testing.assert_allclose(b[1], b[3] + b[5], atol=1e-13)         # x2(1) = x1(0)+x3(0)
        np.testing.assert_allclose(b[2], b[4], atol=1e-13)                # x3(1) = x2(0)

    def test_full_rank_square(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 0.1 * np.eye(4)
        assert phs.kernel_basis(m).shape == (4, 0)

    def test_dimension_law(self):
        rng = np.random.default_rng(9)
        for i in range(100):
            n = int(rng.integers(1, 6))
            m = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
            if i % 4 == 0 and n > 1:
                m[-1] = 2.0 * m[0]  # force rank deficiency
            assert phs.kernel_basis(m).shape == (2 * n, 2 * n - phs.rank_of(m))


class TestBoundaryForm:
    def test_network_sign_indefinite(self, network):
        mx, mn = phs.boundary_form_on_kernel(network)
        # on the kernel the form equals 2 Re x1(0) conj(x3(0)); restricted to the
        # orthonormal basis its eigenvalues are {1/3, 0, -1}
        assert mx == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert mn == pytest.approx(-1.0, rel=1e-12)

    def test_unitary_transport_form_vanishes(self):
        mx, mn = phs.boundary_form_on_kernel(transport_system(1.0, 1.0))
        assert abs(mx) <= 1e-13 and abs(mn) <= 1e-13

    def test_clamped_end_with_indefinite_p1(self):
        # x(1) = 0 frees the z = 0 trace; form = -y* P1 y with P1 = [[0,1],[1,0]]
        system = phs.make_system([[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)), np.eye(2),
                                 np.hstack([np.eye(2), np.zeros((2, 2))]))
        mx, mn = phs.boundary_form_on_kernel(system)
        assert mx == pytest.approx(1.0, rel=1e-12)
        assert mn == pytest.approx(-1.0, rel=1e-12)

    def test_sampling_smoke_agrees(self, network):
        mx, mn = phs.boundary_form_on_kernel(network)
        smx, smn = sample_form_on_kernel(network, samples=10_000, seed=1)
        assert smx <= mx + 1e-12
        assert smn >= mn - 1e-12
        assert smx >= 0.5 * mx
        assert smn <= 0.5 * mn


class TestConditionCOracle:
    def test_transport_cases(self):
        assert phs.check_contraction_via_c(transport_system(2.0, 1.0))
        assert phs.check_contraction_via_c(transport_system(1.0, 1.0))
        assert not phs.check_contraction_via_c(transport_system(1.0, 2.0))

    def test_network_rejected(self, network):
        assert not phs.check_contraction_via_c(network)

    def test_rank_deficient_never_passes(self):
        # kernel dimension > n forces an indefinite restriction
        rng = np.random.default_rng(17)
        for i in range(50):
            n = int(rng.integers(2, 5))
            base = phs.random_system(seed=40 + i, n=n)
            row = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
            wb = row @ (rng.standard_normal((1, 2 * n)) + 1j * rng.standard_normal((1, 2 * n)))
            system = phs.make_system(base.p1, -np.eye(n), base.h, wb)
            assert phs.kernel_basis(system.wb_tilde).shape[1] > n
            assert not phs.check_contraction_via_c(system)


class TestRandomSystem:
    def test_determinism(self):
        a = phs.random_system(seed=12, n=3, class_hint="contraction")
        b = phs.random_system(seed=12, n=3, class_hint="contraction")
        np.testing.assert_array_equal(a.p1, b.p1)
        np.testing.assert_array_equal(a.p0, b.p0)
        np.testing.assert_array_equal(a.wb_tilde, b.wb_tilde)
        assert a.h.kind == b.h.kind
        np.testing.assert_array_equal(a.h.eval(0.3), b.h.eval(0.3))

    def test_seeds_differ(self):
        a = phs.random_system(seed=12, n=3)
        b = phs.random_system(seed=13, n=3)
        assert not np.array_equal(a.wb_tilde, b.wb_tilde)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_unitary_hint_classifies_unitary(self, n):
        for seed in range(10):
            system = phs.random_system(seed=seed, n=n, class_hint="unitary")
            v = phs.classify(system)
            assert v.unitary_group and v.contraction and v.c0_semigroup
            wb = phs.compute_wb(system)
            sigma = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
            assert np.linalg.norm(wb @ sigma @ wb.conj().T, 2) <= 1e-8

    @pytest.mark.parametrize("n", [1, 3])
    def test_contraction_hint_agrees_with_oracle(self, n):
        for seed in range(10):
            system = phs.random_system(seed=100 + seed, n=n, class_hint="contraction")
            assert phs.check_contraction(system).contraction
            assert phs.check_contraction_via_c(system)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            phs.random_system(seed=0, n=0)
        with pytest.raises(ValueError):
            phs.random_system(seed=0, n=2, class_hint="weird")


def test_stacked_generation_equals_random_system():
    seeds = range(300, 340)
    hints = [("general", "contraction", "unitary")[s % 3] for s in seeds]
    systems = phs.oracle._random_systems(seeds, 3, hints)
    phs.model._validate(systems)
    for seed, hint, system in zip(seeds, hints, systems):
        ref = phs.random_system(seed, 3, hint)
        for name in ("p1", "p0", "wb_tilde"):
            np.testing.assert_allclose(getattr(system, name), getattr(ref, name),
                                       rtol=1e-12, atol=1e-12)
        assert system.h.kind == ref.h.kind
        np.testing.assert_allclose(system.h.data[0], ref.h.data[0], rtol=1e-12, atol=1e-12)


def test_stacked_kernel_test_equals_single_system_oracle():
    # full-rank and rank-deficient wb_tilde: kernels of dimension n to 2n - 1
    rng = np.random.default_rng(4)
    systems = [phs.random_system(60 + i, 3, ("general", "contraction", "unitary")[i % 3])
               for i in range(12)]
    for r in (1, 2):
        wb = (rng.standard_normal((3, r)) @ rng.standard_normal((r, 6))).astype(complex)
        systems.append(phs.make_system(systems[r].p1, -np.eye(3), systems[r].h, wb))
    dim, top, bottom, holds = phs.oracle._kernel_test(
        *(np.stack([getattr(s, name) for s in systems]) for name in ("p1", "p0", "wb_tilde")),
        phs.classifier.TOL_PSD)
    assert set(dim.tolist()) == {3, 4, 5}
    for k, system in enumerate(systems):
        assert dim[k] == phs.kernel_basis(system.wb_tilde).shape[1]
        assert holds[k] == phs.check_contraction_via_c(system)
        mx, mn = phs.boundary_form_on_kernel(system)
        assert top[k] == pytest.approx(mx, rel=1e-12, abs=1e-14)
        assert bottom[k] == pytest.approx(mn, rel=1e-12, abs=1e-14)


class TestCampaign:
    def test_small_campaign_report(self):
        rep = phs.agreement_campaign(2, 60, seed=5)
        assert rep["count"] == 60
        assert rep["agree"] + rep["disagree"] + rep["frontier"] == 60
        assert rep["disagree"] == 0
        assert rep["mismatch_indices"] == []
        assert rep["monotonicity_violations"] == 0
        assert 0.0 <= rep["frontier_fraction"] < 0.2
        assert rep["verdicts"]["c0_true"] + rep["verdicts"]["c0_false"] \
            + rep["verdicts"]["c0_inconclusive"] == 60

    @pytest.mark.parametrize("n, count, seed", [(1, 40, 3), (3, 30, 11), (2, 250, 5)])
    def test_one_kernel_form_per_system(self, monkeypatch, n, count, seed):
        # the kernel bases come in stacks, one per kernel dimension and batch;
        # their sizes add up to one basis, hence one form, per system
        sizes = []
        real = phs.oracle._kernel_bases

        def counted(m, tol_rank=phs.classifier.TOL_RANK):
            groups = real(m, tol_rank)
            sizes.extend(len(bases) for _, bases in groups)
            return groups

        monkeypatch.setattr(phs.oracle, "_kernel_bases", counted)
        phs.agreement_campaign(n, count, seed)
        assert sum(sizes) == count
        assert len(sizes) <= (n + 1) * -(-count // phs.oracle.CAMPAIGN_BATCH)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_pinned_reports(self, n):
        assert phs.agreement_campaign(n, 100, seed=0) == pinned_report(n, 100, 0)

    @pytest.mark.parametrize("refused, unclassifiable", [(20, 30), (30, 20), (150, 120), (150, 60)])
    def test_raises_at_first_failing_system(self, monkeypatch, refused, unclassifiable):
        # system `refused` fails validation, system `unclassifiable` passes it
        # but not classify: the campaign raises what a system-by-system run
        # raises first, also within a later batch and across batches
        eye = np.eye(2)
        bad = {refused: phs.PHSystem(2, eye.astype(complex), 0 * eye.astype(complex),
                                     phs.CoefficientField.constant(-eye),
                                     np.hstack([eye, eye]).astype(complex)),
               unclassifiable: phs.make_system(np.diag([1.0, 2e-10]), 0 * eye, eye,
                                               np.hstack([eye, 0 * eye]))}
        expected = {}
        for k, check in ((refused, phs.validate_system), (unclassifiable, phs.classify)):
            with pytest.raises(phs.ValidationError) as exc:
                check(bad[k])
            expected[k] = str(exc.value)
        real, built = phs.oracle._system, []

        def substituted(*args):
            built.append(1)
            return bad.get(len(built) - 1) or real(*args)

        monkeypatch.setattr(phs.oracle, "_system", substituted)
        with pytest.raises(phs.ValidationError) as got:
            phs.agreement_campaign(2, 200, seed=3)
        assert str(got.value) == expected[min(refused, unclassifiable)]

    def test_stack_only_failure_is_raised(self, monkeypatch):
        # a stage that fails on the stack but passes on each system alone:
        # the replay finds no failing system, and the batch's error is raised
        # instead of a report
        real = phs.oracle._kernel_test

        def stack_only(p1, *args):
            if len(p1) > 1:
                raise phs.InvariantError("fails on stacks only")
            return real(p1, *args)

        monkeypatch.setattr(phs.oracle, "_kernel_test", stack_only)
        assert phs.agreement_campaign(2, 1, seed=3)["count"] == 1
        with pytest.raises(phs.InvariantError, match="fails on stacks only"):
            phs.agreement_campaign(2, 150, seed=3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_bad_dimension(self, n):
        # refused before any draw, as random_system refuses it
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            phs.agreement_campaign(n, 5, 0)

    def test_campaign_deterministic(self):
        a = phs.agreement_campaign(3, 40, seed=8)
        b = phs.agreement_campaign(3, 40, seed=8)
        assert a == b


class TestInvariants:
    """The kernel-dimension law is checked by a raise, so it holds under
    python -O as well."""

    @pytest.fixture
    def broken_kernel(self, monkeypatch):
        real = phs.oracle._kernel_bases

        def off_by_one(m, tol_rank=phs.classifier.TOL_RANK):
            # one column too many in every basis: the kernel dimension is off by one
            return [(idx, np.concatenate([bases, np.zeros(bases.shape[:2] + (1,))], axis=2))
                    for idx, bases in real(m, tol_rank)]

        monkeypatch.setattr(phs.oracle, "_kernel_bases", off_by_one)

    def test_contraction_via_c(self, broken_kernel):
        with pytest.raises(phs.InvariantError, match="kernel dimension"):
            phs.check_contraction_via_c(transport_system(2.0, 1.0))

    def test_agreement_campaign(self, broken_kernel):
        with pytest.raises(phs.InvariantError, match="kernel dimension law"):
            phs.agreement_campaign(n=2, count=3, seed=0)
