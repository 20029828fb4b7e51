"""Matrix tests: trace-coordinate map, rank, eigen-splitting,
contraction/unitary/generation verdicts and their invariances."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phs
from phs.errors import (
    ContinuityWarning,
    DomainError,
    PreconditionError,
    ValidationError,
)

from conftest import (
    FIXTURES,
    crossing_system,
    network_system,
    string_system,
    transport_system,
)


class TestComputeWb:
    def test_scalar_hand_formula(self):
        # n = 1, P1 = 1: wb = [(w1 - w0)/2, (w1 + w0)/2]
        system = transport_system(2.0, 1.0)
        np.testing.assert_allclose(phs.compute_wb(system), [[0.5, 1.5]], atol=1e-14)

    def test_identity_composition(self):
        # wb_tilde = [P1  -P1] maps to [I  0]
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p1 = phs.hermitian_part(m) + 4.0 * np.eye(3)
        system = phs.make_system(p1, np.zeros((3, 3)), np.eye(3),
                                 np.hstack([p1, -p1]))
        np.testing.assert_allclose(
            phs.compute_wb(system), np.hstack([np.eye(3), np.zeros((3, 3))]), atol=1e-12
        )

    def test_block_inverse_formula_p1_identity(self):
        # for P1 = I: wb = wb_tilde @ inv([[I, -I], [I, I]]) = wb_tilde @ [[I, I], [-I, I]] / 2
        system = network_system()
        eye = np.eye(3)
        expected = system.wb_tilde @ np.block([[eye, eye], [-eye, eye]]) / 2.0
        np.testing.assert_allclose(phs.compute_wb(system), expected, atol=1e-13)


class TestRankOf:
    def test_network_boundary_matrix(self, network):
        assert phs.rank_of(network.wb_tilde) == 3

    def test_zero_matrix(self):
        assert phs.rank_of(np.zeros((3, 4))) == 0

    def test_rank_one_by_hand(self):
        assert phs.rank_of(np.array([[1.0, 0.0], [2.0, 0.0]])) == 1


def _sign_counts(m):
    """Numbers of positive and negative eigenvalues of a Hermitian matrix."""
    w = np.linalg.eigvalsh(m)
    band = phs.classifier.TOL_EIG * max(1.0, float(np.abs(w).max()))
    return int(np.count_nonzero(w > band)), int(np.count_nonzero(w < -band))


class TestContractionUnitary:
    def test_transport_dissipative(self):
        res = phs.check_contraction(transport_system(2.0, 1.0))
        assert res.contraction
        assert res.sigma_form_min_eigenvalue == pytest.approx(1.5)

    def test_transport_w1_1_w0_0_witness(self):
        res = phs.check_contraction(transport_system(1.0, 0.0))
        assert res.contraction
        assert res.sigma_form_min_eigenvalue == pytest.approx(0.5)

    def test_network_not_contraction(self, network):
        res = phs.check_contraction(network)
        assert not res.contraction
        assert res.sigma_form_min_eigenvalue == pytest.approx(-0.5)

    def test_unitary_iff_equal_weights(self):
        assert phs.check_contraction(transport_system(1.0, 1.0)).unitary_group
        res = phs.check_contraction(transport_system(2.0, 1.0))
        assert not res.unitary_group
        assert res.contraction
        assert phs.check_unitary(transport_system(1.0, 1.0))
        assert not phs.check_unitary(transport_system(2.0, 1.0))

    def test_negative_p0_never_unitary(self):
        system = phs.make_system([[1.0]], [[-1.0]], [[1.0]], [[1.0, 1.0]])
        res = phs.check_contraction(system)
        assert not res.unitary_group
        assert res.re_p0_norm == pytest.approx(1.0)

    def test_dissipative_p0_keeps_contraction(self):
        system = phs.make_system([[1.0]], [[-1.0]], [[1.0]], [[1.0, 1.0]])
        assert phs.check_contraction(system).contraction

    @given(eps_exp=st.floats(-12.0, -6.0), seed=st.integers(0, 10_000),
           n=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_never_unitary_without_contraction_at_frontier(self, eps_exp, seed, n):
        # P0 = skew - eps I with eps log-uniform around TOL_PSD, on a boundary
        # condition with wb Sigma wb* = 0: both tests sit on their thresholds
        base = phs.random_system(seed=seed, n=n, class_hint="unitary")
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eps = 10.0 ** eps_exp
        system = phs.make_system(base.p1, (m - m.conj().T) / 2.0 - eps * np.eye(n),
                                 base.h, base.wb_tilde)
        res = phs.check_contraction(system)
        assert not (res.unitary_group and not res.contraction)


class TestEigensplit:
    def test_uniform_string(self):
        split = phs.eigensplit(string_system(), 0.3)
        assert (split.n1, split.n2) == (1, 1)
        np.testing.assert_allclose(split.lam, [1.0], atol=1e-12)
        np.testing.assert_allclose(split.theta, [-1.0], atol=1e-12)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(split.z_plus[:, 0], [r, r], atol=1e-12)
        np.testing.assert_allclose(split.z_minus[:, 0], [r, -r], atol=1e-12)

    @pytest.mark.parametrize("zeta", [0.0, 0.25, 0.7, 1.0])
    def test_wave_speed_closed_form(self, zeta):
        # T(z) = 1 + z, rho = 1: eigenvalues of P1 H are +-sqrt(T/rho)
        split = phs.eigensplit(string_system((1.0, 1.0)), zeta)
        gamma = np.sqrt(1.0 + zeta)
        np.testing.assert_allclose(split.lam, [gamma], rtol=1e-12)
        np.testing.assert_allclose(split.theta, [-gamma], rtol=1e-12)

    def test_wave_eigenvector_direction(self):
        # Z+ = span (T, gamma) for the string in (momentum, strain) variables
        zeta = 0.5
        split = phs.eigensplit(string_system((1.0, 1.0)), zeta)
        t_val, gamma = 1.0 + zeta, np.sqrt(1.0 + zeta)
        direction = np.array([t_val, gamma])
        direction /= np.linalg.norm(direction)
        np.testing.assert_allclose(split.z_plus[:, 0].real, direction, rtol=1e-12)

    def test_network_full_positive_eigenspace(self, network):
        split = phs.eigensplit(network, 0.5)
        assert (split.n1, split.n2) == (3, 0)
        np.testing.assert_allclose(split.lam, np.ones(3), atol=1e-12)
        assert split.z_minus.shape == (3, 0)
        proj = split.z_plus @ split.z_plus.conj().T
        np.testing.assert_allclose(proj, np.eye(3), atol=1e-12)

    def test_reconstruction_invariant(self):
        for system in (string_system((1.0, 1.0)), network_system(),
                       transport_system(1.0, 0.0, h=2.0)):
            for zeta in (0.0, 0.33, 1.0):
                split = phs.eigensplit(system, zeta)
                p1h = system.p1 @ system.h.eval(zeta)
                lhs = p1h @ split.s_inv
                rhs = split.s_inv @ np.diag(split.speeds)
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(p1h))

    def test_inertia_matches_p1(self):
        for system in (string_system((1.0, 1.0)), network_system()):
            n_plus, n_minus = _sign_counts(system.p1)
            for zeta in np.linspace(0.0, 1.0, 9):
                split = phs.eigensplit(system, zeta)
                assert (split.n1, split.n2) == (n_plus, n_minus)

    def test_zero_eigenvalue_rejected(self):
        # bypass validation to hit the guard: singular P1 makes P1 H singular
        bad = phs.PHSystem(
            n=2,
            p1=np.diag([1.0, 0.0]),
            p0=np.zeros((2, 2)),
            h=phs.CoefficientField.constant(np.eye(2)),
            wb_tilde=np.hstack([np.eye(2), np.eye(2)]),
        )
        with pytest.raises(ValidationError, match="eigenvalue"):
            phs.eigensplit(bad, 0.5)

    @pytest.mark.parametrize("path", [*sorted(FIXTURES.glob("*.json")), None],
                             ids=lambda p: p.stem if p else "random_complex")
    def test_phase_convention_matches_per_column_loop(self, path):
        # the per-column loop the batched phase fix replaced, as the reference:
        # each column rotated so its first non-negligible entry is real positive
        def loop(m):
            m = np.array(m)
            for j in range(m.shape[1]):
                mags = np.abs(m[:, j])
                i = int(np.argmax(mags > 1e-12 * mags.max()))
                m[:, j] *= np.conj(m[i, j]) / mags[i]
            return m

        system = phs.load_system(path) if path else _random_polynomial_system()
        for zeta in (0.0, 0.37, 1.0):
            split = phs.eigensplit(system, zeta)
            for m in (split.s_inv, split.z_plus, split.z_minus):
                np.testing.assert_allclose(m, loop(m), rtol=0, atol=1e-15)

    def test_determinism(self):
        a = phs.eigensplit(string_system((1.0, 1.0)), 0.4)
        b = phs.eigensplit(string_system((1.0, 1.0)), 0.4)
        np.testing.assert_array_equal(a.s_inv, b.s_inv)
        np.testing.assert_array_equal(a.z_plus, b.z_plus)


def _pointwise_field(system, grid):
    """The per-point loop that the stacked diagonalize_field replaces:
    eigensplit at every point, crossings from the neighbour overlaps, and
    each column rotated by the phase of its inner product with the aligned
    column before it.  Returns (splits, aligned s_inv, crossings, max jump)."""
    splits = [phs.eigensplit(system, z) for z in grid]
    aligned = [splits[0].s_inv]
    crossings, jump = [], 0.0
    for k in range(1, len(splits)):
        prev, cur = aligned[-1], splits[k].s_inv.copy()
        if np.any(np.argmax(np.abs(prev.conj().T @ cur), axis=0) != np.arange(system.n)):
            crossings.append(k)
        inner = np.sum(prev.conj() * cur, axis=0)
        nz = np.abs(inner) > 0.0
        cur[:, nz] *= np.conj(inner[nz]) / np.abs(inner[nz])
        jump = max(jump, float(np.linalg.norm(cur - prev, axis=0).max()))
        aligned.append(cur)
    return splits, np.array(aligned), tuple(crossings), jump


def _random_polynomial_system():
    systems = (phs.random_system(seed, 3) for seed in range(100))
    return next(s for s in systems if s.h.kind == "polynomial")


def _unchecked_system(p1, h_coeffs):
    """A system with a polynomial H that make_system would reject."""
    n = len(p1)
    return phs.PHSystem(
        n=n, p1=np.asarray(p1, dtype=complex), p0=np.zeros((n, n), dtype=complex),
        h=phs.CoefficientField.polynomial(h_coeffs),
        wb_tilde=np.hstack([np.eye(n), np.zeros((n, n))]).astype(complex))


class TestDiagonalizeField:
    def test_constant_coefficients_identical_splits(self, network):
        result = phs.diagonalize_field(network, np.linspace(0.0, 1.0, 17))
        assert not result.crossings
        assert result.max_column_jump == pytest.approx(0.0, abs=1e-14)
        assert result.s_inv.shape == (17, 3, 3)
        np.testing.assert_array_equal(
            result.s_inv, np.broadcast_to(result.s_inv[0], result.s_inv.shape))

    def test_monotone_wave_speed_no_crossing(self):
        grid = np.linspace(0.0, 1.0, 33)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ContinuityWarning)
            result = phs.diagonalize_field(string_system((1.0, 1.0)), grid)
        lams = result.speeds[:, 0]
        np.testing.assert_allclose(lams, np.sqrt(1.0 + grid), rtol=1e-12)
        assert np.all(np.diff(lams) > 0)

    def test_engineered_crossing_warns(self):
        with pytest.warns(ContinuityWarning):
            result = phs.diagonalize_field(crossing_system(), np.linspace(0.0, 1.0, 33))
        assert result.crossings

    def test_grid_preconditions(self, network):
        with pytest.raises(DomainError):
            phs.diagonalize_field(network, [0.0, 0.5, 0.5])
        with pytest.raises(DomainError):
            phs.diagonalize_field(network, [0.0, 1.5])

    @pytest.mark.parametrize("make", [
        lambda: phs.load_system(FIXTURES / "string_stiffening.json"),
        lambda: phs.load_system(FIXTURES / "transport_grid_h.json"),
        crossing_system,
        _random_polynomial_system,
    ], ids=["string_stiffening", "transport_grid_h", "crossing", "random_complex"])
    def test_matches_pointwise_eigensplit(self, make):
        system = make()
        grid = np.linspace(0.0, 1.0, 65)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ContinuityWarning)
            result = phs.diagonalize_field(system, grid)
        splits, aligned, crossings, jump = _pointwise_field(system, grid)
        assert all(sp.n1 == result.n1 for sp in splits)
        np.testing.assert_allclose(result.speeds, [sp.speeds for sp in splits],
                                   rtol=0, atol=1e-12)
        # every column is eigensplit's column times a unit phase ...
        s_ref = np.array([sp.s_inv for sp in splits])
        phase = np.sum(s_ref.conj() * result.s_inv, axis=1)
        np.testing.assert_allclose(np.abs(phase), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.s_inv, s_ref * phase[:, None, :], rtol=0, atol=1e-12)
        # ... namely the phase the sequential alignment gives it
        np.testing.assert_allclose(result.s_inv, aligned, rtol=0, atol=1e-12)
        assert result.crossings == crossings
        assert result.max_column_jump == pytest.approx(jump, abs=1e-12)

    @pytest.mark.parametrize("system", [
        # H(z) = diag(1 - 2z, 1) is not positive definite from z = 1/2 on
        _unchecked_system(np.eye(2),
                          np.array([[[1.0, -2.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])),
        # H(z) = diag(1, 1e-9 (1/2 - z)): P1 H has an eigenvalue in the zero
        # band from z = 0 on, before H stops being positive definite
        _unchecked_system(np.eye(2),
                          np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [5e-10, -1e-9]]])),
        # singular P1: a zero eigenvalue everywhere
        _unchecked_system(np.diag([1.0, 0.0]),
                          np.array([[[1.0], [0.0]], [[0.0], [1.0]]])),
    ], ids=["h_not_pd", "band_before_h", "singular_p1"])
    def test_first_bad_point_named(self, system):
        grid = np.linspace(0.0, 1.0, 33)
        with pytest.raises(ValidationError) as stacked:
            phs.diagonalize_field(system, grid)
        with pytest.raises(ValidationError) as pointwise:
            for z in grid:
                phs.eigensplit(system, z)
        assert str(stacked.value) == str(pointwise.value)


class TestBoundaryClosure:
    def test_block_structure(self):
        system = string_system((1.0, 1.0))
        field = phs.diagonalize_field(system, [0.0, 1.0])
        closure = phs.boundary_closure_matrix(system, field)
        n, n1 = system.n, field.n1
        v = system.wb_tilde[:, :n] @ system.h.eval(1.0) @ field.s_inv[-1]
        u = system.wb_tilde[:, n:] @ system.h.eval(0.0) @ field.s_inv[0]
        # k = [V1 U2] on the incoming traces, q = [U1 V2] on the outgoing ones
        np.testing.assert_allclose(closure.k[:, :n1], v[:, :n1])
        np.testing.assert_allclose(closure.k[:, n1:], u[:, n1:])
        np.testing.assert_allclose(closure.q[:, :n1], u[:, :n1])
        np.testing.assert_allclose(closure.q[:, n1:], v[:, n1:])
        assert closure.k.shape == closure.q.shape == (n, n)

    def test_from_field_endpoints(self):
        system = string_system((1.0, 1.0))
        field = phs.diagonalize_field(system, np.linspace(0.0, 1.0, 9))
        closure = phs.boundary_closure_matrix(system, field)
        pointwise = phs.boundary_closure_matrix(system, phs.diagonalize_field(system, [0.0, 1.0]))
        # the endpoint columns of both fields are eigensplit's up to unit phases
        np.testing.assert_allclose(np.abs(closure.k), np.abs(pointwise.k), atol=1e-12)
        np.testing.assert_allclose(np.abs(closure.q), np.abs(pointwise.q), atol=1e-12)
        with pytest.raises(DomainError):
            phs.boundary_closure_matrix(system, phs.diagonalize_field(system, [0.0, 0.5]))

    def test_network_closure_is_identity(self, network):
        # W1 = H = S = I, so K = I and outgoing block is W0
        closure = phs.boundary_closure_matrix(network, phs.diagonalize_field(network, [0.0, 1.0]))
        np.testing.assert_allclose(closure.k, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(closure.q, network.wb_tilde[:, 3:], atol=1e-12)

    def test_invertibility_matches_direct_sum(self):
        for system in (string_system(), string_system((1.0, 1.0)), network_system(),
                       transport_system(0.0, 1.0), transport_system(1.0, 0.0)):
            closure = phs.boundary_closure_matrix(system,
                                                  phs.diagonalize_field(system, [0.0, 1.0]))
            svals = np.linalg.svd(closure.k, compute_uv=False)
            invertible = svals[0] > 0 and svals[-1] >= 1e-10 * svals[0]
            ok, _, _ = phs.direct_sum_check(system)
            assert invertible == ok


class TestDirectSum:
    def test_network_generates(self, network):
        ok, smin, k = phs.direct_sum_check(network)
        assert ok
        # K = W1 H(1) B+ with B+ orthonormal and W1 = H = I: singular values 1
        assert smin == pytest.approx(1.0, rel=1e-12)
        assert k.shape == (3, 3)

    def test_uniform_string_parallel_vectors(self):
        ok, smin, k = phs.direct_sum_check(string_system())
        assert not ok
        svals = np.linalg.svd(k, compute_uv=False)
        assert smin <= 1e-12 * svals[0]

    def test_stiffening_string_generates(self):
        ok, smin, k = phs.direct_sum_check(string_system((1.0, 1.0)))
        assert ok
        # columns proportional to (gamma(1), T(1)) and W0 (-gamma(0), T(0))
        col0 = k[:, 0] / np.linalg.norm(k[:, 0])
        ref0 = np.array([np.sqrt(2.0), 2.0])
        np.testing.assert_allclose(np.abs(col0), ref0 / np.linalg.norm(ref0), rtol=1e-12)
        col1 = k[:, 1] / np.linalg.norm(k[:, 1])
        ref1 = np.diag([-1.0, 1.0]) @ np.array([-1.0, 1.0])
        np.testing.assert_allclose(np.abs(col1), np.abs(ref1) / np.linalg.norm(ref1),
                                   rtol=1e-12)

    def test_zero_inflow_weight_blocks_generation(self):
        ok, smin, _ = phs.direct_sum_check(transport_system(0.0, 1.0))
        assert not ok
        assert smin == pytest.approx(0.0, abs=1e-14)

    def test_rank_deficient_precondition(self):
        system = phs.make_system([[1.0]], [[0.0]], [[1.0]], [[0.0, 0.0]])
        with pytest.raises(PreconditionError):
            phs.direct_sum_check(system)

    def test_basis_choice_invariance(self):
        # remixing the eigenspace bases by unitaries leaves the verdict alone
        rng = np.random.default_rng(7)
        for system in (string_system((1.0, 1.0)), string_system(), network_system()):
            ok, _, _ = phs.direct_sum_check(system)
            s1 = phs.eigensplit(system, 1.0)
            s0 = phs.eigensplit(system, 0.0)

            def haar(k):
                m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                q, r = np.linalg.qr(m)
                return q * (np.diag(r) / np.abs(np.diag(r)))

            bp = s1.z_plus @ haar(s1.n1)
            bm = s0.z_minus @ haar(s0.n2) if s0.n2 else s0.z_minus
            n = system.n
            k_alt = np.hstack([
                system.wb_tilde[:, :n] @ system.h.eval(1.0) @ bp,
                system.wb_tilde[:, n:] @ system.h.eval(0.0) @ bm,
            ])
            svals = np.linalg.svd(k_alt, compute_uv=False)
            ok_alt = svals[-1] >= 1e-10 * svals[0]
            assert ok_alt == ok


def _eigensplit_direct_sum(system):
    """The route the endpoint decomposition replaces: rank check, eigensplit
    at z = 1 then z = 0, and K from their orthonormal eigenspace bases."""
    n = system.n
    if phs.rank_of(system.wb_tilde) != n:
        raise PreconditionError("rank")
    split1 = phs.eigensplit(system, 1.0)
    split0 = phs.eigensplit(system, 0.0)
    k = np.hstack([system.wb_tilde[:, :n] @ system.h.eval(1.0) @ split1.z_plus,
                   system.wb_tilde[:, n:] @ system.h.eval(0.0) @ split0.z_minus])
    svals = np.linalg.svd(k, compute_uv=False)
    return bool(svals[0] > 0.0 and svals[-1] >= phs.classifier.TOL_RANK * svals[0]), svals[-1]


def _assert_same_direct_sum(system):
    try:
        ref_ok, ref_smin = _eigensplit_direct_sum(system)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            phs.direct_sum_check(system)
        return
    ok, smin, _ = phs.direct_sum_check(system)
    assert ok == ref_ok
    assert abs(smin - ref_smin) <= max(1e-12 * ref_smin, 1e-15)
    assert phs.classify(system).direct_sum_min_singular_value == smin


def _negative_p1_system():
    # P1 = -diag(1, 2): every eigenvalue of P1 H is negative
    field = phs.CoefficientField.polynomial(
        np.stack([np.eye(2), [[0.5, 0.2j], [-0.2j, 0.3]]], axis=2))
    return phs.make_system(-np.diag([1.0, 2.0]), np.zeros((2, 2)), field,
                           np.hstack([np.diag([0.0, 1.0]), np.diag([1.0, 2.0])]))


class TestEndpointDecomposition:
    """The C0 test reads one stacked decomposition of both endpoints; it must
    decide as the eigensplit route does."""

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
    def test_fixtures_match_eigensplit_route(self, path):
        _assert_same_direct_sum(phs.load_system(path))

    def test_negative_definite_p1(self):
        # the fixtures cover n2 = 0 (P1 = I); here Z+(1) is empty
        system = _negative_p1_system()
        assert phs.eigensplit(system, 1.0).n1 == 0
        _assert_same_direct_sum(system)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_random_systems_match_eigensplit_route(self, n):
        hints = ("general", "contraction", "unitary")
        for seed in range(210):
            _assert_same_direct_sum(phs.random_system(7000 * n + seed, n, hints[seed % 3]))

    @pytest.mark.parametrize("system", [
        # H(z) = diag(1 - 2z, 1) is not positive definite at z = 1
        _unchecked_system(np.eye(2),
                          np.array([[[1.0, -2.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])),
        # H(z) = diag(1, 1e-12 + z): P1 H(0) has an eigenvalue in the zero band
        _unchecked_system(np.eye(2),
                          np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-12, 1.0]]])),
        # singular P1: the zero band at both ends, z = 1 named first
        _unchecked_system(np.diag([1.0, 0.0]),
                          np.array([[[1.0], [0.0]], [[0.0], [1.0]]])),
    ], ids=["h_not_pd_at_1", "band_at_0", "singular_p1"])
    def test_same_validation_error_as_eigensplit(self, system):
        with pytest.raises(ValidationError) as reference:
            phs.eigensplit(system, 1.0)
            phs.eigensplit(system, 0.0)
        with pytest.raises(ValidationError) as got:
            phs.direct_sum_check(system)
        assert str(got.value) == str(reference.value)

    def test_one_rank_svd_per_classify(self, monkeypatch):
        calls = []
        rank_of = phs.classifier.rank_of

        def counting(*args, **kwargs):
            calls.append(1)
            return rank_of(*args, **kwargs)

        monkeypatch.setattr(phs.classifier, "rank_of", counting)
        for system in (network_system(), string_system((1.0, 1.0)), transport_system(0.0, 1.0)):
            calls.clear()
            phs.classify(system)
            assert len(calls) == 1


def _mixed_stack(n=3):
    """Systems of one n mixing full-rank and rank-deficient wb_tilde (the
    latter with c0_semigroup None), P1 of every inertia, constant, affine,
    curved and sampled fields, and every class hint."""
    rng = np.random.default_rng(31)
    hints = ("general", "contraction", "unitary")
    systems = [phs.random_system(900 + i, n, hints[i % 3]) for i in range(9)]
    for i, p1 in enumerate((np.eye(n), -np.eye(n), np.diag([1.0, -2.0, 3.0][:n]))):
        base = systems[i]
        wb = base.wb_tilde
        if i == 2:
            # rank n - 1: the generation test does not apply
            wb = np.vstack([wb[:-1], 2.0 * wb[0]])
        systems.append(phs.make_system(p1, base.p0, base.h, wb))
    field = phs.CoefficientField.grid([0.0, 0.4, 1.0], [np.eye(n), 2.0 * np.eye(n), np.eye(n)])
    systems.append(phs.make_system(systems[0].p1, systems[0].p0, field, systems[0].wb_tilde))
    rank1 = rng.standard_normal((n, 1)) @ rng.standard_normal((1, 2 * n))
    systems.append(phs.make_system(systems[1].p1, systems[1].p0, systems[1].h, rank1))
    return systems


def _classify_stack(systems):
    stacks = (np.array([getattr(s, name) for s in systems]) for name in ("p1", "p0", "wb_tilde"))
    return phs.classifier._classify_stack(systems, *stacks, phs.classifier.TOL_PSD,
                                          phs.classifier.TOL_RANK)


def _assert_same_record(got, ref):
    """Booleans, ranks, None and notes equal, witnesses within 1e-12 relative."""
    for field in dataclasses.fields(ref):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(b, (float, np.ndarray)):
            np.testing.assert_allclose(a, b, rtol=1e-12,
                                       atol=1e-12 * max(1.0, float(np.max(np.abs(b)))))
        else:
            assert type(a) is type(b) and a == b, field.name


def test_stacked_verdicts_equal_classify():
    systems = _mixed_stack()
    verdicts = _classify_stack(systems)
    assert len(verdicts) == len(systems)
    seen = set()
    for system, verdict in zip(systems, verdicts):
        _assert_same_record(verdict, phs.classify(system))
        seen.add((verdict.c0_semigroup, verdict.rank_wb_tilde == system.n,
                  int(np.count_nonzero(np.linalg.eigvalsh(system.p1) > 0))))
    # full rank and rank deficient, and n1 = 0, ..., n among the full-rank ones
    assert {None} < {c0 for c0, _, _ in seen}
    assert {n1 for _, full, n1 in seen if full} == {0, 1, 2, 3}


def test_stacked_classification_stops_at_first_refused_system():
    # P1 H with an eigenvalue in the zero band passes validation but not
    # classify, at z = 1 for one system and only at z = 0 for the other: the
    # stack raises one of their errors, and the campaign's replay the first's
    n = 3
    good = _mixed_stack(n)[:4]
    wb = np.hstack([np.eye(n), np.zeros((n, n))])
    p1 = np.diag([1.0, 2e-10, 1.0])
    tiny = [phs.make_system(p1, np.zeros((n, n)), np.eye(n), wb),
            phs.make_system(p1, np.zeros((n, n)), phs.CoefficientField.polynomial(
                np.stack([np.eye(n), np.diag([0.0, 9.0, 0.0])], axis=-1)), wb)]
    messages = []
    for system in tiny:
        with pytest.raises(ValidationError) as reference:
            phs.classify(system)
        messages.append(str(reference.value))
    assert messages[0] != messages[1]
    for first, second in ((0, 1), (1, 0)):
        systems = good + [tiny[first]] + good + [tiny[second]] + good
        with pytest.raises(ValidationError) as stacked:
            _classify_stack(systems)
        assert str(stacked.value) in messages
        with pytest.raises(ValidationError) as replayed:
            phs.oracle._first_failure(systems, phs.classifier.TOL_PSD)
        assert str(replayed.value) == messages[first]


class TestClassify:
    def test_unitary_transport(self):
        v = phs.classify(transport_system(1.0, -1.0))
        assert (v.unitary_group, v.contraction, v.c0_semigroup) == (True, True, True)

    def test_network_verdict(self, network):
        v = phs.classify(network)
        assert (v.unitary_group, v.contraction, v.c0_semigroup) == (False, False, True)

    def test_blocked_transport(self):
        v = phs.classify(transport_system(0.0, 1.0))
        assert (v.unitary_group, v.contraction, v.c0_semigroup) == (False, False, False)

    def test_rank_deficient_inconclusive(self):
        v = phs.classify(phs.make_system([[1.0]], [[0.0]], [[1.0]], [[0.0, 0.0]]))
        assert v.c0_semigroup is None
        assert v.direct_sum_min_singular_value is None
        assert not v.contraction
        assert any("inconclusive" in note for note in v.notes)

    def test_grid_field_flagged(self):
        field = phs.CoefficientField.grid([0.0, 1.0], [[[1.0]], [[2.0]]])
        v = phs.classify(phs.make_system([[1.0]], [[0.0]], field, [[1.0, 0.0]]))
        assert any("sampled" in note for note in v.notes)

    def test_diagnostic_grid_reports_crossing(self):
        v = phs.classify(crossing_system(), diagnostic_grid=33)
        assert any("crossing" in note for note in v.notes)

    def test_as_dict_round_trip(self):
        import json

        v = phs.classify(transport_system(2.0, 1.0))
        blob = json.dumps(v.as_dict())
        data = json.loads(blob)
        assert data["contraction"] is True
        assert data["unitary_group"] is False
        assert data["c0_semigroup"] is True
        assert data["sigma_form"]["min_eigenvalue"] == pytest.approx(1.5)


    def test_verdict_carries_the_contraction_check(self):
        # classify reads its contraction fields from one check_contraction record
        names = [f.name for f in dataclasses.fields(phs.classifier.ContractionCheck)]
        systems = [phs.load_system(path) for path in sorted(FIXTURES.glob("*.json"))]
        hints = ("general", "contraction", "unitary")
        systems += [phs.random_system(seed=30_000 + i, n=1 + i % 6, class_hint=hints[i % 3])
                    for i in range(200)]
        for system in systems:
            check, verdict = phs.check_contraction(system), phs.classify(system)
            assert isinstance(verdict, phs.classifier.ContractionCheck)
            for name in names:
                np.testing.assert_array_equal(getattr(verdict, name), getattr(check, name),
                                              err_msg=name)

    def test_witness_norms_are_2_norms(self):
        # the norms are read off eigenvalues; they must be the spectral norms
        systems = [phs.load_system(path) for path in sorted(FIXTURES.glob("*.json"))]
        hints = ("general", "contraction", "unitary")
        systems += [phs.random_system(seed=20_000 + i, n=1 + i % 6, class_hint=hints[i % 3])
                    for i in range(200)]
        for system in systems:
            v = phs.classify(system)
            for norm, matrix in ((v.re_p0_norm, phs.hermitian_part(system.p0)),
                                 (v.sigma_form_norm, v.sigma_form)):
                expected = np.linalg.norm(matrix, 2)
                assert abs(norm - expected) <= 1e-12 * max(expected, 1e-300)

class TestProperties:
    def test_contraction_independent_of_density(self):
        # same (P1, P0, wb_tilde), different valid H: same contraction verdict
        rng = np.random.default_rng(11)
        for i in range(40):
            base = phs.random_system(seed=1000 + i, n=int(rng.integers(1, 4)),
                                     class_hint=rng.choice(["general", "contraction"]))
            verdicts = set()
            for j in range(3):
                alt = phs.random_system(seed=5000 + 100 * i + j, n=base.n)
                system = phs.make_system(base.p1, base.p0, alt.h, base.wb_tilde)
                verdicts.add(phs.check_contraction(system).contraction)
            assert len(verdicts) == 1

    def test_scaling_invariance(self):
        # wb_tilde -> M wb_tilde with M invertible: identical verdict booleans
        rng = np.random.default_rng(23)
        for i in range(40):
            n = int(rng.integers(1, 5))
            system = phs.random_system(seed=300 + i, n=n,
                                       class_hint=rng.choice(["general", "contraction", "unitary"]))
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            m = q1 @ np.diag(rng.uniform(0.5, 2.0, n))
            scaled = phs.make_system(system.p1, system.p0, system.h, m @ system.wb_tilde)
            v1, v2 = phs.classify(system), phs.classify(scaled)
            assert v1.contraction == v2.contraction
            assert v1.unitary_group == v2.unitary_group
            assert v1.c0_semigroup == v2.c0_semigroup

    def test_monotonicity_on_random_instances(self):
        for i in range(150):
            hint = ("general", "contraction", "unitary")[i % 3]
            v = phs.classify(phs.random_system(seed=9000 + i, n=1 + i % 4, class_hint=hint))
            assert not (v.unitary_group and not v.contraction)
            assert not (v.contraction and v.c0_semigroup is False)
            assert not any("InternalInconsistency" in note for note in v.notes)

    def test_hermitian_congruence_inertia_constancy(self):
        # inertia of P1 H(z) equals inertia of P1 along the interval
        for system in (string_system((1.0, 0.5)), network_system()):
            expected = _sign_counts(system.p1)
            for zeta in np.linspace(0.0, 1.0, 7):
                w, q = np.linalg.eigh(phs.hermitian_part(system.h.eval(zeta)))
                sq = (q * np.sqrt(w)) @ q.conj().T
                counts = _sign_counts(phs.hermitian_part(sq @ system.p1 @ sq))
                assert counts == expected
