"""System construction, validation, field evaluation, document parsing."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import phs
from phs.errors import SchemaError, ShapeError, ValidationError
from phs.classifier import TOL_PSD
from phs.model import EPS_PD


def pairs(m):
    return phs.matrix_to_pairs(m)


def transport_doc(w1=1.0, w0=0.0):
    return {
        "n": 1,
        "p1": pairs([[1.0]]),
        "p0": pairs([[0.0]]),
        "h": {"kind": "constant", "value": pairs([[1.0]])},
        "wb_tilde": pairs([[w1, w0]]),
    }


class TestLoadSystem:
    def test_transport_document(self):
        system = phs.load_system(transport_doc())
        assert system.n == 1
        assert np.array_equal(system.p1, [[1.0]])
        assert np.array_equal(system.wb_tilde, [[1.0, 0.0]])

    def test_non_hermitian_p1_rejected(self):
        doc = transport_doc()
        doc["n"] = 2
        doc["p1"] = pairs([[0, 1], [0, 0]])
        doc["p0"] = pairs(np.zeros((2, 2)))
        doc["h"] = {"kind": "constant", "value": pairs(np.eye(2))}
        doc["wb_tilde"] = pairs(np.hstack([np.eye(2), np.zeros((2, 2))]))
        with pytest.raises(ValidationError, match="Hermitian"):
            phs.load_system(doc)

    def test_singular_p1_rejected(self):
        with pytest.raises(ValidationError, match="singular"):
            phs.make_system(np.diag([1.0, 0.0]), np.zeros((2, 2)), np.eye(2),
                            np.hstack([np.eye(2), np.eye(2)]))

    def test_tiny_p1_rejected(self):
        # every singular value of P1 is far below the absolute floor of the
        # classifier's zero band, which would refuse the system later
        with pytest.raises(ValidationError, match="numerically singular"):
            phs.make_system(1e-20 * np.eye(2), np.zeros((2, 2)), np.eye(2),
                            np.hstack([np.eye(2), np.zeros((2, 2))]))

    def test_indefinite_h_rejected(self):
        with pytest.raises(ValidationError, match="positive definite"):
            phs.make_system(np.eye(2), np.zeros((2, 2)), np.diag([1.0, -0.5]),
                            np.hstack([np.eye(2), np.eye(2)]))

    def test_h_turning_indefinite_inside_interval(self):
        # H(z) = diag(1, 1 - 2z) loses definiteness past z = 1/2
        coeffs = np.zeros((2, 2, 2), dtype=complex)
        coeffs[0, 0, 0] = 1.0
        coeffs[1, 1, 0] = 1.0
        coeffs[1, 1, 1] = -2.0
        field = phs.CoefficientField.polynomial(coeffs)
        with pytest.raises(ValidationError, match="positive definite"):
            phs.make_system(np.eye(2), np.zeros((2, 2)), field,
                            np.hstack([np.eye(2), np.eye(2)]))

    def test_wrong_wb_shape_rejected(self):
        with pytest.raises(ValidationError, match="wb_tilde"):
            phs.make_system([[1.0]], [[0.0]], [[1.0]], [[1.0, 0.0, 0.0]])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            phs.make_system([[1.0]], [[np.nan]], [[1.0]], [[1.0, 0.0]])

    def test_string_polynomial_document(self):
        zero = [[0.0, 0.0]]
        doc = {
            "n": 2,
            "p1": pairs([[0.0, 1.0], [1.0, 0.0]]),
            "p0": pairs(np.zeros((2, 2))),
            "h": {"kind": "polynomial",
                  "coeffs": [[[[1.0, 0.0]], zero],
                             [zero, [[1.0, 0.0], [1.0, 0.0]]]]},
            "wb_tilde": pairs(np.hstack([np.eye(2), np.diag([-1.0, 1.0])])),
        }
        system = phs.load_system(doc)
        np.testing.assert_allclose(system.h.eval(0.5), np.diag([1.0, 1.5]))

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.pop("p1"), "missing"),
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d.update(n="one"), "positive integer"),
        (lambda d: d.update(p1=[[1.0]]), "pairs"),
        (lambda d: d.update(h={"kind": "fourier"}), "kind"),
        (lambda d: d.update(h={"kind": "constant"}), "missing"),
        (lambda d: d.update(p1=[[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]), "equal length"),
    ])
    def test_schema_errors(self, mutate, match):
        doc = transport_doc()
        mutate(doc)
        with pytest.raises(SchemaError, match=match):
            phs.load_system(doc)

    def test_load_from_path_and_json_string(self, tmp_path):
        import json

        doc = transport_doc(2.0, 1.0)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        a = phs.load_system(path)
        b = phs.load_system(json.dumps(doc))
        assert np.array_equal(a.wb_tilde, b.wb_tilde)

    def test_arrays_immutable(self):
        system = phs.load_system(transport_doc())
        with pytest.raises(ValueError):
            system.p1[0, 0] = 5.0


class TestEvalH:
    def test_constant_field(self):
        system = phs.make_system([[0, 1], [1, 0]], np.zeros((2, 2)), np.eye(2),
                                 np.hstack([np.eye(2), np.eye(2)]))
        np.testing.assert_array_equal(system.h.eval(0.3), np.eye(2))

    def test_string_density_form(self):
        # H = diag(1/rho, T) evaluated entrywise
        rho, t = 2.0, 3.0
        system = phs.make_system([[0, 1], [1, 0]], np.zeros((2, 2)),
                                 np.diag([1.0 / rho, t]),
                                 np.hstack([np.eye(2), np.eye(2)]))
        np.testing.assert_allclose(system.h.eval(0.7), np.diag([0.5, 3.0]))

    def test_grid_interpolation(self):
        field = phs.CoefficientField.grid([0.0, 1.0], [[[1.0]], [[3.0]]])
        system = phs.make_system([[1.0]], [[0.0]], field, [[1.0, 0.0]])
        np.testing.assert_allclose(system.h.eval(0.5), [[2.0]])
        np.testing.assert_allclose(system.h.eval(0.0), [[1.0]])
        np.testing.assert_allclose(system.h.eval(1.0), [[3.0]])

    def test_grid_symmetrized(self):
        # slightly non-Hermitian samples are symmetrized on evaluation
        eps = 5e-12
        vals = [np.array([[1.0, eps * 1j], [0.0, 1.0]]),
                np.array([[2.0, 0.0], [0.0, 2.0]])]
        field = phs.CoefficientField.grid([0.0, 1.0], vals)
        system = phs.make_system(np.eye(2), np.zeros((2, 2)), field,
                                 np.hstack([np.eye(2), np.eye(2)]))
        h = system.h.eval(0.25)
        np.testing.assert_array_equal(h, h.conj().T)

    @pytest.mark.parametrize("field", [
        phs.CoefficientField.polynomial(np.array([[[1.0, 0.5, 0.25]]])),
        phs.CoefficientField.grid([0.0, 0.4, 1.0], [[[1.0]], [[2.0]], [[1.5]]]),
    ])
    def test_continuity_under_refinement(self, field):
        # max jump between neighbouring samples halves when the grid doubles
        def max_jump(m):
            zs = np.linspace(0.0, 1.0, m)
            vals = field.eval_many(zs)
            return np.abs(np.diff(vals, axis=0)).max()

        assert max_jump(513) <= 0.75 * max_jump(257)

    @pytest.mark.parametrize("degree", [0, 1, 2, 5])
    def test_polynomial_equals_polyval(self, degree):
        # Horner's rule in polyval's order gives polyval's values bit for bit
        rng = np.random.default_rng(degree)
        shape = (3, 3, degree + 1)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        zs = np.concatenate([[1.0, 0.0], rng.uniform(0.0, 1.0, 97)])
        values = np.polynomial.polynomial.polyval(zs, np.moveaxis(coeffs, 2, 0))
        np.testing.assert_array_equal(phs.CoefficientField.polynomial(coeffs).eval_many(zs),
                                      np.moveaxis(values, 2, 0))

    def test_determinism(self):
        system = phs.load_system(transport_doc())
        a = system.h.eval(0.37)
        b = system.h.eval(0.37)
        np.testing.assert_array_equal(a, b)


class TestHermitianPart:
    def test_skew_matrix(self):
        np.testing.assert_array_equal(
            phs.hermitian_part(np.array([[0.0, 1.0], [-1.0, 0.0]])), np.zeros((2, 2))
        )

    def test_hand_value(self):
        got = phs.hermitian_part(np.array([[-1.0, 2.0], [0.0, -1.0]]))
        np.testing.assert_array_equal(got, [[-1.0, 1.0], [1.0, -1.0]])

    def test_zero(self):
        np.testing.assert_array_equal(phs.hermitian_part(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_exactly_hermitian_for_random_complex(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = phs.hermitian_part(m)
            assert np.array_equal(h, h.conj().T)

    def test_non_square_rejected(self):
        for shape in [(3,), (2, 3), (4, 2, 3)]:
            with pytest.raises(ShapeError):
                phs.hermitian_part(np.ones(shape))

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        got = phs.hermitian_part(stack)
        assert got.shape == (5, 3, 3)
        for k in range(5):
            np.testing.assert_array_equal(got[k], phs.hermitian_part(stack[k]))


def test_validation_grid_invariants():
    # every validated system satisfies the Hermitian/positivity bounds on a
    # fine grid, not just at construction samples
    system = phs.make_system([[0, 1], [1, 0]], np.zeros((2, 2)),
                             phs.CoefficientField.polynomial(
                                 np.stack([np.eye(2), 0.5 * np.eye(2)], axis=2)),
                             np.hstack([np.eye(2), np.eye(2)]))
    vals = system.h.eval_many(np.linspace(0.0, 1.0, 257))
    herm = np.conj(np.swapaxes(vals, 1, 2))
    assert np.linalg.norm(vals - herm) <= 1e-10 * np.linalg.norm(vals)
    assert np.linalg.eigvalsh((vals + herm) / 2).min() >= 1e-8


def test_narrow_dip_between_uniform_samples_rejected():
    # H dips to -1e-3 at a knot a = 1/2 + 1/512 that lies strictly between two
    # of 257 uniform points (1/2 and 1/2 + 1/256), which both see H = 1
    a = 0.5 + 1.0 / 512.0
    zetas = [0.0, a - 1.0 / 1024.0, a, a + 1.0 / 1024.0, 1.0]
    field = phs.CoefficientField.grid(zetas, [[[1.0]], [[1.0]], [[-1e-3]], [[1.0]], [[1.0]]])
    assert np.linalg.eigvalsh(
        field.eval_many(np.linspace(0.0, 1.0, 257)))[:, 0].min() == 1.0
    with pytest.raises(ValidationError, match=r"zeta=0\.501953\) is not positive definite"):
        phs.make_system([[1.0]], [[0.0]], field, [[1.0, 0.0]])


def _hermitian_with_min_eigenvalue(rng, n, target):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = phs.hermitian_part(m)
    return phs.hermitian_part(h + (target - np.linalg.eigvalsh(h)[0]) * np.eye(n))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), grid=st.booleans(),
       targets=st.lists(st.floats(1e-3, 2.0), min_size=2, max_size=6),
       dip=st.none() | st.tuples(st.integers(0, 5), st.sampled_from(
           [-1e-3, -1e-9, 0.0, EPS_PD * (1.0 - 1e-3), EPS_PD, EPS_PD * (1.0 + 1e-3)])))
@settings(max_examples=200, deadline=None)
def test_affine_fields_validated_exactly(seed, n, grid, targets, dip):
    # piecewise-affine H is accepted iff lambda_min >= EPS_PD at the knots
    # (grid) or the ends (affine polynomial), and then holds between them
    rng = np.random.default_rng(seed)
    if not grid:
        targets = targets[:2]
    if dip is not None:
        targets[dip[0] % len(targets)] = dip[1]
    values = [_hermitian_with_min_eigenvalue(rng, n, t) for t in targets]
    if grid:
        knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, len(targets) - 2)), [1.0]])
        assume(np.all(np.diff(knots) > 1e-6))
        field = phs.CoefficientField.grid(knots, values)
    else:
        knots = np.array([0.0, 1.0])
        field = phs.CoefficientField.polynomial(np.stack([values[0], values[1] - values[0]], axis=2))
    # the targets only steer the draw: rounding moves lambda_min by ~1e-16
    expected = np.linalg.eigvalsh(field.eval_many(knots))[:, 0].min() >= EPS_PD
    wb = np.hstack([np.eye(n), np.zeros((n, n))])
    try:
        phs.make_system(np.eye(n), np.zeros((n, n)), field, wb)
    except ValidationError as exc:
        assert not expected, str(exc)
        assert "positive definite" in str(exc)
        return
    assert expected
    dense = field.eval_many(np.linspace(0.0, 1.0, 4097))
    assert np.linalg.eigvalsh(phs.hermitian_part(dense))[:, 0].min() >= EPS_PD - 1e-12


def _scalar_polynomial(coeffs):
    return phs.CoefficientField.polynomial([[coeffs]])


class TestCurvedPolynomialCertification:
    A = 0.5 + 1.0 / 512.0

    def test_dip_between_uniform_samples_rejected(self):
        # H(z) = (z - a)^2 - 1e-6 is >= 2.8e-6 at 257 uniform points (a lies
        # halfway between 1/2 and 1/2 + 1/256) but negative around a
        a = self.A
        field = _scalar_polynomial([a * a - 1e-6, -2.0 * a, 1.0])
        samples = field.eval_many(np.linspace(0.0, 1.0, 257))
        assert np.linalg.eigvalsh(samples)[:, 0].min() >= EPS_PD
        with pytest.raises(ValidationError, match=r"zeta=0\.501953\) is not positive definite"):
            phs.make_system([[1.0]], [[0.0]], field, [[1.0, 0.0]])

    def test_one_plus_z_squared_accepted(self):
        system = phs.make_system([[1.0]], [[0.0]], _scalar_polynomial([1.0, 0.0, 1.0]),
                                 [[1.0, 0.0]])
        assert phs.classify(system).c0_semigroup

    @pytest.mark.parametrize("a", [0.5, A])
    def test_close_to_floor_accepted(self, a):
        # (z - a)^2 + 1e-6 is positive definite with a margin of 1e-6 over
        # EPS_PD at z = a, dyadic or not
        phs.make_system([[1.0]], [[0.0]], _scalar_polynomial([a * a + 1e-6, -2.0 * a, 1.0]),
                        [[1.0, 0.0]])

    def test_too_close_to_certify_refused(self):
        # (z - 0.3)^2 + EPS_PD (1 + 1e-6) is positive definite, but touches
        # EPS_PD + 1e-14 at a non-dyadic point, closer than the Bernstein
        # bound resolves on pieces 2**-CERTIFY_DEPTH wide
        field = _scalar_polynomial([0.09 + EPS_PD * (1.0 + 1e-6), -0.6, 1.0])
        with pytest.raises(ValidationError, match=r"cannot be certified positive definite "
                                                  r"on \[0\.299988, 0\.300003\]"):
            phs.make_system([[1.0]], [[0.0]], field, [[1.0, 0.0]])

    def test_first_of_two_dips_named(self):
        # H(z) = 25 ((z - 0.3)(z - 0.7))^2 - 1e-6 is negative near 0.3 and
        # near 0.7, symmetrically about 1/2: the point near 0.3 is named
        coeffs = 25.0 * np.polynomial.polynomial.polyfromroots([0.3, 0.3, 0.7, 0.7])
        coeffs[0] -= 1e-6
        field = _scalar_polynomial(coeffs)
        with pytest.raises(ValidationError, match="is not positive definite") as info:
            phs.make_system([[1.0]], [[0.0]], field, [[1.0, 0.0]])
        zeta = float(str(info.value).split("zeta=")[1].split(")")[0])
        assert abs(zeta - 0.3) < 1e-3

    def test_first_of_two_bad_knots_named(self):
        field = phs.CoefficientField.grid([0.0, 0.25, 0.5, 0.75, 1.0],
                                          [[[1.0]], [[1.0]], [[-1.0]], [[-2.0]], [[1.0]]])
        with pytest.raises(ValidationError, match=r"H\(zeta=0\.5\) is not positive definite "
                                                  r"\(min eigenvalue -1\.000e\+00"):
            phs.make_system([[1.0]], [[0.0]], field, [[1.0, 0.0]])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), degree=st.integers(2, 3),
       target=st.sampled_from([-1e-3, -1e-7, 0.0, EPS_PD * (1.0 - 1e-3), EPS_PD,
                               1e-6, 1e-3, 0.5]))
@settings(max_examples=100, deadline=None)
def test_curved_polynomials_certified_soundly(seed, n, degree, target):
    # H = sum_k C_k z^k with random Hermitian C_k, shifted so that the least
    # eigenvalue on a fine grid is ``target``: an accepted field is positive
    # definite on that grid, and a margin of 1e-6 is always accepted
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((degree + 1, n, n)) + 1j * rng.standard_normal((degree + 1, n, n))
    coeffs = phs.hermitian_part(m) / n
    dense = np.linspace(0.0, 1.0, 4097)

    def least(c):
        field = phs.CoefficientField.polynomial(np.moveaxis(c, 0, 2))
        return field, np.linalg.eigvalsh(phs.hermitian_part(field.eval_many(dense)))[:, 0]

    _, lam = least(coeffs)
    coeffs[0] += (target - lam.min()) * np.eye(n)
    field, lam = least(coeffs)
    try:
        phs.make_system(np.eye(n), np.zeros((n, n)), field,
                        np.hstack([np.eye(n), np.zeros((n, n))]))
    except ValidationError as exc:
        assert "positive definite" in str(exc)
        assert target < 1e-6, str(exc)
        return
    assert lam.min() >= EPS_PD - 1e-12


def _raw_system(p1=None, h=None, p0=None, wb_tilde=None, n=2):
    """A PHSystem of dimension n, valid unless a part is given, built
    without validation."""
    as_field = lambda v: v if isinstance(v, phs.CoefficientField) else \
        phs.CoefficientField.constant(v)
    return phs.PHSystem(
        n=n,
        p1=np.asarray(np.eye(n) if p1 is None else p1, dtype=complex),
        p0=np.asarray(np.zeros((n, n)) if p0 is None else p0, dtype=complex),
        h=as_field(np.eye(n) if h is None else h),
        wb_tilde=np.asarray(np.hstack([np.eye(n), np.eye(n)]) if wb_tilde is None
                            else wb_tilde, dtype=complex))


def _dip(depth):
    # diag(1, (2z - 1)^2 + depth): certified only after halving when depth > 0
    coeffs = np.zeros((2, 2, 3), dtype=complex)
    coeffs[0, 0, 0] = 1.0
    coeffs[1, 1] = [1.0 + depth, -4.0, 4.0]
    return phs.CoefficientField.polynomial(coeffs)


# each fails a different check of validate_system, some two; with the
# message validate_system gives
INVALID = {
    "p0_shape": (_raw_system(p0=np.zeros((3, 3))), "p0 must be 2x2, got (3, 3)"),
    "p1_nan_and_p0_shape": (_raw_system(p1=[[np.nan, 0], [0, 1]], p0=np.zeros((3, 3))),
                            "p1 contains non-finite entries"),
    "wb_shape": (_raw_system(wb_tilde=np.eye(2)), "wb_tilde must be 2x4, got (2, 2)"),
    "p1_not_hermitian": (_raw_system(p1=[[1, 1], [0, 1]]), "p1 is not Hermitian"),
    "p1_not_hermitian_and_h_indefinite": (_raw_system(p1=[[1, 1], [0, 1]], h=-np.eye(2)),
                                          "p1 is not Hermitian"),
    "p1_singular": (_raw_system(p1=np.diag([1.0, 0.0])),
                    "p1 is numerically singular (smallest singular value 0.000e+00)"),
    "h_dimension": (_raw_system(h=np.eye(3)), "H has dimension 3, system has n = 2"),
    "h_nan": (_raw_system(h=[[1, 0], [0, np.nan]]), "H evaluates to non-finite entries"),
    "h_nan_off_diagonal": (_raw_system(h=[[1, np.nan], [np.nan, 1]]),
                           "H evaluates to non-finite entries"),
    "h_inf_off_diagonal_grid": (_raw_system(h=phs.CoefficientField.grid(
        [0.0, 0.5, 1.0], [np.eye(2), [[1, np.inf], [np.inf, 1]], np.eye(2)])),
                                "H evaluates to non-finite entries"),
    # finite entries whose Hermitian part overflows
    "h_overflows": (_raw_system(h=[[1, 1e308], [1e308, 1]]), "H evaluates to non-finite entries"),
    "h_not_hermitian": (_raw_system(h=[[1, 1], [0, 1]]),
                        "H is not Hermitian on [0, 1] (relative defect 8.165e-01)"),
    # entries whose squares overflow: the defect is measured on scaled matrices
    "h_huge_not_hermitian": (_raw_system(h=[[1e200, 1e200], [0, 1e200]]),
                             "H is not Hermitian on [0, 1] (relative defect 8.165e-01)"),
    "p1_huge_not_hermitian": (_raw_system(p1=[[1e200, 1e200], [0, 1e200]]),
                              "p1 is not Hermitian"),
    "h_indefinite": (_raw_system(h=np.diag([1.0, -1.0])),
                     "H(zeta=0) is not positive definite (min eigenvalue -1.000e+00 < 1e-08)"),
    "h_dips_below_zero": (_raw_system(h=_dip(-1e-3)), "H(zeta=0.5) is not positive definite "
                          "(min eigenvalue -1.000e-03 < 1e-08)"),
}
VALID = [_raw_system(), _raw_system(h=_dip(1e-2)), _raw_system(p1=np.diag([1.0, -2.0]))]


@pytest.mark.parametrize("name", sorted(INVALID))
def test_validation_message(name):
    system, message = INVALID[name]
    with pytest.raises(ValidationError) as exc:
        phs.validate_system(system)
    assert str(exc.value) == message


def test_certification_sees_finite_matrices_only(monkeypatch):
    # NaN or inf off the diagonal can stop LAPACK's eigenvalue iteration
    # from converging: such fields are refused before any eigensolver runs
    eigvalsh = np.linalg.eigvalsh

    def finite_only(m):
        assert np.isfinite(m).all()
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
    names = [k for k in sorted(INVALID) if k.startswith(("h_nan", "h_inf", "h_overflows"))]
    assert len(names) == 4
    for name in names:
        with pytest.raises(ValidationError) as exc:
            phs.model._validate([VALID[0], INVALID[name][0], VALID[1]])
        assert str(exc.value) == INVALID[name][1]


@settings(max_examples=60, deadline=None)
# a later check that finds a failure past the first failing system
@example(["h_nan", "h_not_hermitian"])
@example(["h_nan", "h_dips_below_zero"])
@example([0, "h_indefinite", "p1_not_hermitian"])
@example([1, "p1_singular", "p1_not_hermitian"])
@given(st.lists(st.sampled_from(sorted(INVALID)) | st.integers(0, len(VALID) - 1),
                min_size=1, max_size=8))
def test_stacked_validation_fails_first_in_system_order(picks):
    # the whole-stack validation raises the message validate_system gives
    # one of the invalid systems alone, and the campaign's replay of the
    # stack one system at a time names the first
    systems = [VALID[p] if isinstance(p, int) else INVALID[p][0] for p in picks]
    messages = [INVALID[p][1] for p in picks if isinstance(p, str)]
    assert _raised(phs.model._validate, systems) in (messages or [None])
    assert _raised(phs.oracle._first_failure, systems, TOL_PSD) == next(iter(messages), None)


def _raised(check, *args):
    """The message of the ValidationError check(*args) raises, or None."""
    try:
        check(*args)
    except ValidationError as error:
        return str(error)
    return None
