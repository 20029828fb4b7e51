"""System construction, validation, field evaluation, document parsing."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import phs
from phs.errors import SchemaError, ShapeError, ValidationError
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


def grid_doc(zetas, values=None):
    """A grid field document of n = 1, H = 1 at every knot by default."""
    return {"kind": "grid", "zetas": zetas,
            "values": values if values is not None else [pairs([[1.0]])] * len(zetas)}


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

    def test_p1_shape_against_n(self):
        doc = transport_doc()
        doc["n"] = 2
        with pytest.raises(ValidationError) as exc:
            phs.load_system(doc)
        assert str(exc.value) == "p1 must be 2x2, got (1, 1)"

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

    def test_p1_h_in_the_zero_band_rejected(self):
        # P1 and H each pass their own floor, but P1 H = 1e-10 I sits in the
        # classifier's zero band, which classify would refuse later
        with pytest.raises(ValidationError, match=r"zero band: lambda_min\(H\) >= 1\.000e-05 "
                                                  r"and sigma_min\(P1\) = 1\.000e-05"):
            phs.make_system(1e-5 * np.eye(2), np.zeros((2, 2)), 1e-5 * np.eye(2),
                            np.hstack([np.eye(2), np.zeros((2, 2))]))

    @pytest.mark.parametrize("p1, accepted", [(2e-6, True), (5e-7, False)])
    def test_zero_band_bound_reads_the_halved_pieces(self, p1, accepted):
        # (2z - 1)^2 + 1e-3 has a negative middle control point on [0, 1];
        # its halves certify lambda_min(H) >= 1e-3, which sets the bound
        field = _scalar_polynomial([1.0 + 1e-3, -4.0, 4.0])
        if accepted:
            phs.make_system([[p1]], [[0.0]], field, [[1.0, 0.0]])
        else:
            with pytest.raises(ValidationError, match=r"lambda_min\(H\) >= 1\.000e-03 "):
                phs.make_system([[p1]], [[0.0]], field, [[1.0, 0.0]])

    def test_zero_band_bound_is_conservative(self):
        # a documented limitation: H^(1/2) P1 H^(1/2) = diag(1e-6, 1e-4)
        # clears the band 1e-9 by a factor of 1000, but the Ostrowski bound
        # pairs lambda_min(H) = 1e-4 with sigma_min(P1) = 1e-6
        p1, h = np.diag([1e-6, 1.0]), np.diag([1.0, 1e-4])
        assert np.abs(np.linalg.eigvalsh(np.sqrt(h) @ p1 @ np.sqrt(h))).min() == 1e-6
        with pytest.raises(ValidationError, match=r"bound its moduli below by 1\.000e-10 "
                                                  r"< 1\.000e-09"):
            phs.make_system(p1, np.zeros((2, 2)), h, np.hstack([np.eye(2), np.zeros((2, 2))]))

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
        np.testing.assert_allclose(system.h.eval_many([0.5])[0], np.diag([1.0, 1.5]))

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.pop("p1"), "missing"),
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d.update(n="one"), "positive integer"),
        (lambda d: d.update(p1=[[1.0]]), "pairs"),
        (lambda d: d.update(h={"kind": "fourier"}), "kind"),
        # a kind that is not a string is named by its type: formatting an
        # integer of 5001 digits raises ValueError
        (lambda d: d["h"].update(kind=10**5000), r"'h\.kind' must be one of .*, got int$"),
        (lambda d: d.update(h={"kind": "constant"}), "missing"),
        (lambda d: d.update(p1=[[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]), "equal length"),
        (lambda d: d.update(p1=[[]]), "non-empty"),
        (lambda d: d.update(p0=[]), "list of rows"),
        (lambda d: d.update(wb_tilde=[1.0, 0.0]), "list of rows"),
        (lambda d: d.update(h=[[1.0, 0.0]]), "'h' must be an object"),
        (lambda d: d["h"].update(coeffs=[]), "unknown keys"),
        (lambda d: d.update(h={"kind": "polynomial", "coeffs": 1.0}), "nested list"),
        (lambda d: d.update(h={"kind": "polynomial", "coeffs": [[[[1.0, 0.0]]], []]}),
         "n x n table"),
        (lambda d: d.update(h={"kind": "polynomial", "coeffs": [[[]]]}), "non-empty list"),
        (lambda d: d.update(h={"kind": "grid", "zetas": [0.0, 1.0],
                               "values": [pairs([[1.0]])]}), "equal length"),
        # knots are JSON numbers, booleans and strings are not
        (lambda d: d.update(h=grid_doc([0, "x"])), r"h\.zetas\[1\]: expected a number"),
        (lambda d: d.update(h=grid_doc(["0", "1"])), r"h\.zetas\[0\]: expected a number"),
        (lambda d: d.update(h=grid_doc([False, True])), r"h\.zetas\[0\]: expected a number"),
        (lambda d: d.update(h=grid_doc([0, 10**400])), r"h\.zetas\[1\]: integer too large"),
        # every grid value has one shape
        (lambda d: d.update(h=grid_doc([0.0, 1.0], [pairs([[1.0]]), pairs(np.eye(2))])),
         r"h\.values\[1\]: every matrix must have the shape of h\.values\[0\]"),
        # a number too large for a float, named where it is
        (lambda d: d["p1"][0][0].__setitem__(0, 10**400), r"p1\[0\]\[0\]\[0\]: integer too large"),
        (lambda d: d.update(h=grid_doc([0.0, 1.0], [[[[1.0, 0.0]]], [[[1.0, -10**400]]]])),
         r"h\.values\[1\]\[0\]\[0\]\[1\]: integer too large"),
        # a bad pair is named by where it is, not by its digits: formatting
        # an integer of 5001 digits raises ValueError
        (lambda d: d.update(p1=[[[10**5000, "x"]]]),
         r"p1\[0\]\[0\]\[0\]: integer too large for a float"),
        (lambda d: d.update(p1=[[[1.0, "x"]]]), r"p1\[0\]\[0\]\[1\]: expected a number, got str"),
        # n is an integer that fits a float
        (lambda d: d.update(n=10**400), "'n' must be a positive integer"),
        (lambda d: d.update(n=-10**5000), "'n' must be a positive integer"),
        # one key-set check serves the document and h; keys of mixed types
        # are listed, not compared
        (lambda d: d.update({1: 0, "x": 0}), r"document has unknown keys \[1, 'x'\]"),
        (lambda d: d["h"].update({1: 0, "x": 0}), r"'h' has unknown keys \[1, 'x'\]"),
    ])
    def test_schema_errors(self, mutate, match):
        doc = transport_doc()
        mutate(doc)
        with pytest.raises(SchemaError, match=match):
            phs.load_system(doc)

    @pytest.mark.parametrize("document, match", [
        ('{"n": 1,', "invalid JSON"),
        ("bad.json", "invalid JSON"),
        ("list.json", "must be a JSON object"),
        ("missing.json", "cannot read"),
        # 5001 digits: more than Python converts from text
        pytest.param('{"n": 1' + "0" * 5000 + "}", "invalid JSON", id="digits_text"),
        ("digits.json", "invalid JSON"),
        ("latin1.json", "invalid JSON"),
    ])
    def test_unreadable_documents(self, tmp_path, document, match):
        (tmp_path / "bad.json").write_text('{"n": 1,')
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "digits.json").write_text('{"n": 1' + "0" * 5000 + "}")
        (tmp_path / "latin1.json").write_bytes(b'{"n": "\xff"}')
        if document.endswith(".json"):
            document = tmp_path / document
        with pytest.raises(SchemaError, match=match):
            phs.load_system(document)

    def test_load_from_path_and_json_string(self, tmp_path):
        import json

        doc = transport_doc(2.0, 1.0)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        a = phs.load_system(path)
        b = phs.load_system(json.dumps(doc))
        assert np.array_equal(a.wb_tilde, b.wb_tilde)

    def test_numpy_numbers_in_a_dict_document(self):
        doc = transport_doc(2.0, 1.0)
        doc["n"] = np.int64(1)
        doc["wb_tilde"] = [[[np.int64(2), np.float32(0.0)], [np.float64(1.0), 0]]]
        system = phs.load_system(doc)
        assert type(system.n) is int and system.n == 1
        assert np.array_equal(system.wb_tilde, [[2.0, 1.0]])
        doc["wb_tilde"] = [[[np.bool_(True), 0.0], [1.0, 0.0]]]
        with pytest.raises(SchemaError, match=r"wb_tilde\[0\]\[0\]\[0\]: expected a number"):
            phs.load_system(doc)

    def test_arrays_immutable(self):
        system = phs.load_system(transport_doc())
        with pytest.raises(ValueError):
            system.p1[0, 0] = 5.0


@pytest.mark.parametrize("build, error, match", [
    (lambda: phs.CoefficientField.constant(np.zeros((2, 3))), ShapeError, "square"),
    (lambda: phs.CoefficientField.polynomial(np.eye(2)), ShapeError, "deg"),
    (lambda: phs.CoefficientField.polynomial(np.zeros((2, 3, 1))), ShapeError, "deg"),
    (lambda: phs.CoefficientField.grid([0.0], [np.eye(2)]), ShapeError, "two sample points"),
    (lambda: phs.CoefficientField.grid([0.0, 0.5, 0.5, 1.0], [np.eye(2)] * 4),
     ValidationError, "strictly increasing"),
    # a NaN knot: every comparison with NaN is False
    (lambda: phs.CoefficientField.grid([0.0, np.nan, 1.0], [np.eye(2)] * 3),
     ValidationError, "strictly increasing"),
    (lambda: phs.CoefficientField.grid([0.0, 0.5], [np.eye(2)] * 2),
     ValidationError, "include 0 and 1"),
    (lambda: phs.CoefficientField.grid([0.0, 1.0], [np.eye(2)] * 3), ShapeError, "len"),
    (lambda: phs.CoefficientField.grid([0.0, 1.0], np.zeros((2, 2, 3))), ShapeError, "len"),
])
def test_field_constructor_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()


class TestEvalH:
    def test_constant_field(self):
        system = phs.make_system([[0, 1], [1, 0]], np.zeros((2, 2)), np.eye(2),
                                 np.hstack([np.eye(2), np.eye(2)]))
        np.testing.assert_array_equal(system.h.eval_many([0.3])[0], np.eye(2))

    def test_string_density_form(self):
        # H = diag(1/rho, T) evaluated entrywise
        rho, t = 2.0, 3.0
        system = phs.make_system([[0, 1], [1, 0]], np.zeros((2, 2)),
                                 np.diag([1.0 / rho, t]),
                                 np.hstack([np.eye(2), np.eye(2)]))
        np.testing.assert_allclose(system.h.eval_many([0.7])[0], np.diag([0.5, 3.0]))

    def test_grid_interpolation(self):
        field = phs.CoefficientField.grid([0.0, 1.0], [[[1.0]], [[3.0]]])
        system = phs.make_system([[1.0]], [[0.0]], field, [[1.0, 0.0]])
        np.testing.assert_allclose(system.h.eval_many([0.5])[0], [[2.0]])
        np.testing.assert_allclose(system.h.eval_many([0.0])[0], [[1.0]])
        np.testing.assert_allclose(system.h.eval_many([1.0])[0], [[3.0]])

    def test_grid_symmetrized(self):
        # slightly non-Hermitian samples are symmetrized on evaluation
        eps = 5e-12
        vals = [np.array([[1.0, eps * 1j], [0.0, 1.0]]),
                np.array([[2.0, 0.0], [0.0, 2.0]])]
        field = phs.CoefficientField.grid([0.0, 1.0], vals)
        system = phs.make_system(np.eye(2), np.zeros((2, 2)), field,
                                 np.hstack([np.eye(2), np.eye(2)]))
        h = system.h.eval_many([0.25])[0]
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
        a = system.h.eval_many([0.37])[0]
        b = system.h.eval_many([0.37])[0]
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("field", [
        phs.CoefficientField.constant(np.eye(2)),
        phs.CoefficientField.polynomial(np.array([[[1.0, 2.0]]])),
        phs.CoefficientField.grid([0.0, 0.5, 1.0], [[[1.0]], [[2.0]], [[3.0]]]),
    ], ids=["constant", "polynomial", "grid"])
    @pytest.mark.parametrize("zeta", [np.nan, 2.0, -0.5])
    def test_points_outside_the_interval_refused(self, field, zeta):
        # H is not extrapolated: the first point outside [0, 1] is named
        with pytest.raises(phs.DomainError, match=rf"zeta = {zeta:g} outside \[0, 1\]"):
            field.eval_many([0.0, zeta, 1.0])


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


def test_grid_at_its_knots_is_the_hermitian_part_of_its_samples():
    # each piece starts at its knot with the Hermitian part of the sample
    # there, and z = 1 reads the last one; the samples' scales differ, so a
    # slope's rounding would show at the ends of the pieces
    rng = np.random.default_rng(5)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 5)), [1.0]])
    samples = rng.standard_normal((7, 3, 3)) + 1j * rng.standard_normal((7, 3, 3))
    samples *= 10.0 ** rng.integers(-8, 8, (7, 1, 1))
    field = phs.CoefficientField.grid(knots, samples)
    expected = phs.hermitian_part(samples)
    np.testing.assert_array_equal(field.eval_many(knots), expected)
    np.testing.assert_array_equal(field.eval_many(knots[::-1]), expected[::-1])
    np.testing.assert_array_equal(field.data[1], expected)


def test_grid_certified_at_its_samples():
    # the end of the first piece is the sample EPS_PD, not 2 plus the
    # rounded slope (1e-8 - 2), which falls below EPS_PD
    field = phs.CoefficientField.grid([0.0, 0.6, 1.0], [[[2.0]], [[EPS_PD]], [[1.0]]])
    phs.make_system([[1.0]], [[0.0]], field, [[1.0, 0.0]])
    assert 2.0 + (EPS_PD - 2.0) < EPS_PD


def test_grids_on_shared_knots_form_one_group():
    # grid fields on equal knots are one group of a batch: validating and
    # classifying the batch gives what each system gives alone, refusals
    # and their messages included
    knots = [0.0, 0.3, 1.0]
    fields = [phs.CoefficientField.grid(knots, [np.eye(2), s * np.eye(2), np.diag([1.0, 2.0])])
              for s in (2.0, 0.5, -1.0)]
    # (Hx)(1) = -w (Hx)(0) with P1 = I: a contraction for |w| <= 1 only
    p1, p0 = np.eye(2), np.zeros((2, 2))
    wbs = [np.hstack([np.eye(2), w * np.eye(2)]) for w in (0.5, 2.0)]
    systems = [phs.make_system(p1, p0, field, wb) for field, wb in zip(fields, wbs)]
    batch = phs.model._stack(systems)
    assert len(batch.fields) == 1 and batch.fields[0][0].tolist() == [0, 1]
    phs.model._validate(batch)
    check, c0, smin, _ = phs.classifier._classify_stack(batch)
    refs = [phs.classify(system) for system in systems]
    assert refs[0].contraction != refs[1].contraction
    for i, ref in enumerate(refs):
        for name, value in check.items():
            np.testing.assert_allclose(value[i], getattr(ref, name), rtol=1e-12, atol=1e-12)
        assert c0[i] == ref.c0_semigroup
        assert smin[i] == pytest.approx(ref.direct_sum_min_singular_value, rel=1e-12)
    # the third field dips below zero at its middle knot
    bad = phs.PHSystem(2, systems[0].p1, systems[0].p0, fields[2], systems[0].wb_tilde)
    message = _raised(phs.validate_system, bad)
    assert message == "H(zeta=0.3) is not positive definite (min eigenvalue -1.000e+00 < 1e-08)"
    batch = phs.model._stack(systems + [bad])
    assert len(batch.fields) == 1
    assert _raised(phs.model._validate, batch) == message


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
    "wb_nan_and_shape": (_raw_system(wb_tilde=np.full((2, 2), np.nan)),
                         "wb_tilde contains non-finite entries"),
    "p1_not_hermitian": (_raw_system(p1=[[1, 1], [0, 1]]), "p1 is not Hermitian"),
    "p1_not_hermitian_and_h_indefinite": (_raw_system(p1=[[1, 1], [0, 1]], h=-np.eye(2)),
                                          "p1 is not Hermitian"),
    "p1_singular": (_raw_system(p1=np.diag([1.0, 0.0])),
                    "p1 is numerically singular (smallest singular value 0.000e+00 "
                    "< 1e-10 × max(1, largest 1.000e+00))"),
    # the refusal names its scale: 1 is singular next to 1.7e308
    "p1_singular_at_scale": (_raw_system(p1=np.diag([1.7e308, 1.0])),
                             "p1 is numerically singular (smallest singular value 1.000e+00 "
                             "< 1e-10 × max(1, largest 1.700e+308))"),
    "h_dimension": (_raw_system(h=np.eye(3)), "H has dimension 3, system has n = 2"),
    # H's dimension is a shape, compared before P1's values are checked
    "h_dimension_and_p1_not_hermitian": (_raw_system(p1=[[1, 1], [0, 1]], h=np.eye(3)),
                                         "H has dimension 3, system has n = 2"),
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
    # the least control eigenvalue of a grid field is at a knot
    "p1_h_zero_band": (_raw_system(p1=np.diag([1.0, 1e-5]), h=phs.CoefficientField.grid(
        [0.0, 0.5, 1.0], [np.eye(2), 1e-5 * np.eye(2), np.eye(2)])),
                       "P1 H may have an eigenvalue in the zero band: lambda_min(H) >= 1.000e-05 "
                       "and sigma_min(P1) = 1.000e-05 bound its moduli below by 1.000e-10 "
                       "< 1.000e-09"),
}
VALID = [_raw_system(), _raw_system(h=_dip(1e-2)), _raw_system(p1=np.diag([1.0, -2.0]))]


@pytest.mark.parametrize("name", sorted(INVALID))
def test_validation_message(name):
    system, message = INVALID[name]
    with pytest.raises(ValidationError) as exc:
        phs.validate_system(system)
    assert str(exc.value) == message


@pytest.mark.parametrize("run", [
    phs.classify, lambda system: phs.setup(system, phs.SimConfig(nx=16), lambda z: 1.0)],
    ids=["classify", "setup"])
def test_unvalidated_h_dimension_refused(run):
    # an unvalidated system whose H does not match n gets validate_system's
    # message from the stacking, before any arithmetic mixes the shapes
    system, message = INVALID["h_dimension"]
    with pytest.raises(ValidationError) as exc:
        run(system)
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
            _validate_stack([VALID[0], INVALID[name][0], VALID[1]])
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
    assert _raised(_validate_stack, systems) in (messages or [None])
    assert _raised(phs.oracle._first_failure, systems) == next(iter(messages), None)


def _validate_stack(systems):
    """Validation of the systems' batch: the stacking compares their shapes."""
    phs.model._validate(phs.model._stack(systems))


def _raised(check, *args):
    """The message of the ValidationError check(*args) raises, or None."""
    try:
        check(*args)
    except ValidationError as error:
        return str(error)
    return None


def _scaled(field: phs.CoefficientField, factor: float) -> phs.CoefficientField:
    knots, values, coeffs = field.data
    return phs.CoefficientField(field.n, field.kind, (knots, factor * values, factor * coeffs))


@given(seed=st.integers(0, 2**16), n=st.sampled_from([1, 2, 3]),
       p1_exp=st.floats(-6.0, 6.0), h_exp=st.floats(-6.0, 6.0))
@settings(max_examples=100, deadline=None)
def test_accepted_systems_classify_at_any_scale(seed, n, p1_exp, h_exp):
    # what make_system accepts, classify and the simulator grid accept too
    base = phs.random_system(seed, n)
    try:
        system = phs.make_system(10.0**p1_exp * base.p1, base.p0,
                                 _scaled(base.h, 10.0**h_exp), base.wb_tilde)
    except ValidationError:
        return
    phs.classify(system)
    phs.diagonalize_field(system, np.linspace(0.0, 1.0, 257))
