"""System descriptions for first-order port-Hamiltonian boundary problems.

A system on the unit interval is

    d/dt x(z,t) = (P1 d/dz + P0)(H(z) x(z,t)),      z in [0,1],

with P1 an invertible Hermitian n x n matrix, P0 an arbitrary n x n
matrix, H(z) a Hermitian and uniformly positive definite coefficient
field, and n homogeneous boundary conditions

    wb_tilde @ [ (H x)(1) ; (H x)(0) ] = 0

imposed through an n x 2n matrix ``wb_tilde``.

This module owns the data model: coefficient-field evaluation, validation
of the structural invariants above, and (de)serialization of the JSON
document format (every complex scalar is a ``[re, im]`` pair; see README).
Everything is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from pathlib import Path

import numpy as np

from .errors import SchemaError, ShapeError, ValidationError

# Validation tolerances.  tol values are relative to the matrix scale,
# eps_pd is the absolute floor for the smallest eigenvalue of H.
TOL_HERM = 1e-10
EPS_PD = 1e-8
EPS_INV = 1e-10
# Halvings of a Bernstein piece whose control matrices cannot certify
# lambda_min >= EPS_PD before the field is refused as uncertifiable: the
# finest piece is 2**-16 wide.
CERTIFY_DEPTH = 16

FIELD_KINDS = ("constant", "polynomial", "grid")


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (m + m*)/2 for a square matrix or a stack (..., n, n) of them.
    The result is conjugate-symmetric entry by entry.

    Raises ShapeError if the last two axes of ``m`` are not square.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ShapeError(f"hermitian_part needs square matrices, got shape {m.shape}")
    return (m + _adjoint(m)) / 2.0


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.flags.writeable = False
    return a


def _herm_defect(m: np.ndarray) -> np.ndarray:
    """Relative deviation ||m - m*|| / ||m|| (Frobenius; 0 for m = 0) of a
    matrix or of each matrix in a stack (..., n, n), each scaled by its
    largest entry magnitude first so that squaring cannot overflow."""
    m = m / np.abs(m).max(axis=(-2, -1), initial=1e-300, keepdims=True)
    return _frobenius(m - _adjoint(m)) / np.maximum(_frobenius(m), 1e-300)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """np.linalg.norm(m, axis=(-2, -1)), without its per-call overhead."""
    return np.sqrt((m.conj() * m).real.sum(axis=(-2, -1)))


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Matrix-valued Hamiltonian density H(z) on [0,1].

    kind is one of:
      * "constant":   data = (value,),             value (n,n)
      * "polynomial": data = (coeffs,),            coeffs (n,n,deg+1), entry
                      (i,j) holds coefficients in ascending powers of z
      * "grid":       data = (zetas, values),      zetas strictly increasing
                      including 0 and 1; values (m,n,n); evaluation is linear
                      interpolation followed by Hermitian symmetrization
    """

    n: int
    kind: str
    data: tuple

    @classmethod
    def constant(cls, value) -> "CoefficientField":
        value = np.atleast_2d(np.asarray(value, dtype=complex))
        if value.shape[0] != value.shape[1]:
            raise ShapeError(f"constant field value must be square, got {value.shape}")
        return cls(value.shape[0], "constant", (_freeze(value),))

    @classmethod
    def polynomial(cls, coeffs) -> "CoefficientField":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[0] != coeffs.shape[1]:
            raise ShapeError(
                f"polynomial coefficients must have shape (n, n, deg+1), got {coeffs.shape}"
            )
        return cls(coeffs.shape[0], "polynomial", (_freeze(coeffs),))

    @classmethod
    def grid(cls, zetas, values) -> "CoefficientField":
        zetas = np.asarray(zetas, dtype=float)
        values = np.asarray(values, dtype=complex)
        if zetas.ndim != 1 or zetas.size < 2:
            raise ShapeError("grid field needs at least two sample points")
        if np.any(np.diff(zetas) <= 0):
            raise ValidationError("grid zetas must be strictly increasing")
        if zetas[0] != 0.0 or zetas[-1] != 1.0:
            raise ValidationError("grid zetas must include 0 and 1")
        if values.ndim != 3 or values.shape[0] != zetas.size or values.shape[1] != values.shape[2]:
            raise ShapeError(
                f"grid values must have shape (m, n, n) with m = len(zetas), got {values.shape}"
            )
        z = np.array(zetas)
        z.flags.writeable = False
        return cls(values.shape[1], "grid", (z, _freeze(values)))

    def eval_many(self, zetas) -> np.ndarray:
        """Evaluate H at an array of points; returns shape (len(zetas), n, n)."""
        zetas = np.atleast_1d(np.asarray(zetas, dtype=float))
        if self.kind == "constant":
            (value,) = self.data
            return np.broadcast_to(value, (zetas.size,) + value.shape).copy()
        if self.kind == "polynomial":
            (coeffs,) = self.data
            # Horner's rule with the operations of np.polynomial.polynomial.polyval,
            # in its order (so the same values), without its per-call overhead
            vals = coeffs[..., -1:] + zetas * 0.0
            for k in range(coeffs.shape[2] - 2, -1, -1):
                vals = coeffs[..., k:k + 1] + vals * zetas
            return vals.transpose(2, 0, 1)
        zs, values = self.data
        idx = np.clip(np.searchsorted(zs, zetas, side="right") - 1, 0, zs.size - 2)
        w = (zetas - zs[idx]) / (zs[idx + 1] - zs[idx])
        out = (1.0 - w)[:, None, None] * values[idx] + w[:, None, None] * values[idx + 1]
        return hermitian_part(out)

    def eval(self, zeta: float) -> np.ndarray:
        return self.eval_many([zeta])[0]


def _as_field(h) -> CoefficientField:
    if isinstance(h, CoefficientField):
        return h
    return CoefficientField.constant(np.atleast_2d(np.asarray(h, dtype=complex)))


@dataclass(frozen=True, eq=False)
class PHSystem:
    """The tuple (n, P1, P0, H, wb_tilde) describing the boundary problem.

    Instances produced by :func:`make_system` / :func:`load_system` have had
    all structural invariants checked.  Direct dataclass construction skips
    validation (used by tests to probe error paths).
    """

    n: int
    p1: np.ndarray
    p0: np.ndarray
    h: CoefficientField
    wb_tilde: np.ndarray


def validate_system(system: PHSystem) -> None:
    """Check all structural invariants; raise ValidationError naming the
    first violated one.

    P1 must be Hermitian within TOL_HERM (relative) and invertible: its
    smallest singular value at least EPS_INV * max(1, largest), the
    absolute floor of the classifier's zero bands.  H must be Hermitian
    within TOL_HERM with smallest eigenvalue >= EPS_PD on all of [0, 1].
    The field is written as polynomial pieces in Bernstein form (see
    _bernstein_pieces): on each piece H(z) is a convex combination of its
    control matrices, which are Hermitian exactly when H is, and lambda_min
    is concave, so the least control eigenvalue bounds lambda_min(H) from
    below on the piece.  A piece the bound cannot clear is halved (de
    Casteljau), at most CERTIFY_DEPTH times.  The end control matrices are
    H at the ends of the piece: a refusal names the first such point below
    EPS_PD, or else a piece still open at the cap.  Constant, affine and
    grid fields are decided exactly, without halving.
    """
    _validate([system])


def _structure_error(system: PHSystem) -> str | None:
    n = system.n
    for name, m in (("p1", system.p1), ("p0", system.p0)):
        if m.shape != (n, n):
            return f"{name} must be {n}x{n}, got {m.shape}"
        if not np.isfinite(m).all():
            return f"{name} contains non-finite entries"
    if not np.isfinite(system.wb_tilde).all():
        return "wb_tilde contains non-finite entries"
    if system.wb_tilde.shape != (n, 2 * n):
        return f"wb_tilde must be {n}x{2 * n}, got {system.wb_tilde.shape}"
    return None


def _validate(systems) -> None:
    """validate_system on a list of systems of one dimension n, each check
    made once for the whole stack.  Raises at the first check that fails
    for any system, with the ValidationError validate_system raises for
    that system; it need not be the first invalid system of the list (the
    agreement campaign replays a failed stack system by system)."""
    for system in systems:
        message = _structure_error(system)
        if message:
            raise ValidationError(message)
    p1 = np.array([s.p1 for s in systems])
    if (_herm_defect(p1) > TOL_HERM).any():
        raise ValidationError("p1 is not Hermitian")
    svals = np.linalg.svd(p1, compute_uv=False)
    bad = svals[:, -1] < EPS_INV * np.maximum(1.0, svals[:, 0])
    if bad.any():
        raise ValidationError("p1 is numerically singular "
                              f"(smallest singular value {svals[bad.argmax(), -1]:.3e})")
    # the pieces of every field, by degree: piece ends and control matrices;
    # non-finite fields are refused here, before any arithmetic warns about them
    groups: dict[int, list] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for system in systems:
            if system.h.n != system.n:
                raise ValidationError(f"H has dimension {system.h.n}, system has n = {system.n}")
            knots, ctrl = _bernstein_pieces(system.h)
            # a Hermitian part that overflows counts as non-finite too
            if not np.isfinite(ctrl + _adjoint(ctrl)).all():
                raise ValidationError("H evaluates to non-finite entries")
            for part, value in zip(groups.setdefault(ctrl.shape[1], ([], [], [])),
                                   (knots[:-1], knots[1:], ctrl)):
                part.append(value)
    groups = [tuple(np.concatenate(part) for part in g) for g in groups.values()]
    for lo, hi, ctrl in groups:
        defect = _herm_defect(ctrl).max(axis=1)
        bad = defect > TOL_HERM
        if bad.any():
            k = bad.argmax()
            raise ValidationError(f"H is not Hermitian on [{lo[k]:.6g}, {hi[k]:.6g}] "
                                  f"(relative defect {defect[k]:.3e})")
    for group in groups:
        _certify(*group)


def _certify(lo, hi, ctrl) -> None:
    """The Bernstein certification of validate_system for pieces of one
    degree of one or many fields at once, the pieces of each field
    contiguous and in increasing order, which halving keeps.  Raises at the
    first piece end below EPS_PD at the first level that has one, or at the
    first piece still open at the cap."""
    ctrl = hermitian_part(ctrl)
    for depth in range(CERTIFY_DEPTH + 1):
        eigmin = np.linalg.eigvalsh(ctrl)[..., 0]
        keep = eigmin.min(axis=1) < EPS_PD
        if not keep.any():
            return
        # an end below EPS_PD is on an open piece; the first is named
        ends = eigmin[:, [0, -1]].ravel()
        bad = np.flatnonzero(ends < EPS_PD)
        if bad.size:
            piece, side = divmod(bad[0], 2)
            raise ValidationError(f"H(zeta={(lo, hi)[side][piece]:.6g}) is not positive "
                                  f"definite (min eigenvalue {ends[bad[0]]:.3e} < {EPS_PD:g})")
        lo, hi, ctrl = lo[keep], hi[keep], ctrl[keep]
        if depth == CERTIFY_DEPTH:
            raise ValidationError(f"H cannot be certified positive definite on "
                                  f"[{lo[0]:.6g}, {hi[0]:.6g}] "
                                  f"(Bernstein bound after {CERTIFY_DEPTH} halvings)")
        # de Casteljau at t = 1/2: control matrix i of the left half is
        # sum_k binom(i, k) B_k / 2^i, the right half mirrors the left
        d = ctrl.shape[1] - 1
        left = np.array([[comb(i, k) / 2**i for k in range(d + 1)] for i in range(d + 1)])
        halves = np.concatenate([left, left[::-1, ::-1]]) @ ctrl.reshape(len(ctrl), d + 1, -1)
        ctrl = halves.reshape((-1,) + ctrl.shape[1:])
        mid = (lo + hi) / 2.0
        lo, hi = np.column_stack([lo, mid]).ravel(), np.column_stack([mid, hi]).ravel()


def _bernstein_pieces(field: CoefficientField):
    """Write a field as polynomial pieces of one degree d in Bernstein form.

    Returns the piece ends zeta_0 < ... < zeta_P and control matrices B of
    shape (P, d + 1, n, n): on piece p, with t = (z - zeta_p) / (zeta_(p+1)
    - zeta_p), H(z) = sum_j binom(d, j) t^j (1 - t)^(d - j) B[p, j], so
    B[p, 0] and B[p, d] are H at the ends.  A constant field is one piece of
    degree 0, a polynomial sum_k a_k z^k one piece with B_j = sum_(k <= j)
    binom(j, k) / binom(d, k) a_k, and a grid field one affine piece per
    knot interval, its knot values symmetrized as grid evaluation does.
    """
    if field.kind == "constant":
        return np.array([0.0, 1.0]), field.data[0][None, None]
    if field.kind == "grid":
        zetas, values = field.data
        values = hermitian_part(values)
        return zetas, np.stack([values[:-1], values[1:]], axis=1)
    (coeffs,) = field.data
    d = coeffs.shape[2] - 1
    ctrl = _to_bernstein(d) @ coeffs.transpose(2, 0, 1).reshape(d + 1, -1)
    return np.array([0.0, 1.0]), ctrl.reshape(1, d + 1, field.n, field.n)


@lru_cache(maxsize=None)
def _to_bernstein(d: int) -> np.ndarray:
    """The matrix of binom(j, k) / binom(d, k) (rows j, columns k) that maps
    the power coefficients of a polynomial of degree d to its Bernstein ones."""
    m = np.array([[comb(j, k) / comb(d, k) for k in range(d + 1)] for j in range(d + 1)])
    m.flags.writeable = False
    return m


def _system(p1, p0, h, wb_tilde) -> PHSystem:
    """A PHSystem from raw matrices and a field, not validated."""
    p1 = np.atleast_2d(np.asarray(p1, dtype=complex))
    return PHSystem(
        n=p1.shape[0],
        p1=_freeze(p1),
        p0=_freeze(np.atleast_2d(np.asarray(p0, dtype=complex))),
        h=_as_field(h),
        wb_tilde=_freeze(np.atleast_2d(np.asarray(wb_tilde, dtype=complex))),
    )


def make_system(p1, p0, h, wb_tilde) -> PHSystem:
    """Build and validate a PHSystem from raw matrices and a field.

    ``h`` may be a CoefficientField, a matrix, or a scalar (constant field).
    """
    system = _system(p1, p0, h, wb_tilde)
    validate_system(system)
    return system


# ---------------------------------------------------------------------------
# JSON document format
# ---------------------------------------------------------------------------

def _scalar_from_pair(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
    ):
        raise SchemaError(f"{where}: complex scalars must be [re, im] pairs, got {obj!r}")
    return complex(obj[0], obj[1])


def _matrix_from_doc(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError(f"{where}: expected a list of rows")
    ncols = len(obj[0])
    if ncols == 0 or any(len(r) != ncols for r in obj):
        raise SchemaError(f"{where}: rows must be non-empty and of equal length")
    out = np.empty((len(obj), ncols), dtype=complex)
    for i, row in enumerate(obj):
        for j, entry in enumerate(row):
            out[i, j] = _scalar_from_pair(entry, f"{where}[{i}][{j}]")
    return out


def matrix_to_pairs(m) -> list:
    """Inverse of the document matrix encoding: nested lists of [re, im]."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _field_from_doc(obj) -> CoefficientField:
    if not isinstance(obj, dict):
        raise SchemaError("'h' must be an object")
    kind = obj.get("kind")
    if kind not in FIELD_KINDS:
        raise SchemaError(f"'h.kind' must be one of {FIELD_KINDS}, got {kind!r}")
    keys = {"constant": {"kind", "value"},
            "polynomial": {"kind", "coeffs"},
            "grid": {"kind", "zetas", "values"}}[kind]
    extra = set(obj) - keys
    if extra:
        raise SchemaError(f"'h' has unknown keys {sorted(extra)}")
    missing = keys - set(obj)
    if missing:
        raise SchemaError(f"'h' is missing keys {sorted(missing)}")
    if kind == "constant":
        return CoefficientField.constant(_matrix_from_doc(obj["value"], "h.value"))
    if kind == "polynomial":
        rows = obj["coeffs"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise SchemaError("'h.coeffs' must be a nested list")
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise SchemaError("'h.coeffs' must be an n x n table of coefficient lists")
        deg = 0
        for r in rows:
            for entry in r:
                if not isinstance(entry, list) or not entry:
                    raise SchemaError("each 'h.coeffs' entry must be a non-empty list of pairs")
                deg = max(deg, len(entry) - 1)
        coeffs = np.zeros((n, n, deg + 1), dtype=complex)
        for i in range(n):
            for j in range(n):
                for k, pair in enumerate(rows[i][j]):
                    coeffs[i, j, k] = _scalar_from_pair(pair, f"h.coeffs[{i}][{j}][{k}]")
        return CoefficientField.polynomial(coeffs)
    zetas = obj["zetas"]
    vals = obj["values"]
    if not isinstance(zetas, list) or not isinstance(vals, list) or len(zetas) != len(vals):
        raise SchemaError("'h.zetas' and 'h.values' must be lists of equal length")
    matrices = [_matrix_from_doc(v, f"h.values[{k}]") for k, v in enumerate(vals)]
    return CoefficientField.grid(np.asarray(zetas, dtype=float), np.array(matrices))


def load_system(document) -> PHSystem:
    """Load and validate a system from a model document.

    ``document`` may be a dict (already-parsed JSON), a JSON string, or a
    path to a JSON file.  Raises SchemaError for malformed documents and
    ValidationError for well-formed documents violating an invariant.
    """
    if isinstance(document, (str, Path)):
        text = str(document)
        if isinstance(document, str) and text.lstrip().startswith("{"):
            try:
                document = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc}") from None
        else:
            try:
                document = json.loads(Path(document).read_text())
            except OSError as exc:
                raise SchemaError(f"cannot read model document: {exc}") from None
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaError("model document must be a JSON object")
    required = {"n", "p1", "p0", "h", "wb_tilde"}
    extra = set(document) - required
    if extra:
        raise SchemaError(f"unknown document keys {sorted(extra)}")
    missing = required - set(document)
    if missing:
        raise SchemaError(f"missing document keys {sorted(missing)}")
    n = document["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError(f"'n' must be a positive integer, got {n!r}")
    p1 = _matrix_from_doc(document["p1"], "p1")
    p0 = _matrix_from_doc(document["p0"], "p0")
    wb = _matrix_from_doc(document["wb_tilde"], "wb_tilde")
    field = _field_from_doc(document["h"])
    if p1.shape != (n, n):
        raise ValidationError(f"p1 must be {n}x{n}, got {p1.shape}")
    system = PHSystem(n=n, p1=_freeze(p1), p0=_freeze(p0), h=field, wb_tilde=_freeze(wb))
    validate_system(system)
    return system
