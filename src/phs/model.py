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
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import DomainError, SchemaError, ShapeError, ValidationError

# Validation tolerances.  tol values are relative to the matrix scale,
# eps_pd is the absolute floor for the smallest eigenvalue of H.
TOL_HERM = 1e-10
EPS_PD = 1e-8
EPS_INV = 1e-10
# Zero band for the eigenvalues of P1 H, relative to max(1, max |eig|): the
# classifier counts eigenvalue signs outside it, and validation makes sure
# no eigenvalue can fall into it.
TOL_EIG = 1e-9
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


def _freeze(a: np.ndarray, dtype=complex) -> np.ndarray:
    a = np.array(a, dtype=dtype)
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


def _norm(m: np.ndarray) -> np.ndarray:
    """The Frobenius norm of a matrix or of each matrix in a stack, taken on
    the matrix divided by the power of two at or below its largest entry
    magnitude: the division is exact and no square overflows."""
    scale = np.ldexp(1.0, np.frexp(np.abs(m).max(axis=(-2, -1)))[1] - 1)
    return scale * _frobenius(m / scale[..., None, None])


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Matrix-valued Hamiltonian density H(z) on [0,1], of every kind
    stored as polynomial pieces: data = (knots, values, coeffs), read-only:
    knots (m + 1,) from 0 to 1, H at them (m + 1, n, n), the ends of the
    pieces, exact where coefficients summed at t = 1 are rounded, and the
    coefficients (m, n, n, d + 1) of piece k in ascending powers of its own
    t = (z - knots[k]) / (knots[k + 1] - knots[k]).  kind records the
    input: a "constant" is one piece of degree 0, a "polynomial" (n, n,
    d + 1) in powers of z one piece on [0, 1], where t = z, and a "grid" of
    samples (m + 1, n, n) one affine piece per knot interval between the
    Hermitian parts of its samples."""

    n: int
    kind: str
    data: tuple

    @classmethod
    def constant(cls, value) -> "CoefficientField":
        value = np.atleast_2d(np.asarray(value, dtype=complex))
        if value.shape[0] != value.shape[1]:
            raise ShapeError(f"constant field value must be square, got {value.shape}")
        return cls(value.shape[0], "constant", _one_piece(value[..., None]))

    @classmethod
    def polynomial(cls, coeffs) -> "CoefficientField":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[0] != coeffs.shape[1]:
            raise ShapeError(
                f"polynomial coefficients must have shape (n, n, deg+1), got {coeffs.shape}"
            )
        return cls(coeffs.shape[0], "polynomial", _one_piece(coeffs))

    @classmethod
    def grid(cls, zetas, values) -> "CoefficientField":
        zetas = _freeze(zetas, float)
        values = np.asarray(values, dtype=complex)
        if zetas.ndim != 1 or zetas.size < 2:
            raise ShapeError("grid field needs at least two sample points")
        # a NaN knot fails every comparison, so it fails this one
        if not np.all(np.diff(zetas) > 0):
            raise ValidationError("grid zetas must be strictly increasing")
        if zetas[0] != 0.0 or zetas[-1] != 1.0:
            raise ValidationError("grid zetas must include 0 and 1")
        if values.ndim != 3 or values.shape[0] != zetas.size or values.shape[1] != values.shape[2]:
            raise ShapeError(
                f"grid values must have shape (m, n, n) with m = len(zetas), got {values.shape}"
            )
        # too large or non-finite samples: validation refuses the result
        with np.errstate(over="ignore", invalid="ignore"):
            values = hermitian_part(values)
            coeffs = np.stack([values[:-1], values[1:] - values[:-1]], axis=-1)
        return cls(values.shape[1], "grid", (zetas, _freeze(values), _freeze(coeffs)))

    def eval_many(self, zetas) -> np.ndarray:
        """Evaluate H at an array of points of [0, 1]; returns shape
        (len(zetas), n, n).  Raises DomainError naming the first point
        outside [0, 1], NaN included: H is not extrapolated."""
        zetas = np.atleast_1d(np.asarray(zetas, dtype=float))
        inside = (zetas >= 0.0) & (zetas <= 1.0)
        if not inside.all():
            raise DomainError(f"zeta = {zetas[~inside][0]:.6g} outside [0, 1]")
        knots, values, coeffs = self.data
        return _eval_group(knots, values[None], coeffs[None], zetas)[0]


# The knots of a field that is one piece on [0, 1].
_UNIT = _freeze([0.0, 1.0], float)


def _one_piece(coeffs) -> tuple:
    """The data of fields that are one piece on [0, 1], coefficients (...,
    n, n, d + 1) in powers of z: H at 0 and at 1 (..., 2, n, n), the latter
    with the operations of Horner's rule in evaluation at t = 1, and the
    coefficients (..., 1, n, n, d + 1)."""
    end = coeffs[..., -1]
    # too large or non-finite coefficients: validation refuses the result
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(coeffs.shape[-1] - 2, -1, -1):
            end = coeffs[..., j] + (end + 0.0)
    ends = np.concatenate([coeffs[..., None, :, :, 0], end[..., None, :, :]], axis=-3)
    ends.flags.writeable = False
    return _UNIT, ends, _freeze(coeffs[..., None, :, :, :])


def _eval_group(knots, values, coeffs, zetas) -> np.ndarray:
    """H of the fields of one group of a _Batch (data stacked on a first
    axis) at an array of points, stacked (k, len(zetas), n, n): in the
    piece that starts at or before each point (at t = 0, its knot's value),
    and the last knot's value at z = 1."""
    zetas = t = np.atleast_1d(np.asarray(zetas, dtype=float))
    # one piece is on [0, 1], where t = z and its coefficients broadcast
    if knots.size > 2:
        k = np.searchsorted(knots[1:-1], zetas, side="right")
        t = (zetas - knots[k]) / (knots[k + 1] - knots[k])
        coeffs = coeffs[:, k]
    if coeffs.shape[-1] == 1:
        # degree 0: one piece repeated per point, or the pieces' constants
        vals = np.repeat(coeffs[..., 0], t.size // coeffs.shape[1], axis=1)
    else:
        # Horner's rule with the operations of np.polynomial.polynomial.
        # polyval, in its order (so the same values), the points on axis 3
        c = coeffs.transpose(0, 2, 3, 1, 4)
        vals = c[..., -1] + t * 0.0
        for j in range(c.shape[-1] - 2, -1, -1):
            vals = c[..., j] + vals * t
        vals = vals.transpose(0, 3, 1, 2)
    vals[:, zetas == knots[-1]] = values[:, -1:]
    return vals


def _eval_fields(batch, zetas) -> np.ndarray:
    """eval_many of each field of a _Batch, stacked (B, len(zetas), n, n),
    with one evaluation per group."""
    n = batch.p1.shape[-1]
    out = np.empty((len(batch.p1), len(zetas), n, n), dtype=complex)
    for idx, _, knots, values, coeffs in batch.fields:
        out[idx] = _eval_group(knots, values, coeffs, zetas)
    return out


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

    Shapes and finiteness come first (P1 and P0 finite n x n, wb_tilde
    finite n x 2n, H of dimension n), before any other check of P1 or H.
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

    Finally the eigenvalues of P1 H(z), those of H^(1/2) P1 H^(1/2), must
    stay out of the classifier's zero band at every z.  By Ostrowski's
    theorem their moduli lie between lambda_min(H) sigma_min(P1) and
    lambda_max(H) sigma_max(P1).  The least certified control eigenvalue
    bounds lambda_min(H) from below and the largest control eigenvalue
    bounds lambda_max(H) from above (lambda_max is convex), so the system
    is refused when the lower end is below TOL_EIG * max(1, upper end).
    The test is sufficient, not necessary: it may refuse a system whose
    eigenvalues all clear the band.
    """
    _validate(_stack([system]))


def _structure_error(system: PHSystem) -> str:
    """The message of the first structure check of validate_system that
    ``system``, whose shapes do not all match its n, fails, in its order."""
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
    return f"H has dimension {system.h.data[-1].shape[1]}, system has n = {n}"


@dataclass(frozen=True, eq=False)
class _Batch:
    """Systems of one dimension n as stacks along a first axis, in order:
    p1 and p0 (B, n, n) and wb_tilde (B, n, 2n).  ``fields`` holds the
    coefficient fields as groups (indices, kind, knots, values, coeffs),
    each evaluated and certified at once: the fields of one kind on the same
    knots with coefficients of one shape, values and coeffs stacked on a
    first axis, in order of first appearance.  Every stage of the
    classifier, the oracle and validation reads a batch; a single system is
    a batch of one."""

    p1: np.ndarray
    p0: np.ndarray
    wb_tilde: np.ndarray
    fields: tuple


def _stack(systems) -> _Batch:
    """The batch of a list of systems of one dimension n.  Their shapes, H's
    dimension among them, are compared system by system first, the first
    structure check of validate_system; a misshapen system raises its
    ValidationError."""
    groups: dict = {}
    for i, system in enumerate(systems):
        n, (knots, _, coeffs) = system.n, system.h.data
        shapes = (system.p1.shape, system.p0.shape, system.wb_tilde.shape, coeffs.shape[1])
        if shapes != ((n, n), (n, n), (n, 2 * n), n):
            raise ValidationError(_structure_error(system))
        groups.setdefault((system.h.kind, knots.tobytes(), coeffs.shape), []).append(i)
    fields = tuple(
        (np.array(idx), kind, systems[idx[0]].h.data[0],
         *(np.array([systems[i].h.data[j] for i in idx]) for j in (1, 2)))
        for (kind, _, _), idx in groups.items())
    return _Batch(np.array([s.p1 for s in systems]), np.array([s.p0 for s in systems]),
                  np.array([s.wb_tilde for s in systems]), fields)


def _unstack(batch: _Batch) -> list:
    """The systems of a batch, their arrays views of its stacks."""
    n = batch.p1.shape[-1]
    fields = [None] * len(batch.p1)
    for idx, kind, knots, values, coeffs in batch.fields:
        for j, i in enumerate(idx.tolist()):
            fields[i] = CoefficientField(n, kind, (knots, values[j], coeffs[j]))
    return [PHSystem(n, *parts) for parts in zip(batch.p1, batch.p0, fields, batch.wb_tilde)]


def _validate(batch: _Batch) -> None:
    """validate_system on a batch, whose shapes _stack (or the campaign's
    draws) made those of one n: each check of values made once for the whole
    stack, finiteness (p1, then p0, then wb_tilde) and P1 on the stacked
    matrices, and H on the Bernstein pieces of one group at a time.  Raises
    at the first check that fails for any system, with the ValidationError
    validate_system raises for that system; it need not be the first invalid
    system of the batch (the agreement campaign replays a failed batch system
    by system).  The stacks are only read."""
    for name, m in (("p1", batch.p1), ("p0", batch.p0), ("wb_tilde", batch.wb_tilde)):
        if not np.isfinite(m).all():
            raise ValidationError(f"{name} contains non-finite entries")
    p1 = batch.p1
    if (_herm_defect(p1) > TOL_HERM).any():
        raise ValidationError("p1 is not Hermitian")
    svals = np.linalg.svd(p1, compute_uv=False)
    bad = svals[:, -1] < EPS_INV * np.maximum(1.0, svals[:, 0])
    if bad.any():
        smin, smax = svals[bad.argmax(), [-1, 0]]
        raise ValidationError(f"p1 is numerically singular (smallest singular value {smin:.3e} "
                              f"< {EPS_INV:g} × max(1, largest {smax:.3e}))")
    # each group's pieces: piece ends and control matrices; non-finite
    # fields are refused here, before any arithmetic warns about them
    h_lower, h_upper = np.empty(len(p1)), np.empty(len(p1))
    for idx, _, knots, values, coeffs in batch.fields:
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi, ctrl = _bernstein_pieces(knots, values, coeffs)
            # a Hermitian part that overflows counts as non-finite too
            herm = hermitian_part(ctrl)
            if not np.isfinite(herm).all():
                raise ValidationError("H evaluates to non-finite entries")
        defect = _herm_defect(ctrl).max(axis=1)
        bad = defect > TOL_HERM
        if bad.any():
            k = bad.argmax()
            raise ValidationError(f"H is not Hermitian on [{lo[k]:.6g}, {hi[k]:.6g}] "
                                  f"(relative defect {defect[k]:.3e})")
        lower, upper = _certify(lo, hi, herm)
        if knots.size > 2:
            # each field's bounds over its pieces
            lower = lower.reshape(len(idx), -1).min(axis=1)
            upper = upper.reshape(len(idx), -1).max(axis=1)
        h_lower[idx], h_upper[idx] = lower, upper
    # Ostrowski: |eig(H^(1/2) P1 H^(1/2))| >= lambda_min(H) sigma_min(P1)
    floor = h_lower * svals[:, -1]
    band = TOL_EIG * np.maximum(1.0, h_upper * svals[:, 0])
    if (floor < band).any():
        k = (floor < band).argmax()
        raise ValidationError(
            f"P1 H may have an eigenvalue in the zero band: lambda_min(H) >= {h_lower[k]:.3e} "
            f"and sigma_min(P1) = {svals[k, -1]:.3e} bound its moduli below by "
            f"{floor[k]:.3e} < {band[k]:.3e}")


def _certify(lo, hi, ctrl) -> tuple:
    """The Bernstein certification of validate_system for pieces of one
    degree of one or many fields at once, given by their Hermitian control
    matrices ``ctrl``, the pieces of each field
    contiguous and in increasing order, which halving keeps.  Raises at the
    first piece end below EPS_PD at the first level that has one, or at the
    first piece still open at the cap.  Returns, for each given piece,
    bounds on H over it: the least control eigenvalue of the pieces that
    certified it (below lambda_min) and its largest control eigenvalue
    (above lambda_max)."""
    for depth in range(CERTIFY_DEPTH + 1):
        eigs = np.linalg.eigvalsh(ctrl)
        eigmin = eigs[..., 0]
        least = eigmin.min(axis=1)
        keep = least < EPS_PD
        if depth == 0:
            upper = eigs[..., -1].max(axis=1)
            lower = np.where(keep, np.inf, least)
        else:
            np.minimum.at(lower, origin[~keep], least[~keep])
        if not keep.any():
            return lower, upper
        # the given piece that each open piece lies in
        origin = np.flatnonzero(keep) if depth == 0 else origin[keep]
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
        origin = np.repeat(origin, 2)


def _bernstein_pieces(knots, values, coeffs):
    """Write the k fields of one group of a _Batch, m pieces each, in
    Bernstein form.

    Returns the ends lo < hi of the pieces and their control matrices B of
    shape (k m, d + 1, n, n), the pieces of each field contiguous and in
    increasing order: on a piece, with t = (z - lo) / (hi - lo), H(z) =
    sum_j binom(d, j) t^j (1 - t)^(d - j) B[j], so B[0] and B[d] are H at
    the ends.  A piece sum_k a_k t^k has B_j = sum_(k <= j) binom(j, k) /
    binom(d, k) a_k: one product, whose B[0] = a_0 is the value at the
    piece's start; B[d] is read from the value at its end, which the
    rounded sum of the a_k need not give.
    """
    count, m, n, _, d1 = coeffs.shape
    ctrl = _to_bernstein(d1 - 1) @ coeffs.transpose(4, 0, 1, 2, 3).reshape(d1, -1)
    ctrl = ctrl.reshape(d1, count * m, n, n).transpose(1, 0, 2, 3)
    ctrl[:, -1] = values[:, 1:].reshape(-1, n, n)
    return np.tile(knots[:-1], count), np.tile(knots[1:], count), ctrl


@lru_cache(maxsize=None)
def _to_bernstein(d: int) -> np.ndarray:
    """The matrix of binom(j, k) / binom(d, k) (rows j, columns k) that maps
    the power coefficients of a polynomial of degree d to its Bernstein ones."""
    m = np.array([[comb(j, k) / comb(d, k) for k in range(d + 1)] for j in range(d + 1)])
    m.flags.writeable = False
    return m


def make_system(p1, p0, h, wb_tilde) -> PHSystem:
    """Build and validate a PHSystem from raw matrices and a field.

    ``h`` may be a CoefficientField, a matrix, or a scalar (constant field).
    """
    p1 = np.atleast_2d(np.asarray(p1, dtype=complex))
    system = PHSystem(
        n=p1.shape[0],
        p1=_freeze(p1),
        p0=_freeze(np.atleast_2d(np.asarray(p0, dtype=complex))),
        h=_as_field(h),
        wb_tilde=_freeze(np.atleast_2d(np.asarray(wb_tilde, dtype=complex))),
    )
    validate_system(system)
    return system


# ---------------------------------------------------------------------------
# JSON document format
# ---------------------------------------------------------------------------

def _as_float(v, where: str, error=SchemaError) -> float:
    """A number from outside (a document, a config or a spec) as a float:
    any numbers.Real but a boolean that fits a float.  Anything else raises
    ``error`` at ``where``, naming a refused value by its type only."""
    if not isinstance(v, Real) or isinstance(v, bool):
        raise error(f"{where}: expected a number, got {type(v).__name__}")
    try:
        return float(v)
    except OverflowError:
        raise error(f"{where}: integer too large for a float") from None


def _is_integer(v) -> bool:
    """An integer from outside: any numbers.Integral but a boolean that fits a float."""
    return (isinstance(v, Integral) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


def _check_keys(obj: dict, keys: set, where: str) -> None:
    """Raise SchemaError unless the keys of ``obj`` are exactly ``keys``."""
    for problem, names in (("unknown", set(obj) - keys), ("missing", keys - set(obj))):
        if names:
            raise SchemaError(f"{where} has {problem} keys {sorted(names, key=str)}")


def _scalar_from_pair(obj, where: str) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SchemaError(f"{where}: complex scalars must be [re, im] pairs")
    return complex(_as_float(obj[0], f"{where}[0]"), _as_float(obj[1], f"{where}[1]"))


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
        # a kind that is not a string is named by its type: the repr of an
        # integer of more than 4300 digits raises ValueError
        got = repr(kind) if isinstance(kind, str) else type(kind).__name__
        raise SchemaError(f"'h.kind' must be one of {FIELD_KINDS}, got {got}")
    _check_keys(obj, {"constant": {"kind", "value"},
                      "polynomial": {"kind", "coeffs"},
                      "grid": {"kind", "zetas", "values"}}[kind], "'h'")
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
    knots = [_as_float(z, f"h.zetas[{k}]") for k, z in enumerate(zetas)]
    matrices = [_matrix_from_doc(v, f"h.values[{k}]") for k, v in enumerate(vals)]
    for k, m in enumerate(matrices):
        if m.shape != matrices[0].shape:
            raise SchemaError(f"h.values[{k}]: every matrix must have the shape of "
                              f"h.values[0], {matrices[0].shape}, got {m.shape}")
    return CoefficientField.grid(np.asarray(knots, dtype=float), np.array(matrices))


def load_system(document) -> PHSystem:
    """Load and validate a system from a model document.

    ``document`` may be a dict (already-parsed JSON), a JSON string, or a
    path to a UTF-8 JSON file, parsed by one json.loads.  Raises SchemaError
    for malformed documents (unreadable, not UTF-8, not JSON, more than 4300
    digits in an integer, keys other than the format's, numbers refused by
    _as_float) and ValidationError for valid ones violating an invariant.
    """
    if isinstance(document, (str, Path)):
        try:
            if not (isinstance(document, str) and document.lstrip().startswith("{")):
                document = Path(document).read_text(encoding="utf-8")
            document = json.loads(document)
        except OSError as exc:
            raise SchemaError(f"cannot read model document: {exc}") from None
        except ValueError as exc:
            # JSONDecodeError, UnicodeDecodeError and the integer digit limit
            raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaError("model document must be a JSON object")
    _check_keys(document, {"n", "p1", "p0", "h", "wb_tilde"}, "document")
    n = document["n"]
    if not _is_integer(n) or n < 1:
        got = n if _is_integer(n) else type(n).__name__
        raise SchemaError(f"'n' must be a positive integer that fits a float, got {got}")
    p1 = _matrix_from_doc(document["p1"], "p1")
    p0 = _matrix_from_doc(document["p0"], "p0")
    wb = _matrix_from_doc(document["wb_tilde"], "wb_tilde")
    field = _field_from_doc(document["h"])
    system = PHSystem(n=int(n), p1=_freeze(p1), p0=_freeze(p0), h=field, wb_tilde=_freeze(wb))
    validate_system(system)
    return system
