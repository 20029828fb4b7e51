"""Matrix tests deciding what kind of semigroup the boundary problem generates.

Three nested verdicts are computed from finite matrix data:

  * contraction semigroup (energy non-increasing):
        Re P0 <= 0,  wb Sigma wb* >= 0,  rank(wb_tilde) = n,
    where wb = wb_tilde @ inv([[P1, -P1], [I, I]]) and Sigma = [[0, I], [I, 0]];
  * unitary group (energy conserved):  as above with equalities,
        Re P0 = 0,  wb Sigma wb* = 0,  rank(wb_tilde) = n;
  * C0-semigroup (well-posed at all):  with wb_tilde = [W1 W0] split in
    half and Z+(z) / Z-(z) the spans of eigenvectors of P1 H(z) for
    positive / negative eigenvalues,
        W1 H(1) Z+(1)  (+)  W0 H(0) Z-(0)  =  C^n,
    checked as invertibility of K = [W1 H(1) B+ | W0 H(0) B-] for
    orthonormal bases B+ of Z+(1) and B- of Z-(0).

The eigen-splitting runs through the Hermitian similarity
H^(1/2) P1 H^(1/2), so inertia is inherited from P1 and the numerics stay
in symmetric eigensolvers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, ValidationError
from .model import (
    TOL_EIG, PHSystem, _adjoint, _eval_fields, _stack, hermitian_part, matrix_to_pairs)

# Frontier tolerance for semidefiniteness tests, relative to max(1, ||M||).
TOL_PSD = 1e-9
# Numerical rank: singular values below TOL_RANK * sigma_max count as zero.
TOL_RANK = 1e-10
# TOL_EIG, the zero band for eigenvalue sign counting, relative to
# max(1, max |eig|), is defined with validation, which keeps P1 H out of it.


def compute_wb(system: PHSystem) -> np.ndarray:
    """Map the boundary matrix to trace-sum/difference coordinates:
    wb = wb_tilde @ inv([[P1, -P1], [I, I]]).

    That inverse is [[P1^-1 / 2, I / 2], [-P1^-1 / 2, I / 2]], so with
    wb_tilde = [W1 W0], wb = [(W1 - W0) P1^-1 / 2, (W1 + W0) / 2]."""
    return np.concatenate(_wb(system.p1, system.wb_tilde), axis=-1)


def _wb(p1: np.ndarray, wb_tilde: np.ndarray) -> tuple:
    """The halves [A B] of compute_wb's wb for p1 (..., n, n) and wb_tilde (..., n, 2n)."""
    n = p1.shape[-1]
    w1, w0 = wb_tilde[..., :n], wb_tilde[..., n:]
    a = np.linalg.solve(p1.swapaxes(-1, -2), (w1 - w0).swapaxes(-1, -2)).swapaxes(-1, -2)
    return a / 2.0, (w1 + w0) / 2.0


def rank_of(m: np.ndarray):
    """Numerical rank: number of singular values >= TOL_RANK * sigma_max;
    an int array of ranks for a stack (..., rows, cols)."""
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0 if m.ndim == 2 else np.zeros(m.shape[:-2], dtype=int)
    svals = np.linalg.svd(m, compute_uv=False)
    top = svals[..., :1]
    rank = ((svals >= TOL_RANK * top) & (top > 0.0)).sum(axis=-1)
    return int(rank) if m.ndim == 2 else rank


@dataclass(frozen=True, eq=False)
class ContractionCheck:
    """Outcome and witnesses of the contraction and unitary-group tests.

    Both tests read the same eigenvalues of Re P0 and of the sigma form;
    the 2-norms are their largest magnitudes (both matrices are Hermitian).
    """

    contraction: bool
    unitary_group: bool
    re_p0_nsd: bool
    re_p0_zero: bool
    re_p0_max_eigenvalue: float
    re_p0_norm: float
    sigma_form: np.ndarray
    sigma_form_min_eigenvalue: float
    sigma_form_norm: float
    rank_wb_tilde: int


def check_contraction(system: PHSystem) -> ContractionCheck:
    """Contraction: Re P0 negative semidefinite, wb Sigma wb* positive
    semidefinite and wb_tilde of full rank n.  Unitary group: the same with
    both forms zero.  Independent of the coefficient field H.

    With a shared scale, unitary implies contraction exactly:
    lambda_max <= max |lambda| and lambda_min >= -max |lambda|.
    """
    return ContractionCheck(**_first(_contraction(_stack([system]))))


def _first(check: ContractionCheck) -> dict:
    """The first system's entry of each per-system array of a stacked
    check, by field name: a matrix, or a Python scalar."""
    return {name: f.item(0) if f.ndim == 1 else f[0] for name, f in vars(check).items()}


def _contraction(batch) -> ContractionCheck:
    """check_contraction for a _Batch, each test made once for the stack:
    a ContractionCheck whose every field is an array over the systems."""
    p1, p0, wb_tilde = batch.p1, batch.p0, batch.wb_tilde
    n = p1.shape[-1]
    a, b = _wb(p1, wb_tilde)
    # wb Sigma wb* = A B* + B A* for wb = [A B]
    ab = a @ _adjoint(b)
    form = ab + _adjoint(ab)  # Hermitian entry by entry
    (p0_eigs, form_eigs) = eigs = np.linalg.eigvalsh(np.array([hermitian_part(p0), form]))
    p0_norm, form_norm = norms = np.maximum(-eigs[..., 0], eigs[..., -1])
    p0_scale, form_scale = TOL_PSD * np.maximum(1.0, norms)
    rank = rank_of(wb_tilde)
    full = rank == n
    nsd = p0_eigs[:, -1] <= p0_scale
    zero = p0_norm <= p0_scale
    return ContractionCheck(
        contraction=nsd & (form_eigs[:, 0] >= -form_scale) & full,
        unitary_group=zero & (form_norm <= form_scale) & full,
        re_p0_nsd=nsd, re_p0_zero=zero, re_p0_max_eigenvalue=p0_eigs[:, -1], re_p0_norm=p0_norm,
        sigma_form=form, sigma_form_min_eigenvalue=form_eigs[:, 0], sigma_form_norm=form_norm,
        rank_wb_tilde=rank)


def check_unitary(system: PHSystem) -> bool:
    """Re P0 = 0, wb Sigma wb* = 0, and wb_tilde of full rank n."""
    return check_contraction(system).unitary_group


@dataclass(frozen=True, eq=False)
class EigenSplit:
    """Eigen-structure of P1 H(zeta) at one point.

    lam holds the n1 positive eigenvalues in descending order, theta the
    n2 negative ones by descending magnitude (most negative first).  The
    columns of s_inv are the matching unit-norm eigenvectors, positive
    block first, so that P1 H(zeta) s_inv = s_inv diag(lam, theta).
    z_plus / z_minus are orthonormal bases of the two eigenspaces.
    """

    zeta: float
    n1: int
    n2: int
    lam: np.ndarray
    theta: np.ndarray
    s_inv: np.ndarray
    z_plus: np.ndarray
    z_minus: np.ndarray


def _similarity_stack(p1, h, zetas):
    """Eigen-decompose P1 H(zeta) through the Hermitian similarity
    H^(1/2) P1 H^(1/2); h (..., N, n, n) holds H at ``zetas`` for each
    system of a stack, p1 broadcasts against it.  Returns the eigenvalues
    (ascending) and the eigenvectors H^(-1/2) q (not normalized).  Raises a
    ValidationError at the first point, systems first, where H is not
    positive definite or an eigenvalue sits in the zero band (P1 not
    invertible)."""
    w_h, q_h = np.linalg.eigh(hermitian_part(h))
    h_pd = w_h[..., 0] > 0.0
    # any positive stand-in where H is not positive definite
    sq = np.sqrt(np.abs(w_h) + ~h_pd[..., None])[..., None, :]
    q_h_adj = _adjoint(q_h)
    h_sqrt = (q_h * sq) @ q_h_adj
    h_isqrt = (q_h / sq) @ q_h_adj
    w, q = np.linalg.eigh(hermitian_part(h_sqrt @ p1 @ h_sqrt))
    band = TOL_EIG * np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))
    bad = ~h_pd | (np.abs(w) <= band[..., None]).any(axis=-1)
    if bad.any():
        k = bad.argmax()
        zeta = zetas[k % len(zetas)]
        raise ValidationError(
            f"H(zeta={zeta:.6g}) is not positive definite" if not h_pd.flat[k] else
            f"P1 H(zeta={zeta:.6g}) has an eigenvalue within {band.flat[k]:.3e} of zero")
    return w, h_isqrt @ q


def _phase_fix(m: np.ndarray) -> np.ndarray:
    """Rotate each (non-zero) column of each matrix in a stack (..., n, k)
    so that its first non-negligible entry is real positive."""
    mags = np.abs(m)
    first = np.argmax(mags > 1e-12 * mags.max(axis=-2, keepdims=True), axis=-2)[..., None, :]
    return m * (np.conj(np.take_along_axis(m, first, axis=-2))
                / np.take_along_axis(mags, first, axis=-2))


def eigensplit(system: PHSystem, zeta: float) -> EigenSplit:
    """diagonalize_field(system, [zeta]) as an EigenSplit, with one QR for
    an orthonormal basis of each eigenspace.  Raises what diagonalize_field
    raises: DomainError for zeta outside [0, 1], and ValidationError where
    the standing assumptions fail (P1 invertible, H positive definite)."""
    field = diagonalize_field(system, [zeta])
    n1, speeds, vecs = field.n1, field.speeds[0], field.s_inv[0]
    return EigenSplit(
        zeta=float(zeta), n1=n1, n2=system.n - n1, lam=speeds[:n1], theta=speeds[n1:],
        s_inv=vecs, z_plus=_phase_fix(np.linalg.qr(vecs[:, :n1])[0]),
        z_minus=_phase_fix(np.linalg.qr(vecs[:, n1:])[0]))


@dataclass(frozen=True, eq=False)
class DiagonalizedField:
    """Eigen-splits at every grid point, stacked, with phase continuity
    along the grid.

    Row k of ``s_inv`` (N, n, n) and ``speeds`` (N, n) is the eigensplit at
    ``zetas[k]`` (columns: positive block first, n1 of them), each column
    rotated by a unit phase to align it with its predecessor; row k of
    ``h`` (N, n, n) is H(zetas[k]), the values that were diagonalized.
    ``crossings`` lists grid indices where the eigenvector matching between
    neighbouring points is not the identity (eigenvalue curves reorder).
    """

    zetas: np.ndarray
    n1: int
    speeds: np.ndarray
    s_inv: np.ndarray
    crossings: tuple
    h: np.ndarray


def diagonalize_field(system: PHSystem, grid) -> DiagonalizedField:
    """Diagonalize P1 H(zeta) at all grid points at once, through the
    Hermitian similarity H^(1/2) P1 H^(1/2): positive eigenvalues first
    (descending, ties in eigh's order), then the negative ones most negative
    first, each eigenvector normalized, phase fixed and then aligned against
    its predecessor (maximal real inner product); H is evaluated here
    once, and the field keeps it.  Raises DomainError unless
    the grid is a non-empty, strictly increasing 1-D array of points of
    [0, 1] (eval_many checks the range), and the ValidationError of the
    first bad point."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("grid must be strictly increasing")
    h = system.h.eval_many(grid)
    w, vecs = _similarity_stack(system.p1, h, grid)
    # the inertia is that of P1 at every point (Sylvester), and the zero
    # band keeps the signs exact; eigh's order is ascending
    n2 = int(np.count_nonzero(w[0] < 0.0))
    order = np.concatenate(
        [n2 + np.argsort(-w[:, n2:], axis=1, kind="stable"),
         np.broadcast_to(np.arange(n2), (len(w), n2))], axis=1)
    speeds = np.take_along_axis(w, order, axis=1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    vecs = _phase_fix(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))

    # alignment along the grid: with inner_k the overlap of column j at points
    # k-1 and k, point k is rotated by prod_{i<=k} conj(inner_i) / |inner_i|
    overlap = np.conj(np.swapaxes(vecs[:-1], 1, 2)) @ vecs[1:]
    n = system.n
    crossings = tuple(int(k) + 1 for k in np.flatnonzero(
        np.any(np.argmax(np.abs(overlap), axis=1) != np.arange(n), axis=1)))
    inner = np.diagonal(overlap, axis1=1, axis2=2)
    size = np.abs(inner)
    step = np.ones_like(inner)
    np.divide(np.conj(inner), size, out=step, where=size > 0.0)
    phase = np.cumprod(np.concatenate([np.ones((1, n), dtype=complex), step]), axis=0)
    vecs *= phase[:, None, :]
    return DiagonalizedField(zetas=grid, n1=n - n2, speeds=speeds, s_inv=vecs,
                             crossings=crossings, h=h)


@dataclass(frozen=True, eq=False)
class BoundaryClosure:
    """Endpoint blocks of the boundary condition in Riemann coordinates.

    With wb_tilde = [W1 W0] split in half and S^-1 from the endpoint
    eigen-splits, W1 H(1) S^-1(1) = [V1 V2] and W0 H(0) S^-1(0) = [U1 U2]
    are split at column n1.  The closure matrix k = [V1 U2] multiplies the
    incoming traces (g+ at z = 1, g- at z = 0); q = [U1 V2] multiplies the
    outgoing ones.
    """

    k: np.ndarray
    q: np.ndarray


# The two endpoints, z = 1 first: the order in which they are checked.
_ENDS = (1.0, 0.0)


def boundary_closure_matrix(system: PHSystem, field: DiagonalizedField) -> BoundaryClosure:
    """Assemble the boundary closure blocks from H and the eigenvectors
    at z = 1 and z = 0: the last and first points of ``field``, whose grid
    must run from 0 to 1."""
    if field.zetas[0] != 0.0 or field.zetas[-1] != 1.0:
        raise DomainError("the field's grid must start at 0 and end at 1")
    n, n1 = system.n, field.n1
    v = system.wb_tilde[:, :n] @ field.h[-1] @ field.s_inv[-1]
    u = system.wb_tilde[:, n:] @ field.h[0] @ field.s_inv[0]
    return BoundaryClosure(k=np.hstack([v[:, :n1], u[:, n1:]]),
                           q=np.hstack([u[:, :n1], v[:, n1:]]))


def _inapplicable(rank: int, n: int) -> str:
    return f"rank(wb_tilde) = {rank} != n = {n}: generation test inapplicable"


def _direct_sums(batch):
    """direct_sum_check for every system of a _Batch, from one decomposition
    of both ends of all of them; the verdict means something only where
    rank(wb_tilde) = n.  eigh sorts ascending: Z+(1) is spanned by the last
    n1 columns at z = 1 and Z-(0) by the first n2 at z = 0, so with the
    columns at z = 1 reversed the leading columns of one QR are orthonormal
    bases of both; K's singular values do not depend on the basis within
    each block.  Returns (ok, smin, K) as arrays over the systems; raises
    the ValidationError of the first refused end, systems first."""
    p1, wb_tilde = batch.p1, batch.wb_tilde
    n = p1.shape[-1]
    h = _eval_fields(batch, _ENDS)
    w, vecs = _similarity_stack(p1[:, None], h, _ENDS)
    b = np.linalg.qr(np.array([vecs[:, 0, :, ::-1], vecs[:, 1]]))[0]
    # W1 H(1) B(1) and W0 H(0) B(0) for every system, each (count, n, n)
    v, u = wb_tilde.reshape(-1, n, 2, n).transpose(2, 0, 1, 3) @ h.swapaxes(0, 1) @ b
    # K: column j < n1 from V, column j >= n1 the column n - 1 - j of U, one of
    # its first n2 (B- taken backwards)
    n1 = n - (w[:, 0] < 0.0).sum(axis=-1)
    k = np.where(np.arange(n) < n1[:, None, None], v, u[..., ::-1])
    svals = np.linalg.svd(k, compute_uv=False)
    ok = (svals[:, 0] > 0.0) & (svals[:, -1] >= TOL_RANK * svals[:, 0])
    return ok, svals[:, -1], k


def direct_sum_check(system: PHSystem) -> tuple[bool, float, np.ndarray]:
    """C0-generation test: do W1 H(1) Z+(1) and W0 H(0) Z-(0) together span C^n?

    Returns (verdict, smallest singular value of K, K) where
    K = [W1 H(1) B+ | W0 H(0) B-] for orthonormal bases B+ and B-, which fix
    K up to a unitary within each block and its singular values exactly.
    Raises PreconditionError when rank(wb_tilde) < n: the test does not apply.
    """
    rank = rank_of(system.wb_tilde)
    if rank != system.n:
        raise PreconditionError(_inapplicable(rank, system.n))
    ok, smin, k = _direct_sums(_stack([system]))
    return bool(ok[0]), float(smin[0]), k[0]


@dataclass(frozen=True, eq=False)
class Verdict(ContractionCheck):
    """Classification record: the contraction check of the system plus the
    generation test and its witness.

    c0_semigroup is None when rank(wb_tilde) < n, where the generation test
    has nothing to say (the contraction test still decides: rank < n means
    no contraction).
    """

    n: int
    c0_semigroup: bool | None
    direct_sum_min_singular_value: float | None
    notes: tuple

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "rank_wb_tilde": self.rank_wb_tilde,
            "re_p0": {
                "nsd": self.re_p0_nsd,
                "zero": self.re_p0_zero,
                "max_eigenvalue": self.re_p0_max_eigenvalue,
                "norm": self.re_p0_norm,
            },
            "sigma_form": {
                "min_eigenvalue": self.sigma_form_min_eigenvalue,
                "norm": self.sigma_form_norm,
                "matrix": matrix_to_pairs(self.sigma_form),
            },
            "contraction": self.contraction,
            "unitary_group": self.unitary_group,
            "c0_semigroup": self.c0_semigroup,
            "direct_sum_min_singular_value": self.direct_sum_min_singular_value,
            "notes": list(self.notes),
        }


def classify(system: PHSystem) -> Verdict:
    """Run all three tests and assemble a Verdict.

    The verdicts are nested (unitary implies contraction implies
    C0-semigroup).  Unitary implies contraction by construction; when
    contraction holds but the direct-sum test fails, which would take two
    independent routes to disagree, c0_semigroup is coerced to True and
    the inconsistency is flagged in notes.
    """
    check, c0, smin, coerced = _classify_stack(_stack([system]))
    check, n = _first(check), system.n
    full = check["rank_wb_tilde"] == n
    notes = [] if full else [f"inconclusive-C0: {_inapplicable(check['rank_wb_tilde'], n)}"]
    if coerced[0]:
        notes.append("InternalInconsistency: contraction holds but direct-sum test failed; "
                     "coerced c0_semigroup to True")
    if system.h.kind == "grid":
        notes.append("coefficient field is sampled: smoothness assumption of the generation "
                     "test is not verifiable; its verdict uses endpoint data only")
    return Verdict(**check, n=n, c0_semigroup=c0.item(0) if full else None,
                   direct_sum_min_singular_value=smin.item(0) if full else None,
                   notes=tuple(notes))


def _classify_stack(batch) -> tuple:
    """classify for a _Batch, each test made once for the stack.  Returns
    the stacked ContractionCheck of _contraction and, as arrays over the
    systems, c0_semigroup, the direct sum's smallest singular value and the
    mask of coerced c0 verdicts.  The direct-sum test runs on every system,
    as one stack: c0 and smin mean something only where rank(wb_tilde) = n,
    which contraction implies.  Raises the ValidationError of the first
    system that classify refuses, as classify raises it."""
    check = _contraction(batch)
    ok, smin, _ = _direct_sums(batch)
    return check, ok | check.contraction, smin, check.contraction & ~ok
