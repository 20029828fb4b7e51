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

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ContinuityWarning,
    DomainError,
    PreconditionError,
    ValidationError,
)
from .model import PHSystem, _adjoint, hermitian_part

# Frontier tolerance for semidefiniteness tests, relative to max(1, ||M||).
TOL_PSD = 1e-9
# Numerical rank: singular values below TOL_RANK * sigma_max count as zero.
TOL_RANK = 1e-10
# Zero band for eigenvalue sign counting, relative to max(1, max |eig|).
TOL_EIG = 1e-9


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


def rank_of(m: np.ndarray, tol_rank: float = TOL_RANK):
    """Numerical rank: number of singular values >= tol_rank * sigma_max;
    an int array of ranks for a stack (..., rows, cols)."""
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0 if m.ndim == 2 else np.zeros(m.shape[:-2], dtype=int)
    svals = np.linalg.svd(m, compute_uv=False)
    top = svals[..., :1]
    rank = ((svals >= tol_rank * top) & (top > 0.0)).sum(axis=-1)
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


def check_contraction(
    system: PHSystem, tol_psd: float = TOL_PSD, tol_rank: float = TOL_RANK
) -> ContractionCheck:
    """Contraction: Re P0 negative semidefinite, wb Sigma wb* positive
    semidefinite and wb_tilde of full rank n.  Unitary group: the same with
    both forms zero.  Independent of the coefficient field H.

    With a shared scale, unitary implies contraction exactly:
    lambda_max <= max |lambda| and lambda_min >= -max |lambda|.
    """
    return ContractionCheck(*(field[0] for field in _contraction(
        system.p1[None], system.p0[None], system.wb_tilde[None], tol_psd, tol_rank)))


def _contraction(p1, p0, wb_tilde, tol_psd: float, tol_rank: float) -> tuple:
    """check_contraction for a stack: p1, p0 (B, n, n), wb_tilde (B, n, 2n).
    Returns the ContractionCheck fields in order, each a list over the stack."""
    n = p1.shape[-1]
    a, b = _wb(p1, wb_tilde)
    # wb Sigma wb* = A B* + B A* for wb = [A B]
    ab = a @ _adjoint(b)
    form = ab + _adjoint(ab)  # Hermitian entry by entry
    (p0_eigs, form_eigs) = eigs = np.linalg.eigvalsh(np.array([hermitian_part(p0), form]))
    p0_norm, form_norm = norms = np.maximum(-eigs[..., 0], eigs[..., -1])
    p0_scale, form_scale = tol_psd * np.maximum(1.0, norms)
    rank = rank_of(wb_tilde, tol_rank)
    full = rank == n
    nsd = p0_eigs[:, -1] <= p0_scale
    zero = p0_norm <= p0_scale
    return ((nsd & (form_eigs[:, 0] >= -form_scale) & full).tolist(),
            (zero & (form_norm <= form_scale) & full).tolist(),
            nsd.tolist(), zero.tolist(), p0_eigs[:, -1].tolist(), p0_norm.tolist(),
            list(form), form_eigs[:, 0].tolist(), form_norm.tolist(), rank.tolist())


def check_unitary(
    system: PHSystem, tol_psd: float = TOL_PSD, tol_rank: float = TOL_RANK
) -> bool:
    """Re P0 = 0, wb Sigma wb* = 0, and wb_tilde of full rank n."""
    return check_contraction(system, tol_psd, tol_rank).unitary_group


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

    @property
    def speeds(self) -> np.ndarray:
        """Diagonal of the transport matrix: lam followed by theta."""
        return np.concatenate([self.lam, self.theta])


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


def _ordered_split(w: np.ndarray, vecs: np.ndarray):
    """Put each point's eigenpairs from _similarity_stack positive block first
    (descending, ties in eigh's order), then the n2 negative ones most
    negative first (eigh's ascending order), and normalize and phase fix
    the columns; returns (n2, speeds, vecs).  The inertia is that of P1 at
    every point (Sylvester), and the zero band keeps the signs exact."""
    n2 = int(np.count_nonzero(w[0] < 0.0))
    order = np.concatenate(
        [n2 + np.argsort(-w[:, n2:], axis=1, kind="stable"),
         np.broadcast_to(np.arange(n2), (len(w), n2))], axis=1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return n2, np.take_along_axis(w, order, axis=1), _phase_fix(vecs)


def eigensplit(system: PHSystem, zeta: float) -> EigenSplit:
    """Diagonalize P1 H(zeta) through the Hermitian similarity
    H^(1/2) P1 H^(1/2) and split eigenvectors by eigenvalue sign.

    Raises ValidationError if H(zeta) is not positive definite or an
    eigenvalue sits in the zero band, which violates the standing
    assumptions (P1 invertible, H positive definite).
    """
    if not 0.0 <= zeta <= 1.0:
        raise DomainError(f"zeta = {zeta!r} outside [0, 1]")
    w, vecs = _similarity_stack(system.p1, system.h.eval_many([zeta]), [zeta])
    n2, speeds, vecs = _ordered_split(w, vecs)
    n1 = system.n - n2
    return EigenSplit(
        zeta=float(zeta), n1=n1, n2=n2, lam=speeds[0, :n1], theta=speeds[0, n1:],
        s_inv=vecs[0],
        z_plus=_phase_fix(np.linalg.qr(vecs[0, :, :n1])[0]),
        z_minus=_phase_fix(np.linalg.qr(vecs[0, :, n1:])[0]),
    )


@dataclass(frozen=True, eq=False)
class DiagonalizedField:
    """Eigen-splits at every grid point, stacked, with phase continuity
    along the grid.

    Row k of ``s_inv`` (N, n, n) and ``speeds`` (N, n) is the eigensplit at
    ``zetas[k]`` (columns: positive block first, n1 of them), each column
    rotated by a unit phase to align it with its predecessor.
    ``crossings`` lists grid indices where the eigenvector matching between
    neighbouring points is not the identity (eigenvalue curves reorder);
    ``max_column_jump`` is the largest Euclidean change of any aligned
    eigenvector column between neighbours.
    """

    zetas: np.ndarray
    n1: int
    speeds: np.ndarray
    s_inv: np.ndarray
    crossings: tuple
    max_column_jump: float


def diagonalize_field(system: PHSystem, grid) -> DiagonalizedField:
    """Eigensplit at every grid point, with each eigenvector column phase
    aligned against its predecessor (maximal real inner product).

    All points are diagonalized at once, with eigensplit's ordering and
    phase fix.  Raises the ValidationError eigensplit raises at the first
    bad point.  A ContinuityWarning is emitted when columns reorder between
    neighbouring points: the smooth diagonalizability assumed by the
    generation test is then in doubt.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("grid must be a non-empty 1-D array")
    if np.any(grid < 0.0) or np.any(grid > 1.0):
        raise DomainError("grid points must lie in [0, 1]")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("grid must be strictly increasing")
    w, vecs = _similarity_stack(system.p1, system.h.eval_many(grid), grid)
    n2, speeds, vecs = _ordered_split(w, vecs)

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
    max_jump = float(np.linalg.norm(np.diff(vecs, axis=0), axis=1).max(initial=0.0))

    if crossings:
        warnings.warn(
            f"eigenvalue ordering changes along the grid at indices {list(crossings)}; "
            "the diagonalizing transform may fail to be continuously differentiable",
            ContinuityWarning,
            stacklevel=2,
        )
    return DiagonalizedField(
        zetas=grid, n1=n - n2, speeds=speeds, s_inv=vecs,
        crossings=crossings, max_column_jump=max_jump,
    )


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
    """Assemble the boundary closure blocks from the eigenvectors at z = 1
    and z = 0: the last and first points of ``field``, whose grid must run
    from 0 to 1."""
    if field.zetas[0] != 0.0 or field.zetas[-1] != 1.0:
        raise DomainError("the field's grid must start at 0 and end at 1")
    n, n1 = system.n, field.n1
    h1, h0 = system.h.eval_many(_ENDS)
    v = system.wb_tilde[:, :n] @ h1 @ field.s_inv[-1]
    u = system.wb_tilde[:, n:] @ h0 @ field.s_inv[0]
    return BoundaryClosure(k=np.hstack([v[:, :n1], u[:, n1:]]),
                           q=np.hstack([u[:, :n1], v[:, n1:]]))


def _inapplicable(rank: int, n: int) -> str:
    return f"rank(wb_tilde) = {rank} != n = {n}: generation test inapplicable"


def _direct_sums(systems, p1, wb_tilde, tol_rank: float):
    """direct_sum_check for systems of one n with rank(wb_tilde) = n, from
    one decomposition of both ends of all of them.  eigh sorts ascending:
    Z+(1) is spanned by the last n1 columns at z = 1 and Z-(0) by the first
    n2 at z = 0, so with the columns at z = 1 reversed the leading columns
    of one QR are orthonormal bases of both; K's singular values do not
    depend on the basis within each block.  Returns (ok, smin, K); raises
    the ValidationError of the first refused end, systems first."""
    n = p1.shape[-1]
    h = np.array([system.h.eval_many(_ENDS) for system in systems])
    w, vecs = _similarity_stack(p1[:, None], h, _ENDS)
    b = np.linalg.qr(np.array([vecs[:, 0, :, ::-1], vecs[:, 1]]))[0]
    # W1 H(1) B(1) and W0 H(0) B(0) for every system, each (count, n, n)
    v, u = wb_tilde.reshape(-1, n, 2, n).transpose(2, 0, 1, 3) @ h.swapaxes(0, 1) @ b
    # K: column j < n1 from V, column j >= n1 the column n - 1 - j of U, one of
    # its first n2 (B- taken backwards)
    n1 = n - (w[:, 0] < 0.0).sum(axis=-1)
    k = np.where(np.arange(n) < n1[:, None, None], v, u[..., ::-1])
    svals = np.linalg.svd(k, compute_uv=False)
    ok = (svals[:, 0] > 0.0) & (svals[:, -1] >= tol_rank * svals[:, 0])
    return ok.tolist(), svals[:, -1].tolist(), k


def direct_sum_check(
    system: PHSystem, tol_rank: float = TOL_RANK
) -> tuple[bool, float, np.ndarray]:
    """C0-generation test: do W1 H(1) Z+(1) and W0 H(0) Z-(0) together span C^n?

    Returns (verdict, smallest singular value of K, K) where
    K = [W1 H(1) B+ | W0 H(0) B-] for orthonormal bases B+ and B-, which fix
    K up to a unitary within each block and its singular values exactly.
    Raises PreconditionError when rank(wb_tilde) < n: the test does not apply.
    """
    rank = rank_of(system.wb_tilde, tol_rank)
    if rank != system.n:
        raise PreconditionError(_inapplicable(rank, system.n))
    ok, smin, k = _direct_sums([system], system.p1[None], system.wb_tilde[None], tol_rank)
    return ok[0], smin[0], k[0]


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

    def as_dict(self, include_matrices: bool = True) -> dict:
        from .model import matrix_to_pairs

        out = {
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
            },
            "contraction": self.contraction,
            "unitary_group": self.unitary_group,
            "c0_semigroup": self.c0_semigroup,
            "direct_sum_min_singular_value": self.direct_sum_min_singular_value,
            "notes": list(self.notes),
        }
        if include_matrices:
            out["sigma_form"]["matrix"] = matrix_to_pairs(self.sigma_form)
        return out


def classify(
    system: PHSystem,
    tol_psd: float = TOL_PSD,
    tol_rank: float = TOL_RANK,
    diagnostic_grid: int | None = None,
) -> Verdict:
    """Run all three tests and assemble a Verdict.

    The verdicts are nested (unitary implies contraction implies
    C0-semigroup).  Unitary implies contraction by construction; when
    contraction holds but the direct-sum test fails, which would take two
    independent routes to disagree, c0_semigroup is coerced to True and
    the inconsistency is flagged in notes.  ``diagnostic_grid``, when set,
    additionally diagonalizes the field on that many points and records an
    eigenvalue-crossing note.
    """
    (verdict,) = _classify_stack([system], system.p1[None], system.p0[None],
                                 system.wb_tilde[None], tol_psd, tol_rank)
    if diagnostic_grid:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ContinuityWarning)
            dfield = diagonalize_field(system, np.linspace(0.0, 1.0, diagnostic_grid))
        if dfield.crossings:
            verdict = replace(verdict, notes=verdict.notes + (
                f"eigenvalue crossing on diagnostic grid at indices {list(dfield.crossings)} "
                f"(max column jump {dfield.max_column_jump:.3e})",))
    return verdict


def _classify_stack(systems, p1, p0, wb_tilde, tol_psd: float, tol_rank: float):
    """classify, without a diagnostic grid, for systems of one n, with their
    matrices stacked, each test made once for the stack.  Returns the
    verdicts; raises the ValidationError of the first system that classify
    refuses, as classify raises it."""
    n = p1.shape[-1]
    fields = _contraction(p1, p0, wb_tilde, tol_psd, tol_rank)
    contraction, rank = fields[0], fields[-1]
    full = [i for i, r in enumerate(rank) if r == n]
    c0, smin = [None] * len(systems), [None] * len(systems)
    if full:
        ok, svals, _ = _direct_sums([systems[i] for i in full], p1[full], wb_tilde[full], tol_rank)
        for i, ok_i, smin_i in zip(full, ok, svals):
            c0[i], smin[i] = ok_i, smin_i

    verdicts = []
    for i, (system, check) in enumerate(zip(systems, zip(*fields))):
        notes = []
        if c0[i] is None:
            notes.append(f"inconclusive-C0: {_inapplicable(rank[i], n)}")
        if contraction[i] and c0[i] is False:
            notes.append("InternalInconsistency: contraction holds but direct-sum test failed; "
                         "coerced c0_semigroup to True")
            c0[i] = True
        if system.h.kind == "grid":
            notes.append("coefficient field is sampled: smoothness assumption of the generation "
                         "test is not verifiable; its verdict uses endpoint data only")
        verdicts.append(Verdict(*check, n, c0[i], smin[i], tuple(notes)))
    return verdicts
