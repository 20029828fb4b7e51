"""Independent brute-force cross-checks for the classifier.

The contraction test has an equivalent formulation directly on the
boundary traces: with u = (Hx)(1) and y = (Hx)(0), the operator is
dissipative iff Re P0 <= 0 and

    u* P1 u - y* P1 y <= 0      for every [u; y] in ker(wb_tilde).

This module evaluates that quadratic form exhaustively, by restricting
the Hermitian matrix diag(P1, -P1) to an orthonormal kernel basis and
reading off extreme eigenvalues.  It shares no code path with the
sigma-form test in :mod:`phs.classifier`, which is the point: agreement
between the two on randomized instances is the main correctness evidence.

Also provided: reproducible random system generation with verdict-class
hints, and the agreement campaign used by the CLI and the acceptance
suite.
"""

from __future__ import annotations

import numpy as np

from .classifier import TOL_PSD, TOL_RANK, _scaled, classify
from .errors import InvariantError
from .model import CoefficientField, PHSystem, hermitian_part, make_system


def kernel_basis(m: np.ndarray, tol_rank: float = TOL_RANK) -> np.ndarray:
    """Orthonormal basis of ker(m) as the columns of a (cols x k) matrix,
    by SVD thresholding; k = cols - rank."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    _, svals, vh = np.linalg.svd(m)
    if svals.size and svals[0] > 0.0:
        rank = int(np.count_nonzero(svals >= tol_rank * svals[0]))
    else:
        rank = 0
    return vh[rank:].conj().T


def _restricted_form(system: PHSystem, tol_rank: float = TOL_RANK) -> np.ndarray:
    """The Hermitian form diag(P1, -P1) restricted to ker(wb_tilde); its
    order is the kernel dimension."""
    basis = kernel_basis(system.wb_tilde, tol_rank)
    n = system.n
    zero = np.zeros((n, n))
    big = np.block([[system.p1, zero], [zero, -system.p1]])
    return hermitian_part(basis.conj().T @ big @ basis)


def _norm(eigs: np.ndarray) -> float:
    """2-norm of a Hermitian matrix from its eigenvalues (0 when empty)."""
    return float(np.abs(eigs).max(initial=0.0))


def boundary_form_on_kernel(
    system: PHSystem, tol_rank: float = TOL_RANK
) -> tuple[float, float]:
    """Extreme values of u* P1 u - y* P1 y over unit vectors [u; y] in
    ker(wb_tilde); returns (max, min) eigenvalues of the restricted form."""
    form = _restricted_form(system, tol_rank)
    if form.shape[0] == 0:
        return 0.0, 0.0
    w = np.linalg.eigvalsh(form)
    return float(w[-1]), float(w[0])


def _contraction_from_form(system: PHSystem, form_eigs: np.ndarray, tol_psd: float) -> bool:
    """Contraction decided from the eigenvalues of the kernel form (one per
    kernel dimension, ascending): Re P0 <= 0 and the form non-positive."""
    p0_eigs = np.linalg.eigvalsh(hermitian_part(system.p0))
    if p0_eigs[-1] > _scaled(tol_psd, _norm(p0_eigs)):
        return False
    holds = (form_eigs[-1] if form_eigs.size else 0.0) <= _scaled(tol_psd, _norm(form_eigs))
    if holds and form_eigs.size != system.n:
        raise InvariantError(
            f"kernel dimension {form_eigs.size} != n = {system.n} although the "
            "boundary form is non-positive on the kernel"
        )
    return bool(holds)


def check_contraction_via_c(system: PHSystem, tol_psd: float = TOL_PSD) -> bool:
    """Contraction via the kernel form: Re P0 <= 0 and the boundary form
    non-positive on ker(wb_tilde).

    The rank condition is not part of this formulation; it is implied.
    When the form is non-positive on the kernel, the kernel dimension can
    be at most n (diag(P1, -P1) has n positive eigenvalues), hence exactly
    n.  That implication is checked on every passing instance, and its
    failure raises InvariantError.
    """
    return _contraction_from_form(system, np.linalg.eigvalsh(_restricted_form(system)), tol_psd)


# ---------------------------------------------------------------------------
# Randomized instances
# ---------------------------------------------------------------------------

def _crandn(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _random_hermitian_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    g = hermitian_part(_crandn(rng, (n, n)))
    w, q = np.linalg.eigh(g)
    w = np.where(w >= 0.0, w + 0.5, w - 0.5)  # push eigenvalues off zero
    return hermitian_part((q * w) @ q.conj().T)


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_crandn(rng, (n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    return _random_unitary(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n)) @ _random_unitary(rng, n)


def _random_field(rng: np.random.Generator, n: int) -> CoefficientField:
    base = _crandn(rng, (n, n))
    h0 = hermitian_part(base @ base.conj().T) + 0.3 * np.eye(n)
    if rng.random() < 0.5:
        return CoefficientField.constant(h0)
    # affine field h0 + zeta * (positive semidefinite slope): positive on [0,1]
    slope = _crandn(rng, (n, n))
    h1 = hermitian_part(slope @ slope.conj().T)
    coeffs = np.stack([h0, h1], axis=2)
    return CoefficientField.polynomial(coeffs)


def random_system(seed: int, n: int, class_hint: str = "general") -> PHSystem:
    """Reproducible random system; same seed, same system.

    class_hint steers the construction:
      * "unitary":     wb built from wb = G [I+V, I-V] with V unitary
                       (then wb Sigma wb* = 2 G (I - V V*) G* = 0) and
                       P0 skew-Hermitian;
      * "contraction": same with ||V|| <= 1 and Re P0 <= 0;
      * "general":     dense random wb_tilde and unrestricted P0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if class_hint not in ("general", "contraction", "unitary"):
        raise ValueError(f"unknown class_hint {class_hint!r}")
    rng = np.random.default_rng(seed)
    p1 = _random_hermitian_invertible(rng, n)
    h = _random_field(rng, n)
    eye = np.eye(n)

    skew = (lambda m: (m - m.conj().T) / 2.0)(_crandn(rng, (n, n)))
    if class_hint == "unitary":
        p0 = skew
        v = _random_unitary(rng, n)
    elif class_hint == "contraction":
        c = _crandn(rng, (n, n))
        p0 = skew - c @ c.conj().T
        v = _crandn(rng, (n, n))
        v *= rng.uniform(0.2, 0.999) / np.linalg.norm(v, 2)
    else:
        p0 = _crandn(rng, (n, n))
        wb_tilde = _crandn(rng, (n, 2 * n))
        return make_system(p1, p0, h, wb_tilde)

    g = _random_well_conditioned(rng, n)
    wb = g @ np.hstack([eye + v, eye - v])
    wb_tilde = wb @ np.block([[p1, -p1], [eye, eye]])
    return make_system(p1, p0, h, wb_tilde)


def agreement_campaign(
    n: int,
    count: int,
    seed: int,
    tol_psd: float = TOL_PSD,
    hint_weights: tuple[float, float, float] = (0.57, 0.40, 0.03),
) -> dict:
    """Compare the sigma-form contraction test against the kernel-form oracle
    on ``count`` random systems of dimension ``n``.

    Instances whose decisive witness lies within 10 * tol_psd of zero are
    "frontier" cases: logged and excluded from the strict comparison (the
    discrete verdict is not meaningful that close to the boundary).  The
    unitary hint weight is kept small because those instances sit exactly
    on the frontier by construction.

    Returns a JSON-ready report including full-verdict counts and the
    number of verdict-monotonicity violations (expected 0).
    """
    w_general, w_contraction, _ = hint_weights
    draws = np.random.default_rng(seed).random(count)
    agree = disagree = frontier = 0
    mismatches: list[int] = []
    mono_violations = 0
    verdict_counts = {
        "unitary": 0,
        "contraction": 0,
        "c0_true": 0,
        "c0_false": 0,
        "c0_inconclusive": 0,
    }
    for i in range(count):
        if draws[i] < w_general:
            hint = "general"
        elif draws[i] < w_general + w_contraction:
            hint = "contraction"
        else:
            hint = "unitary"
        system = random_system(seed + i, n, hint)

        verdict = classify(system, tol_psd)
        form = _restricted_form(system)
        if form.shape[0] != 2 * n - verdict.rank_wb_tilde:
            raise InvariantError(
                f"kernel dimension law violated: dim ker(wb_tilde) = {form.shape[0]}, "
                f"2n - rank = {2 * n - verdict.rank_wb_tilde}"
            )
        # dim ker(wb_tilde) = 2n - rank >= n: the form is never empty here
        form_eigs = np.linalg.eigvalsh(form)
        oracle_ok = _contraction_from_form(system, form_eigs, tol_psd)
        witnesses = (
            (verdict.re_p0_max_eigenvalue, verdict.re_p0_norm),
            (verdict.sigma_form_min_eigenvalue, verdict.sigma_form_norm),
            (form_eigs[-1], _norm(form_eigs)),
        )
        is_frontier = any(abs(w) <= _scaled(10.0 * tol_psd, norm) for w, norm in witnesses)
        if is_frontier:
            frontier += 1
        elif verdict.contraction == oracle_ok:
            agree += 1
        else:
            disagree += 1
            mismatches.append(i)

        verdict_counts["unitary"] += verdict.unitary_group
        verdict_counts["contraction"] += verdict.contraction
        if verdict.c0_semigroup is None:
            verdict_counts["c0_inconclusive"] += 1
        elif verdict.c0_semigroup:
            verdict_counts["c0_true"] += 1
        else:
            verdict_counts["c0_false"] += 1
        # classify() coerces inconsistent triples and leaves a note, so the
        # raw violations are counted through the notes
        mono_violations += sum("InternalInconsistency" in note for note in verdict.notes)

    return {
        "n": n,
        "count": count,
        "seed": seed,
        "agree": agree,
        "disagree": disagree,
        "frontier": frontier,
        "frontier_fraction": frontier / count if count else 0.0,
        "mismatch_indices": mismatches,
        "verdicts": verdict_counts,
        "monotonicity_violations": mono_violations,
    }
