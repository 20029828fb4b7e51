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

from .classifier import TOL_PSD, TOL_RANK, _classify_stack
from .errors import DomainError, InvariantError, PHSError, _at_least
from .model import (
    CoefficientField, PHSystem, _adjoint, _stacked, _validate, hermitian_part)

# Systems per stacked batch of agreement_campaign: bounds its memory.
CAMPAIGN_BATCH = 100


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(m) as the columns of a (cols x k) matrix,
    by SVD thresholding; k = cols - rank."""
    ((_, bases),) = _kernel_bases(np.atleast_2d(np.asarray(m, dtype=complex))[None])
    return bases[0]


def _kernel_bases(m: np.ndarray) -> list:
    """kernel_basis for a stack m (B, rows, cols) by one SVD: one pair
    (indices, bases (len, cols, k)) per kernel dimension k."""
    _, svals, vh = np.linalg.svd(m)
    top = svals[..., :1]
    dims = m.shape[-1] - ((svals >= TOL_RANK * top) & (top > 0.0)).sum(axis=-1)
    basis = _adjoint(vh)
    return [(idx, basis[idx, :, basis.shape[-1] - k:])
            for k in sorted(set(dims.tolist())) for idx in (dims == k).nonzero()]


def _kernel_test(systems):
    """Contraction for systems of one n as stacks: Re P0 <= 0 and the form
    diag(P1, -P1) restricted to ker(wb_tilde) non-positive.  Returns per
    system the kernel dimension, the form's largest and smallest eigenvalue
    (0 if empty) and the verdict."""
    p1, p0, wb_tilde = _stacked(systems)
    count, n = p1.shape[:2]
    big = np.zeros((count, 2 * n, 2 * n), dtype=complex)
    big[:, :n, :n] = p1
    big[:, n:, n:] = -p1
    dim, top, bottom = np.zeros(count, dtype=int), np.zeros(count), np.zeros(count)
    for idx, basis in _kernel_bases(wb_tilde):
        eigs = np.linalg.eigvalsh(hermitian_part(_adjoint(basis) @ big[idx] @ basis))
        dim[idx] = eigs.shape[1]
        if eigs.size:
            top[idx], bottom[idx] = eigs[:, -1], eigs[:, 0]
    p0_eigs = np.linalg.eigvalsh(hermitian_part(p0))
    p0_nsd = p0_eigs[:, -1] <= TOL_PSD * np.maximum(1.0, np.abs(p0_eigs).max(axis=1))
    return dim, top, bottom, p0_nsd & (top <= TOL_PSD * np.maximum(1.0, np.maximum(top, -bottom)))


def _dimension_error(dim: int, n: int) -> InvariantError:
    """When the form is non-positive on the kernel, its dimension is n."""
    return InvariantError(f"kernel dimension {dim} != n = {n} although the "
                          "boundary form is non-positive on the kernel")


def boundary_form_on_kernel(system: PHSystem) -> tuple[float, float]:
    """Extreme values of u* P1 u - y* P1 y over unit vectors [u; y] in
    ker(wb_tilde); returns (max, min) eigenvalues of the restricted form."""
    _, (top,), (bottom,), _ = _kernel_test([system])
    return float(top), float(bottom)


def check_contraction_via_c(system: PHSystem) -> bool:
    """Contraction via the kernel form: Re P0 <= 0 and the boundary form
    non-positive on ker(wb_tilde).

    The rank condition is not part of this formulation; it is implied.
    When the form is non-positive on the kernel, the kernel dimension can
    be at most n (diag(P1, -P1) has n positive eigenvalues), hence exactly
    n.  That implication is checked on every passing instance, and its
    failure raises InvariantError.
    """
    (dim,), _, _, (holds,) = _kernel_test([system])
    if holds and dim != system.n:
        raise _dimension_error(dim, system.n)
    return bool(holds)


# ---------------------------------------------------------------------------
# Randomized instances
# ---------------------------------------------------------------------------

def _draws(seed: int, n: int, hint: str) -> dict:
    """The draws of random_system(seed, n, hint) in its order: per complex
    matrix its real and imaginary parts (2, n, cols)."""
    rng = np.random.default_rng(seed)
    d: dict = {}

    def normals(*keys, cols=n):
        d.update(zip(keys, rng.standard_normal((len(keys), 2, n, cols))))

    normals("p1", "base")
    h_keys = ("slope", "skew") if rng.random() >= 0.5 else ("skew",)
    if hint == "general":
        normals(*h_keys, "p0")
        normals("wb_tilde", cols=2 * n)
        return d
    if hint == "unitary":
        normals(*h_keys, "v", "g_left")
    else:
        normals(*h_keys, "c", "v")
        d["v_norm"] = rng.uniform(0.2, 0.999)
        normals("g_left")
    d["g_sing"] = rng.uniform(0.5, 2.0, n)
    normals("g_right")
    return d


def _unitary(z: np.ndarray) -> np.ndarray:
    """The Q of each QR in a stack, columns rotated to make diag(R) > 0."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _random_systems(seeds, n: int, hints) -> list:
    """The systems of random_system for each (seed, hint), not validated,
    the linear algebra done on stacks.  Their matrices and field data are
    views into the batch's read-only stacks."""
    _at_least("n", n, 1)
    draws = [_draws(seed, n, hint) for seed, hint in zip(seeds, hints)]

    def stack(key, group):  # complex standard normal for matrix draws
        z = np.array([draws[i][key] for i in group])
        return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0) if z.ndim == 4 else z

    count = len(draws)
    everyone = range(count)
    eye = np.eye(n)
    # P1: a random Hermitian matrix with its eigenvalues pushed off zero
    w, q = np.linalg.eigh(hermitian_part(stack("p1", everyone)))
    w = np.where(w >= 0.0, w + 0.5, w - 0.5)
    p1 = hermitian_part((q * w[:, None, :]) @ _adjoint(q))
    # H: a constant h0 or the affine h0 + zeta * (positive semidefinite slope)
    base = stack("base", everyone)
    h0 = hermitian_part(base @ _adjoint(base)) + 0.3 * eye
    affine = [i for i in everyone if "slope" in draws[i]]
    coeffs = np.empty((len(affine), n, n, 2), dtype=complex)
    if affine:
        slope = stack("slope", affine)
        coeffs[..., 0], coeffs[..., 1] = h0[affine], hermitian_part(slope @ _adjoint(slope))
    general, unitary, contraction = ([i for i in everyone if hints[i] == hint]
                                     for hint in ("general", "unitary", "contraction"))
    p0 = np.empty((count, n, n), dtype=complex)
    wb_tilde = np.empty((count, n, 2 * n), dtype=complex)
    if general:
        p0[general], wb_tilde[general] = stack("p0", general), stack("wb_tilde", general)
    bounded, u = unitary + contraction, len(unitary)
    if bounded:
        # P0 skew-Hermitian, or skew - C C* for a contraction; wb = G [I+V, I-V]
        # with V unitary, or ||V|| <= 1 for a contraction
        skew = stack("skew", bounded)
        p0_b = (skew - _adjoint(skew)) / 2.0
        v, nb = stack("v", bounded), len(bounded)
        # one QR for both unitary factors of G and the unitary V
        q = _unitary(np.concatenate([stack("g_left", bounded), stack("g_right", bounded), v[:u]]))
        g, v[:u] = (q[:nb] * stack("g_sing", bounded)[:, None, :]) @ q[nb:2 * nb], q[2 * nb:]
        if contraction:
            c = stack("c", contraction)
            p0_b[u:] -= c @ _adjoint(c)
            v[u:] *= (stack("v_norm", contraction)
                      / np.linalg.svd(v[u:], compute_uv=False)[:, 0])[:, None, None]
        # wb_tilde = wb @ [[P1, -P1], [I, I]] = [A P1 + B, B - A P1] for wb = [A B]
        a, b = g @ (eye + v), g @ (eye - v)
        a_p1 = a @ p1[bounded]
        p0[bounded], wb_tilde[bounded] = p0_b, np.concatenate([a_p1 + b, b - a_p1], axis=-1)

    for m in (p1, p0, wb_tilde, h0, coeffs):
        m.flags.writeable = False
    fields = [CoefficientField(n, "constant", (value,)) for value in h0]
    for i, c in zip(affine, coeffs):
        fields[i] = CoefficientField(n, "polynomial", (c,))
    return [PHSystem(n, p1[i], p0[i], fields[i], wb_tilde[i]) for i in everyone]


def random_system(seed: int, n: int, class_hint: str = "general") -> PHSystem:
    """Reproducible random system; same seed, same system.

    class_hint steers the construction:
      * "unitary":     wb built from wb = G [I+V, I-V] with V unitary
                       (then wb Sigma wb* = 2 G (I - V V*) G* = 0) and
                       P0 skew-Hermitian;
      * "contraction": same with ||V|| <= 1 and Re P0 <= 0;
      * "general":     dense random wb_tilde and unrestricted P0.

    The system is generated as a batch of one: its arrays are read-only
    views into that batch's stacks.  Raises DomainError for a negative seed,
    n < 1 or an unknown class_hint.
    """
    if class_hint not in ("general", "contraction", "unitary"):
        raise DomainError(f"unknown class_hint {class_hint!r}")
    _at_least("seed", seed, 0)
    systems = _random_systems([seed], n, [class_hint])
    _validate(systems)
    return systems[0]


def _cross_checked(systems):
    """Validate, classify and cross-check systems of one n as stacks.
    Returns the verdicts and the oracle's (top, bottom, holds) as lists;
    raises the first error any stage finds, for some system of the stack."""
    _validate(systems)
    verdicts = _classify_stack(systems)
    dim, top, bottom, holds = (a.tolist() for a in _kernel_test(systems))
    n = systems[0].n
    for verdict, dim_i, holds_i in zip(verdicts, dim, holds):
        if dim_i != 2 * n - verdict.rank_wb_tilde:
            raise InvariantError(f"kernel dimension law violated: dim ker(wb_tilde) = "
                                 f"{dim_i}, 2n - rank = {2 * n - verdict.rank_wb_tilde}")
        if holds_i and dim_i != n:
            raise _dimension_error(dim_i, n)
    return verdicts, top, bottom, holds


def _first_failure(systems) -> None:
    """Replay _cross_checked on each system alone, in order: the first
    system that fails raises the error it raises on its own."""
    for system in systems:
        _cross_checked([system])


def agreement_campaign(
    n: int,
    count: int,
    seed: int,
    hint_weights: tuple[float, float, float] = (0.57, 0.40, 0.03),
) -> dict:
    """Compare the sigma-form contraction test against the kernel-form oracle
    on ``count`` random systems of dimension ``n``.

    Instances whose decisive witness lies within 10 * TOL_PSD of zero are
    "frontier" cases: logged and excluded from the strict comparison (the
    discrete verdict is not meaningful that close to the boundary).  The
    unitary hint weight is kept small because those instances sit exactly
    on the frontier by construction.

    The systems are generated, validated, classified and cross-checked in
    stacked batches of CAMPAIGN_BATCH.  When a stage raises on a batch, its
    systems are checked again one at a time in seed order, so the first
    failing system raises the error it raises on its own; if each passes
    alone, the batch's error is raised.

    Returns a JSON-ready report including full-verdict counts and the
    number of verdict-monotonicity violations (expected 0).  Raises
    DomainError for n < 1, a negative count or a negative seed.
    """
    _at_least("n", n, 1)
    _at_least("count", count, 0)
    _at_least("seed", seed, 0)
    w_general, w_contraction, _ = hint_weights
    draws = np.random.default_rng(seed).random(count)
    hints = ["general" if d < w_general else
             "contraction" if d < w_general + w_contraction else "unitary" for d in draws]
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
    for start in range(0, count, CAMPAIGN_BATCH):
        stop = min(count, start + CAMPAIGN_BATCH)
        systems = _random_systems(range(seed + start, seed + stop), n, hints[start:stop])
        try:
            verdicts, top, bottom, holds = _cross_checked(systems)
        except PHSError:
            _first_failure(systems)
            raise
        for i, verdict in enumerate(verdicts):
            # dim ker(wb_tilde) = 2n - rank >= n: the form is never empty here
            witnesses = ((verdict.re_p0_max_eigenvalue, verdict.re_p0_norm),
                         (verdict.sigma_form_min_eigenvalue, verdict.sigma_form_norm),
                         (top[i], max(top[i], -bottom[i])))
            if any(abs(w) <= 10.0 * TOL_PSD * max(1.0, scale) for w, scale in witnesses):
                frontier += 1
            elif verdict.contraction == holds[i]:
                agree += 1
            else:
                disagree += 1
                mismatches.append(start + i)

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
