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

from functools import lru_cache

import numpy as np

from .classifier import TOL_PSD, TOL_RANK, _classify_stack
from .errors import DomainError, InvariantError, PHSError, _at_least, _check_memory
from .model import (
    PHSystem, _adjoint, _Batch, _one_piece, _stack, _unstack, _validate, hermitian_part)

# Systems per stacked batch of agreement_campaign: bounds its memory.
CAMPAIGN_BATCH = 100
_SQRT2 = np.sqrt(2.0)


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


def _kernel_test(batch):
    """Contraction for a _Batch as stacks: Re P0 <= 0 and the form
    diag(P1, -P1) restricted to ker(wb_tilde) non-positive.  Returns per
    system the kernel dimension, the form's largest and smallest eigenvalue
    (0 if empty) and the verdict."""
    p1, p0, wb_tilde = batch.p1, batch.p0, batch.wb_tilde
    count, n = p1.shape[:2]
    big = np.zeros((count, 2 * n, 2 * n), dtype=complex)
    big[:, :n, :n] = p1
    np.negative(p1, out=big[:, n:, n:])
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
    _, (top,), (bottom,), _ = _kernel_test(_stack([system]))
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
    (dim,), _, _, (holds,) = _kernel_test(_stack([system]))
    if holds and dim != system.n:
        raise _dimension_error(dim, system.n)
    return bool(holds)


# ---------------------------------------------------------------------------
# Randomized instances
# ---------------------------------------------------------------------------

# Block of each normal draw in a system's row of the draw table, in units of
# one (2, n, n) pair of real and imaginary parts; wb_tilde (2, n, 2n) fills
# two.  Keys of different hints share a block: p0 and c, wb_tilde and v.
_BLOCK = {"p1": 0, "base": 1, "slope": 2, "skew": 3, "p0": 4, "c": 4,
          "v": 5, "wb_tilde": 5, "g_left": 6, "g_right": 7}


def _draws(seeds, n: int, hints) -> tuple:
    """The draws of random_system for each (seed, hint), in its order: a
    table with one row of normals per system, each key at its _BLOCK, the
    slope coins (is H affine), and the uniforms v_norm (contraction) and
    g_sing (unitary and contraction).  A run of consecutive normal draws is
    one call writing into the row: the stream is the same as for one call
    per key.  Blocks a system does not draw are left zero."""
    count, b = len(hints), 2 * n * n
    table, slope = np.zeros((count, 8 * b)), np.empty(count, dtype=bool)
    v_norm, g_sing = np.empty(count), np.empty((count, n))
    for i, (seed, hint) in enumerate(zip(seeds, hints)):
        rng = np.random.default_rng(seed)
        row = table[i]
        rng.standard_normal(out=row[:2 * b])
        slope[i] = affine = rng.random() >= 0.5
        start = 2 * b if affine else 3 * b
        if hint == "general":
            rng.standard_normal(out=row[start:7 * b])
            continue
        if hint == "unitary":  # draws no c: skew, then v and g_left
            rng.standard_normal(out=row[start:4 * b])
            rng.standard_normal(out=row[5 * b:7 * b])
        else:
            rng.standard_normal(out=row[start:6 * b])
            v_norm[i] = rng.uniform(0.2, 0.999)
            rng.standard_normal(out=row[6 * b:7 * b])
        g_sing[i] = rng.uniform(0.5, 2.0, n)
        rng.standard_normal(out=row[7 * b:])
    return table, slope, v_norm, g_sing


def _complex_normals(pairs: np.ndarray) -> np.ndarray:
    """Complex standard normal matrices (re + 1j im) / sqrt(2) from their
    real and imaginary parts, stacked on axis -3."""
    z = np.empty(pairs.shape[:-3] + pairs.shape[-2:], dtype=complex)
    z.real, z.imag = pairs[..., 0, :, :], pairs[..., 1, :, :]
    z /= _SQRT2
    return z


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """np.eye(n), made once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _unitary(z: np.ndarray) -> np.ndarray:
    """The Q of each QR in a stack, columns rotated to make diag(R) > 0."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _random_systems(seeds, n: int, hints) -> _Batch:
    """The batch of random_system for each (seed, hint), not validated: the
    table of _draws is made complex in one pass, each key a block of it, and
    the linear algebra is done on stacks of the systems that draw each key.
    The batch's stacks are read-only."""
    _at_least("n", n, 1)
    count = len(hints)
    # the table of normals and its complex copy, 2 (8 blocks of 2n^2) floats
    _check_memory(256 * int(n) ** 2 * count, f"a batch of {count} random systems of n = {n}",
                  DomainError)
    table, slope_coin, v_norm, g_sing = _draws(seeds, n, hints)
    # every block as an (n, n) matrix; wb_tilde (n, 2n) fills blocks 5 and 6
    z = _complex_normals(table.reshape(count, 8, 2, n, n))
    general, unitary, contraction = (
        np.array([i for i, h in enumerate(hints) if h == hint], dtype=int)
        for hint in ("general", "unitary", "contraction"))
    eye = _identity(n)
    # P1: a random Hermitian matrix with its eigenvalues pushed off zero
    w, q = np.linalg.eigh(hermitian_part(z[:, _BLOCK["p1"]]))
    w += np.where(w >= 0.0, 0.5, -0.5)
    p1 = hermitian_part((q * w[:, None, :]) @ _adjoint(q))
    # H: a constant h0 or the affine h0 + zeta * (positive semidefinite slope)
    base = z[:, _BLOCK["base"]]
    h0 = hermitian_part(base @ _adjoint(base)) + 0.3 * eye
    fields = []
    constant, affine = (~slope_coin).nonzero()[0], slope_coin.nonzero()[0]
    if constant.size:
        fields.append((constant, "constant", *_one_piece(h0[constant][..., None])))
    if affine.size:
        slope = z[affine, _BLOCK["slope"]]
        coeffs = np.empty((len(affine), n, n, 2), dtype=complex)
        coeffs[..., 0], coeffs[..., 1] = h0[affine], hermitian_part(slope @ _adjoint(slope))
        fields.append((affine, "polynomial", *_one_piece(coeffs)))
    p0 = np.empty((count, n, n), dtype=complex)
    wb_tilde = np.empty((count, n, 2 * n), dtype=complex)
    if general.size:
        start = _BLOCK["wb_tilde"] * 2 * n * n
        p0[general] = z[general, _BLOCK["p0"]]
        wb_tilde[general] = _complex_normals(
            table[general, start:start + 4 * n * n].reshape(-1, 2, n, 2 * n))
    bounded, u = np.concatenate([unitary, contraction]), len(unitary)
    if bounded.size:
        # P0 skew-Hermitian, or skew - C C* for a contraction; wb = G [I+V, I-V]
        # with V unitary, or ||V|| <= 1 for a contraction; zb holds the
        # blocks of these systems, the contraction ones last
        zb, nb = z[bounded], len(bounded)
        skew, v = zb[:, _BLOCK["skew"]], zb[:, _BLOCK["v"]]
        p0_b = (skew - _adjoint(skew)) / 2.0
        # one QR for both unitary factors of G and the unitary V
        q = _unitary(np.concatenate([zb[:, _BLOCK["g_left"]], zb[:, _BLOCK["g_right"]], v[:u]]))
        g, v[:u] = (q[:nb] * g_sing[bounded][:, None, :]) @ q[nb:2 * nb], q[2 * nb:]
        if contraction.size:
            c = zb[u:, _BLOCK["c"]]
            p0_b[u:] -= c @ _adjoint(c)
            v[u:] *= (v_norm[contraction]
                      / np.linalg.svd(v[u:], compute_uv=False)[:, 0])[:, None, None]
        # wb_tilde = wb @ [[P1, -P1], [I, I]] = [A P1 + B, B - A P1] for wb = [A B]
        a, b = g @ (eye + v), g @ (eye - v)
        a_p1 = a @ p1[bounded]
        p0[bounded], wb_tilde[bounded] = p0_b, np.concatenate([a_p1 + b, b - a_p1], axis=-1)

    for m in (p1, p0, wb_tilde):
        m.flags.writeable = False
    # the groups in order of their first system
    return _Batch(p1, p0, wb_tilde, tuple(sorted(fields, key=lambda group: group[0][0])))


def random_system(seed: int, n: int, class_hint: str = "general") -> PHSystem:
    """Reproducible random system; same seed, same system.

    class_hint steers the construction:
      * "unitary":     wb built from wb = G [I+V, I-V] with V unitary
                       (then wb Sigma wb* = 2 G (I - V V*) G* = 0) and
                       P0 skew-Hermitian;
      * "contraction": same with ||V|| <= 1 and Re P0 <= 0;
      * "general":     dense random wb_tilde and unrestricted P0.

    The system is generated as a batch of one: its arrays are read-only
    views into that batch's stacks.  Raises DomainError for a seed or n that
    is not an integer (a bool is not), a negative seed, n < 1, an n whose
    draws cannot fit in memory or an unknown class_hint.
    """
    if class_hint not in ("general", "contraction", "unitary"):
        raise DomainError(f"unknown class_hint {class_hint!r}")
    _at_least("seed", seed, 0)
    batch = _random_systems([seed], n, [class_hint])
    _validate(batch)
    return _unstack(batch)[0]


def _cross_checked(batch):
    """Validate, classify and cross-check a _Batch.  Returns what
    _classify_stack returns and the oracle's top, bottom and holds (see
    _kernel_test); raises the first error any stage finds, for some system
    of the batch."""
    _validate(batch)
    verdicts = _classify_stack(batch)
    dim, top, bottom, holds = _kernel_test(batch)
    n, rank = batch.p1.shape[-1], verdicts[0]["rank_wb_tilde"]
    law = dim != 2 * n - rank
    if law.any():
        k = law.argmax()
        raise InvariantError(f"kernel dimension law violated: dim ker(wb_tilde) = "
                             f"{dim[k]}, 2n - rank = {2 * n - rank[k]}")
    wrong = holds & (dim != n)
    if wrong.any():
        raise _dimension_error(dim[wrong.argmax()], n)
    return verdicts, (top, bottom, holds)


def _first_failure(systems) -> None:
    """Replay _cross_checked on each system alone, in order: the first
    system that fails raises the error it raises on its own."""
    for system in systems:
        _cross_checked(_stack([system]))


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

    Each batch of CAMPAIGN_BATCH systems is one _Batch from draw to
    report: its stacks are built once, as the systems are drawn, and then
    validated, classified and cross-checked as stacks, and the report is
    tallied from the stages' arrays, with no per-system object.  When a
    stage raises on a batch, its systems are checked again one at a time in
    seed order, so the first failing system raises the error it raises on
    its own; if each passes alone, the batch's error is raised.

    Returns a JSON-ready report including full-verdict counts and the
    number of verdict-monotonicity violations (expected 0): the systems
    whose direct-sum test fails although contraction holds, which classify
    coerces and notes.  Raises DomainError for n, count or seed not an
    integer (a bool is not), n < 1, a negative count, a negative seed, a
    count or n whose draws cannot fit in memory, or ``hint_weights``, the
    probabilities of the hints general, contraction and unitary, not all
    >= 0 or not summing to 1 within 1e-9.
    """
    _at_least("n", n, 1)
    _at_least("count", count, 0)
    _at_least("seed", seed, 0)
    if (len(hint_weights) != 3 or not all(w >= 0.0 for w in hint_weights)
            or not abs(sum(hint_weights) - 1.0) <= 1e-9):
        raise DomainError(f"hint_weights must be 3 weights >= 0 summing to 1, got {hint_weights}")
    w_general, w_contraction, _ = hint_weights  # the unitary hint takes the rest
    # the hints' uniforms and the list of hints
    _check_memory(16 * int(count), f"a campaign of {count} systems", DomainError)
    draws = np.random.default_rng(seed).random(count)
    hints = ["general" if d < w_general else
             "contraction" if d < w_general + w_contraction else "unitary" for d in draws]
    # counted per batch; agree, c0_false and c0_inconclusive follow
    tally = dict.fromkeys(("disagree", "frontier", "unitary", "contraction", "full", "c0_true",
                           "monotonicity_violations"), 0)
    mismatches: list[int] = []
    for start in range(0, count, CAMPAIGN_BATCH):
        stop = min(count, start + CAMPAIGN_BATCH)
        batch = _random_systems(range(seed + start, seed + stop), n, hints[start:stop])
        try:
            (check, c0, _, coerced), (top, bottom, holds) = _cross_checked(batch)
        except PHSError:
            _first_failure(_unstack(batch))
            raise
        # the witnesses and their scales; dim ker(wb_tilde) = 2n - rank >= n,
        # so the form is never empty here
        witness = np.array([check["re_p0_max_eigenvalue"], check["sigma_form_min_eigenvalue"], top])
        scale = np.array([check["re_p0_norm"], check["sigma_form_norm"], np.maximum(top, -bottom)])
        frontier = (np.abs(witness) <= 10.0 * TOL_PSD * np.maximum(1.0, scale)).any(axis=0)
        differ = ~frontier & (check["contraction"] != holds)
        mismatches += [start + k for k in differ.nonzero()[0].tolist()]
        full = check["rank_wb_tilde"] == n
        masks = np.array([differ, frontier, check["unitary_group"], check["contraction"], full,
                          full & c0, coerced])
        for key, k in zip(tally, masks.sum(axis=1).tolist()):
            tally[key] += k
    return {"n": n, "count": count, "seed": seed,
            "agree": count - tally["frontier"] - tally["disagree"],
            "disagree": tally["disagree"], "frontier": tally["frontier"],
            "frontier_fraction": tally["frontier"] / count if count else 0.0,
            "mismatch_indices": mismatches,
            "verdicts": {"unitary": tally["unitary"], "contraction": tally["contraction"],
                         "c0_true": tally["c0_true"], "c0_false": tally["full"] - tally["c0_true"],
                         "c0_inconclusive": count - tally["full"]},
            "monotonicity_violations": tally["monotonicity_violations"]}
