"""Upwind characteristics simulator with energy and L^p norm monitoring.

The PDE d/dt x = (P1 d/dz + P0)(H x) is evolved in Riemann-invariant
variables g = S x, where P1 H = S^-1 diag(lam, theta) S is the pointwise
eigen-splitting.  Writing Delta = diag(lam, theta), the transformed system
is in flux form

    d/dt g = d/dz (Delta g) + B(z) g,
    B = S (dS^-1/dz) Delta + S P0 H S^-1,

so each component is a scalar transport equation with speed -Delta_j plus
bounded coupling.  Components with positive speeds lam travel toward z = 0
and take their inflow at z = 1; components with negative speeds theta
travel toward z = 1 with inflow at z = 0.

Discretization, chosen for transparency rather than accuracy:

  * nx + 1 nodes on [0,1], first-order one-sided (upwind) differences of
    the flux Delta g: forward for the lam block, backward for the theta
    block;
  * explicit two-stage strong-stability time stepping (Heun), dt set by
    the CFL condition dt * max|speed| / dz <= CFL;
  * dS^-1/dz by centered differences on the grid (one-sided at the ends);
  * a Heun stage T is one linear map on the field's real form: a product
    for the node itself and the upwind rates times the node ahead (lam
    block) and behind (theta block), each map taken at the node it reads;
    an end node lacks one of these neighbours exactly in the traces that
    the closure overwrites;
  * boundary closure C after every stage: the incoming traces g+(1), g-(0)
    solve   [V1 U2] [g+(1); g-(0)] = -[U1 V2] [g+(0); g-(1)]
    with W1 H(1) S^-1(1) = [V1 V2] and W0 H(0) S^-1(0) = [U1 U2] split at
    column n1.  K = [V1 U2] is invertible exactly when the system
    generates a C0-semigroup, so the closure map M = -K^+ [U1 V2] (the
    pseudo-inverse, K^-1 for a generator) is computed once.  Whether K is
    invertible is decided once, by the classifier's verdict: simulating a
    system not classified as a generator requires the explicit
    ``allow_illposed`` opt-in, and M is then the least-squares closure;
  * the step (g + C T C T g) / 2 is linear, and C writes only the rows 0
    and nx, which only the step's rows 0, 1, nx-1, nx read: every other
    step row is that row of (g + T T g) / 2.  One small real matrix, read
    off the step on the first and last END nodes, maps the first and last
    END rows of g to the four end rows, so no step calls the closure: it
    closes the initial field, and the unit fields of that end model;
  * a stage row reads w = 2 or 3 rows, so each other step row, 2 .. nx-2,
    reads a window of 2w - 1 rows of g times a composite stencil, one real
    matrix per row set up once per dt from the stage's maps.  The rows
    fall into 2w - 1 groups of disjoint, contiguous windows, one matrix
    product each.  For constant coefficients (a field of kind "constant")
    S, S^-1, H, B and the speeds are the same at every node and
    dS^-1/dz = 0, so the field is diagonalized at z = 0 and 1 only, and
    one composite serves every row;
  * the steps and records of both kinds alternate between two (nx+1, n)
    field buffers, so a step allocates no array of the field's size; the
    state keeps the index of the buffer that holds g, and a step or a
    record reads that buffer and writes into the other.

Energy <x, Hx> and norms (sum_i w_i |x(z_i)|^p)^(1/p) with trapezoid
weights w and the Euclidean norm per node are recorded every
``record_every`` steps.  S^-1 = H^-1/2 q D with q unitary and D
diagonal, so S^-* H S^-1 = diag(e) and the energy weighs |g_ij|^2 by
w_i e_ij; the boundary residual reads the traces (H x)(1), (H x)(0) off
the end rows of g, so no H x is formed, and the norms square one
reconstruction of x.  A non-finite initial field, a non-finite or
blown-up field after a step and a field whose record would overflow raise
StabilityError.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .classifier import boundary_closure_matrix, classify, diagonalize_field
from .errors import (
    ContinuityError,
    DomainError,
    IllPosedError,
    PreconditionError,
    ShapeError,
    StabilityError,
    ValidationError,
    _check_memory,
)
from .model import PHSystem, _as_float, _is_integer, _norm

# Courant number: dt * max|speed| / dz.
CFL = 0.9
# Blow-up guard: abort when the field exceeds this multiple of its start.
BLOWUP_FACTOR = 1e6
# Rows at each end of the field that the step's end map reads.
END = 4
# The most steps that setup lets a run take: N = ceil(t_final / dt).
MAX_STEPS = 10**6


@dataclass(frozen=True)
class SimConfig:
    """Grid, horizon and monitoring parameters."""

    nx: int = 256
    t_final: float = 1.0
    p_norms: tuple = (1.0, 2.0)
    record_every: int = 1

    def __post_init__(self):
        # numbers and integers as model._as_float and _is_integer take them
        for name in ("nx", "record_every"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValidationError(f"{name} must be an integer that fits a float, "
                                      f"got {type(value).__name__}")
        if self.nx < 16:
            raise ValidationError(f"nx must be >= 16, got {self.nx}")
        t_final = _as_float(self.t_final, "t_final", ValidationError)
        if not 0.0 < t_final < math.inf:
            raise ValidationError(f"t_final must be positive and finite, got {t_final!r}")
        if not isinstance(self.p_norms, tuple):
            raise ValidationError(f"p_norms must be a tuple, got {type(self.p_norms).__name__}")
        for k, p in enumerate(self.p_norms):
            _as_float(p, f"p_norms[{k}]", ValidationError)
        if not all(1.0 <= p < math.inf for p in self.p_norms):
            raise ValidationError(f"p_norms must all be finite and >= 1, got {self.p_norms}")
        # each exponent names a history column: l followed by p in %g format
        if len(set(map(_norm_label, self.p_norms))) < len(self.p_norms):
            raise ValidationError(f"p_norms must have distinct column labels, got {self.p_norms}")
        if self.record_every < 1:
            raise ValidationError(f"record_every must be >= 1, got {self.record_every}")


class _Discretization:
    """Everything about the grid that is constant in time.

    ``speeds`` and the coupling B have one row per node, or only the first
    node's for a constant coefficient field, whose ``apply`` multiplies by
    one matrix (in real form).  Both kinds step and record on the same
    two (nx+1, n) field buffers ``_fields``: ``heun(k, dt)`` and
    ``reconstruct(k)`` read buffer k and write into buffer 1 - k.
    """

    def __init__(self, system: PHSystem, config: SimConfig):
        nx, n = config.nx, system.n
        self.dz = 1.0 / nx
        # the grid holds z = 0 and 1, whose speeds refuse a run too long
        # for MAX_STEPS before any array of the grid's size, and so does a
        # grid too large for memory: per node every run holds z, the
        # weights, the energy weights and squares (2n floats each), the two
        # field buffers and the initial field (n complex each)
        at_ends = diagonalize_field(system, (0.0, 1.0))
        _time_step(config.t_final, self.dz, at_ends.speeds, "at least ")
        _check_memory((int(nx) + 1) * (16 + 80 * n), f"a grid of nx + 1 = {nx + 1} nodes",
                      ValidationError)
        self.zetas = np.linspace(0.0, 1.0, nx + 1)

        # Constant coefficients: S, S^-1, H, B and the speeds do not depend
        # on the node and dS^-1/dz = 0, so the field is diagonalized at its
        # two ends (the closure reads both) and the rest at the first node.
        self.constant = system.h.kind == "constant"
        dfield = at_ends if self.constant else diagonalize_field(system, self.zetas)
        if dfield.crossings:
            raise ContinuityError(
                f"eigenvalue crossing on the simulation grid at indices "
                f"{list(dfield.crossings)}: the characteristics transform is not smooth")
        self.n1 = dfield.n1
        nodes = slice(0, 1) if self.constant else slice(None)
        s_inv, h = dfield.s_inv[nodes], dfield.h[nodes]
        s = np.linalg.inv(s_inv)
        hs_inv = h @ s_inv
        coupling = system.p0 @ hs_inv
        if not self.constant:
            coupling += np.gradient(s_inv, self.dz, axis=0) * dfield.speeds[:, None, :]
        # B at every node, or at the first only for a constant field
        self._bmat = s @ coupling
        self.speeds = dfield.speeds[nodes]
        fields = {"s_inv": s_inv, "s": s}
        self._products = ({name: _real_form(m[0]) for name, m in fields.items()}
                          if self.constant else fields)

        # K^+ = K^-1 for a generator; least squares for an ill-posed demonstration
        closure = boundary_closure_matrix(system, dfield)
        self.closure_map = -np.linalg.pinv(closure.k) @ closure.q

        self.dt = _time_step(config.t_final, self.dz, self.speeds)
        self.weights = weights = np.full(nx + 1, self.dz)
        weights[[0, -1]] = self.dz / 2.0
        # <x_i, H x_i> = sum_j e_ij |g_ij|^2 with e the diagonal of
        # S^-* H S^-1, as weights on the float view of g and its squares
        e = (s_inv.conj() * hs_inv).real.sum(axis=1)
        self._energy_weights = np.repeat(weights[:, None] * e, 2, axis=1)
        self._squares = np.empty((nx + 1, 2 * n))
        # [(Hx)(1); (Hx)(0)] = ends [g(1); g(0)], stacked over wb_tilde ends
        ends = np.zeros((2 * n, 2 * n), dtype=complex)
        ends[:n, :n], ends[n:, n:] = hs_inv[-1], hs_inv[0]
        self._residual_map = np.vstack([ends, system.wb_tilde @ ends])
        self.wb_tilde_norm = float(_norm(system.wb_tilde))
        # a record squares g, x = S^-1 g and the residual map times the end
        # rows of g, and sums the energy: each is at most (c |g|)^2 with c
        # below, so none overflows while |g| <= record_norm (with a factor 2
        # to spare)
        c = max(1.0, math.sqrt(e.max()), _norm(s_inv).max(),
                _norm(self._residual_map))
        self.record_norm = math.sqrt(np.finfo(float).max / 2.0) / c
        # the steps and the records alternate between two field buffers
        self._fields = [np.zeros((nx + 1, n), dtype=complex) for _ in range(2)]
        # a stage row i reads rows i - 1 (theta block), i and i + 1 (lam
        # block), so a step row i reads the rows i + k for k in _reach; the
        # rows 2 .. nx-2 fall into w = len(_reach) groups of disjoint,
        # contiguous windows, the rows r, r + w, ... for r = 2 .. w + 1
        self._reach = range(-2 if self.n1 < n else 0, 3 if self.n1 > 0 else 1)
        w = len(self._reach)
        self._rows = [range(r, nx - 1, w) for r in range(2, 2 + w)]
        self._windows = [self._step_windows(g) for g in self._fields]
        self._maps = self._step_maps(self.dt)

    def _step_windows(self, g: np.ndarray) -> tuple:
        """Views of a field buffer g for the step, one per group of
        ``_rows``: windows[r] has one row per step row i of group r, holding
        the w = len(_reach) consecutive rows of g that row i reads, and
        rows[r] is those rows i of g, both on the float view and, for a
        variable field, as 1-row matrices."""
        field, w, one = g.view(np.float64), len(self._reach), () if self.constant else (1,)
        return ([field[i.start + self._reach.start:][:len(i) * w].reshape(len(i), *one, -1)
                 for i in self._rows],
                [field[i.start:i.stop:w].reshape(len(i), *one, -1) for i in self._rows])

    def apply(self, name: str, g: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Per-node product m(z_i) g_i of the field ``name`` (s_inv or s)
        and g (nx+1, n), written into ``out`` when it is given."""
        m = self._products[name]
        if self.constant:
            floats = None if out is None else out.view(np.float64)
            return np.matmul(g.view(np.float64), m, out=floats).view(complex)
        return np.einsum("nij,nj->ni", m, g, out=out)

    def close(self, g: np.ndarray) -> None:
        """Set the incoming traces g[-1, :n1], g[0, n1:] of a field (rows, n),
        or of each of a stack (..., rows, n), in place from the outgoing
        ones g[0, :n1], g[-1, n1:].  No step calls it (see _step_maps)."""
        n1 = self.n1
        outgoing = np.concatenate([g[..., 0, :n1], g[..., -1, n1:]], axis=-1)
        incoming = outgoing @ self.closure_map.T
        g[..., -1, :n1] = incoming[..., :n1]
        g[..., 0, n1:] = incoming[..., n1:]

    def rhs(self, g: np.ndarray) -> np.ndarray:
        """d/dt g before the closure, as a new array: the reference that a
        stage g + dt rhs(g) is tested against.  The flux beyond the ends
        reads as zero, as in the stages of the end map (see _step_maps)."""
        flux = self.speeds / self.dz * g
        out = np.einsum("...ij,...j->...i", self._bmat, g)
        n1 = self.n1
        out[:, :n1] += np.diff(flux[:, :n1], axis=0, append=0.0)
        out[:, n1:] += np.diff(flux[:, n1:], axis=0, prepend=0.0)
        return out

    def _stage_maps(self, dt: float) -> tuple:
        """Maps (own, ahead, behind) of one stage g + dt rhs(g), unclosed,
        each indexed by the node it reads: row i of the stage is
        own_i g_i + ahead_{i+1} g_{i+1} - behind_{i-1} g_{i-1}; a lam
        component reads the node ahead, a theta component the node behind.
        ``own`` = I + dt B - diag(ahead) + diag(behind) is complex (nodes,
        n, n); ``ahead`` and ``behind`` are dt speed / dz as (nodes, 2n)
        rates on the float view, zero outside the lam and theta columns.
        nodes is nx + 1, or 1 for a constant field."""
        rates = np.repeat(dt * self.speeds / self.dz, 2, axis=1)
        lam = np.arange(rates.shape[1]) < 2 * self.n1
        ahead, behind = np.where(lam, rates, 0.0), np.where(lam, 0.0, rates)
        own = dt * self._bmat
        diag = np.arange(own.shape[1])
        own[:, diag, diag] += (1.0 - ahead + behind)[:, ::2]
        return own, ahead, behind

    def _step_maps(self, dt: float) -> tuple:
        """The Heun step g -> (g + C T C T g) / 2 on the (nx+1, 2n) float
        view of g, with T the stage of _stage_maps(dt) and C the closure, as
        (bodies, ends).  Row i of T g is the sum of g_{i+t} m_t(i+t) over
        t = -1, 0, 1, with m_0 the real form of own, m_1 = diag(ahead) and
        m_-1 = -diag(behind).  C writes only the rows 0 and nx, so a step
        row i of 2 .. nx-2 is the sum of g_{i+k} p_k(i) over k in
        ``_reach``, p_k(i) = (delta_k0 I + sum_{s+t=k} m_s(i+k) m_t(i+t)) / 2;
        ``bodies`` holds the p_k of the rows of each group of ``_rows`` as
        one contiguous stack (on a 2-vCPU Xeon, heun ran about 10% slower on
        strided bodies at n = 2, nx = 1024), or a constant field's one p_k.
        ``ends``, read off the dense step on 2 END rows that stand for the
        first and last END nodes, closed by ``close`` on its unit fields,
        maps the first and last END rows of g, flattened, to the rows 0, 1,
        nx-1, nx, which read the closures."""
        own, ahead, behind = self._stage_maps(dt)
        nodes, width = own.shape[0], 2 * own.shape[1]
        m0 = _real_form(own)
        # body holds the halved p_k (0.5 scales exactly) of the step rows
        # i in order, group after group; at[k] holds their nodes i + k,
        # modulo nodes so that a constant field's one row reads its node
        order = np.concatenate(self._rows) if nodes > 1 else np.zeros(1, dtype=int)
        at = {k: (order + k) % nodes for k in self._reach}
        body = np.zeros((len(order), len(self._reach) * width, width))
        p = {k: body[:, j * width:(j + 1) * width] for j, k in enumerate(self._reach)}
        here = m0[at[0]]
        np.matmul(here, 0.5 * here, out=p[0])
        np.einsum("nii->ni", p[0])[...] += 0.5
        # the +-1 taps are diagonal, and ahead and behind have disjoint
        # columns: a product of two taps is diagonal, and zero in p_0
        for t, rate in ((1, ahead), (-1, -behind)):
            if t in p:
                near = 0.5 * rate[at[t]]
                np.multiply(m0[at[t]], near[:, None, :], out=p[t])
                p[t] += near[:, :, None] * here
                np.multiply(rate[at[2 * t]], near, out=np.einsum("nii->ni", p[2 * t]))
        bodies = (np.split(body, np.cumsum([len(group) for group in self._rows[:-1]]))
                  if nodes > 1 else [body[0]] * len(self._rows))

        rows = 2 * END
        # the node of the maps that each dense row stands for
        node = np.r_[:END, -END:0] % nodes
        # block (b, :, a, :) maps row b of g to row a of the stage
        dense, r, eye = np.zeros((rows, width, rows, width)), np.arange(rows), np.eye(width)
        dense[r, :, r] = m0[node]
        dense[r[1:], :, r[:-1]] = ahead[node[1:], :, None] * eye
        dense[r[:-1], :, r[1:]] = -behind[node[:-1], :, None] * eye
        # row j of the closure's matrix on the float view: unit field j, closed
        closure = np.eye(rows * width)
        self.close(closure.view(complex).reshape(rows * width, rows, -1))
        half = dense.reshape(rows * width, -1) @ closure
        step = (np.eye(rows * width) + half @ half) / 2.0
        ends = step.reshape(rows * width, rows, width)[:, [0, 1, -2, -1]].reshape(rows * width, -1)
        return bodies, ends

    def check(self, g: np.ndarray, limit: float) -> None:
        """Raise StabilityError unless every |g_ij| <= limit and the norm |g|
        of the whole field is at most record_norm.  Every |g_ij| is at most
        |g|, so below both bounds the moduli need not be computed; a NaN, an
        inf or an overflowing sum of squares fails each comparison."""
        parts = g.view(np.float64)
        norm = math.sqrt(np.vdot(parts, parts))
        if not norm <= min(limit, self.record_norm):
            peak = float(np.abs(g).max())
            if not peak <= limit:
                raise StabilityError(f"field amplitude {peak:.3e} is not finite or exceeds "
                                     f"{BLOWUP_FACTOR:.0e} x initial maximum")
            if not norm <= self.record_norm:
                raise StabilityError(f"field norm {norm:.3e} overflows the record's squares")

    def heun(self, k: int, dt: float) -> np.ndarray:
        """The step (g + C T C T g) / 2 of the g in buffer k, written into
        buffer 1 - k and returned: one product per window group of the
        composite stencil for the rows 2 .. nx-2, and one product of the
        end rows of g for the rows 0, 1, nx-1, nx."""
        bodies, ends = self._maps if dt == self.dt else self._step_maps(dt)
        for window, rows, body in zip(self._windows[k][0], self._windows[1 - k][1], bodies):
            np.matmul(window, body, out=rows)
        src, dst = self._fields[k].view(np.float64), self._fields[1 - k].view(np.float64)
        edge = (np.concatenate([src[:END], src[-END:]]).reshape(-1) @ ends).reshape(4, -1)
        dst[:2], dst[-2:] = edge[:2], edge[2:]
        return self._fields[1 - k]

    def reconstruct(self, k: int) -> np.ndarray:
        """x = S^-1 g of the g in buffer k as (nx+1, 2n) floats, written
        into buffer 1 - k."""
        return self.apply("s_inv", self._fields[k], out=self._fields[1 - k]).view(np.float64)

    def energy(self, g: np.ndarray) -> float:
        """Trapezoid sum of Re <x_i, H x_i>: the energy weights times |g|^2."""
        squares = np.square(g.view(np.float64), out=self._squares)
        return float(np.vdot(self._energy_weights, squares))

    def residual(self, g: np.ndarray) -> float:
        """Relative residual of the boundary condition at the traces
        (Hx)(1), (Hx)(0), from the end rows of g."""
        r = self._residual_map @ np.concatenate([g[-1], g[0]])
        traces, num = r[:2 * g.shape[1]], r[2 * g.shape[1]:]
        scale = self.wb_tilde_norm * math.sqrt(np.vdot(traces, traces).real)
        return math.sqrt(np.vdot(num, num).real) / max(scale, 1.0)


@dataclass(eq=False)
class SimState:
    """Mutable simulation state: time, Riemann-invariant field, history.

    Single-writer: step() mutates in place and returns the same object.
    ``history`` maps column names (t, energy, l1, ...) to growing lists.
    A record reads the energy and the boundary residual (the largest is
    ``max_bc_residual``) from ``g`` and reconstructs x only for the norms.
    ``g`` is the field buffer of index ``_k``, one of two that the steps
    and records alternate between (see step()): copy it to keep it.  An
    array assigned to ``g`` is copied into that buffer at once.
    """

    system: PHSystem
    config: SimConfig
    t: float
    history: dict
    verdict: object = None
    step_count: int = 0
    max_bc_residual: float = 0.0
    _disc: _Discretization = field(default=None, repr=False)
    _k: int = 0
    _g0_max: float = 0.0

    @property
    def g(self) -> np.ndarray:
        return self._disc._fields[self._k]

    @g.setter
    def g(self, value) -> None:
        np.copyto(self.g, value)

    @property
    def zetas(self) -> np.ndarray:
        return self._disc.zetas

    def x(self) -> np.ndarray:
        """Reconstructed physical field, a new array of shape (nx+1, n)."""
        return self._disc.apply("s_inv", self.g)


def _time_step(t_final: float, dz: float, speeds: np.ndarray, at_least: str = "") -> float:
    """dt = CFL dz / max|speeds|; ValidationError unless it is positive and
    finite and a run to t_final takes at most MAX_STEPS steps of it.
    ``at_least`` words the message for speeds below the grid's largest."""
    speed = float(np.abs(speeds).max())
    dt, t_final = CFL * dz / speed, float(t_final)
    steps = t_final / dt if 0.0 < dt < math.inf else math.inf
    if not steps <= MAX_STEPS:
        raise ValidationError(f"a run to t_final = {t_final:g} needs {at_least}N = t_final / dt "
                              f"= {steps:.10g} steps of dt = {dt:.3e} (largest speed "
                              f"{speed:.3e}), more than MAX_STEPS = {MAX_STEPS}")
    return dt


def _norm_label(p: float) -> str:
    return f"l{p:g}"


def _real_form(m: np.ndarray) -> np.ndarray:
    """The real 2n x 2n matrix r with x.view(float) @ r == (x @ m.T).view(float)
    for complex x with n columns, or the stack of them for a stack m.  On a
    long x with few columns, BLAS runs this real product about three times
    faster than the complex one."""
    a = np.swapaxes(m, -1, -2)
    rows, cols = a.shape[-2:]
    r = np.empty(a.shape[:-2] + (rows, 2, cols, 2))
    r[..., 0, :, 0] = r[..., 1, :, 1] = a.real
    r[..., 0, :, 1] = a.imag
    r[..., 1, :, 0] = -a.imag
    return r.reshape(a.shape[:-2] + (2 * rows, 2 * cols))


def _node_squares(xf: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm at each node of x given as (N, 2n) floats xf,
    which are overwritten by their squares."""
    np.square(xf, out=xf)
    return xf @ np.ones(xf.shape[1])


def _lp(weights: np.ndarray, squares: np.ndarray, p: float) -> float:
    """(sum_i w_i |x_i|^p)^(1/p) from the node squares |x_i|^2.  numpy
    takes the power 1/2 (p = 1) as a square root and 1 (p = 2) as a copy.
    For p > 2 the squares are divided by their maximum before the power,
    which then cannot overflow, and the maximum is multiplied back."""
    if p <= 2.0:
        return float((weights @ squares ** (p / 2)) ** (1.0 / p))
    top = float(squares.max())
    if top == 0.0:
        return 0.0
    return float((weights @ (squares / top) ** (p / 2)) ** (1.0 / p)) * math.sqrt(top)


def energy(state: SimState) -> float:
    """Trapezoid-rule discrete <x, H x>."""
    return state._disc.energy(state.g)


def lp_norm(state: SimState, p: float) -> float:
    """Trapezoid-rule (sum_i w_i |x(z_i)|^p)^(1/p), Euclidean norm per node."""
    p = _as_float(p, "p", DomainError)
    if not 1.0 <= p < math.inf:
        raise DomainError(f"p must be finite and >= 1, got {p}")
    return _lp(state._disc.weights, _node_squares(state.x().view(np.float64)), p)


def _record(state: SimState) -> None:
    """Append one history row: the energy from |g|^2, the boundary residual
    from the end rows of g, and the norms from one reconstruction of x."""
    disc, g, p_norms = state._disc, state.g, state.config.p_norms
    squares = _node_squares(disc.reconstruct(state._k)) if p_norms else None
    state.history["t"].append(state.t)
    state.history["energy"].append(disc.energy(g))
    state.max_bc_residual = max(state.max_bc_residual, disc.residual(g))
    for p in p_norms:
        state.history[_norm_label(p)].append(_lp(disc.weights, squares, p))


def _horizon(t_final: float) -> float:
    """The time from which a run counts as having reached t_final."""
    return t_final - 1e-12 * max(1.0, t_final)


def setup(
    system: PHSystem, config: SimConfig, x0, allow_illposed: bool = False
) -> SimState:
    """Build the grid machinery and the initial state.

    ``x0`` is a callable z -> state vector (length n; a scalar is taken
    for every component).  Raises ShapeError when a value of x0 is not
    one number or n numbers, IllPosedError when the system is not
    classified as a C0-semigroup generator, unless ``allow_illposed`` is
    set, ContinuityError when eigenvalues cross on the grid,
    ValidationError, before x0 is sampled, when dt is not positive and
    finite or a run to t_final would take more than MAX_STEPS steps (before
    any array of the grid's size if the speeds at z = 0 and 1 do so) or a
    grid whose arrays cannot fit in memory (before any of them), and
    StabilityError when x0 is not finite somewhere on the grid or its
    record overflows.
    The incoming traces of the initial field are projected onto the
    boundary condition, so the discrete boundary residual is zero from the
    start.
    """
    verdict = classify(system)
    if verdict.c0_semigroup is not True and not allow_illposed:
        raise IllPosedError(
            "system is not classified as a C0-semigroup generator "
            f"(c0_semigroup={verdict.c0_semigroup}); "
            "pass allow_illposed=True for a demonstration run")
    disc = _Discretization(system, config)

    x_init = np.empty((config.nx + 1, system.n), dtype=complex)
    for i, z in enumerate(disc.zetas):
        value = x0(z)
        try:
            x_init[i] = value
        except (TypeError, ValueError) as exc:
            shape = np.asarray(value, dtype=object).shape
            raise ShapeError(f"x0({z:.6g}) must be a number or {system.n} numbers, got "
                             f"{type(value).__name__} of shape {shape} ({exc})") from None
    finite = np.isfinite(x_init).all(axis=1)
    if not finite.all():
        raise StabilityError(
            f"initial field is not finite at z = {disc.zetas[np.argmin(finite)]:.6g}")
    g = disc._fields[0]
    disc.apply("s", x_init, out=g)
    disc.close(g)
    disc.check(g, math.inf)

    history = {c: [] for c in ("t", "energy", *map(_norm_label, config.p_norms))}
    state = SimState(
        system=system,
        config=config,
        t=0.0,
        history=history,
        verdict=verdict,
        _disc=disc,
        _g0_max=float(np.abs(g).max()),
    )
    _record(state)
    return state


def step(state: SimState) -> SimState:
    """Advance one time step, the Heun step (g + C T C T g) / 2 of the
    stage T and the closure C.

    The step reads the field buffer ``state._k`` and writes into the
    other, and ``_k`` flips once the guard accepts the new field, so the
    array that ``state.g`` held before this call is overwritten by this
    call's record or by the next step: copy it to keep it.
    """
    cfg = state.config
    horizon = _horizon(cfg.t_final)
    if state.t >= horizon:
        raise PreconditionError(f"t = {state.t} has already reached t_final")
    disc = state._disc
    dt = min(disc.dt, cfg.t_final - state.t)
    disc.check(disc.heun(state._k, dt), BLOWUP_FACTOR * max(state._g0_max, 1e-300))
    state._k = 1 - state._k
    state.t += dt
    state.step_count += 1
    if state.step_count % cfg.record_every == 0 or state.t >= horizon:
        _record(state)
    return state


def run(system: PHSystem, config: SimConfig, x0, allow_illposed: bool = False) -> SimState:
    """Simulate from t = 0 to t_final; returns the final state with the
    complete norm/energy history."""
    state = setup(system, config, x0, allow_illposed)
    while state.t < _horizon(config.t_final):
        step(state)
    return state


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_history_csv(state: SimState, fileobj) -> None:
    """Norm history as CSV, one column per history list: t, energy, l1, ..."""
    writer = csv.writer(fileobj)
    writer.writerow(state.history)
    for row in zip(*state.history.values()):
        writer.writerow([f"{v:.16g}" for v in row])


def write_field_csv(state: SimState, fileobj) -> None:
    """Final field as CSV with columns zeta, re(x_1), im(x_1), ..."""
    header = ["zeta"]
    for j in range(state.system.n):
        header.extend([f"re(x_{j + 1})", f"im(x_{j + 1})"])
    writer = csv.writer(fileobj)
    writer.writerow(header)
    x = state.x()
    for i, z in enumerate(state.zetas):
        row = [f"{z:.16g}"]
        for j in range(state.system.n):
            row.extend([f"{x[i, j].real:.16g}", f"{x[i, j].imag:.16g}"])
        writer.writerow(row)
