"""Projection solvers for the two convex programs behind the generator fits.

Both programs live in the real vector space of hermitian d²×d² matrices X
(candidate Choi-side variables):

    (P1)  minimize  ‖X − T‖_F
          subject   Tr₁[X] = 0,   ω⊥ X ω⊥ ⪰ 0

    (P2)  minimize  μ
          subject   ‖X − T‖_F ≤ δ,   Tr₁[X] = 0,   ω⊥ X ω⊥ + (μ/d)·1 ⪰ 0

where ω is the normalized maximally entangled vector and ω⊥ the projector
onto its orthogonal complement.  A third program fits one generator to a
snapshot series: minimize Σ_c ‖t_c X − T_c‖_F under a δ-ball per term plus
the same affine/cone constraints.  Every cone test and projection works on
the (d²−1)×(d²−1) block VᴴXV, with V an orthonormal basis of ω⊥ (the cone
K = {X : VᴴXV ⪰ 0}).

(P1) is a projection onto K ∩ {Tr₁[X] = 0} with only d² equality
constraints, solved by semismooth Newton on its dual in the hermitian d×d
multiplier Y of Tr₁[X] = 0 (the method of Qi and Sun for the nearest
correlation matrix, SIAM J. Matrix Anal. Appl. 28 (2006) 360-385).  The
dual θ(Y) = ½‖[VᴴWV]₋‖² + Re⟨Y, Tr₁T⟩ − (d/2)‖Y‖², W = T − 1⊗Y, is
concave with gradient F(Y) = Tr₁Π_K(W), where Π_K(W) = W − V[VᴴWV]₋Vᴴ.
Each step solves one regularized d²×d² system in the generalized Jacobian
of F, which is built from the same eigendecomposition of VᴴWV as F, and
takes an Armijo step on θ; a handful of steps and eigendecompositions
finish a problem.  The answer is the trace-zero projection of Π_K(W).

(P2) and the joint fit are solved by one engine, ``_admm``: lockstep,
over-relaxed consensus ADMM over a batch of problems, with one consensus
matrix X per problem.  The engine owns the iteration (over-relaxation,
consensus sums, dual updates, primal and dual residuals, the stopping
test), retires each problem as it converges, balances each problem's step
size ρ every 100 iterations and settles the problems still running at
``ITER_LIMIT``.  A program supplies only its prox blocks, its consensus
update and what to record:

  * (P2): slice-ball and noise-rate blocks; z = S/2
  * joint: affine, cone and one scaled-distance block per series term;
           z = S/(2 + q)

where S is the sum of the over-relaxed block outputs and their duals.
The prox blocks are closed forms:

  * affine set  {Tr₁[X] = 0}:  X ↦ X − (1/d)·1⊗Tr₁[X]
  * cone set    {VᴴXV ⪰ 0}:    subtract the negative spectral part of VᴴXV
  * slice-ball set {Tr₁[X] = 0} ∩ δ-ball:  the affine projection, then the
                               ball projection within the slice
  * noise rate  d·max(0, −λ_min(VᴴXV)):  lift the eigenvalues of VᴴXV
                               below a floor f ≤ 0 up to f, with f the root
                               of Σ relu(f − λ_i) = d/ρ (a water level)
  * ball / distance prox:      radial closed forms (1-D after reduction);
                               the joint program's 1-D root is one masked
                               Newton iteration over the whole batch

Both solvers bound their working set the same way: a batch of any size
runs in pieces of at most ``CHUNK`` problems, so callers pass all their
problems in one call.

Hermiticity is structural: every projection maps hermitian matrices to
hermitian matrices, and the target is replaced by its hermitian part (the
skew part contributes a constant offset ‖skew‖_F in quadrature, which is
added back to reported objectives and ball radii).  (P2) has no epigraph
variable: at fixed X the least feasible μ is d·max(0, −λ_min(VᴴXV)), so
the engine minimizes that function of X over the slice-ball, and the
reported μ is its value at the returned X.

Infeasible problems never reach the engine.  ``min_mu_infeasible`` screens
a (target, δ) grid for (P2) by broadcasting one skew norm and one affine
gap per target against every δ; ``joint_infeasibility`` screens a whole
(δ, assignment) grid of joint fits from the skew norms and pairwise ball
gaps of each assignment.

An independent Dykstra alternating-projection solver for (P1) is provided
as a cross-check; it shares only the elementary projections with the
Newton path, not the iteration.

All solves are deterministic: fixed initialization (the hermitian part of
the target; for (P1) the dual point Y = Tr₁T/d), no randomness, and
per-problem arithmetic independent of how problems are batched.  Every
program runs at the one accuracy set by the module constants ``TOL`` and
``ITER_LIMIT``, and the engine also reads ``OVER_RELAXATION`` and
``RHO``, all read at each solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, OutOfRange
from .linalg import herm, max_entangled, partial_trace_first

# ---------------------------------------------------------------------------
# numerics / report types
# ---------------------------------------------------------------------------

#: Bound on the primal and dual residuals of the engine's stopping test,
#: on ‖F‖ of the (P1) Newton stopping test and on the cone deficit of the
#: returned X, each times max(1, ‖target‖_F); the ball residual may reach
#: ten times it.
TOL = 1e-9
#: Iterations (Newton steps for (P1)) after which a problem still running
#: is settled as MaxIters.
ITER_LIMIT = 50_000
#: Over-relaxation of the engine, in (1, 2).
OVER_RELAXATION = 1.6
#: Step size ρ every problem starts from.
RHO = 1.0

OPTIMAL = "Optimal"
MAX_ITERS = "MaxIters"
INFEASIBLE = "Infeasible"


@dataclass
class SolveReport:
    """Outcome of one convex solve.

    x_opt is hermitian.  residuals = (affine, cone, ball) are constraint
    violations of x_opt: entrywise 1-norm of Tr₁[x], eigenvalue deficit of
    the cone constraint, and distance beyond the δ-ball (0.0 when the
    program has no ball).  status is Optimal, MaxIters (still running
    after ``ITER_LIMIT`` iterations, stalled in the (P1) line search, or
    converged with a residual over its ``TOL`` bound) or Infeasible.
    iterations counts Newton steps for (P1) and ADMM iterations for (P2)
    and the joint fit.  mu is None for (P1).
    """

    x_opt: np.ndarray
    objective: float
    residuals: tuple[float, float, float]
    status: str
    iterations: int
    mu: Optional[float] = None


def _reports(x, objective, residuals, status, iterations, mu=None):
    """One SolveReport per row of ``x``; scalar fields broadcast over the rows."""
    b = len(x)
    objective, status, iterations, *residuals = (
        np.broadcast_to(v, (b,)) for v in (objective, status, iterations, *residuals)
    )
    return [
        SolveReport(
            x_opt=x[i],
            objective=float(objective[i]),
            residuals=tuple(float(r[i]) for r in residuals),
            status=str(status[i]),
            iterations=int(iterations[i]),
            mu=None if mu is None else float(mu[i]),
        )
        for i in range(b)
    ]


# ---------------------------------------------------------------------------
# geometry shared by all programs (cached per dimension)
# ---------------------------------------------------------------------------


class _Geometry:
    def __init__(self, d: int):
        self.d = d
        # columns: an orthonormal basis of ω⊥, the eigenvalue-1 eigenvectors
        # of its (real) projector; every cone eigendecomposition is of size
        # d² − 1
        ent = max_entangled(d)
        self.basis = np.linalg.eigh(ent.omega_perp.real)[1][:, 1:]
        # 1/d − d·ωωᴴ: trace-annihilating, and 1/d on ω⊥
        self.cone_lift = np.eye(d * d) / d - d * np.outer(ent.omega, ent.omega.conj())
        self.eye_d = np.eye(d, dtype=complex)

    def embed_second(self, y: np.ndarray) -> np.ndarray:
        """Batched 1_d ⊗ Y: (..., d, d) → (..., d², d²)."""
        d = self.d
        out = np.einsum("jk,...cr->...jckr", self.eye_d, y)
        return out.reshape(y.shape[:-2] + (d * d, d * d))

    def project_trace_zero(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto {Tr₁[X] = 0}; keeps hermiticity."""
        return x - self.embed_second(partial_trace_first(x)) / self.d

    def compress(self, x: np.ndarray) -> np.ndarray:
        """VᴴXV, batched: the ω⊥ block of X in the basis V."""
        return self.basis.T @ x @ self.basis

    def compress_eig(self, x: np.ndarray):
        """Eigenvalues λ (ascending) of VᴴXV and the vectors A = VQ (batched).

        A is d²×(d²−1) with orthonormal columns in ω⊥, so a spectral change
        of the cone block is X + A·diag(Δλ)·Aᴴ.
        """
        w, q = np.linalg.eigh(self.compress(x))
        return w, self.basis @ q

    def project_cone(self, x: np.ndarray) -> np.ndarray:
        """Projection onto {X : ω⊥ X ω⊥ ⪰ 0} (negative-part subtraction)."""
        w, a = self.compress_eig(x)
        neg = np.minimum(w, 0.0)
        if not neg.any():
            return x
        return x - (a * neg[..., None, :]) @ a.conj().swapaxes(-1, -2)

    def cone_deficit(self, x: np.ndarray) -> np.ndarray:
        """max(0, −λ_min(ω⊥Xω⊥)), batched."""
        w = np.linalg.eigvalsh(self.compress(x))
        # + 0.0 turns the −0.0 of an exact-zero λ_min into 0.0
        return np.maximum(0.0, -w[..., 0]) + 0.0

    # prox blocks of the engine: (x, ρ, per-problem data) → prox output
    def affine_block(self, x, rho, data):
        return self.project_trace_zero(x)

    def cone_block(self, x, rho, data):
        return self.project_cone(x)

    def slice_ball_block(self, x, rho, data):
        # {Tr₁[X] = 0} ∩ ball around a center on the slice: the slice
        # projection is orthogonal, so the ball projection after it is exact
        return _project_ball(self.project_trace_zero(x), data["center"], data["radius"])

    def noise_rate_block(self, x, rho, data):
        """prox of X ↦ d·max(0, −λ_min(ω⊥Xω⊥)) with step 1/ρ.

        Lifts the eigenvalues of ω⊥Xω⊥ below a floor f ≤ 0 up to f, where
        f is the root of Σ relu(f − λ_i) = d/ρ; f = 0 (the cone projection)
        when Σ relu(−λ_i) ≤ d/ρ.
        """
        w, a = self.compress_eig(x)  # w ascending
        # With the k smallest eigenvalues below the floor, the root is
        # f_k = (d/ρ + Σ_{i≤k} λ_i)/k; the active count is the largest k
        # with λ_k < f_k (k = 1 always qualifies).
        f = (self.d / rho[:, None] + np.cumsum(w, axis=-1)) / np.arange(1, w.shape[-1] + 1)
        k = np.sum(w < f, axis=-1)
        floor = np.minimum(f[np.arange(len(f)), k - 1], 0.0)
        lift = np.maximum(w, floor[:, None]) - w
        return x + (a * lift[..., None, :]) @ a.conj().swapaxes(-1, -2)


_GEOMETRY: dict[int, _Geometry] = {}


def _geometry(d: int) -> _Geometry:
    if d not in _GEOMETRY:
        _GEOMETRY[d] = _Geometry(d)
    return _GEOMETRY[d]


def _fro_sq(x: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(x) ** 2, axis=(-2, -1))


def _fro(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_fro_sq(x))


def _one_norm(x: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(x), axis=(-2, -1))


def _project_ball(x: np.ndarray, center: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Batched projection onto ‖X − center‖_F ≤ radius (radius shape (B,))."""
    diff = x - center
    dist = _fro(diff)
    scale = np.ones_like(dist)
    over = dist > radius
    scale[over] = radius[over] / dist[over]
    return center + diff * scale[:, None, None]


def _as_batch(target: np.ndarray, d: int) -> np.ndarray:
    """A (B, d², d²) stack of targets; one d²×d² target becomes B = 1."""
    t = np.asarray(target, dtype=complex)
    if t.ndim == 2:
        t = t[None]
    if t.ndim != 3 or t.shape[1:] != (d * d, d * d):
        raise DimensionMismatch(
            f"target must be {d * d}x{d * d} for side dimension {d}, got {t.shape}"
        )
    return t


# ---------------------------------------------------------------------------
# the consensus-ADMM engine
# ---------------------------------------------------------------------------


#: Problems iterated together; bounds the working set of both solvers
#: when a caller passes a large batch: a few iterate blocks per problem in
#: the engine, and in the (P1) Newton path also the Jacobian block of
#: d²·(d²−1)² complex entries (58 kB per problem at d = 4).
CHUNK = 8192


def _admm(
    z: np.ndarray,
    blocks: list,
    z_update: Callable,
    data: dict,
    scale: np.ndarray,
    finish: Callable,
    settle: Callable,
):
    """Lockstep over-relaxed consensus ADMM over a batch of problems.

    ``z`` is the consensus variable at its start value, one matrix per
    problem (problem axis first).  Each of ``blocks`` is a prox
    prox(v, ρ, data) that maps its input v = z − u to its projection.
    ``z_update(S, ρ, data)`` turns the sum S of the over-relaxed block
    outputs plus their duals into the new z.  ``data`` holds per-problem
    arrays (problem axis first), compacted with the iterates as problems
    retire.

    A problem converges once its primal residual (the distance of the
    block outputs from z) and its dual residual (ρ times the z step,
    counted once per block) are both at most ``TOL`` times its ``scale``.
    It then records ``finish(outs, z, done)``: the solutions of the
    retiring rows, from the block outputs ``outs`` and the updated z.
    Every 100 iterations ρ doubles where the primal residual exceeds
    ten times the dual one and halves in the reverse case, with the scaled
    duals rescaled to match.  Problems still running after ``ITER_LIMIT``
    iterations record ``settle(z, data)``.  Every problem starts from the
    step size ``RHO``, with over-relaxation ``OVER_RELAXATION``.

    The batch runs in consecutive pieces of at most ``CHUNK`` problems; an
    empty batch runs no iteration.  Each problem's iterates are independent
    of the others, so the pieces do not change any result.

    Returns (solutions, iterations, converged).
    """
    return _in_pieces(
        z,
        lambda piece: _admm_piece(
            z[piece], blocks, z_update, {key: v[piece] for key, v in data.items()},
            scale[piece], finish, settle,
        ),
    )


def _in_pieces(like: np.ndarray, solve: Callable):
    """(solutions, iterations, converged) of ``solve(piece)`` over the
    consecutive slices of at most ``CHUNK`` problems, joined; ``like`` has
    the solutions' shape and dtype, one problem per row.  An empty batch
    calls no ``solve``."""
    b = len(like)
    out = np.empty_like(like)
    iters = np.full(b, ITER_LIMIT)
    converged = np.zeros(b, dtype=bool)
    for start in range(0, b, CHUNK):
        piece = slice(start, start + CHUNK)
        out[piece], iters[piece], converged[piece] = solve(piece)
    return out, iters, converged


def _admm_piece(z, blocks, z_update, data, scale, finish, settle):
    """``_admm`` over one piece of the batch, all of its problems in lockstep."""
    alpha = OVER_RELAXATION
    b = len(scale)
    out = np.empty_like(z)
    tol = TOL * scale
    rho = np.full(b, RHO)
    u = [np.zeros_like(z) for _ in blocks]
    active = np.arange(b)
    iters = np.full(b, ITER_LIMIT)
    converged = np.zeros(b, dtype=bool)
    for it in range(1, ITER_LIMIT + 1):
        outs = [prox(z - uk, rho, data) for prox, uk in zip(blocks, u)]
        z_rest = (1 - alpha) * z
        xh = [alpha * xk + z_rest for xk in outs]
        # summed left to right over the blocks: ((h₀ + u₀) + h₁) + u₁ ...
        s = xh[0] + u[0]
        for hk, uk in zip(xh[1:], u[1:]):
            s = s + hk + uk
        z_new = z_update(s, rho, data)
        primal = None
        for xk, hk, uk in zip(outs, xh, u):
            uk += hk - z_new
            r = _fro_sq(xk - z_new)
            primal = r if primal is None else primal + r
        primal = np.sqrt(primal)
        dual = rho * np.sqrt(len(blocks) * _fro_sq(z_new - z))
        z = z_new

        done = (primal <= tol) & (dual <= tol)
        if done.any():
            idx = active[done]
            out[idx] = finish(outs, z, done)
            iters[idx] = it
            converged[idx] = True
            keep = ~done
            active = active[keep]
            if not active.size:
                break
            z = z[keep]
            u = [uk[keep] for uk in u]
            rho, primal, dual = rho[keep], primal[keep], dual[keep]
            tol = tol[keep]
            data = {key: v[keep] for key, v in data.items()}
        if it % 100 == 0:
            # deterministic residual balancing
            grow = primal > 10 * dual
            shrink = dual > 10 * primal
            rho[grow] *= 2.0
            rho[shrink] /= 2.0
            for uk in u:
                uk[grow] /= 2.0
                uk[shrink] *= 2.0
    if active.size:  # hit ITER_LIMIT
        out[active] = settle(z, data)
    return out, iters, converged


# ---------------------------------------------------------------------------
# (P1): closest conditionally-CP, trace-annihilating hermitian matrix
# ---------------------------------------------------------------------------


#: Armijo factor of the dual line search: a step must gain at least this
#: share of its first-order gain in θ.
_ARMIJO = 1e-4
#: Step lengths 1, 1/2, 1/4, ... a Newton step tries before its problem stalls.
_TRIALS = 30
#: Cap c of the Newton regularization κ = min(c, ‖F‖).  The dual Jacobian
#: is at least 1/d (the ω row and column of X are free), so κ only keeps
#: the step well-defined; a larger c slows Newton towards a gradient step.
_KAPPA_CAP = 1e-6


def _herm_coords(y: np.ndarray) -> np.ndarray:
    """Hermitian d×d → real d²-vector, isometric: Y_rr at (r, r), and for
    r < s √2·Re Y_rs at (r, s) and √2·Im Y_rs at (s, r); batched."""
    d = y.shape[-1]
    c = np.sqrt(2.0) * (np.triu(y.real, 1) - np.tril(y.imag, -1))
    c[..., np.arange(d), np.arange(d)] = y.real[..., np.arange(d), np.arange(d)]
    return c.reshape(y.shape[:-2] + (d * d,))


def _from_herm_coords(c: np.ndarray, d: int) -> np.ndarray:
    """The inverse of ``_herm_coords``."""
    c = c.reshape(c.shape[:-1] + (d, d))
    upper = (np.triu(c, 1) + 1j * np.triu(c.swapaxes(-1, -2), 1)) / np.sqrt(2.0)
    diag = c[..., np.arange(d), np.arange(d)]
    return upper + upper.conj().swapaxes(-1, -2) + diag[..., None] * np.eye(d)


def _dual_point(geo: _Geometry, t: np.ndarray, tr_t: np.ndarray, y: np.ndarray) -> dict:
    """The dual of (P1) at Y, batched: W = T − 1⊗Y, the spectrum (λ, A) of
    its cone block, X = Π_K(W), the gradient F = Tr₁X and its norm, θ(Y),
    and the scale of θ's rounding: ‖λ₋‖₁‖W‖ (each λ is off by up to ε‖W‖)
    plus the magnitudes of θ's other two terms."""
    w = t - geo.embed_second(y)
    lam, a = geo.compress_eig(w)
    neg = np.minimum(lam, 0.0)
    x = w - (a * neg[..., None, :]) @ a.conj().swapaxes(-1, -2)
    linear = np.real(np.sum(y.conj() * tr_t, axis=(-2, -1)))
    quadratic = 0.5 * geo.d * _fro_sq(y)
    f = partial_trace_first(x)
    return {
        "y": y, "lam": lam, "a": a, "x": x, "f": f, "fnorm": _fro(f),
        "theta": 0.5 * np.sum(neg**2, axis=-1) + linear - quadratic,
        "noise": -np.sum(neg, axis=-1) * _fro(w) + np.abs(linear) + quadratic,
    }


def _dual_jacobian(geo: _Geometry, lam: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The generalized Jacobian M of −F at a dual point, in the real
    coordinates of ``_herm_coords``: (B, d², d²), symmetric, 1/d ⪯ M ⪯ d.

    M_jk = d·δ_jk − ⟨E_j, Ω∘E_k⟩ with E_j = Aᴴ(1⊗H_j)A for the hermitian
    basis H_j behind the coordinates and Ω the divided differences of
    min(λ, 0).  One (B, d², d²−1, d²−1) block holds the E_j: it is built
    from the E_rs = Aᴴ(1⊗e_r e_sᵀ)A in place, scaled by √Ω and viewed as
    real, so M = d − G·Gᵀ.
    """
    d = geo.d
    b, n, m = a.shape
    rows = a.reshape(b, d, d, m).swapaxes(1, 2)  # [b, r, j, x] = A[b, (j, r), x]
    e = rows.conj().swapaxes(-1, -2)[:, :, None] @ rows[:, None, :]
    for r, s in zip(*np.triu_indices(d, 1)):
        e_rs = e[:, r, s].copy()
        e[:, r, s] += e[:, s, r]  # (E_rs + E_sr)/√2
        e[:, r, s] *= np.sqrt(0.5)
        e[:, s, r] -= e_rs  # i(E_rs − E_sr)/√2
        e[:, s, r] *= -1j * np.sqrt(0.5)
    neg = lam < 0
    low = np.minimum(lam, 0.0)
    mixed = neg[:, :, None] != neg[:, None, :]
    gap = np.where(mixed, lam[:, :, None] - lam[:, None, :], 1.0)
    omega = np.where(
        mixed, (low[:, :, None] - low[:, None, :]) / gap, neg[:, :, None] & neg[:, None, :]
    )
    e *= np.sqrt(omega)[:, None, None]
    g = e.reshape(b, d * d, m * m).view(float)
    return d * np.eye(d * d) - g @ g.swapaxes(-1, -2)


def _newton_piece(t: np.ndarray, scale: np.ndarray, geo: _Geometry):
    """(P1) by semismooth Newton on its dual, one piece in lockstep.

    Maximizes the concave θ(Y) = ½‖[VᴴWV]₋‖² + Re⟨Y, Tr₁T⟩ − (d/2)‖Y‖²,
    W = T − 1⊗Y, whose gradient is F(Y) = Tr₁Π_K(W), from the affine-only
    answer Y = Tr₁T/d.  Each step solves (M + κ)ΔY = F with κ = min(c, ‖F‖)
    and backtracks on θ (Armijo, with an allowance of 1e-14 times the
    rounding scales of both θ values, without which the test fails on
    rounding once ‖F‖ nears ``TOL``).  A step whose gain in θ lies within
    that allowance must halve ‖F‖, as Newton does near the answer; so a
    problem whose ‖F‖ cannot reach ``TOL``·scale for rounding stalls
    instead of running to ``ITER_LIMIT``.  A problem retires once
    ‖F‖ ≤ ``TOL``·scale and records the trace-zero projection of Π_K(W).
    A problem still running after ``ITER_LIMIT`` steps, or whose step
    fails every trial length, records ``_settle_p1`` of its current
    Π_K(W).  Returns (solutions, Newton steps, converged).
    """
    d = geo.d
    out = np.empty_like(t)
    iters = np.empty(len(t), dtype=int)
    converged = np.zeros(len(t), dtype=bool)
    tr_t = partial_trace_first(t)
    run = {"row": np.arange(len(t)), "t": t, "tr_t": tr_t, "tol": TOL * scale,
           **_dual_point(geo, t, tr_t, tr_t / d)}

    def retire(leave, x, ok):
        rows = run["row"][leave]
        out[rows], iters[rows], converged[rows] = x, it, ok
        return {key: v[~leave] for key, v in run.items()}

    for it in range(ITER_LIMIT + 1):
        done = run["fnorm"] <= run["tol"]
        if done.any():
            run = retire(done, geo.project_trace_zero(run["x"][done]), True)
        if it == ITER_LIMIT:
            run = retire(np.ones(len(run["row"]), dtype=bool), _settle_p1(geo, run["x"]), False)
        if not run["row"].size:
            break
        jac = _dual_jacobian(geo, run["lam"], run["a"])
        jac += np.minimum(_KAPPA_CAP, run["fnorm"])[:, None, None] * np.eye(d * d)
        rhs = _herm_coords(run["f"])
        coords = np.linalg.solve(jac, rhs[..., None])[..., 0]
        step = _from_herm_coords(coords, d)
        gain = _ARMIJO * np.sum(rhs * coords, axis=-1)
        length = np.ones(len(run["row"]))
        pending = np.arange(len(run["row"]))
        for _ in range(_TRIALS):
            trial = _dual_point(
                geo, run["t"][pending], run["tr_t"][pending],
                run["y"][pending] + length[pending, None, None] * step[pending],
            )
            slack = 1e-14 * (run["noise"][pending] + trial["noise"])
            rise = trial["theta"] - run["theta"][pending]
            ok = (rise >= length[pending] * gain[pending] - slack) & (
                (rise > slack) | (trial["fnorm"] <= 0.5 * run["fnorm"][pending])
            )
            for key, v in trial.items():
                run[key][pending[ok]] = v[ok]
            pending = pending[~ok]
            if not pending.size:
                break
            length[pending] /= 2
        if pending.size:  # stalled: no trial length passes
            stalled = np.zeros(len(run["row"]), dtype=bool)
            stalled[pending] = True
            run = retire(stalled, _settle_p1(geo, run["x"][stalled]), False)
    return out, iters, converged


def _settle_p1(geo: _Geometry, x: np.ndarray) -> np.ndarray:
    """A trace-zero, cone-feasible point from the cone points x = Π_K(W) of
    unfinished Newton solves: the trace-zero projection plus the least
    multiple of ``_Geometry.cone_lift`` that closes its cone deficit."""
    x = geo.project_trace_zero(x)
    return x + (geo.d * geo.cone_deficit(x))[:, None, None] * geo.cone_lift


def closest_lindbladian_batch(targets: np.ndarray, d: int) -> list[SolveReport]:
    """Solve (P1) for a stack of targets in lockstep.

    ``targets`` is (B, d², d²), or one d²×d² target.  Returns one
    SolveReport per target; (P1) is never infeasible (X = 0 qualifies).
    The solver is semismooth Newton on the d²-dimensional dual
    (``_newton_piece``); ``iterations`` counts Newton steps.  Each
    problem's iterates are independent, so results do not depend on the
    batch composition.
    """
    geo = _geometry(d)
    t_full = _as_batch(targets, d)
    t_h = herm(t_full)
    skew_norm = _fro(t_full - t_h)
    scale = np.maximum(1.0, _fro(t_h))
    x_sol, iters, converged = _in_pieces(
        t_h, lambda piece: _newton_piece(t_h[piece], scale[piece], geo)
    )
    cone_res = geo.cone_deficit(x_sol)
    affine_res = _one_norm(partial_trace_first(x_sol))
    obj = np.sqrt(_fro(x_sol - t_h) ** 2 + skew_norm**2)
    ok = converged & (cone_res <= TOL * scale)
    return _reports(
        x_sol, obj, (affine_res, cone_res, 0.0), np.where(ok, OPTIMAL, MAX_ITERS), iters
    )


# ---------------------------------------------------------------------------
# (P2): minimum cone shift μ within a δ-ball of the target
# ---------------------------------------------------------------------------


def _reach(t_full: np.ndarray, geo: _Geometry):
    """herm(T), its projection onto {Tr₁[X] = 0}, ‖skew(T)‖ and the
    distance from herm(T) to that projection."""
    t_h = herm(t_full)
    x0 = geo.project_trace_zero(t_h)
    return t_h, x0, _fro(t_full - t_h), _fro(t_h - x0)


def _ball_misses(deltas, skew_norm, affine_gap) -> np.ndarray:
    """δ² − ‖skew‖² < gap²: the δ-ball misses the hermitian trace-zero slice."""
    return ~(deltas**2 - skew_norm**2 >= affine_gap**2 - 1e-30)


def min_mu_infeasible(
    targets: np.ndarray, d: int, deltas: Sequence[float] | np.ndarray
) -> np.ndarray:
    """(B, D) mask of the (target, δ) pairs that (P2) reports Infeasible.

    The skew norm and the affine gap are computed once per target and
    broadcast against the whole δ grid; this is the same test
    ``min_mu_batch`` applies to each of its pairs.
    """
    _, _, skew_norm, affine_gap = _reach(_as_batch(targets, d), _geometry(d))
    deltas = np.asarray(deltas, dtype=float)
    return _ball_misses(deltas[None, :], skew_norm[:, None], affine_gap[:, None])


def min_mu_batch(
    targets: np.ndarray,
    d: int,
    deltas: Sequence[float] | np.ndarray,
) -> list[SolveReport]:
    """Solve (P2) for stacks of (target, δ) pairs in lockstep.

    ``targets`` is (B, d², d²), or one d²×d² target; ``deltas`` broadcasts
    to (B,).  (P2) is solved over X alone: minimize d·max(0, −λ_min(ω⊥Xω⊥))
    over the slice-ball {Tr₁[X] = 0, ‖X − T‖_F ≤ δ}.  μ is the shift the
    returned X needs, d·max(0, −λ_min) of it, so an X inside the cone gives
    exactly 0 (never −0.0).

    A pair is reported Infeasible when δ² < ‖skew(T)‖² + ‖Tr₁-component‖²,
    i.e. when the ball cannot even reach the hermitian affine subspace
    (``min_mu_infeasible`` evaluates the same test over a whole δ grid, so
    callers can keep such pairs out of the batch).  Its x_opt is the
    trace-zero projection of herm(T).  Every other x_opt, MaxIters too,
    lies in the δ-ball and on the slice.
    """
    geo = _geometry(d)
    t_full = _as_batch(targets, d)
    b = t_full.shape[0]
    deltas = np.broadcast_to(np.asarray(deltas, dtype=float), (b,)).copy()
    if np.any(deltas < 0):
        raise OutOfRange("delta must be nonnegative")

    t_h, x_affine, skew_norm, affine_gap = _reach(t_full, geo)
    scale = np.maximum(1.0, _fro(t_h))
    misses = _ball_misses(deltas, skew_norm, affine_gap)
    # the δ-ball's cut with the hermitian trace-zero slice: a ball there
    # around the slice point of herm(T)
    radius = np.sqrt(np.maximum(deltas**2 - skew_norm**2 - affine_gap**2, 0.0))

    reports: list[Optional[SolveReport]] = [None] * b
    dead = np.nonzero(misses)[0]
    x0 = x_affine[dead]
    ball0 = np.maximum(
        0.0, np.sqrt(affine_gap[dead] ** 2 + skew_norm[dead] ** 2) - deltas[dead]
    )
    infeasible = _reports(x0, np.nan, (0.0, geo.cone_deficit(x0), ball0), INFEASIBLE, 0)
    for i, rep in zip(dead, infeasible):
        reports[i] = rep

    live = np.nonzero(~misses)[0]
    t_h_l = t_h[live]
    scale_l = scale[live]

    x_sol, iters, converged = _admm(
        t_h_l.copy(),
        [geo.slice_ball_block, geo.noise_rate_block],
        lambda s, rho, data: s / 2,
        {"center": x_affine[live], "radius": radius[live]},
        scale_l,
        # the slice-ball block's output: in the ball and on the slice
        finish=lambda outs, z, done: outs[0][done],
        settle=lambda z, data: geo.slice_ball_block(z, None, data),
    )

    # the least rate that makes the returned X cone-feasible, so the
    # shifted cone constraint holds with no residual
    mu_sol = d * geo.cone_deficit(x_sol)
    affine_res = _one_norm(partial_trace_first(x_sol))
    ball_res = np.maximum(
        0.0, np.sqrt(_fro(x_sol - t_h_l) ** 2 + skew_norm[live] ** 2) - deltas[live]
    )
    ok = converged & (ball_res <= 10 * TOL * scale_l)
    solved = _reports(
        x_sol, mu_sol, (affine_res, 0.0, ball_res), np.where(ok, OPTIMAL, MAX_ITERS),
        iters, mu=mu_sol
    )
    for i, rep in zip(live, solved):
        reports[i] = rep
    return reports  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Dykstra cross-check for (P1)
# ---------------------------------------------------------------------------


def dykstra_closest_lindbladian(target: np.ndarray, d: int) -> SolveReport:
    """Independent (P1) solve by Dykstra's alternating projections.

    Converges to the same projection as the Newton path; used as the
    in-repo oracle for solver agreement.  Single problem, no batching;
    it stops on the engine's ``TOL`` and ``ITER_LIMIT``.
    """
    geo = _geometry(d)
    t_full = _as_batch(target, d)
    t_h = herm(t_full)
    skew_norm = float(_fro(t_full - t_h)[0])
    scale = max(1.0, float(_fro(t_h)[0]))

    x = t_h.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    status = MAX_ITERS
    it = 0
    for it in range(1, ITER_LIMIT + 1):
        y = geo.project_trace_zero(x + p)
        p = x + p - y
        x_new = geo.project_cone(y + q)
        q = y + q - x_new
        gap = float(_fro(x_new - y)[0])
        step = float(_fro(x_new - x)[0])
        x = x_new
        if gap <= TOL * scale and step <= TOL * scale:
            status = OPTIMAL
            break

    x_fin = geo.project_trace_zero(x)
    cone_res = float(geo.cone_deficit(x_fin)[0])
    affine_res = float(_one_norm(partial_trace_first(x_fin))[0])
    obj = float(np.sqrt(_fro(x_fin - t_h)[0] ** 2 + skew_norm**2))
    if status == OPTIMAL and cone_res > TOL * scale:
        status = MAX_ITERS
    return SolveReport(
        x_opt=x_fin[0],
        objective=obj,
        residuals=(affine_res, cone_res, 0.0),
        status=status,
        iterations=it,
    )


# ---------------------------------------------------------------------------
# joint fit across a snapshot series
# ---------------------------------------------------------------------------


def _radial_root(g: np.ndarray, s2: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Roots r ∈ [0, g] of r/√(r² + s2) + c·(r − g) = 0, batched.

    The left side is increasing and concave in r, so Newton started at the
    s2 → 0 closed form r₀ = max(g − 1/c, 0), which never exceeds the root,
    climbs to it from below.  Bisection keeps every step inside the
    bracket [lo, hi]; a step onto the bracket's end is kept, so an exact
    root (f = 0) ends the problem at once.  A problem stops once its step
    falls below 1e-15·max(1, g).
    """
    lo = np.zeros_like(g)
    hi = g.copy()
    r = np.maximum(g - 1.0 / c, 0.0)
    todo = np.arange(g.size)
    for _ in range(60):
        rr, gg, ss, cc = r[todo], g[todo], s2[todo], c[todo]
        den = np.sqrt(rr * rr + ss)
        pos = den > 0
        safe = np.where(pos, den, 1.0)
        f = np.where(pos, rr / safe, 1.0) + cc * (rr - gg)
        above = f > 0
        hi[todo[above]] = rr[above]
        lo[todo[~above]] = rr[~above]
        df = np.where(pos, ss / safe**3, 0.0) + cc
        step = rr - f / df
        lo_t, hi_t = lo[todo], hi[todo]
        step = np.where((lo_t <= step) & (step <= hi_t), step, 0.5 * (lo_t + hi_t))
        r[todo] = step
        todo = todo[np.abs(step - rr) > 1e-15 * np.maximum(1.0, gg)]
        if not todo.size:
            break
    return r


def _prox_scaled_distance(
    v: np.ndarray,
    target_h: np.ndarray,
    skew_sq: np.ndarray,
    t_scale: float,
    rho: np.ndarray,
    radius: np.ndarray,
) -> np.ndarray:
    """prox of X ↦ √(‖t·X − A‖² + s²) (+ ball indicator at that radius), batched.

    Radial reduction: with G = t·V − A, g = ‖G‖, the minimizer moves V
    along −G to reach magnitude r*, the root of
        r/√(r² + s²) + (ρ/t²)(r − g) = 0
    clipped into [0, √(max(radius² − s², 0))].  s², ρ and the radius are
    per problem; the roots of the whole batch come from one masked Newton
    iteration (``_radial_root``).
    """
    g_mat = t_scale * v - target_h
    g = _fro(g_mat)
    r = _radial_root(g, skew_sq, rho / t_scale**2)
    r = np.minimum(np.maximum(r, 0.0), np.sqrt(np.maximum(radius**2 - skew_sq, 0.0)))
    moves = g >= 1e-300
    step = np.where(moves, (r - g) / (t_scale * np.where(moves, g, 1.0)), 0.0)
    return v + step[:, None, None] * g_mat


def joint_infeasibility(
    targets: np.ndarray, times: Sequence[float] | np.ndarray, deltas
) -> np.ndarray:
    """Ball excess that proves joint fits infeasible; 0 where no test fires.

    ``targets`` is (..., q, d², d²), one target per snapshot, and ``deltas``
    broadcasts against its leading axes: a (D, 1) column of radii against
    A stacked assignments gives the (D, A) screen, with the skew norms and
    the pairwise gaps computed once per assignment.  The excess is inf
    where some skew part alone exceeds δ.  Otherwise it is gap − r_a − r_b
    for the first pair a < b of balls (radius √(δ² − ‖skew T_c‖²)/t_c
    around herm(T_c)/t_c) that lie more than 1e-12 apart.
    """
    t = np.asarray(targets, dtype=complex)
    t_sc = np.asarray(times, dtype=float)
    t_h = herm(t)
    skew_sq = _fro(t - t_h) ** 2
    scaled = t_h / t_sc[:, None, None]
    delta_sq = np.asarray(deltas, dtype=float)[..., None] ** 2
    radius = np.sqrt(np.maximum(delta_sq - skew_sq, 0.0)) / t_sc
    pairs = list(zip(*np.triu_indices(t.shape[-3], 1)))
    excess = np.zeros(radius.shape[:-1])
    for a, b in reversed(pairs):  # the first disjoint pair writes last
        gap = _fro(scaled[..., a, :, :] - scaled[..., b, :, :])
        r_a, r_b = radius[..., a], radius[..., b]
        excess = np.where(gap > r_a + r_b + 1e-12, gap - r_a - r_b, excess)
    return np.where(np.any(skew_sq > delta_sq, axis=-1), np.inf, excess)


def _joint_admm(
    t_full: np.ndarray,
    t_sc: np.ndarray,
    deltas: np.ndarray,
    geo: _Geometry,
) -> list[SolveReport]:
    """Consensus ADMM for the joint fits that passed the screen."""
    q = t_full.shape[1]
    t_h = herm(t_full)
    skew_sq = _fro(t_full - t_h) ** 2
    scale = np.maximum(1.0, np.max(_fro(t_h) / t_sc, axis=1))

    def term_block(c):
        def prox(x, rho, data):
            return _prox_scaled_distance(
                x, data["t"][:, c], data["skew_sq"][:, c], t_sc[c], rho, data["delta"]
            )
        return prox

    z_sol, iters, converged = _admm(
        t_h[:, 0] / t_sc[0],
        [geo.affine_block, geo.cone_block] + [term_block(c) for c in range(q)],
        lambda s, rho, data: s / (2 + q),
        {"t": t_h, "skew_sq": skew_sq, "delta": deltas},
        scale,
        finish=lambda outs, z, done: z[done],
        settle=lambda z, data: z,
    )

    x_fin = geo.project_trace_zero(geo.project_cone(z_sol))
    cone_res = geo.cone_deficit(x_fin)
    affine_res = _one_norm(partial_trace_first(x_fin))
    dists = _fro(t_sc[:, None, None] * x_fin[:, None] - t_full)
    ball_res = np.maximum(0.0, dists.max(axis=1) - deltas)
    ok = converged & (cone_res <= TOL * scale) & (ball_res <= 10 * TOL * scale)
    return _reports(
        x_fin, dists.sum(axis=1), (affine_res, cone_res, ball_res),
        np.where(ok, OPTIMAL, MAX_ITERS), iters
    )


def solve_joint_fit_batch(
    targets: np.ndarray,
    times: Sequence[float] | np.ndarray,
    d: int,
    deltas: Sequence[float] | np.ndarray,
) -> list[SolveReport]:
    """Solve a stack of joint fits in lockstep; one SolveReport per problem.

    ``targets`` is (B, q, d², d²).  Problem i fits one hermitian X to the
    q targets T_c = targets[i, c] at the shared ``times``, with trust
    radius δ = deltas[i]:

        minimize   Σ_c ‖t_c·X − T_c‖_F
        subject to ‖t_c·X − T_c‖_F ≤ δ for every c,  Tr₁[X] = 0,  ω⊥Xω⊥ ⪰ 0.

    Problems that ``joint_infeasibility`` rules out are reported
    Infeasible without iterating; their ball residual is the excess.  The
    rest run the consensus ADMM engine (one prox block per series term
    plus the affine and cone blocks) in one call.  Each problem's iterates
    are independent, so results do not depend on the batch composition.
    """
    geo = _geometry(d)
    t_full = np.asarray(targets, dtype=complex)
    n = d * d
    if t_full.ndim != 4 or t_full.shape[-2:] != (n, n):
        raise DimensionMismatch(
            f"targets must be (B, q, {n}, {n}) for side dimension {d}, got {t_full.shape}"
        )
    b, q = t_full.shape[:2]
    t_sc = np.asarray(times, dtype=float)
    if q == 0 or t_sc.shape != (q,):
        raise DimensionMismatch("one time per target required")
    if np.any(t_sc <= 0):
        raise OutOfRange("times must be positive")
    deltas = np.broadcast_to(np.asarray(deltas, dtype=float), (b,))
    if np.any(deltas < 0):
        raise OutOfRange("delta must be nonnegative")

    excess = joint_infeasibility(t_full, t_sc, deltas)
    reports: list[Optional[SolveReport]] = [None] * b
    screened = np.flatnonzero(excess > 0)
    x0 = geo.project_trace_zero(herm(t_full[screened, 0]) / t_sc[0])
    for i, rep in zip(screened, _reports(x0, np.nan, (0.0, 0.0, excess[screened]), INFEASIBLE, 0)):
        reports[i] = rep
    live = np.flatnonzero(excess == 0)
    for i, rep in zip(live, _joint_admm(t_full[live], t_sc, deltas[live], geo)):
        reports[i] = rep
    return reports  # type: ignore[return-value]


def solve_joint_fit(
    targets: Sequence[np.ndarray], times: Sequence[float], d: int, delta: float
) -> SolveReport:
    """Fit one hermitian cone/affine-feasible X to several scaled targets.

    The one-problem form of ``solve_joint_fit_batch``: infeasible when
    some skew part already exceeds δ or two balls are provably disjoint.
    """
    stacked = np.stack([_as_batch(t, d)[0] for t in targets])
    return solve_joint_fit_batch(stacked[None], times, d, [delta])[0]
