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
the same affine/cone constraints.

All three are solved by one engine, ``_admm``: lockstep, over-relaxed
consensus ADMM over a batch of problems.  The engine owns the iteration
(over-relaxation, consensus sums, dual updates, primal and dual residuals,
the stopping test), retires each problem as it converges, balances each
problem's step size ρ every 100 iterations, records ``history`` and
settles the problems still running at ``max_iters``.  A program supplies
only its prox blocks, its consensus update and what to record:

  * (P1): affine and cone blocks; z = (T + ρS)/(1 + 2ρ)
  * (P2): affine, shifted cone on (X, μ) and ball blocks; z = S/3 for X
          and S − 1/ρ for μ
  * joint: affine, cone and one scaled-distance block per series term;
           z = S/(2 + q)

where S is the sum of the over-relaxed block outputs and their duals.
The prox blocks are closed-form projections:

  * affine set  {Tr₁[X] = 0}:  X ↦ X − (1/d)·1⊗Tr₁[X]
  * cone set    {ω⊥Xω⊥ ⪰ 0}:  subtract the negative spectral part of ω⊥Xω⊥
  * ball / distance prox:      radial closed forms (1-D after reduction);
                               the joint program's 1-D root is one masked
                               Newton iteration over the whole batch

Hermiticity is structural: every projection maps hermitian matrices to
hermitian matrices, and the target is replaced by its hermitian part (the
skew part contributes a constant offset ‖skew‖_F in quadrature, which is
added back to reported objectives and ball radii).  The (P2) epigraph
variable μ is handled by projecting (ω⊥Xω⊥, μ) jointly onto
{(Y, μ) : Y + (μ/d)·1 ⪰ 0, μ ≥ 0} via a spectral shift.

Infeasible problems never reach the engine.  ``min_mu_infeasible`` screens
a (target, δ) grid for (P2) by broadcasting one skew norm and one affine
gap per target against every δ; ``joint_infeasibility`` screens a whole
(δ, assignment) grid of joint fits from the skew norms and pairwise ball
gaps of each assignment.

An independent Dykstra alternating-projection solver for (P1) is provided
as a cross-check; it shares only the elementary projections with the ADMM
path, not the iteration.

All solves are deterministic: fixed initialization at the hermitian part
of the target, no randomness, and per-problem arithmetic independent of
how problems are batched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, OutOfRange
from .linalg import herm, max_entangled, partial_trace_first

# ---------------------------------------------------------------------------
# settings / report types
# ---------------------------------------------------------------------------

OPTIMAL = "Optimal"
MAX_ITERS = "MaxIters"
INFEASIBLE = "Infeasible"


@dataclass
class SolverSettings:
    """Tolerances and iteration limits for the projection solvers.

    primal_tol / dual_tol bound the ADMM fixed-point residuals (scaled by
    max(1, ‖target‖_F)); cone_tol bounds the eigenvalue violation of the
    returned iterate.  over_relaxation must lie in (1, 2).
    """

    primal_tol: float = 1e-9
    dual_tol: float = 1e-9
    cone_tol: float = 1e-9
    max_iters: int = 50_000
    over_relaxation: float = 1.6
    rho: float = 1.0
    track_history: bool = False

    def validate(self) -> None:
        if min(self.primal_tol, self.dual_tol, self.cone_tol) <= 0:
            raise OutOfRange("solver tolerances must be positive")
        if self.max_iters < 1:
            raise OutOfRange("max_iters must be at least 1")
        if not 1.0 < self.over_relaxation < 2.0:
            raise OutOfRange("over_relaxation must lie in (1, 2)")
        if self.rho <= 0:
            raise OutOfRange("rho must be positive")


@dataclass
class SolveReport:
    """Outcome of one convex solve.

    x_opt is hermitian.  residuals = (affine, cone, ball) are constraint
    violations of x_opt: entrywise 1-norm of Tr₁[x], eigenvalue deficit of
    the cone constraint, and distance beyond the δ-ball (0.0 when the
    program has no ball).  status is Optimal, MaxIters or Infeasible; on
    Optimal all residuals are within tolerance.  mu is None for (P1).
    """

    x_opt: np.ndarray
    objective: float
    residuals: tuple[float, float, float]
    status: str
    iterations: int
    mu: Optional[float] = None
    history: Optional[list[tuple[int, float, float]]] = None


def _reports(x, objective, residuals, status, iterations, mu=None, history=None):
    """One SolveReport per row of ``x``; scalar fields broadcast over the
    rows, and ``history`` goes with the first report."""
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
            history=history if i == 0 else None,
        )
        for i in range(b)
    ]


# ---------------------------------------------------------------------------
# geometry shared by all programs (cached per dimension)
# ---------------------------------------------------------------------------


class _Geometry:
    def __init__(self, d: int):
        self.d = d
        self.perp = max_entangled(d).omega_perp
        self.eye_d = np.eye(d, dtype=complex)

    def embed_second(self, y: np.ndarray) -> np.ndarray:
        """Batched 1_d ⊗ Y: (..., d, d) → (..., d², d²)."""
        d = self.d
        out = np.einsum("jk,...cr->...jckr", self.eye_d, y)
        return out.reshape(y.shape[:-2] + (d * d, d * d))

    def project_trace_zero(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto {Tr₁[X] = 0}; keeps hermiticity."""
        return x - self.embed_second(partial_trace_first(x)) / self.d

    def compress_eig(self, x: np.ndarray):
        """Eigendecomposition of ω⊥ X ω⊥ (batched).

        The ω-direction contributes one exact-zero eigenvalue that is inert
        in every clip/shift below.
        """
        c = self.perp @ x @ self.perp
        return np.linalg.eigh(herm(c))

    def project_cone(self, x: np.ndarray) -> np.ndarray:
        """Projection onto {X : ω⊥ X ω⊥ ⪰ 0} (negative-part subtraction)."""
        w, v = self.compress_eig(x)
        neg = np.minimum(w, 0.0)
        if not neg.any():
            return x
        vh = v.conj().swapaxes(-1, -2)
        return x - (v * neg[..., None, :]) @ vh

    def project_cone_shifted(self, x: np.ndarray, mu: np.ndarray):
        """Joint projection of (X, μ) onto {ω⊥Xω⊥ + (μ/d)·1 ⪰ 0, μ ≥ 0}.

        For fixed μ the optimal X lifts eigenvalues of ω⊥Xω⊥ to the floor
        −μ/d, costing Σ relu(−μ/d − λ_i)²; adding (μ − μ₀)² gives a convex
        piecewise-quadratic in μ whose minimizer is found exactly by
        scanning the active-set intervals.
        """
        d = float(self.d)
        w, v = self.compress_eig(x)  # w ascending, shape (B, n)
        b, n = w.shape
        # With the k smallest eigenvalues below the floor, the stationary
        # point of Σ_{i≤k}(μ/d + w_i)² + (μ − μ₀)² is
        #   μ_k = (μ₀ − S_k/d) / (1 + k/d²),
        # valid while exactly those k are active: μ ∈ [−d·w_{k+1}, −d·w_k).
        s = np.concatenate([np.zeros((b, 1)), np.cumsum(w, axis=1)], axis=1)
        k = np.arange(n + 1)
        cand = (mu[:, None] - s / d) / (1.0 + k / d**2)
        upper = np.concatenate([np.full((b, 1), np.inf), -d * w], axis=1)
        lower = np.concatenate([-d * w, np.full((b, 1), -np.inf)], axis=1)
        cand = np.clip(cand, np.maximum(lower, 0.0), np.maximum(upper, 0.0))
        cand = np.concatenate([cand, np.zeros((b, 1))], axis=1)  # always try μ=0
        # evaluate the exact objective at every candidate, take the best
        deficit = np.maximum(0.0, -cand[..., None] / d - w[:, None, :])
        fval = np.sum(deficit**2, axis=-1) + (cand - mu[:, None]) ** 2
        best = np.argmin(fval, axis=1)
        mu_new = np.maximum(0.0, cand[np.arange(b), best])
        floor = -mu_new[:, None] / d
        lift = np.maximum(w, floor) - w
        vh = v.conj().swapaxes(-1, -2)
        x_new = x + (v * lift[..., None, :]) @ vh
        return x_new, mu_new

    def cone_deficit(self, x: np.ndarray, mu: np.ndarray | float = 0.0) -> np.ndarray:
        """max(0, −λ_min(ω⊥Xω⊥) − μ/d), batched."""
        w = np.linalg.eigvalsh(herm(self.perp @ x @ self.perp))
        return np.maximum(0.0, -w[..., 0] - np.asarray(mu) / self.d)

    # prox blocks of the engine: (x, ρ, per-problem data) → projection
    def affine_block(self, x, rho, data):
        return self.project_trace_zero(x)

    def cone_block(self, x, rho, data):
        return self.project_cone(x)


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
    t = np.asarray(target, dtype=complex)
    if t.ndim == 2:
        t = t[None]
    if t.shape[-1] != d * d or t.shape[-2] != d * d:
        raise DimensionMismatch(
            f"target must be {d * d}x{d * d} for side dimension {d}, got {t.shape}"
        )
    return t


# ---------------------------------------------------------------------------
# the consensus-ADMM engine
# ---------------------------------------------------------------------------


def _admm(
    z: list,
    blocks: list,
    z_update: Callable,
    data: dict,
    scale: np.ndarray,
    st: SolverSettings,
    finish: Callable,
    settle: Callable,
    history: Optional[list] = None,
):
    """Lockstep over-relaxed consensus ADMM over a batch of problems.

    ``z`` lists the parts of the consensus variable at their start values:
    the matrix X, plus the scalar μ for (P2), each with the problem axis
    first.  ``blocks`` lists (parts, prox) pairs; prox(*v, ρ, data) maps
    the block's inputs v = z − u on its parts to their projections, a
    tuple when the block owns more than one part.  ``z_update(S, ρ,
    data)`` turns the per-part sums S of the over-relaxed outputs plus
    their duals into the new z.  ``data`` holds per-problem arrays
    (problem axis first), compacted with the iterates as problems retire.

    A problem converges once its primal residual (the distance of the
    block outputs from z) and its dual residual (ρ times the z step,
    counted once per block on each part) are below primal_tol and
    dual_tol times its ``scale``.  It then records ``finish(outs, z,
    done)``: one value per part for the retiring rows, from the block
    outputs ``outs`` (one entry per block, as its prox returned it) and
    the updated z.  Every 100 iterations ρ doubles where the primal
    residual exceeds ten times the dual one and halves in the reverse
    case, with the scaled duals rescaled to match.  Problems still
    running at max_iters record ``settle(z, data)``.

    Returns (one array per part, iterations, converged).
    """
    alpha = st.over_relaxation
    nz = len(z)
    # One link per (block, part), part-major: the consensus sums and the
    # primal residual run over the links in this order.
    links = [(k, p) for p in range(nz) for k, (parts, _) in enumerate(blocks) if p in parts]
    # each block's prox with the (link, part) of each of its inputs, and
    # where each link's output sits in what its block's prox returns
    proxes = [
        (prox, [(links.index((k, p)), p) for p in parts])
        for k, (parts, prox) in enumerate(blocks)
    ]
    pick = [(k, None if len(blocks[k][0]) == 1 else blocks[k][0].index(p), p) for k, p in links]
    weight = [sum(q == p for _, q in links) for p in range(nz)]
    sq = [_fro_sq if zp.ndim == 3 else np.square for zp in z]

    b = len(scale)
    out = [np.empty_like(zp) for zp in z]
    primal_tol, dual_tol = st.primal_tol * scale, st.dual_tol * scale
    rho = np.full(b, st.rho)
    u = [np.zeros_like(z[p]) for _, p in links]
    active = np.arange(b)
    iters = np.full(b, st.max_iters)
    converged = np.zeros(b, dtype=bool)
    for it in range(1, st.max_iters + 1):
        # The body is plain loops over the precomputed links: it runs once
        # per iteration, where per-call overhead shows on small batches.
        outs = []
        for prox, inputs in proxes:
            outs.append(prox(*[z[p] - u[j] for j, p in inputs], rho, data))
        x, xh = [], []
        sums: list = [None] * nz
        z_rest = [(1 - alpha) * zp for zp in z]
        for j, (k, i, p) in enumerate(pick):
            xj = outs[k] if i is None else outs[k][i]
            hj = alpha * xj + z_rest[p]
            sums[p] = hj + u[j] if sums[p] is None else sums[p] + hj + u[j]
            x.append(xj)
            xh.append(hj)
        z_new = z_update(sums, rho, data)
        primal = dual = None
        for j, (_, _, p) in enumerate(pick):
            u[j] += xh[j] - z_new[p]
            r = sq[p](x[j] - z_new[p])
            primal = r if primal is None else primal + r
        for p in range(nz):
            r = weight[p] * sq[p](z_new[p] - z[p])
            dual = r if dual is None else dual + r
        primal = np.sqrt(primal)
        dual = rho * np.sqrt(dual)
        z = z_new
        if history is not None:
            history.append((it, float(primal.max()), float(dual.max())))

        done = (primal <= primal_tol) & (dual <= dual_tol)
        if done.any():
            idx = active[done]
            for o, v in zip(out, finish(outs, z, done)):
                o[idx] = v
            iters[idx] = it
            converged[idx] = True
            keep = ~done
            active = active[keep]
            if not active.size:
                break
            z = [zp[keep] for zp in z]
            u = [uj[keep] for uj in u]
            rho, primal, dual = rho[keep], primal[keep], dual[keep]
            primal_tol, dual_tol = primal_tol[keep], dual_tol[keep]
            data = {key: v[keep] for key, v in data.items()}
        if it % 100 == 0:
            # deterministic residual balancing
            grow = primal > 10 * dual
            shrink = dual > 10 * primal
            rho[grow] *= 2.0
            rho[shrink] /= 2.0
            for uj in u:
                uj[grow] /= 2.0
                uj[shrink] *= 2.0
    if active.size:  # hit max_iters
        for o, v in zip(out, settle(z, data)):
            o[active] = v
    return out, iters, converged


# ---------------------------------------------------------------------------
# (P1): closest conditionally-CP, trace-annihilating hermitian matrix
# ---------------------------------------------------------------------------


def closest_lindbladian_batch(
    targets: np.ndarray,
    d: int,
    settings: Optional[SolverSettings] = None,
) -> list[SolveReport]:
    """Solve (P1) for a stack of targets in lockstep.

    Returns one SolveReport per target.  Each problem's iterates are
    independent, so results do not depend on the batch composition.
    """
    st = settings or SolverSettings()
    st.validate()
    geo = _geometry(d)
    t_full = _as_batch(targets, d)
    t_h = herm(t_full)
    skew_norm = _fro(t_full - t_h)
    scale = np.maximum(1.0, _fro(t_h))
    history: Optional[list] = [] if st.track_history else None

    def z_update(s, rho, data):
        return [(data["t"] + rho[:, None, None] * s[0]) / (1 + 2 * rho)[:, None, None]]

    (x_sol,), iters, converged = _admm(
        [t_h.copy()],
        [((0,), geo.affine_block), ((0,), geo.cone_block)],
        z_update,
        {"t": t_h},
        scale,
        st,
        # the cone block's output, made exactly trace-annihilating
        finish=lambda outs, z, done: [geo.project_trace_zero(outs[1][done])],
        settle=lambda z, data: [geo.project_trace_zero(geo.project_cone(z[0]))],
        history=history,
    )
    cone_res = geo.cone_deficit(x_sol)
    affine_res = _one_norm(partial_trace_first(x_sol))
    obj = np.sqrt(_fro(x_sol - t_h) ** 2 + skew_norm**2)
    ok = converged & (cone_res <= st.cone_tol * scale)
    return _reports(
        x_sol, obj, (affine_res, cone_res, 0.0), np.where(ok, OPTIMAL, MAX_ITERS),
        iters, history=history,
    )


def solve_closest_lindbladian(
    target: np.ndarray, d: int, settings: Optional[SolverSettings] = None
) -> SolveReport:
    """Project a matrix onto the hermitian, trace-annihilating, conditionally
    positive cone — program (P1).  Never infeasible (X = 0 qualifies)."""
    return closest_lindbladian_batch(np.asarray(target)[None], d, settings)[0]


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


def _ball_block(x, rho, data):
    return _project_ball(x, data["center"], data["radius"])


def min_mu_batch(
    targets: np.ndarray,
    d: int,
    deltas: Sequence[float] | np.ndarray,
    settings: Optional[SolverSettings] = None,
) -> list[SolveReport]:
    """Solve (P2) for stacks of (target, δ) pairs in lockstep.

    A pair is reported Infeasible when δ² < ‖skew(T)‖² + ‖Tr₁-component‖²,
    i.e. when the ball cannot even reach the hermitian affine subspace
    (``min_mu_infeasible`` evaluates the same test over a whole δ grid, so
    callers can keep such pairs out of the batch).  Its x_opt is the
    trace-zero projection of herm(T).  Deeper infeasibility (the ball
    misses the cone) is not screened and surfaces as MaxIters.
    """
    st = settings or SolverSettings()
    st.validate()
    geo = _geometry(d)
    t_full = _as_batch(targets, d)
    b = t_full.shape[0]
    deltas = np.broadcast_to(np.asarray(deltas, dtype=float), (b,)).copy()
    if np.any(deltas < 0):
        raise OutOfRange("delta must be nonnegative")

    t_h, x_affine, skew_norm, affine_gap = _reach(t_full, geo)
    scale = np.maximum(1.0, _fro(t_h))
    misses = _ball_misses(deltas, skew_norm, affine_gap)
    # effective hermitian-space ball radius
    radius = np.sqrt(np.maximum(deltas**2 - skew_norm**2, 0.0))

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
    if live.size == 0:
        return reports  # type: ignore[return-value]

    t_h_l = t_h[live]
    scale_l = scale[live]
    history: Optional[list] = [] if st.track_history else None

    def shifted_cone_block(x, mu, rho, data):
        return geo.project_cone_shifted(x, mu)

    def z_update(s, rho, data):
        # μ appears only in the objective (coefficient 1) and the cone block
        return [s[0] / 3, s[1] - 1.0 / rho]

    (x_sol, mu_sol), iters, converged = _admm(
        [t_h_l.copy(), geo.cone_deficit(t_h_l) * d],
        [((0,), geo.affine_block), ((0, 1), shifted_cone_block), ((0,), _ball_block)],
        z_update,
        {"center": t_h_l, "radius": radius[live]},
        scale_l,
        st,
        # the ball block's output, made exactly trace-annihilating, and the
        # cone block's μ
        finish=lambda outs, z, done: [
            geo.project_trace_zero(outs[2][done]), np.maximum(0.0, outs[1][1][done])
        ],
        settle=lambda z, data: [
            geo.project_trace_zero(_project_ball(z[0], data["center"], data["radius"])),
            np.maximum(0.0, z[1]),
        ],
        history=history,
    )

    # lift μ the last ~1e-9 so the returned pair is exactly cone-feasible;
    # an honest 0 stays 0 because the deficit is then itself ~0
    mu_sol = np.maximum(mu_sol, d * geo.cone_deficit(x_sol))
    cone_res = geo.cone_deficit(x_sol, mu_sol)
    affine_res = _one_norm(partial_trace_first(x_sol))
    ball_res = np.maximum(
        0.0, np.sqrt(_fro(x_sol - t_h_l) ** 2 + skew_norm[live] ** 2) - deltas[live]
    )
    ok = (
        converged
        & (cone_res <= st.cone_tol * scale_l)
        & (ball_res <= 10 * st.primal_tol * scale_l)
    )
    solved = _reports(
        x_sol, mu_sol, (affine_res, cone_res, ball_res), np.where(ok, OPTIMAL, MAX_ITERS),
        iters, mu=mu_sol, history=history,
    )
    for i, rep in zip(live, solved):
        reports[i] = rep
    return reports  # type: ignore[return-value]


def solve_min_mu(
    target: np.ndarray,
    d: int,
    delta: float,
    settings: Optional[SolverSettings] = None,
) -> SolveReport:
    """Find the smallest cone shift μ compatible with staying δ-close to the
    target — program (P2).  μ is never clamped away from an honest 0."""
    return min_mu_batch(np.asarray(target)[None], d, [delta], settings)[0]


# ---------------------------------------------------------------------------
# Dykstra cross-check for (P1)
# ---------------------------------------------------------------------------


def dykstra_closest_lindbladian(
    target: np.ndarray, d: int, settings: Optional[SolverSettings] = None
) -> SolveReport:
    """Independent (P1) solve by Dykstra's alternating projections.

    Converges to the same projection as the ADMM path; used as the
    in-repo oracle for solver agreement.  Single problem, no batching.
    """
    st = settings or SolverSettings()
    st.validate()
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
    for it in range(1, st.max_iters + 1):
        y = geo.project_trace_zero(x + p)
        p = x + p - y
        x_new = geo.project_cone(y + q)
        q = y + q - x_new
        gap = float(_fro(x_new - y)[0])
        step = float(_fro(x_new - x)[0])
        x = x_new
        if gap <= st.primal_tol * scale and step <= st.dual_tol * scale:
            status = OPTIMAL
            break

    x_fin = geo.project_trace_zero(x)
    cone_res = float(geo.cone_deficit(x_fin)[0])
    affine_res = float(_one_norm(partial_trace_first(x_fin))[0])
    obj = float(np.sqrt(_fro(x_fin - t_h)[0] ** 2 + skew_norm**2))
    if status == OPTIMAL and cone_res > st.cone_tol * scale:
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


#: Joint problems iterated together; bounds the working set (2 + q iterate
#: blocks per problem) when a caller passes a large (δ, assignment) grid.
JOINT_CHUNK = 8192


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
    st: SolverSettings,
    history: Optional[list],
) -> list[SolveReport]:
    """Consensus ADMM for a chunk of joint fits that passed the screen."""
    q = t_full.shape[1]
    t_h = herm(t_full)
    skew_sq = _fro(t_full - t_h) ** 2
    scale = np.maximum(1.0, np.max(_fro(t_h) / t_sc, axis=1))

    def term_block(c):
        def prox(x, rho, data):
            return _prox_scaled_distance(
                x, data["t"][:, c], data["skew_sq"][:, c], t_sc[c], rho, data["delta"]
            )
        return (0,), prox

    (z_sol,), iters, converged = _admm(
        [t_h[:, 0] / t_sc[0]],
        [((0,), geo.affine_block), ((0,), geo.cone_block)] + [term_block(c) for c in range(q)],
        lambda s, rho, data: [s[0] / (2 + q)],
        {"t": t_h, "skew_sq": skew_sq, "delta": deltas},
        scale,
        st,
        finish=lambda outs, z, done: [z[0][done]],
        settle=lambda z, data: [z[0]],
        history=history,
    )

    x_fin = geo.project_trace_zero(geo.project_cone(z_sol))
    cone_res = geo.cone_deficit(x_fin)
    affine_res = _one_norm(partial_trace_first(x_fin))
    dists = _fro(t_sc[:, None, None] * x_fin[:, None] - t_full)
    ball_res = np.maximum(0.0, dists.max(axis=1) - deltas)
    ok = (
        converged
        & (cone_res <= st.cone_tol * scale)
        & (ball_res <= 10 * st.primal_tol * scale)
    )
    return _reports(
        x_fin, dists.sum(axis=1), (affine_res, cone_res, ball_res),
        np.where(ok, OPTIMAL, MAX_ITERS), iters, history=history,
    )


def solve_joint_fit_batch(
    targets: np.ndarray,
    times: Sequence[float] | np.ndarray,
    d: int,
    deltas: Sequence[float] | np.ndarray,
    settings: Optional[SolverSettings] = None,
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
    plus the affine and cone blocks) in chunks of JOINT_CHUNK.  Each
    problem's iterates are independent, so results do not depend on the
    batch composition.
    """
    st = settings or SolverSettings()
    st.validate()
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
    history: Optional[list] = [] if st.track_history else None
    for start in range(0, live.size, JOINT_CHUNK):
        idx = live[start : start + JOINT_CHUNK]
        solved = _joint_admm(
            t_full[idx], t_sc, deltas[idx], geo, st, history if start == 0 else None
        )
        for i, rep in zip(idx, solved):
            reports[i] = rep
    return reports  # type: ignore[return-value]


def solve_joint_fit(
    targets: Sequence[np.ndarray],
    times: Sequence[float],
    d: int,
    delta: float,
    settings: Optional[SolverSettings] = None,
) -> SolveReport:
    """Fit one hermitian cone/affine-feasible X to several scaled targets.

    The one-problem form of ``solve_joint_fit_batch``: infeasible when
    some skew part already exceeds δ or two balls are provably disjoint.
    """
    stacked = np.stack([_as_batch(t, d)[0] for t in targets])
    return solve_joint_fit_batch(stacked[None], times, d, [delta], settings)[0]
