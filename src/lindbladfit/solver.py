"""Projection solvers for the two convex programs behind the generator fits.

Both programs live in the real vector space of hermitian d²×d² matrices X
(candidate Choi-side variables):

    (P1)  minimize  ‖X − T‖_F
          subject   Tr₁[X] = 0,   ω⊥ X ω⊥ ⪰ 0

    (P2)  minimize  μ
          subject   ‖X − T‖_F ≤ δ,   Tr₁[X] = 0,   ω⊥ X ω⊥ + (μ/d)·1 ⪰ 0

where ω is the normalized maximally entangled vector and ω⊥ the projector
onto its orthogonal complement.  A third program fits one generator to a
snapshot series: minimize Σ_c ‖t_c X − T_c‖_F under the same affine/cone
constraints.  Every cone test and projection works on the
(d²−1)×(d²−1) block VᴴXV, with V an orthonormal basis of ω⊥ (the cone
K = {X : VᴴXV ⪰ 0}).

(P1) is a projection Π onto K ∩ {Tr₁[X] = 0} with only d² equality
constraints, solved by semismooth Newton on its dual in the hermitian d×d
multiplier Y of Tr₁[X] = 0 (the method of Qi and Sun for the nearest
correlation matrix, SIAM J. Matrix Anal. Appl. 28 (2006) 360-385).  The
dual θ(Y) = ½‖[VᴴWV]₋‖² + Re⟨Y, Tr₁T⟩ − (d/2)‖Y‖², W = T − 1⊗Y, is
concave with gradient F(Y) = Tr₁Π_K(W), where Π_K(W) = W − V[VᴴWV]₋Vᴴ.
Each step solves one regularized d²×d² system in the generalized Jacobian
of F, which is built from the same eigendecomposition of VᴴWV as F, from
the smaller of its two eigenvalue sets (negative or nonnegative), and
takes an Armijo step on θ; a handful of steps and eigendecompositions
finish a problem.  The answer is the trace-zero projection of Π_K(W).

The other two programs are outer loops around Π, so this Newton solver is
the only one:

  * (P2) is a root search.  C = 1/d − d·ωωᴴ annihilates Tr₁ and is 1/d
    on ω⊥, so X meets the constraints at rate μ exactly when X + μC lies
    in Π's set, and the distance from herm T to those X is
    g(μ) = ‖Z − Π(Z)‖, Z = herm T + μC.  g is convex and nonincreasing,
    so the least μ is 0 when g(0) ≤ δ′ = √(δ² − ‖skew T‖²) and otherwise
    the root of g = δ′.  Newton's method on g − δ′ climbs to it from
    μ = 0: g's tangent lies below it, so no step passes the root, and a
    step on a stretch where g is affine lands on it.  Its derivative
    g′ = ⟨Z − Π(Z), C⟩/g comes from the same projection.  At μ = 0 the
    projection depends on the target alone, so a batch projects each
    distinct target once there, however many δ share it.  The answer is
    X = Π(Z) − μC.
  * The joint fit is iteratively reweighted (P1), majorize–minimize on
    the sum of norms (Beck and Sabach, J. Optim. Theory Appl. 164 (2015)):
    X⁺ = Π(Σ_c w_c t_c herm T_c / Σ_c w_c t_c²) with
    w_c ∝ 1/‖t_c X − T_c‖_F, a step that never increases the objective.

Both outer loops run in lockstep over the batch and retire each problem
as it converges.  A problem still running after ``ITER_LIMIT`` outer
steps, or one whose inner (P1) solve ends MaxIters, is MaxIters.  Every
(P1) solve runs in pieces of at most ``CHUNK`` problems, so callers pass
all their problems in one call.

Hermiticity is structural: every projection maps hermitian matrices to
hermitian matrices, and the target is replaced by its hermitian part (the
skew part contributes a constant offset ‖skew‖_F in quadrature, which is
added back to reported objectives and ball radii).

Infeasible problems never reach the solver: the caller screens them out
and the solver solves every problem it is handed.  ``min_mu_infeasible``
screens a (target, δ) grid for (P2) by broadcasting one skew norm and one
affine gap per target against every δ; ``joint_infeasible`` screens a
stack of joint fits at one δ from the skew norms and pairwise ball gaps of
each.

An independent Dykstra alternating-projection solver for (P1) is provided
as a cross-check; it shares only the elementary projections with the
Newton path, not the iteration.

All solves are deterministic: fixed initialization (the dual point
Y = Tr₁T/d of each (P1) solve, μ = 0, equal weights), no randomness, and
per-problem arithmetic independent of how problems are batched.  Every
program runs at the one accuracy set by the module constants ``TOL`` and
``ITER_LIMIT``, read at each solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, OutOfRange
from .linalg import herm, max_entangled, partial_trace_first

# ---------------------------------------------------------------------------
# numerics / report types
# ---------------------------------------------------------------------------

#: Bound on ‖F‖ of the (P1) Newton stopping test, on the cone deficit of
#: the returned X, on g − δ′ at the (P2) root and on the last step of the
#: joint reweighting, each times max(1, ‖target‖_F); the (P2) ball
#: residual may reach ten times it.
TOL = 1e-9
#: Newton steps of a (P1) solve, and outer steps of a (P2) root search or
#: a joint reweighting, after which a problem still running is settled as
#: MaxIters.
ITER_LIMIT = 50_000

OPTIMAL = "Optimal"
MAX_ITERS = "MaxIters"
# no solve reports it; the benchmark tracer (perfbench/spans.py) still
# counts reports with this status.
INFEASIBLE = "Infeasible"


@dataclass
class SolveReport:
    """Outcome of one convex solve.

    x_opt is hermitian.  residuals = (affine, cone, ball) are constraint
    violations of x_opt: entrywise 1-norm of Tr₁[x], eigenvalue deficit of
    the (shifted) cone constraint, and distance beyond the δ-ball (0.0 when
    the program has no ball).  status is Optimal, MaxIters (still running
    after ``ITER_LIMIT`` steps, stalled in a (P1) line search, or converged
    with a residual over its ``TOL`` bound).  iterations
    counts Newton steps for (P1), Newton steps on μ for (P2) and
    reweighting steps for the joint fit; each outer step of the last two
    is one (P1) solve.  mu is None for (P1) and the joint fit.
    """

    x_opt: np.ndarray
    objective: float
    residuals: tuple[float, float, float]
    status: str
    iterations: int
    mu: Optional[float] = None


def _reports(x, objective, residuals, status, iterations, mu=None):
    """One SolveReport per row of ``x``; a field given as a Python scalar
    repeats over the rows, an array gives one entry per row."""

    def column(v):
        return v.tolist() if isinstance(v, np.ndarray) else [v] * len(x)

    rows = zip(x, column(objective), zip(*map(column, residuals)), column(status),
               column(iterations), column(mu))
    return [SolveReport(*row) for row in rows]


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
        # rows: the hermitian basis H_j = Σ_rs T_j,rs e_r e_sᵀ behind the
        # coordinates of ``_herm_coords``
        self.herm_basis = _from_herm_coords(np.eye(d * d), d).reshape(d * d, d * d)
        # the two Jacobians of a spectrum with no negative eigenvalue (d) and
        # with no nonnegative one (d − C); C_jl = Tr(H̃_j P H̃_l P) = ⟨E_j, E_l⟩,
        # H̃ = 1⊗H and P = VVᴴ the projector onto ω⊥
        lifted = self.basis @ self.basis.T @ self.embed_second(self.herm_basis.reshape(-1, d, d))
        self.jac_none = d * np.eye(d * d)
        self.jac_all = self.jac_none - np.einsum("jab,lba->jl", lifted, lifted).real

    def embed_second(self, y: np.ndarray) -> np.ndarray:
        """Batched 1_d ⊗ Y: (..., d, d) → (..., d², d²)."""
        d = self.d
        out = np.zeros(y.shape[:-2] + (d, d, d, d), dtype=complex)
        for j in range(d):
            out[..., j, :, j, :] = y
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

    M_jl = d·δ_jl − Re⟨E_j, Ω∘E_l⟩ with E_j = Aᴴ(1⊗H_j)A for the hermitian
    basis H_j behind the coordinates and Ω the divided differences of
    min(λ, 0), which are 1 where both eigenvalues are negative and 0 where
    neither is.  So each problem works on the smaller side S of its
    spectrum, k = min(n₋, n₊) eigenvalues, as Qi and Sun do.  Let Σ be the
    real sum of W∘conj(E_j)∘E_l over the rows x ∈ S, with W = 1 on S×S and
    2λ_x/(λ_x − λ_y) on x ∈ S against y ∉ S (a mixed pair and its mirror).
    When S is the negative side, M = d − Σ; when it is the nonnegative
    side, Σ = Re⟨E_j, (1 − Ω)∘E_l⟩ and M = d − C + Σ, with the constant
    C_jl = ⟨E_j, E_l⟩ = Tr(H̃_j P H̃_l P) of ``_Geometry.jac_all``.  At
    k = 0, M is one of the two constants.  The k rows of every
    E_rs = Aᴴ(1⊗e_r e_sᵀ)A come from one product per problem; scaled by √W,
    mapped to the E_j by ``_Geometry.herm_basis`` and viewed as real, they
    form a (d², 2km) block G with Σ = G·Gᵀ.  Problems are grouped by k, so
    each one's arithmetic is its own.
    """
    d = geo.d
    n, m = a.shape[1:]
    n_neg = np.count_nonzero(lam < 0, axis=-1)
    top = 2 * n_neg > m  # the nonnegative side is the smaller
    jac = np.where(top[:, None, None], geo.jac_all, geo.jac_none)
    sizes = np.where(top, m - n_neg, n_neg)
    for k in np.unique(sizes[sizes > 0]):
        g = np.flatnonzero(sizes == k)
        # eigh sorts λ ascending: reversing a spectrum whose smaller side is
        # the nonnegative one puts S first there too; W is unchanged
        flip = top[g]
        lam_g = np.where(flip[:, None], lam[g, ::-1], lam[g])
        a_g = np.where(flip[:, None, None], a[g, :, ::-1], a[g])
        lam_own = lam_g[:, :k, None]
        weight = np.ones((len(g), k, m))
        weight[..., k:] = np.sqrt(2 * lam_own / (lam_own - lam_g[:, None, k:]))
        # [r, x, s, y] = Σ_j conj A[(j, r), x] A[(j, s), y] = (E_rs)_xy, x ∈ S
        left = a_g[..., :k].conj().reshape(-1, d, d * k).swapaxes(-1, -2)
        rows = (left @ a_g.reshape(-1, d, d * m)).reshape(-1, d, k, d, m)
        blocks = np.empty((len(g), d, d, k, m), dtype=complex)
        np.multiply(rows.transpose(0, 1, 3, 2, 4), weight[:, None, None], out=blocks)
        del rows  # one fewer block-sized array alive through the products below
        # row j: √W∘E_j on the rows x ∈ S, viewed as real
        e = (geo.herm_basis @ blocks.reshape(-1, n, k * m)).view(float)
        part = e @ e.swapaxes(-1, -2)
        jac[g] += np.where(flip[:, None, None], part, -part)
    return jac


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
    Π_K(W).  A piece whose problems all stop at their start point returns
    at once, with what that first retirement records.  Returns (solutions,
    Newton steps, converged).
    """
    d = geo.d
    out = np.empty_like(t)
    iters = np.empty(len(t), dtype=int)
    converged = np.zeros(len(t), dtype=bool)
    tr_t = partial_trace_first(t)
    run = {"row": np.arange(len(t)), "t": t, "tr_t": tr_t, "tol": TOL * scale,
           **_dual_point(geo, t, tr_t, tr_t / d)}
    if np.all(run["fnorm"] <= run["tol"]):  # step 0 retires every problem
        return geo.project_trace_zero(run["x"]), np.zeros_like(iters), np.ones_like(converged)

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


#: Problems a (P1) Newton pass holds at once; bounds the working set of
#: every solver when a caller passes a large batch: per problem a few d²×d²
#: complex matrices and the Jacobian's (d², k, d²−1) complex block, at most
#: 27 kB at d = 4 (k ≤ 7).  At d = 4 a pass of 32 runs about as fast as one
#: of the whole batch and holds a few MB.
CHUNK = 32


def _in_pieces(t: np.ndarray, scale: np.ndarray, geo: _Geometry):
    """``_newton_piece`` over the consecutive slices of at most ``CHUNK``
    problems of the hermitian stack t, joined: (solutions, Newton steps,
    converged).  An empty batch runs no solve."""
    out = np.empty_like(t)
    iters = np.empty(len(t), dtype=int)
    converged = np.empty(len(t), dtype=bool)
    for start in range(0, len(t), CHUNK):
        piece = slice(start, start + CHUNK)
        out[piece], iters[piece], converged[piece] = _newton_piece(t[piece], scale[piece], geo)
    return out, iters, converged


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
    x_sol, iters, converged = _in_pieces(t_h, scale, geo)
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


def min_mu_infeasible(
    targets: np.ndarray, d: int, deltas: Sequence[float] | np.ndarray
) -> np.ndarray:
    """(B, D) mask of the (target, δ) pairs whose δ-ball misses the
    hermitian trace-zero slice: δ² − ‖skew T‖² < gap², with gap the
    distance from herm(T) to the slice.  ``min_mu_batch`` solves only the
    pairs this keeps.

    The skew norm and the affine gap are computed once per target and
    broadcast against the whole δ grid.
    """
    _, _, skew_norm, affine_gap = _reach(_as_batch(targets, d), _geometry(d))
    deltas = np.asarray(deltas, dtype=float)[None, :]
    return ~(deltas**2 - skew_norm[:, None] ** 2 >= affine_gap[:, None] ** 2 - 1e-30)


def _min_mu_root(t_h, radius, cap, scale, geo):
    """The least μ ≥ 0 with g(μ) = ‖Z − Π(Z)‖ ≤ radius, Z = t_h + μC, per
    problem, in lockstep: (X, μ, Newton steps, converged).

    Newton's method on g − radius from μ = 0: the step is
    (g − radius)·g / −⟨Z − Π(Z), C⟩, since g′ = ⟨Z − Π(Z), C⟩/g.  g is
    convex and nonincreasing, so its tangent lies below it and each step
    ends at or below the root; on a stretch where g is affine one step
    reaches it.  (Newton on ½g² − ½radius² also climbs from below, but
    while g ≫ radius its step only halves g, as the Babylonian square
    root does, costing about log₂(g(0)/radius) steps before it converges
    fast.)  Step 0 projects each distinct target once: at μ = 0, Z is
    the target itself.  The steps are capped at ``cap``, from where on g
    rests at its floor, the distance to the trace-zero slice (within the
    radius for every pair ``min_mu_infeasible`` keeps).  A problem
    retires once g − radius ≤ ``TOL``·scale or μ reaches the cap, with
    X = Π(Z) − μC.  It does not converge when it is still running after
    ``ITER_LIMIT`` steps or when one of its projections ends MaxIters.
    """
    c = geo.cone_lift
    x = np.empty_like(t_h)
    mu_out = np.empty(len(t_h))
    steps = np.empty(len(t_h), dtype=int)
    converged = np.ones(len(t_h), dtype=bool)
    rows = np.arange(len(t_h))
    mu = np.zeros(len(t_h))
    for it in range(ITER_LIMIT + 1):
        if not rows.size:
            break
        z = t_h[rows] + mu[:, None, None] * c
        if it == 0:  # every problem sits at μ = 0: project each distinct target once
            _, first, inverse = np.unique(z, axis=0, return_index=True, return_inverse=True)
            p, _, ok = _in_pieces(z[first], scale[first], geo)
            p, ok = p[inverse.reshape(-1)], ok[inverse.reshape(-1)]
        else:
            p, _, ok = _in_pieces(z, scale[rows], geo)
        converged[rows] &= ok
        r = z - p
        g = _fro(r)
        done = (g - radius[rows] <= TOL * scale[rows]) | (mu >= cap[rows])
        leave = done | (it == ITER_LIMIT)
        out = rows[leave]
        x[out] = p[leave] - mu[leave, None, None] * c
        mu_out[out], steps[out] = mu[leave], it
        converged[out] &= done[leave]
        # C is real symmetric and R = Z − Π(Z) hermitian: g′ = ⟨R, C⟩/g with
        # ⟨R, C⟩ = Σ Re R·C
        slope = np.sum(r.real * c.real, axis=(-2, -1))
        descent = slope < 0
        newton = np.where(
            descent, (g - radius[rows]) * g / np.where(descent, -slope, 1.0), np.inf
        )
        mu = np.minimum(mu + newton, cap[rows])[~leave]
        rows = rows[~leave]
    return x, mu_out, steps, converged


def min_mu_batch(
    targets: np.ndarray,
    d: int,
    deltas: Sequence[float] | np.ndarray,
) -> list[SolveReport]:
    """Solve (P2) for stacks of (target, δ) pairs in lockstep.

    ``targets`` is (B, d², d²), or one d²×d² target; ``deltas`` broadcasts
    to (B,).  The least μ is the root of g(μ) = δ′ (``_min_mu_root``), and
    exactly 0.0 when the (P1) projection of herm(T) already lies within
    δ′ = √(δ² − ‖skew T‖²); the returned X is that projection for μ = 0,
    and in general the projection of herm(T) + μC shifted back by −μC.
    ``iterations`` counts Newton steps on μ, each one (P1) solve.

    Callers pass only pairs that ``min_mu_infeasible`` keeps: every pair
    is solved.  A pair whose ball misses the hermitian trace-zero slice
    ends MaxIters at the slice, outside its ball by its ball residual, as
    does a MaxIters pair that stops short of the root.
    """
    geo = _geometry(d)
    t_full = _as_batch(targets, d)
    deltas = np.broadcast_to(np.asarray(deltas, dtype=float), (t_full.shape[0],))
    if not np.all(deltas >= 0):
        raise OutOfRange("delta must be nonnegative")

    t_h, x_affine, skew_norm, _ = _reach(t_full, geo)
    scale = np.maximum(1.0, _fro(t_h))
    x_sol, mu_sol, iters, converged = _min_mu_root(
        t_h,
        np.sqrt(np.maximum(deltas**2 - skew_norm**2, 0.0)),
        # the rate at which the slice point of herm(T) enters the cone
        d * geo.cone_deficit(x_affine),
        scale,
        geo,
    )
    affine_res = _one_norm(partial_trace_first(x_sol))
    cone_res = geo.cone_deficit(x_sol + mu_sol[:, None, None] * geo.cone_lift)
    ball_res = np.maximum(0.0, np.sqrt(_fro(x_sol - t_h) ** 2 + skew_norm**2) - deltas)
    ok = converged & (cone_res <= TOL * scale) & (ball_res <= 10 * TOL * scale)
    return _reports(
        x_sol, mu_sol, (affine_res, cone_res, ball_res), np.where(ok, OPTIMAL, MAX_ITERS),
        iters, mu=mu_sol
    )


# ---------------------------------------------------------------------------
# Dykstra cross-check for (P1)
# ---------------------------------------------------------------------------


def dykstra_closest_lindbladian(target: np.ndarray, d: int) -> SolveReport:
    """Independent (P1) solve by Dykstra's alternating projections.

    Converges to the same projection as the Newton path; used as the
    in-repo oracle for solver agreement.  Single problem, no batching;
    it stops on the module's ``TOL`` and ``ITER_LIMIT``.
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


def joint_infeasible(
    targets: np.ndarray, times: Sequence[float] | np.ndarray, delta: float
) -> np.ndarray:
    """(A,) mask of the joint fits that no X keeps within δ of every target.

    ``targets`` is (A, q, d², d²), one target per snapshot.  A fit is
    infeasible when some skew part alone exceeds δ, or when two of its
    balls (radius √(δ² − ‖skew T_c‖²)/t_c around herm(T_c)/t_c) lie more
    than 1e-12 apart.
    """
    t = np.asarray(targets, dtype=complex)
    t_sc = np.asarray(times, dtype=float)
    t_h = herm(t)
    skew_sq = _fro(t - t_h) ** 2
    scaled = t_h / t_sc[:, None, None]
    delta_sq = float(delta) ** 2
    radius = np.sqrt(np.maximum(delta_sq - skew_sq, 0.0)) / t_sc
    dead = np.any(skew_sq > delta_sq, axis=-1)
    for a, b in zip(*np.triu_indices(t.shape[-3], 1)):
        gap = _fro(scaled[..., a, :, :] - scaled[..., b, :, :])
        dead |= gap > radius[..., a] + radius[..., b] + 1e-12
    return dead


def _reweighted_p1(t_h, skew_sq, t_sc, scale, geo):
    """Σ_c ‖t_c·X − T_c‖_F minimized over (P1)'s set, per problem, in
    lockstep: (X, reweighting steps, converged).

    Step 0 projects the unweighted mean; every later step projects the
    mean Σ_c w_c t_c herm T_c / Σ_c w_c t_c² with w_c = min_k r_k / r_c,
    r_c = ‖t_c·X − T_c‖_F at the last X (so no weight exceeds 1).  A
    problem retires once its step ‖X⁺ − X‖ is at most ``TOL``·scale.  It
    does not converge when it is still running after ``ITER_LIMIT`` steps
    or when one of its projections ends MaxIters.
    """
    x = np.empty_like(t_h[:, 0])
    steps = np.empty(len(t_h), dtype=int)
    converged = np.ones(len(t_h), dtype=bool)
    rows = np.arange(len(t_h))
    w = np.ones(t_h.shape[:2])
    last = None
    for it in range(ITER_LIMIT + 1):
        if not rows.size:
            break
        wt = w * t_sc
        mean = np.sum(wt[:, :, None, None] * t_h[rows], axis=1) / (wt @ t_sc)[:, None, None]
        new, _, ok = _in_pieces(mean, scale[rows], geo)
        converged[rows] &= ok
        done = np.zeros(len(rows), dtype=bool) if last is None else (
            _fro(new - last) <= TOL * scale[rows]
        )
        leave = done | (it == ITER_LIMIT)
        out = rows[leave]
        x[out], steps[out] = new[leave], it
        converged[out] &= done[leave]
        misfit = np.sqrt(_fro_sq(t_sc[:, None, None] * new[:, None] - t_h[rows]) + skew_sq[rows])
        misfit = np.maximum(misfit, np.finfo(float).tiny)
        w = (misfit.min(axis=1, keepdims=True) / misfit)[~leave]
        last = new[~leave]
        rows = rows[~leave]
    return x, steps, converged


def solve_joint_fit_batch(
    targets: np.ndarray, times: Sequence[float] | np.ndarray, d: int
) -> list[SolveReport]:
    """Solve a stack of joint fits in lockstep; one SolveReport per problem.

    ``targets`` is (B, q, d², d²).  Problem i fits one hermitian X to the
    q targets T_c = targets[i, c] at the shared ``times``:

        minimize   Σ_c ‖t_c·X − T_c‖_F
        subject to Tr₁[X] = 0,  ω⊥Xω⊥ ⪰ 0,

    by reweighted (P1) projections (``_reweighted_p1``); ``objective`` is
    the sum and ``iterations`` counts reweighting steps.  Each problem's
    iterates are independent, so results do not depend on the batch
    composition.  Callers that bound each misfit by a trust radius
    (``joint_infeasible`` screens that bound) check the returned misfits
    against it.
    """
    geo = _geometry(d)
    t_full = np.asarray(targets, dtype=complex)
    n = d * d
    if t_full.ndim != 4 or t_full.shape[-2:] != (n, n):
        raise DimensionMismatch(
            f"targets must be (B, q, {n}, {n}) for side dimension {d}, got {t_full.shape}"
        )
    q = t_full.shape[1]
    t_sc = np.asarray(times, dtype=float)
    if q == 0 or t_sc.shape != (q,):
        raise DimensionMismatch("one time per target required")
    if not np.all(np.isfinite(t_sc) & (t_sc > 0)):
        raise OutOfRange(f"times must be positive and finite, got {t_sc.tolist()}")

    t_h = herm(t_full)
    scale = np.maximum(1.0, np.max(_fro(t_h) / t_sc, axis=1))
    x_sol, iters, converged = _reweighted_p1(t_h, _fro_sq(t_full - t_h), t_sc, scale, geo)
    cone_res = geo.cone_deficit(x_sol)
    affine_res = _one_norm(partial_trace_first(x_sol))
    dists = _fro(t_sc[:, None, None] * x_sol[:, None] - t_full)
    ok = converged & (cone_res <= TOL * scale)
    return _reports(
        x_sol, dists.sum(axis=1), (affine_res, cone_res, 0.0),
        np.where(ok, OPTIMAL, MAX_ITERS), iters
    )


def solve_joint_fit(targets: Sequence[np.ndarray], times: Sequence[float], d: int) -> SolveReport:
    """Fit one hermitian cone/affine-feasible X to several scaled targets:
    the one-problem form of ``solve_joint_fit_batch``."""
    stacked = np.stack([_as_batch(t, d)[0] for t in targets])
    return solve_joint_fit_batch(stacked[None], times, d)[0]
