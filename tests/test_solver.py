"""Projection solvers: (P1) nearest generator, (P2) minimum noise shift.

Both programs run over hermitian matrices in the Choi picture; the
alternating-projection routine provides an independent optimality check
for the (P1) Newton solver, and a bisection over its distances checks the
(P2) root.  The Newton Jacobian, built from the smaller side of each cone
spectrum, is checked against the full-block formula kept here.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from lindbladfit import cli, solver
from lindbladfit.channels import (
    ChannelSpec,
    TomographyConfig,
    is_lindbladian,
    random_lindblad_generator,
    simulate_process_tomography,
)
from lindbladfit.errors import DimensionMismatch, OutOfRange
from lindbladfit.fitting import branch_targets, checked_logs
from lindbladfit.linalg import (
    expm,
    frobenius,
    gamma_involution,
    max_entangled,
    partial_trace_first,
)
from lindbladfit.solver import (
    closest_lindbladian_batch,
    dykstra_closest_lindbladian,
    min_mu_batch,
)


def herm(a):
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def tp_correct(c, d):
    """Push a hermitian Choi-side matrix onto the trace-annihilating slice."""
    return c - np.kron(np.eye(d), partial_trace_first(c)) / d


def random_choi_target(d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    n = d * d
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * raw


def lindbladian_choi(d, seed):
    gen = random_lindblad_generator(d, np.random.default_rng(seed))
    return gamma_involution(gen)


# ----------------------------------------------------------------------
# target shapes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(4,), (1, 1, 4, 4)], ids=["1-D", "4-D"])
def test_badly_shaped_targets_are_refused(shape):
    target = np.zeros(shape)
    with pytest.raises(DimensionMismatch):
        closest_lindbladian_batch(target, 2)
    with pytest.raises(DimensionMismatch):
        min_mu_batch(target, 2, 0.1)


# ----------------------------------------------------------------------
# (P1) nearest conditionally positive, trace-annihilating point
# ----------------------------------------------------------------------

def test_in_cone_target_is_fixed_point():
    c = lindbladian_choi(2, seed=0)
    rep = closest_lindbladian_batch(c, 2)[0]
    assert rep.status == "Optimal"
    assert rep.objective <= 1e-7
    assert frobenius(rep.x_opt - herm(c)) <= 1e-6
    assert rep.mu is None


def test_zero_target():
    rep = closest_lindbladian_batch(np.zeros((4, 4)), 2)[0]
    assert rep.status == "Optimal"
    assert rep.objective == pytest.approx(0.0, abs=1e-12)


def test_projection_output_is_feasible():
    rep = closest_lindbladian_batch(random_choi_target(2, seed=1), 2)[0]
    assert rep.status == "Optimal"
    assert rep.objective > 0.1
    affine, cone, ball = rep.residuals
    assert affine <= 1e-7
    assert cone <= 1e-8
    assert ball == 0.0
    # the recovered generator satisfies all three conditions
    check = is_lindbladian(gamma_involution(rep.x_opt), tol=1e-6)
    assert check.ok, check.residuals


@pytest.mark.parametrize("seed", range(10))
def test_split_solver_matches_alternating_projections(seed):
    """Two unrelated algorithms agree on the projection to 1e-6."""
    target = random_choi_target(2, seed=100 + seed)
    rep = closest_lindbladian_batch(target, 2)[0]
    dyk = dykstra_closest_lindbladian(target, 2)
    assert rep.status == "Optimal"
    assert abs(rep.objective - dyk.objective) <= 1e-6
    assert max(dyk.residuals[:2]) <= 1e-8
    assert frobenius(rep.x_opt - dyk.x_opt) <= 1e-5


def test_projection_scale_equivariance():
    target = random_choi_target(2, seed=7)
    base = closest_lindbladian_batch(target, 2)[0]
    for c in (0.25, 4.0):
        scaled = closest_lindbladian_batch(c * target, 2)[0]
        assert scaled.objective == pytest.approx(c * base.objective, rel=1e-6)
        assert frobenius(scaled.x_opt - c * base.x_opt) <= 1e-6 * max(1.0, c)


def test_batch_results_are_composition_independent(monkeypatch):
    targets = np.stack([random_choi_target(2, seed=s) for s in (11, 12, 13)])
    batch = closest_lindbladian_batch(targets, 2)
    for i, t in enumerate(targets):
        single = closest_lindbladian_batch(t, 2)[0]
        assert frobenius(batch[i].x_opt - single.x_opt) <= 1e-9
        assert batch[i].objective == pytest.approx(single.objective, abs=1e-10)

    # Cut at 3 Newton steps: an in-cone target retires at its start, a
    # target near the cone after 2 steps, a random one after 3, and a
    # random one that needs 4 is settled at the limit.
    monkeypatch.setattr(solver, "ITER_LIMIT", 3)
    targets = np.stack([
        lindbladian_choi(2, seed=4),
        lindbladian_choi(2, seed=3) + 0.03 * random_choi_target(2, seed=103),
        random_choi_target(2, seed=14),
        random_choi_target(2, seed=11),
    ])
    batch = closest_lindbladian_batch(targets, 2)
    assert [rep.status for rep in batch] == ["Optimal"] * 3 + ["MaxIters"]
    assert [rep.iterations for rep in batch] == [0, 2, 3, 3]
    for t, rep in zip(targets, batch):
        single = closest_lindbladian_batch(t, 2)[0]
        assert (rep.status, rep.iterations) == (single.status, single.iterations)
        np.testing.assert_allclose(rep.x_opt, single.x_opt, rtol=0, atol=1e-12)
    # the four problems in two pieces of two
    monkeypatch.setattr(solver, "CHUNK", 2)
    for rep, piece in zip(batch, closest_lindbladian_batch(targets, 2)):
        assert (rep.status, rep.iterations) == (piece.status, piece.iterations)
        np.testing.assert_allclose(rep.x_opt, piece.x_opt, rtol=0, atol=1e-12)


@pytest.mark.parametrize("chunk", [32, 2], ids=["one piece", "pieces of two"])
def test_targets_in_the_set_keep_their_one_problem_reports_in_a_batch(chunk, monkeypatch):
    """Targets already in the (P1) set mixed with ones that need Newton
    steps: each problem gets its one-problem solve's report bit for bit, and
    the former 0 steps, whether its piece also holds problems that step
    (one piece; the second piece of two) or returns at its start (the first
    and last pieces of two)."""
    inside = [lindbladian_choi(2, seed=s) for s in range(5)]
    outside = [random_choi_target(2, seed=s) for s in (11, 14)]
    targets = np.stack([inside[0], inside[1], outside[0], inside[2], outside[1], inside[3],
                        inside[4]])
    singles = [closest_lindbladian_batch(t, 2)[0] for t in targets]
    monkeypatch.setattr(solver, "CHUNK", chunk)
    batch = closest_lindbladian_batch(targets, 2)
    assert [rep.iterations == 0 for rep in batch] == [True, True, False, True, False, True, True]
    assert {rep.status for rep in batch} == {"Optimal"}
    assert_reports_equal(batch, singles)


def test_four_level_projection():
    rep = closest_lindbladian_batch(random_choi_target(4, seed=2, scale=0.5), 4)[0]
    assert rep.status == "Optimal"
    check = is_lindbladian(gamma_involution(rep.x_opt), tol=1e-6)
    assert check.ok, check.residuals


# ----------------------------------------------------------------------
# (P1) by semismooth Newton on the dual
# ----------------------------------------------------------------------

#: Branch vectors {eigenvalue index: m_j} per side dimension whose targets
#: leave the cone; the last shifts a complex pair by ±2πi·m and puts
#: ‖herm T‖_F near 180.
SHIFTS = {
    2: [{2: -1}, {2: -1, 3: 1}, {2: 20, 3: -20}],
    4: [{}, {3: -1}, {5: 14, 6: -14}],
}


def shifted_branch_targets(d):
    """Choi-side targets log M + 2πi Σ m_j P_j of a random d-level channel
    M = exp(L), one per entry of SHIFTS[d]."""
    gen = random_lindblad_generator(d, np.random.default_rng(20 + d))
    spectral, l0 = checked_logs(expm(gen)[None])[0]
    branches = np.zeros((len(SHIFTS[d]), d * d), dtype=int)
    for row, shift in zip(branches, SHIFTS[d]):
        row[list(shift)] = list(shift.values())
    return branch_targets(l0, spectral, branches)


def herm_norms(targets):
    return np.array([max(1.0, frobenius(herm(t))) for t in targets])


@pytest.mark.parametrize("d", [2, 4])
def test_newton_matches_dykstra_and_a_tight_solve_on_branch_targets(d, monkeypatch):
    targets = shifted_branch_targets(d)
    scale = herm_norms(targets)
    assert 170 < scale[-1] < 190
    reps = closest_lindbladian_batch(targets, d)
    dykstra = [dykstra_closest_lindbladian(t, d) for t in targets]
    monkeypatch.setattr(solver, "TOL", 1e-13)
    tight = closest_lindbladian_batch(targets, d)
    for rep, dyk, ref, s in zip(reps, dykstra, tight, scale):
        assert rep.status == dyk.status == ref.status == "Optimal"
        assert rep.iterations > 0
        assert frobenius(rep.x_opt - dyk.x_opt) <= 1e-8 * s
        assert frobenius(rep.x_opt - ref.x_opt) <= 1e-8 * s
        assert abs(rep.objective - ref.objective) <= 1e-8 * s


@pytest.mark.parametrize("d", [2, 4])
def test_newton_solution_meets_the_kkt_conditions(d):
    """The cone correction X − W lives in ω⊥, so the multiplier is read off
    the ω column: (T − X)ω = (1⊗Y)ω, whose (j, c) entry is Y_cj/√d.  Then
    X = Π_K(T − 1⊗Y) and Tr₁Π_K(T − 1⊗Y) = 0, with Π_K written out with
    the projector ω⊥ instead of the solver's basis."""
    targets = shifted_branch_targets(d)
    ent = max_entangled(d)
    for t, rep, s in zip(targets, closest_lindbladian_batch(targets, d), herm_norms(targets)):
        t = herm(t)
        y = np.sqrt(d) * ((t - rep.x_opt) @ ent.omega).reshape(d, d).T
        assert frobenius(y - herm(y)) <= 1e-8 * s
        w = t - np.kron(np.eye(d), y)
        lam, vec = np.linalg.eigh(ent.omega_perp @ w @ ent.omega_perp)
        cone_point = w - (vec * np.minimum(lam, 0.0)) @ vec.conj().T
        assert frobenius(partial_trace_first(cone_point)) <= 1e-8 * s
        assert frobenius(cone_point - rep.x_opt) <= 1e-8 * s


@pytest.mark.parametrize("d, shift, top", [
    pytest.param(2, 0.0, True, id="2"),
    pytest.param(4, 0.0, False, id="4"),
    pytest.param(4, 1.0, True, id="4-nonnegative-side"),
])
def test_dual_jacobian_is_the_derivative_of_the_dual_gradient(d, shift, top):
    """M against central differences of −F, at a point where no cone
    eigenvalue is near 0; and 1/d ⪯ M ⪯ d.  Adding shift·1 to Y moves every
    cone eigenvalue down by it; ``top`` says whether the smaller side of
    the spectrum is the nonnegative one.  The coordinates are an isometry,
    and ``_from_herm_coords`` inverts them."""
    geo = solver._geometry(d)
    t = herm(random_choi_target(d, seed=70 + d))[None]
    tr_t = partial_trace_first(t)
    y = herm(random_choi_target(d, seed=80 + d)[:d, :d])[None] + shift * np.eye(d)
    pt = solver._dual_point(geo, t, tr_t, y)
    assert np.min(np.abs(pt["lam"])) > 1e-3
    assert (2 * np.count_nonzero(pt["lam"] < 0) > d * d - 1) == top
    jac = solver._dual_jacobian(geo, pt["lam"], pt["a"])[0]
    h = 1e-6
    for k in range(d * d):
        e = solver._from_herm_coords(np.eye(d * d)[k], d)
        f_up, f_down = (
            solver._herm_coords(solver._dual_point(geo, t, tr_t, y + sign * h * e)["f"][0])
            for sign in (1, -1)
        )
        np.testing.assert_allclose(jac[:, k], -(f_up - f_down) / (2 * h), rtol=0, atol=1e-7)
    w = np.linalg.eigvalsh(jac)
    assert 1 / d - 1e-12 <= w[0] and w[-1] <= d + 1e-12

    c = solver._herm_coords(y)
    np.testing.assert_allclose(np.linalg.norm(c), frobenius(y[0]), rtol=1e-15)
    np.testing.assert_allclose(solver._from_herm_coords(c, d), y, rtol=0, atol=1e-15)


def full_block_jacobian(geo, lam, a):
    """The dual Jacobian from the whole spectrum, the reference for
    ``solver._dual_jacobian``: M_jk = d·δ_jk − ⟨E_j, Ω∘E_k⟩ with one
    (B, d², d²−1, d²−1) block holding the E_j = Aᴴ(1⊗H_j)A.  It is built
    from the E_rs = Aᴴ(1⊗e_r e_sᵀ)A in place, scaled by √Ω and viewed as
    real, so M = d − G·Gᵀ."""
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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dual_jacobian_matches_the_full_block_formula(d):
    """One batch of cone spectra (λ ascending, A = V·Q for a random unitary
    Q): no negative eigenvalue, all negative, one negative, one nonnegative,
    the two near-even splits, and the two smaller sides holding an exact 0
    (weight 2 against it, or weight 0 from it).  Each Jacobian is also the
    one its spectrum gets alone."""
    geo = solver._geometry(d)
    m = d * d - 1
    rng = np.random.default_rng(90 + d)
    splits = [(0, None), (m, None), (1, None), (m - 1, None), (m // 2, None),
              (m // 2 + 1, None), (1, 1), (m - 1, m - 1)]
    lam = np.empty((len(splits), m))
    a = np.empty((len(splits), d * d, m), dtype=complex)
    for row, (n_neg, zero) in enumerate(splits):
        size = rng.uniform(0.1, 2.0, m)
        lam[row] = np.sort(np.concatenate([-size[:n_neg], size[n_neg:]]))
        if zero is not None:
            lam[row, zero] = 0.0
        q = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        a[row] = geo.basis @ q
    jac = solver._dual_jacobian(geo, lam, a)
    np.testing.assert_allclose(jac, full_block_jacobian(geo, lam, a), rtol=0, atol=1e-12 * d)
    for row in range(len(splits)):
        alone = solver._dual_jacobian(geo, lam[row:row + 1], a[row:row + 1])
        assert np.array_equal(jac[row], alone[0])


def test_newton_cut_at_the_iteration_limit_settles_trace_zero_and_cone_feasible(monkeypatch):
    targets = shifted_branch_targets(4)
    optimal = closest_lindbladian_batch(targets, 4)
    monkeypatch.setattr(solver, "ITER_LIMIT", 1)
    for rep, best, s in zip(closest_lindbladian_batch(targets, 4), optimal, herm_norms(targets)):
        assert (rep.status, rep.iterations) == ("MaxIters", 1)
        affine, cone, _ = rep.residuals
        assert affine <= 1e-12 * s and cone <= 1e-12 * s
        assert rep.objective >= best.objective - 1e-9 * s


def test_a_stalled_line_search_settles_trace_zero_and_cone_feasible(monkeypatch):
    """An Armijo factor of 2 fails every trial length of a concave ascent,
    so each problem off the cone stalls at its first step; its settled
    point is built from the start, and an in-cone target still retires."""
    monkeypatch.setattr(solver, "_ARMIJO", 2.0)
    targets = np.concatenate([shifted_branch_targets(2), lindbladian_choi(2, seed=4)[None]])
    reps = closest_lindbladian_batch(targets, 2)
    assert [(rep.status, rep.iterations) for rep in reps] == [("MaxIters", 0)] * 3 + [("Optimal", 0)]
    for rep, s in zip(reps, herm_norms(targets)):
        affine, cone, _ = rep.residuals
        assert affine <= 1e-12 * s and cone <= 1e-12 * s


def test_an_unreachable_tol_stalls_at_the_rounding_floor(monkeypatch):
    """At TOL = 0 no ‖F‖ is small enough; once θ's gain is inside its
    rounding allowance and ‖F‖ no longer halves, each problem stalls
    within a few steps, not at ITER_LIMIT, on the answer of a default solve."""
    targets = shifted_branch_targets(2)
    reference = closest_lindbladian_batch(targets, 2)
    monkeypatch.setattr(solver, "TOL", 0.0)
    monkeypatch.setattr(solver, "ITER_LIMIT", 100)
    for rep, ref, s in zip(closest_lindbladian_batch(targets, 2), reference, herm_norms(targets)):
        assert rep.status == "MaxIters" and rep.iterations < 10
        assert frobenius(rep.x_opt - ref.x_opt) <= 1e-8 * s


# ----------------------------------------------------------------------
# (P2) minimum noise rate within a delta-ball
# ----------------------------------------------------------------------

def test_markovian_target_needs_no_noise():
    c = lindbladian_choi(2, seed=3)
    rep = min_mu_batch(c, 2, 0.1)[0]
    assert rep.status == "Optimal"
    assert rep.mu is not None and rep.mu <= 1e-8


def test_zero_radius_oracle_on_projector_direction():
    """At delta = 0 the answer is closed-form: d times the compressed
    eigenvalue deficit.  The anti-noise direction gives mu = c exactly."""
    perp = max_entangled(2).omega_perp
    c_target = gamma_involution(0.3 * perp)
    rep = min_mu_batch(c_target, 2, 0.0)[0]
    assert rep.status == "Optimal"
    assert rep.mu == pytest.approx(0.3, abs=1e-7)


@pytest.mark.parametrize("seed", range(5))
def test_zero_radius_oracle_random(seed):
    d = 2
    c = tp_correct(herm(random_choi_target(d, seed=200 + seed)), d)
    perp = max_entangled(d).omega_perp
    lam = np.linalg.eigvalsh(perp @ c @ perp)[0]
    expected = d * max(0.0, -float(lam))
    rep = min_mu_batch(c, d, 0.0)[0]
    assert rep.status == "Optimal"
    assert rep.mu == pytest.approx(expected, abs=1e-6)


def test_skewed_target_with_small_ball_is_infeasible():
    target = random_choi_target(2, seed=31)  # generic: large skew part
    skew = frobenius(target - herm(target))
    assert skew > 0.5
    assert solver.min_mu_infeasible(target, 2, [0.25 * skew]).all()
    # solved anyway, the pair stops at the slice, outside its ball
    rep = min_mu_batch(target, 2, 0.25 * skew)[0]
    assert rep.status == "MaxIters" and rep.residuals[2] > 0


def test_mu_non_increasing_in_delta():
    c = tp_correct(herm(random_choi_target(2, seed=41)), 2)
    deltas = np.arange(0.1, 1.05, 0.1)
    reps = min_mu_batch(np.repeat(c[None], len(deltas), axis=0), 2, deltas)
    mus = [r.mu for r in reps]
    assert all(r.status == "Optimal" for r in reps)
    for a, b in zip(mus, mus[1:]):
        assert b <= a + 1e-7


def test_large_ball_reaches_the_cone():
    c = tp_correct(herm(random_choi_target(2, seed=41)), 2)
    dist = closest_lindbladian_batch(c, 2)[0].objective
    rep = min_mu_batch(c, 2, 1.05 * dist)[0]
    assert rep.status == "Optimal"
    assert rep.mu <= 1e-7


def test_mu_batch_matches_singles(monkeypatch):
    c1 = tp_correct(herm(random_choi_target(2, seed=51)), 2)
    c2 = tp_correct(herm(random_choi_target(2, seed=52)), 2)
    batch = min_mu_batch(np.stack([c1, c2]), 2, [0.3, 0.6])
    for rep, (c, delta) in zip(batch, [(c1, 0.3), (c2, 0.6)]):
        single = min_mu_batch(c, 2, delta)[0]
        assert rep.mu == pytest.approx(single.mu, abs=1e-9)

    # Newton on g: a Markovian target retires at step 0 with mu = 0, c1 at
    # 0.9 of its P1 distance and c4 after 3 steps, c2 and c1 at 0.3 after
    # 4, and a skewed target with a small ball (one the screen drops) stops
    # at the slice after 1.
    c4 = tp_correct(herm(random_choi_target(2, seed=54)), 2)
    targets = np.stack([lindbladian_choi(2, seed=3), c1, c2, c1, c4, random_choi_target(2, seed=31)])
    deltas = [0.1, 0.9 * closest_lindbladian_batch(c1, 2)[0].objective, 0.6, 0.3, 0.3, 0.1]
    assert [(rep.status, rep.iterations) for rep in min_mu_batch(targets, 2, deltas)] == [
        ("Optimal", 0), ("Optimal", 3), ("Optimal", 4), ("Optimal", 4), ("Optimal", 3),
        ("MaxIters", 1),
    ]
    # Cut at 3 steps, which also cuts the inner P1 solves, every pair but
    # the Markovian one ends MaxIters; each report, cut or not, is the one
    # its pair gets alone
    monkeypatch.setattr(solver, "ITER_LIMIT", 3)
    batch = min_mu_batch(targets, 2, deltas)
    assert [(rep.status, rep.iterations) for rep in batch] == [
        ("Optimal", 0), ("MaxIters", 3), ("MaxIters", 3), ("MaxIters", 3), ("MaxIters", 3),
        ("MaxIters", 1),
    ]
    assert_reports_equal(batch, [min_mu_batch(t, 2, delta)[0] for t, delta in zip(targets, deltas)])
    # every projection runs in pieces of two
    monkeypatch.setattr(solver, "CHUNK", 2)
    assert_reports_equal(batch, min_mu_batch(targets, 2, deltas))


def assert_reports_equal(got, want):
    """Reports bit-identical, field by field."""
    assert len(got) == len(want)
    for rep, ref in zip(got, want):
        assert (rep.status, rep.iterations, rep.mu, rep.objective, rep.residuals) == (
            ref.status, ref.iterations, ref.mu, ref.objective, ref.residuals
        )
        assert np.array_equal(rep.x_opt, ref.x_opt)


def test_step_zero_projects_each_distinct_target_once(monkeypatch):
    """At mu = 0 a pair's projection depends on its target alone: one
    target at three deltas and two copies of another take two step-0
    projections, and each report is the one its pair gets alone, also in
    pieces of two."""
    c1 = tp_correct(herm(random_choi_target(2, seed=51)), 2)
    c2 = tp_correct(herm(random_choi_target(2, seed=52)), 2)
    targets = np.stack([c1, c2, c1, c2.copy(), c1])
    deltas = [0.3, 0.6, 0.6, 0.4, 0.9]
    pieces = solver._in_pieces
    sizes = []

    def spy(t, scale, geo):
        sizes.append(len(t))
        return pieces(t, scale, geo)

    monkeypatch.setattr(solver, "_in_pieces", spy)
    batch = min_mu_batch(targets, 2, deltas)
    assert sizes[0] == 2
    assert sum(sizes[1:]) == sum(rep.iterations for rep in batch) > 0
    assert_reports_equal(batch, [min_mu_batch(t, 2, delta)[0] for t, delta in zip(targets, deltas)])
    monkeypatch.setattr(solver, "CHUNK", 2)
    assert_reports_equal(batch, min_mu_batch(targets, 2, deltas))


def test_four_level_batches_match_singles_across_jacobian_groups(monkeypatch):
    """d=4 P1 and P2 batches whose problems reach one Newton step with the
    smaller side of their spectra on different sides and of different
    sizes k: every report is the one its problem gets alone, bit for bit,
    also in pieces of two."""
    targets = np.concatenate([
        shifted_branch_targets(4),
        np.stack([tp_correct(herm(random_choi_target(4, seed=s, scale=0.5)), 4) for s in (2, 3)]),
    ])
    jacobian = solver._dual_jacobian
    groups = []

    def spy(geo, lam, a):
        n_neg = np.count_nonzero(lam < 0, axis=-1)
        m = lam.shape[-1]
        groups.append({(bool(2 * n > m), int(min(n, m - n))) for n in n_neg})
        return jacobian(geo, lam, a)

    def mixed(step):
        return {side for side, _ in step} == {False, True} and len({k for _, k in step}) > 1

    monkeypatch.setattr(solver, "_dual_jacobian", spy)
    p1 = closest_lindbladian_batch(targets, 4)
    assert any(mixed(step) for step in groups)
    assert_reports_equal(p1, [closest_lindbladian_batch(t, 4)[0] for t in targets])

    p2_targets = np.stack([tp_correct(herm(t), 4) for t in targets])
    deltas = [0.5 * rep.objective for rep in closest_lindbladian_batch(p2_targets, 4)]
    groups.clear()
    p2 = min_mu_batch(p2_targets, 4, deltas)
    assert all(rep.status == "Optimal" and rep.iterations > 0 for rep in p2)
    assert any(mixed(step) for step in groups)
    singles = [min_mu_batch(t, 4, delta)[0] for t, delta in zip(p2_targets, deltas)]
    assert_reports_equal(p2, singles)

    monkeypatch.setattr(solver, "CHUNK", 2)
    assert_reports_equal(p1, closest_lindbladian_batch(targets, 4))
    assert_reports_equal(p2, min_mu_batch(p2_targets, 4, deltas))


@pytest.fixture(scope="module")
def fallback_pairs(tmp_path_factory):
    """name -> (targets, deltas) of the one P2 batch of the X gate fallback
    (``fit --samples 4`` at epsilon 0.01, below its unitary frame's
    distance) and the benchmark unital ``mu`` subcommand (epsilon 0.05), at
    1e4 shots, tomography seed 1."""
    root = tmp_path_factory.mktemp("fallbacks")
    runs = {
        "xgate": (ChannelSpec("xgate"), ["fit", "--samples", "4", "--epsilon", "0.01"]),
        "unital": (ChannelSpec("unital", {"gamma": [-200.0, 201.0, 200.5]}),
                   ["mu", "--epsilon", "0.05"]),
    }
    batch = solver.min_mu_batch
    pairs = {}
    for name, (spec, argv) in runs.items():
        calls = []

        def recording(targets, d, deltas):
            calls.append((np.asarray(targets), np.asarray(deltas)))
            return batch(targets, d, deltas)

        path = str(root / f"{name}.json")
        mat = simulate_process_tomography(spec, TomographyConfig(shots=10**4, seed=1)).mat
        cli.write_matrix_file(path, mat)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "min_mu_batch", recording)
            cli.main([*argv, "--in", path, "--report", str(root / "r.json")])
        (pairs[name],) = calls
    return pairs


@pytest.mark.parametrize("name", ["xgate", "unital"])
def test_root_is_tol_accurate_and_never_overshoots(fallback_pairs, name, monkeypatch):
    """Against the same pairs solved at TOL = 1e-12, each mu lies below by
    at most TOL*scale (the inner P1 solves are only TOL-accurate) and above
    by no more than rounding: the Newton iterate climbs to the root."""
    targets, deltas = fallback_pairs[name]
    scale = np.maximum(1.0, np.linalg.norm(herm(targets), axis=(-2, -1)))
    mu = np.array([rep.mu for rep in min_mu_batch(targets, 2, deltas)])
    tol = solver.TOL
    monkeypatch.setattr(solver, "TOL", 1e-12)
    tight = min_mu_batch(targets, 2, deltas)
    assert all(rep.status == solver.OPTIMAL for rep in tight)
    ref = np.array([rep.mu for rep in tight])
    assert np.all(ref - mu <= tol * scale)
    assert np.all(mu - ref <= 1e-12 * scale)


@pytest.mark.parametrize("d", [2, 4])
def test_mu_is_the_root_of_a_bisection_on_dykstra_distances(d):
    """The least mu against an independent root search: brentq on
    g(mu) - delta, where g(mu) is the Dykstra distance from T + mu*C to the
    P1 set (C = 1/d - d*omega*omega^H, trace-annihilating and 1/d on the
    complement of omega).  g reaches 0 at the rate that lifts T into the
    cone, which brackets the root."""
    geo = solver._geometry(d)
    perp = max_entangled(d).omega_perp
    lift = np.eye(d * d) / d - d * (np.eye(d * d) - perp)
    np.testing.assert_allclose(partial_trace_first(lift), 0, atol=1e-15)
    np.testing.assert_allclose(perp @ lift @ perp, perp / d, atol=1e-15)
    for seed, share in zip(range(3), (0.2, 0.5, 0.9)):
        c = tp_correct(herm(random_choi_target(d, seed=300 + 10 * d + seed, scale=0.5)), d)
        delta = share * closest_lindbladian_batch(c, d)[0].objective
        rep = min_mu_batch(c, d, delta)[0]
        top = d * max(0.0, -np.linalg.eigvalsh(perp @ c @ perp)[0])
        root = brentq(
            lambda mu: dykstra_closest_lindbladian(c + mu * lift, d).objective - delta,
            0.0, top, xtol=1e-10,
        )
        assert rep.status == "Optimal" and rep.iterations > 0
        assert rep.mu == pytest.approx(root, abs=1e-7)
        assert frobenius(rep.x_opt - c) == pytest.approx(delta, abs=1e-8)
        assert np.linalg.eigvalsh(geo.compress(rep.x_opt))[0] >= -rep.mu / d - 1e-9


def test_mu_is_exactly_zero_when_the_projection_is_in_the_ball():
    """g(0) <= delta': mu is +0.0, no Newton step is taken, and X is the P1
    projection itself, also for a skewed target whose ball only just
    reaches it."""
    c = tp_correct(herm(random_choi_target(2, seed=41)), 2)
    skewed = random_choi_target(2, seed=43, scale=0.2)
    targets = np.stack([lindbladian_choi(2, seed=3), c, skewed])
    p1 = closest_lindbladian_batch(targets, 2)
    deltas = [0.0, 1.5 * p1[1].objective, p1[2].objective * (1 + 1e-12)]
    for rep, ref in zip(min_mu_batch(targets, 2, deltas), p1):
        assert (rep.status, rep.iterations, rep.objective) == ("Optimal", 0, 0.0)
        assert rep.mu == 0.0 and np.copysign(1.0, rep.mu) == 1.0
        assert np.array_equal(rep.x_opt, ref.x_opt)


def test_nan_delta_is_refused():
    c = lindbladian_choi(2, seed=3)
    with pytest.raises(OutOfRange):
        min_mu_batch(c, 2, np.nan)
    with pytest.raises(OutOfRange):
        min_mu_batch(np.stack([c, c]), 2, [0.1, np.nan])


def test_empty_batch_runs_no_iteration(monkeypatch):
    """No Newton piece and no dual point runs for an empty stack, in any of
    the three programs."""
    calls = []

    def counted(step):
        def wrapper(*args):
            calls.append(step.__name__)
            return step(*args)
        return wrapper

    for name in ("_newton_piece", "_dual_point"):
        monkeypatch.setattr(solver, name, counted(getattr(solver, name)))
    assert closest_lindbladian_batch(np.zeros((0, 4, 4)), 2) == []
    assert min_mu_batch(np.zeros((0, 4, 4)), 2, []) == []
    assert solver.solve_joint_fit_batch(np.zeros((0, 2, 4, 4)), [1.0, 2.0], 2) == []
    assert calls == []
