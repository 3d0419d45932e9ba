"""Projection solvers: (P1) nearest generator, (P2) minimum noise shift.

Both programs run over hermitian matrices in the Choi picture; the
alternating-projection routine provides an independent optimality check
for the splitting solver.
"""

import numpy as np
import pytest

from lindbladfit import solver
from lindbladfit.channels import is_lindbladian, random_lindblad_generator
from lindbladfit.errors import DimensionMismatch
from lindbladfit.linalg import (
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
    return 0.5 * (a + a.conj().T)


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
    return gamma_involution(gen.mat)


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

    # At rho = 10 the residual balancing halves rho at iteration 100 for
    # the problems still running; they retire at different iterations (1,
    # 128, 171, 176) and the first one is cut at the iteration limit.
    monkeypatch.setattr(solver, "RHO", 10.0)
    monkeypatch.setattr(solver, "ITER_LIMIT", 200)
    targets = np.stack(
        [random_choi_target(2, seed=s) for s in (11, 12, 13)]
        + [lindbladian_choi(2, seed=3) + 0.01 * random_choi_target(2, seed=103),
           lindbladian_choi(2, seed=4)]
    )
    batch = closest_lindbladian_batch(targets, 2)
    iters = [rep.iterations for rep in batch]
    assert batch[0].status == "MaxIters" and iters[0] == 200
    assert len(set(iters)) == len(iters) and sum(100 < i < 200 for i in iters) == 3
    for t, rep in zip(targets, batch):
        single = closest_lindbladian_batch(t, 2)[0]
        assert (rep.status, rep.iterations) == (single.status, single.iterations)
        np.testing.assert_allclose(rep.x_opt, single.x_opt, rtol=0, atol=1e-12)


def test_four_level_projection():
    rep = closest_lindbladian_batch(random_choi_target(4, seed=2, scale=0.5), 4)[0]
    assert rep.status == "Optimal"
    check = is_lindbladian(gamma_involution(rep.x_opt), tol=1e-6)
    assert check.ok, check.residuals


# ----------------------------------------------------------------------
# (P2) minimum noise rate within a delta-ball
# ----------------------------------------------------------------------

def test_slice_ball_block_is_the_projection_onto_the_intersection():
    """The closed-form prox of (P2) against Dykstra's alternating
    projections between the trace-zero slice and the delta-ball, on random
    hermitian inputs; radius 0 is a target on the slice with a point ball.
    At radius = gap the ball only touches the slice, where Dykstra crawls:
    the intersection is the slice point of the center, checked directly."""
    geo = solver._geometry(2)
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((2, 16, 4, 4)) + 1j * rng.standard_normal((2, 16, 4, 4))
    x, t = 0.5 * (raw + raw.conj().swapaxes(-1, -2))
    t[:4] = geo.project_trace_zero(t[:4])
    _, c, _, gap = solver._reach(t, geo)
    radius = gap * np.repeat([0.0, 1.2, 3.0, 100.0], 4)
    data = {"center": c, "radius": np.sqrt(np.maximum(radius**2 - gap**2, 0.0))}
    got = geo.slice_ball_block(x, None, data)

    ref, p, q = x.copy(), np.zeros_like(x), np.zeros_like(x)
    for _ in range(1000):
        y = geo.project_trace_zero(ref + p)
        p = ref + p - y
        ref_new = solver._project_ball(y + q, t, radius)
        q = y + q - ref_new
        ref = ref_new
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    # the ball step moves every row at 1.2 gap and none at 100 gap
    on_slice = geo.project_trace_zero(x)
    reach = solver._fro(on_slice - c)
    assert np.all(reach[4:8] > data["radius"][4:8])
    assert np.all(reach[12:] < data["radius"][12:])

    touch = {"center": c[4:], "radius": np.zeros(12)}
    np.testing.assert_allclose(geo.slice_ball_block(x[4:], None, touch), c[4:], atol=1e-15)


@pytest.mark.parametrize("d", [2, 4])
def test_noise_rate_block_against_a_bisection_on_the_floor(d):
    """The prox of X -> d*max(0, -lambda_min(perp X perp)) at step 1/rho
    against a written-out floor: bisect f on sum relu(f - lambda_i) = d/rho,
    cap it at 0, and lift the compressed eigenvalues below f up to f.  The
    first rows take d/rho below sum relu(-lambda_i), so f < 0; the last
    rows take twice that sum, where the prox is the cone projection."""
    geo = solver._geometry(d)
    n = d * d
    rng = np.random.default_rng(60 + d)
    raw = rng.standard_normal((12, n, n)) + 1j * rng.standard_normal((12, n, n))
    x = 0.5 * (raw + raw.conj().swapaxes(-1, -2))
    w, v = geo.compress_eig(x)
    deficit = np.sum(np.maximum(-w, 0.0), axis=-1)
    share = np.concatenate([np.linspace(0.05, 0.95, 8), np.full(4, 2.0)])
    rho = d / (share * deficit)
    got = geo.noise_rate_block(x, rho, None)

    for i in range(len(x)):
        lo, hi = w[i, 0], w[i, 0] + d / rho[i]  # the sum is 0 at lo, >= d/rho at hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.sum(np.maximum(mid - w[i], 0.0)) < d / rho[i]:
                lo = mid
            else:
                hi = mid
        floor = min(0.5 * (lo + hi), 0.0)
        assert (floor < 0) == (i < 8)
        lift = np.maximum(w[i], floor) - w[i]
        want = x[i] + (v[i] * lift) @ v[i].conj().T
        np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(got[8:], geo.project_cone(x[8:]))


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
    rep = min_mu_batch(target, 2, 0.25 * skew)[0]
    assert rep.status == "Infeasible"


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

    # At rho = 10 the residual balancing halves rho at iteration 100 for
    # the two problems still running; one problem retires at 1 and one at
    # 94, before that step, one at 101, after it, one is cut at the
    # iteration limit, and a skewed target with a small ball is screened.
    monkeypatch.setattr(solver, "RHO", 10.0)
    monkeypatch.setattr(solver, "ITER_LIMIT", 105)
    c4 = tp_correct(herm(random_choi_target(2, seed=54)), 2)
    targets = np.stack([lindbladian_choi(2, seed=3), c1, c2, c4, random_choi_target(2, seed=31)])
    deltas = [0.1, 0.3, 0.6, 0.3, 0.1]
    batch = min_mu_batch(targets, 2, deltas)
    assert [rep.status for rep in batch] == [
        "Optimal", "Optimal", "MaxIters", "Optimal", "Infeasible"
    ]
    assert batch[0].iterations < batch[1].iterations < 100 < batch[3].iterations < 105
    for t, delta, rep in zip(targets, deltas, batch):
        single = min_mu_batch(t, 2, delta)[0]
        assert (rep.status, rep.iterations, rep.mu) == (single.status, single.iterations, single.mu)
        assert np.array_equal(rep.x_opt, single.x_opt)
    # the engine runs the four live problems in two pieces of two
    monkeypatch.setattr(solver, "CHUNK", 2)
    for rep, piece in zip(batch, min_mu_batch(targets, 2, deltas)):
        assert (rep.status, rep.iterations, rep.mu, rep.residuals) == (
            piece.status, piece.iterations, piece.mu, piece.residuals
        )
        assert np.array_equal(rep.x_opt, piece.x_opt)


def test_empty_batch_runs_no_iteration(monkeypatch):
    """No prox block runs for an empty stack, in any of the three programs."""
    calls = []

    def counted(prox):
        def wrapper(self, *args):
            calls.append(prox.__name__)
            return prox(self, *args)
        return wrapper

    for name in ("affine_block", "cone_block", "slice_ball_block", "noise_rate_block"):
        monkeypatch.setattr(solver._Geometry, name, counted(getattr(solver._Geometry, name)))
    assert closest_lindbladian_batch(np.zeros((0, 4, 4)), 2) == []
    assert min_mu_batch(np.zeros((0, 4, 4)), 2, []) == []
    assert solver.solve_joint_fit_batch(np.zeros((0, 2, 4, 4)), [1.0, 2.0], 2, []) == []
    assert calls == []
