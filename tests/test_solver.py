"""Projection solvers: (P1) nearest generator, (P2) minimum noise shift.

Both programs run over hermitian matrices in the Choi picture; the
alternating-projection routine provides an independent optimality check
for the splitting solver.
"""

import numpy as np
import pytest

from lindbladfit.channels import is_lindbladian, random_lindblad_generator
from lindbladfit.errors import OutOfRange
from lindbladfit.linalg import (
    frobenius,
    gamma_involution,
    max_entangled,
    partial_trace_first,
)
from lindbladfit.solver import (
    SolverSettings,
    closest_lindbladian_batch,
    dykstra_closest_lindbladian,
    min_mu_batch,
    solve_closest_lindbladian,
    solve_min_mu,
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
# settings
# ----------------------------------------------------------------------

def test_default_settings_validate():
    SolverSettings().validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"primal_tol": 0.0},
        {"dual_tol": -1e-9},
        {"cone_tol": 0.0},
        {"max_iters": 0},
        {"over_relaxation": 1.0},
        {"over_relaxation": 2.0},
        {"rho": 0.0},
    ],
)
def test_settings_rejects_bad_values(kwargs):
    with pytest.raises(OutOfRange):
        SolverSettings(**kwargs).validate()


# ----------------------------------------------------------------------
# (P1) nearest conditionally positive, trace-annihilating point
# ----------------------------------------------------------------------

def test_in_cone_target_is_fixed_point():
    c = lindbladian_choi(2, seed=0)
    rep = solve_closest_lindbladian(c, 2)
    assert rep.status == "Optimal"
    assert rep.objective <= 1e-7
    assert frobenius(rep.x_opt - herm(c)) <= 1e-6
    assert rep.mu is None


def test_zero_target():
    rep = solve_closest_lindbladian(np.zeros((4, 4)), 2)
    assert rep.status == "Optimal"
    assert rep.objective == pytest.approx(0.0, abs=1e-12)


def test_projection_output_is_feasible():
    rep = solve_closest_lindbladian(random_choi_target(2, seed=1), 2)
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
    rep = solve_closest_lindbladian(target, 2)
    dyk = dykstra_closest_lindbladian(target, 2)
    assert rep.status == "Optimal"
    assert abs(rep.objective - dyk.objective) <= 1e-6
    assert max(dyk.residuals[:2]) <= 1e-8
    assert frobenius(rep.x_opt - dyk.x_opt) <= 1e-5


def test_projection_scale_equivariance():
    target = random_choi_target(2, seed=7)
    base = solve_closest_lindbladian(target, 2)
    for c in (0.25, 4.0):
        scaled = solve_closest_lindbladian(c * target, 2)
        assert scaled.objective == pytest.approx(c * base.objective, rel=1e-6)
        assert frobenius(scaled.x_opt - c * base.x_opt) <= 1e-6 * max(1.0, c)


def test_batch_results_are_composition_independent():
    targets = np.stack([random_choi_target(2, seed=s) for s in (11, 12, 13)])
    batch = closest_lindbladian_batch(targets, 2)
    for i, t in enumerate(targets):
        single = solve_closest_lindbladian(t, 2)
        assert frobenius(batch[i].x_opt - single.x_opt) <= 1e-9
        assert batch[i].objective == pytest.approx(single.objective, abs=1e-10)

    # At rho = 10 the residual balancing halves rho at iteration 100 for
    # the problems still running; they retire at different iterations (1,
    # 128, 171, 176) and the first one is cut at max_iters.
    st = SolverSettings(rho=10.0, max_iters=200)
    targets = np.stack(
        [random_choi_target(2, seed=s) for s in (11, 12, 13)]
        + [lindbladian_choi(2, seed=3) + 0.01 * random_choi_target(2, seed=103),
           lindbladian_choi(2, seed=4)]
    )
    batch = closest_lindbladian_batch(targets, 2, st)
    iters = [rep.iterations for rep in batch]
    assert batch[0].status == "MaxIters" and iters[0] == st.max_iters
    assert len(set(iters)) == len(iters) and sum(100 < i < 200 for i in iters) == 3
    for t, rep in zip(targets, batch):
        single = solve_closest_lindbladian(t, 2, st)
        assert (rep.status, rep.iterations) == (single.status, single.iterations)
        np.testing.assert_allclose(rep.x_opt, single.x_opt, rtol=0, atol=1e-12)


def test_four_level_projection():
    rep = solve_closest_lindbladian(random_choi_target(4, seed=2, scale=0.5), 4)
    assert rep.status == "Optimal"
    check = is_lindbladian(gamma_involution(rep.x_opt), tol=1e-6)
    assert check.ok, check.residuals


def test_history_tracking():
    target = random_choi_target(2, seed=21)
    st = SolverSettings(track_history=True)
    rep = solve_closest_lindbladian(target, 2, st)
    assert rep.history is not None and len(rep.history) > 0
    iters = [h[0] for h in rep.history]
    assert iters == sorted(iters)
    assert rep.history[-1][0] <= rep.iterations
    plain = solve_closest_lindbladian(target, 2)
    assert plain.history is None


# ----------------------------------------------------------------------
# (P2) minimum noise rate within a delta-ball
# ----------------------------------------------------------------------

def test_markovian_target_needs_no_noise():
    c = lindbladian_choi(2, seed=3)
    rep = solve_min_mu(c, 2, delta=0.1)
    assert rep.status == "Optimal"
    assert rep.mu is not None and rep.mu <= 1e-8


def test_zero_radius_oracle_on_projector_direction():
    """At delta = 0 the answer is closed-form: d times the compressed
    eigenvalue deficit.  The anti-noise direction gives mu = c exactly."""
    perp = max_entangled(2).omega_perp
    c_target = gamma_involution(0.3 * perp)
    rep = solve_min_mu(c_target, 2, delta=0.0)
    assert rep.status == "Optimal"
    assert rep.mu == pytest.approx(0.3, abs=1e-7)


@pytest.mark.parametrize("seed", range(5))
def test_zero_radius_oracle_random(seed):
    d = 2
    c = tp_correct(herm(random_choi_target(d, seed=200 + seed)), d)
    perp = max_entangled(d).omega_perp
    lam = np.linalg.eigvalsh(perp @ c @ perp)[0]
    expected = d * max(0.0, -float(lam))
    rep = solve_min_mu(c, d, delta=0.0)
    assert rep.status == "Optimal"
    assert rep.mu == pytest.approx(expected, abs=1e-6)


def test_skewed_target_with_small_ball_is_infeasible():
    target = random_choi_target(2, seed=31)  # generic: large skew part
    skew = frobenius(target - herm(target))
    assert skew > 0.5
    rep = solve_min_mu(target, 2, delta=0.25 * skew)
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
    dist = solve_closest_lindbladian(c, 2).objective
    rep = solve_min_mu(c, 2, delta=1.05 * dist)
    assert rep.status == "Optimal"
    assert rep.mu <= 1e-7


def test_mu_batch_matches_singles():
    c1 = tp_correct(herm(random_choi_target(2, seed=51)), 2)
    c2 = tp_correct(herm(random_choi_target(2, seed=52)), 2)
    batch = min_mu_batch(np.stack([c1, c2]), 2, [0.3, 0.6])
    for rep, (c, delta) in zip(batch, [(c1, 0.3), (c2, 0.6)]):
        single = solve_min_mu(c, 2, delta)
        assert rep.mu == pytest.approx(single.mu, abs=1e-9)

    # At rho = 10 the residual balancing halves rho at iterations 100 and
    # 200; one problem retires at 40, one at 386, two are cut at
    # max_iters, and a skewed target with a small ball is screened.
    st = SolverSettings(rho=10.0, max_iters=420)
    c4 = tp_correct(herm(random_choi_target(2, seed=54)), 2)
    targets = np.stack([lindbladian_choi(2, seed=3), c1, c2, c4, random_choi_target(2, seed=31)])
    deltas = [0.1, 0.3, 0.6, 0.3, 0.1]
    batch = min_mu_batch(targets, 2, deltas, st)
    assert [rep.status for rep in batch] == [
        "Optimal", "Optimal", "MaxIters", "MaxIters", "Infeasible"
    ]
    assert batch[0].iterations < 100 < batch[1].iterations < st.max_iters
    for t, delta, rep in zip(targets, deltas, batch):
        single = solve_min_mu(t, 2, delta, st)
        assert (rep.status, rep.iterations) == (single.status, single.iterations)
        np.testing.assert_allclose(rep.x_opt, single.x_opt, rtol=0, atol=1e-12)
        if rep.mu is not None:
            assert rep.mu == pytest.approx(single.mu, abs=1e-12)
