"""The white-noise measure: the (branch, delta) screen in front of the P2
solver, the delta sweep on the benchmark unital channel, and the sweep
against the closed-form noise rate of ``analytical_mu_unital``.
"""

import numpy as np
import pytest

from lindbladfit import solver
from lindbladfit.channels import (
    ChannelSpec,
    TomographyConfig,
    simulate_process_tomography,
)
from lindbladfit.linalg import herm
from lindbladfit.nonmarkov import analytical_mu_unital, non_markovianity

EPSILON = 0.05
BENCH_GAMMA = [-200.0, 201.0, 200.5]


def bench_snapshot(shots):
    return simulate_process_tomography(
        ChannelSpec("unital", {"gamma": BENCH_GAMMA}),
        TomographyConfig(shots=shots, seed=1),
    ).mat


def reach(target, d):
    """Skew norm and distance from herm(T) to {Tr_1[X] = 0}, written out."""
    h = 0.5 * (target + target.conj().T)
    tr1 = np.einsum("jcjr->cr", h.reshape(d, d, d, d))
    return np.linalg.norm(target - h), np.linalg.norm(np.kron(np.eye(d), tr1) / d)


@pytest.fixture(scope="module")
def screen_grid():
    """Targets with a skew part and a Tr_1 part, and a delta grid holding each
    target's critical radius sqrt(skew^2 + gap^2) and its float neighbours."""
    rng = np.random.default_rng(11)
    targets = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    # hermitian and trace-annihilating up to 1e-17: gap^2 falls inside the
    # 1e-30 margin, so even delta = 0 reaches the slice
    tiny = targets[0] + targets[0].conj().T
    tiny -= np.kron(np.eye(2), np.einsum("jcjr->cr", tiny.reshape(2, 2, 2, 2))) / 2
    targets = np.concatenate([targets, (tiny + 1e-17 * np.eye(4))[None]])
    critical = [np.hypot(*reach(t, 2)) for t in targets]
    deltas = np.unique(
        [0.0, 1e-20]
        + [np.nextafter(c, lim) for c in critical for lim in (0.0, np.inf)]
        + [c * f for c in critical for f in (1 - 1e-9, 1.0, 1 + 1e-9)]
    )
    return targets, deltas, critical


def test_screen_is_the_ball_test(screen_grid):
    targets, deltas, _ = screen_grid
    mask = solver.min_mu_infeasible(targets, 2, deltas)
    assert mask.shape == (len(targets), len(deltas))
    for b, target in enumerate(targets):
        skew, gap = reach(target, 2)
        for k, delta in enumerate(deltas):
            # within a few ulp of the boundary the reference's own rounding decides
            if abs(delta - np.hypot(skew, gap)) > 1e-12:
                assert mask[b, k] == (delta**2 - skew**2 < gap**2 - 1e-30)
    assert not mask[-1].any()
    assert mask[:-1].any() and not mask[:-1].all()


def test_screen_matches_min_mu_batch_status(screen_grid):
    targets, deltas, critical = screen_grid
    mask = solver.min_mu_infeasible(targets, 2, deltas)
    bi, di = np.indices(mask.shape).reshape(2, -1)
    reports = solver.min_mu_batch(
        targets[bi], 2, deltas[di], solver.SolverSettings(max_iters=20)
    )
    status = np.array([rep.status == solver.INFEASIBLE for rep in reports])
    assert (status == mask.ravel()).all()
    # the ball touches the slice at the critical radius
    for b, c in enumerate(critical[:-1]):
        below, above = np.searchsorted(deltas, [c * (1 - 1e-9), c * (1 + 1e-9)])
        assert mask[b, below] and not mask[b, above]


def test_infeasible_reports_keep_their_fields(screen_grid):
    """The batched Infeasible reports equal the old one-pair-at-a-time
    construction, kept here as the reference."""
    targets, _, critical = screen_grid
    geo = solver._geometry(2)
    deltas = 0.5 * np.array(critical[:3])
    reports = solver.min_mu_batch(targets[:3], 2, deltas)
    for target, delta, rep in zip(targets[:3], deltas, reports):
        t_h = herm(target[None])
        skew = solver._fro(target[None] - t_h)[0]
        x0 = geo.project_trace_zero(t_h)[0]
        ball = max(0.0, np.sqrt(solver._fro(x0[None] - t_h)[0] ** 2 + skew**2) - delta)
        assert rep.status == solver.INFEASIBLE and rep.mu is None
        assert rep.iterations == 0 and np.isnan(rep.objective)
        assert np.array_equal(rep.x_opt, x0)
        assert rep.residuals == (0.0, float(geo.cone_deficit(x0[None])[0]), float(ball))


def test_empty_screen_grid():
    mask = solver.min_mu_infeasible(np.zeros((0, 4, 4)), 2, [0.1, 0.2])
    assert mask.shape == (0, 2)
    assert solver.min_mu_batch(np.zeros((0, 4, 4)), 2, []) == []


@pytest.mark.parametrize(
    "shots, mu", [(10**4, 4.569177), (10**5, 5.746707)]
)
def test_benchmark_unital_noise_rate(shots, mu):
    m = bench_snapshot(shots)
    res = non_markovianity(m, m, EPSILON)
    assert res is not None
    assert res.mu_min == pytest.approx(mu, abs=1e-6)
    assert res.branch == (0, 0, 0, 0)
    assert res.distance < EPSILON


@pytest.mark.parametrize("shots", [10**4, 10**5, 10**6])
def test_sweep_agrees_with_the_analytical_noise_rate(shots):
    """The sweep may spend the epsilon budget, so its mu is at most the
    closed-form rate of the filtered snapshot, and close to it."""
    m = bench_snapshot(shots)
    swept = non_markovianity(m, m, EPSILON).mu_min
    closed = analytical_mu_unital(m).mu
    assert swept <= closed
    assert swept >= 0.95 * closed


def test_analytical_mu_is_exact_on_the_exact_channel():
    exact = ChannelSpec("unital", {"gamma": BENCH_GAMMA}).transfer()
    res = analytical_mu_unital(exact)
    assert res.epsilon < 1e-12
    assert res.mu > 0
