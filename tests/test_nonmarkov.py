"""The white-noise measure: the (branch, delta) screen in front of the P2
solver, the Lambert W start of the delta grid (and the ``cli`` import
that no longer pulls in ``scipy.special``), the delta sweep on the
benchmark unital channel, one batch over a stack of repaired samples
against the per-sample loop it replaced, the panel winners' rates against
tight-tolerance solves, the X gate batch's iteration bound, the MaxIters
count, and the sweep against the closed-form noise rate of
``analytical_mu_unital``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg import expm

import lindbladfit
from lindbladfit import preprocess, solver
from lindbladfit.channels import (
    ChannelSpec,
    TomographyConfig,
    is_lindbladian,
    simulate_process_tomography,
)
from lindbladfit.errors import NumericalFailure
from lindbladfit.fitting import (
    TIE_TOL,
    VERIFY_TOL,
    BranchPolicy,
    branch_targets,
    checked_log,
    enumerate_branches,
)
from lindbladfit.linalg import frobenius, gamma_involution, herm, max_entangled
from lindbladfit.nonmarkov import (
    DeltaSweep,
    analytical_mu_unital,
    non_markovianity,
)

EPSILON = 0.05
BENCH_GAMMA = [-200.0, 201.0, 200.5]
WEAK_GAMMA = [0.1, 0.2, 0.3]


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
    """The (P2) contract over the whole grid: every pair the screen keeps
    solves Optimal inside its ball.  Solved anyway, a dropped pair ends
    MaxIters outside its ball, unless it lies within 1e-9 (relative) of its
    critical radius, where the ball residual still meets the solver's
    10·TOL·scale bound."""
    targets, deltas, critical = screen_grid
    mask = solver.min_mu_infeasible(targets, 2, deltas)
    bi, di = np.indices(mask.shape).reshape(2, -1)
    reports = solver.min_mu_batch(targets[bi], 2, deltas[di])
    status = np.array([rep.status for rep in reports])
    ball = np.array([rep.residuals[2] for rep in reports])
    kept = ~mask.ravel()
    assert kept.sum() == 46 and (status[kept] == solver.OPTIMAL).all()
    assert ball[kept].max() <= 3.5e-9
    near = deltas[di] >= np.array(critical)[bi] * (1 - 1.5e-9)
    dead_far, dead_near = ~kept & ~near, ~kept & near
    assert dead_far.sum() == 36 and (status[dead_far] == solver.MAX_ITERS).all()
    assert (ball[dead_far] > 0).all()
    scale = np.maximum(1.0, solver._fro(herm(targets)))[bi]
    assert dead_near.sum() == 6 and (status[dead_near] == solver.OPTIMAL).all()
    assert ball[dead_near].max() <= 4.3e-9
    assert (ball[dead_near] <= 10 * solver.TOL * scale[dead_near]).all()
    # the ball touches the slice at the critical radius
    for b, c in enumerate(critical[:-1]):
        below, above = np.searchsorted(deltas, [c * (1 - 1e-9), c * (1 + 1e-9)])
        assert mask[b, below] and not mask[b, above]


def test_empty_screen_grid():
    mask = solver.min_mu_infeasible(np.zeros((0, 4, 4)), 2, [0.1, 0.2])
    assert mask.shape == (0, 2)
    assert solver.min_mu_batch(np.zeros((0, 4, 4)), 2, []) == []


def test_delta_min_is_lambert_w0():
    """delta_min solves epsilon = exp(delta)·delta·|L0|: W0(epsilon/|L0|),
    against scipy's Lambert W over ten decades."""
    from scipy.special import lambertw

    xs = np.logspace(-8, 2, 2001)
    ours = np.array([DeltaSweep.from_epsilon(float(x), 1.0).delta_min for x in xs])
    np.testing.assert_allclose(ours, lambertw(xs).real, rtol=1e-15, atol=0)
    delta = DeltaSweep.from_epsilon(EPSILON, 3.0).delta_min
    assert delta * np.exp(delta) * 3.0 == pytest.approx(EPSILON, rel=1e-15)


def test_cli_import_leaves_scipy_special_out():
    code = "import sys, lindbladfit.cli; sys.exit('scipy.special' in sys.modules)"
    src = str(Path(lindbladfit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), timeout=120
    )
    assert done.returncode == 0


@pytest.mark.parametrize(
    "shots, mu", [(10**4, 4.569177), (10**5, 5.746707)]
)
def test_benchmark_unital_noise_rate(shots, mu):
    m = bench_snapshot(shots)
    res, maxiters = non_markovianity(m, m, EPSILON)
    assert res is not None and maxiters == 0
    assert res.mu_min == pytest.approx(mu, abs=1e-6)
    assert res.branch == (0, 0, 0, 0)
    assert res.distance < EPSILON


def _snapshot_and_sample(spec, repaired):
    m = simulate_process_tomography(spec, TomographyConfig(shots=10**4, seed=1)).mat
    if not repaired:
        return m, m
    cfg = preprocess.RandomBasisConfig(samples=1, seed=0)
    _, stream = preprocess.repaired_samples(m, preprocess.DEFAULT_PRECISION, EPSILON, cfg)
    return m, next(stream)[1]


def _below_tie_tol(delta, mu):
    """Distinct rates that all rank as zero, falling as delta grows."""
    return TIE_TOL / (2 + delta)


@pytest.mark.parametrize(
    "spec, repaired, adjust",
    [
        (ChannelSpec("unital", {"gamma": BENCH_GAMMA}), False, None),
        (ChannelSpec("unital", {"gamma": BENCH_GAMMA}), False, lambda delta, mu: np.ceil(mu)),
        (ChannelSpec("unital", {"gamma": [0.3, 0.5, 0.8]}), False, _below_tie_tol),
        (ChannelSpec("xgate"), True, lambda delta, mu: np.ceil(mu)),
    ],
    ids=["benchmark", "benchmark, mu rounded up", "markovian, mu below the tie tolerance",
         "X gate sample, mu rounded up"],
)
def test_winner_is_the_first_certified_pair_by_mu_delta_branch(spec, repaired, adjust, monkeypatch):
    """The sweep's reduction against a plain loop over every (branch, delta)
    pair, solved unscreened: keep the pairs whose ball reaches the slice and
    whose exponential lies within epsilon, sort them by (mu with ties
    zeroed, delta, branch) and take the first that passes the Lindblad
    test.  ``adjust`` rewrites each solved rate (from its delta) to make
    pairs tie; both sides see the same rates."""
    if adjust is not None:
        batch = solver.min_mu_batch

        def adjusted(targets, d, deltas):
            reports = batch(targets, d, deltas)
            for delta, rep in zip(deltas, reports):
                rep.mu = float(adjust(delta, rep.mu))
            return reports

        monkeypatch.setattr(solver, "min_mu_batch", adjusted)
    m, r = _snapshot_and_sample(spec, repaired)
    spectral, l0 = checked_log(r)
    deltas = DeltaSweep.from_epsilon(EPSILON, frobenius(l0)).grid()
    branches = list(enumerate_branches(BranchPolicy(), 4))
    targets = branch_targets(l0, spectral, np.array(branches))
    reports = solver.min_mu_batch(np.repeat(targets, len(deltas), axis=0), 2,
                                  np.tile(deltas, len(branches)))
    perp = max_entangled(2).omega_perp
    balls = [reach(t, 2) for t in targets]
    candidates = []
    for k, rep in enumerate(reports):
        b, j = divmod(k, len(deltas))
        skew, gap = balls[b]
        # a ball that misses the slice is a pair the sweep's screen drops
        if deltas[j] ** 2 - skew**2 < gap**2 - 1e-30 or rep.mu >= 1e9:
            continue
        generator = gamma_involution(rep.x_opt)
        distance = frobenius(m - expm(generator))
        if distance < EPSILON:
            tied = rep.mu if rep.mu >= TIE_TOL else 0.0
            candidates.append(((tied, deltas[j], b), rep.mu, generator, distance))
    want = next(
        c for c in sorted(candidates, key=lambda c: c[0])
        if is_lindbladian(c[2] - c[1] * perp, tol=VERIFY_TOL).ok
    )
    res, _ = non_markovianity(m, r, EPSILON)
    assert (res.mu_min, res.delta_used, res.branch) == (want[1], want[0][1], branches[want[0][2]])
    assert res.distance == pytest.approx(want[3], abs=1e-12)
    np.testing.assert_allclose(res.generator, want[2], rtol=0, atol=1e-12)


def _stack(spec, shots, epsilon, samples=4):
    """Snapshot (tomography seed 1) and its repaired samples, as `fit` draws them."""
    m = simulate_process_tomography(spec, TomographyConfig(shots=shots, seed=1)).mat
    cfg = preprocess.RandomBasisConfig(samples=samples, seed=0)
    _, stream = preprocess.repaired_samples(m, preprocess.DEFAULT_PRECISION, epsilon, cfg)
    return m, list(stream)


def _per_sample_loop(m, samples, epsilon):
    """The per-sample fallback the one-batch call replaced, kept as the
    reference: one sweep per sample, skipping samples that fail the log
    audit, and the least (mu, sample id) kept.  Returns (result, sample id,
    summed MaxIters count)."""
    best, best_k, maxiters = None, None, 0
    for k, repaired in samples:
        try:
            result, count = non_markovianity(m, repaired, epsilon)
        except NumericalFailure:
            continue
        maxiters += count
        if result is not None and (best is None or (result.mu_min, k) < (best.mu_min, best_k)):
            best, best_k = result, k
    return best, best_k, maxiters


@pytest.mark.parametrize(
    "spec, shots, epsilon",
    [
        (ChannelSpec("xgate"), 10**4, EPSILON),
        (ChannelSpec("xgate"), 10**5, EPSILON),
        # at the panel's epsilon both weak-unital sweeps find nothing; at 0.2
        # one sample's zero-noise branch is accepted
        (ChannelSpec("unital", {"gamma": WEAK_GAMMA, "t": 1.0}), 10**4, 0.2),
        (ChannelSpec("unital", {"gamma": WEAK_GAMMA, "t": 2.0}), 10**4, 0.2),
    ],
    ids=["X gate 1e4", "X gate 1e5", "weak unital t=1", "weak unital t=2"],
)
def test_one_batch_over_samples_matches_the_per_sample_loop(spec, shots, epsilon):
    m, samples = _stack(spec, shots, epsilon)
    want, want_k, want_maxiters = _per_sample_loop(m, samples, epsilon)
    res, maxiters = non_markovianity(m, np.stack([r for _, r in samples]), epsilon)
    assert want is not None and maxiters == want_maxiters == 0
    assert res.basis_sample == want_k
    assert (res.mu_min, res.delta_used, res.branch, res.distance) == (
        want.mu_min, want.delta_used, want.branch, want.distance
    )
    assert np.array_equal(res.generator, want.generator)


@pytest.mark.parametrize(
    "t, shots, epsilon, raise_sample_0, loop_pick",
    [(1.0, 10**4, 0.3, True, 3), (2.0, 10**5, 0.2, False, 0)],
    ids=["smaller raw mu in sample 3", "smaller delta in sample 3"],
)
def test_cross_sample_ties_go_to_the_lower_sample(
    t, shots, epsilon, raise_sample_0, loop_pick, monkeypatch
):
    """Weak unital: samples 0 and 3 both reach a rate below the tie
    tolerance, and sample 3's winner has the smaller raw rate (t=1) or the
    same rate at a smaller delta (t=2).  The solver returns both rates as
    exactly 0, so for t=1 every rate of sample 0 is raised by half the tie
    tolerance.  One ranking over the whole stack counts both rates as zero
    and takes the lower sample.  The per-sample loop compared raw rates, so
    it took sample 3 in the first case."""
    spec = ChannelSpec("unital", {"gamma": WEAK_GAMMA, "t": t})
    m, samples = _stack(spec, shots, epsilon)
    if raise_sample_0:
        spectral, l0 = checked_log(samples[0][1])
        own = branch_targets(l0, spectral, np.array(list(enumerate_branches(BranchPolicy(), 4))))
        batch = solver.min_mu_batch

        def raised(targets, d, deltas):
            reports = batch(targets, d, deltas)
            for target, rep in zip(targets, reports):
                if rep.mu is not None and any(np.array_equal(target, o) for o in own):
                    rep.mu += TIE_TOL / 2
            return reports

        monkeypatch.setattr(solver, "min_mu_batch", raised)
    first, last = (non_markovianity(m, samples[k][1], epsilon)[0] for k in (0, 3))
    assert max(first.mu_min, last.mu_min) < TIE_TOL
    assert (last.mu_min, last.delta_used) < (first.mu_min, first.delta_used)
    res, _ = non_markovianity(m, np.stack([r for _, r in samples]), epsilon)
    assert res.basis_sample == 0
    assert (res.mu_min, res.delta_used, res.branch) == (
        first.mu_min, first.delta_used, first.branch
    )
    assert _per_sample_loop(m, samples, epsilon)[1] == loop_pick


def test_a_zero_rate_is_not_negative_zero():
    """Weak unital t=2 (10^5 shots), sample 3 at epsilon 0.2: the winner's
    compressed spectrum has an exact-zero least eigenvalue, whose negation
    is -0.0.  The rate is reported as +0.0."""
    spec = ChannelSpec("unital", {"gamma": WEAK_GAMMA, "t": 2.0})
    m, samples = _stack(spec, 10**5, 0.2)
    res, _ = non_markovianity(m, samples[3][1], 0.2)
    assert res.mu_min == 0.0 and not np.signbit(res.mu_min)


def _ill_conditioned():
    """A matrix whose exp(log R) round trip fails the audit: two of its
    eigenvectors are 1e-6 apart."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal((4, 4)) + 0j
    v[:, 1] = v[:, 0] + 1e-6 * rng.standard_normal(4)
    return (v * np.array([1.0, 0.5, 0.7, 0.9])) @ np.linalg.inv(v)


def test_a_sample_that_fails_the_log_audit_is_skipped():
    m = bench_snapshot(10**4)
    bad = _ill_conditioned()
    with pytest.raises(NumericalFailure, match="misses R"):
        checked_log(bad)
    alone, _ = non_markovianity(m, m, EPSILON)
    res, _ = non_markovianity(m, np.stack([bad, m, bad]), EPSILON)
    assert res.basis_sample == 1
    assert (res.mu_min, res.delta_used, res.branch) == (
        alone.mu_min, alone.delta_used, alone.branch
    )
    with pytest.raises(NumericalFailure, match="all 2 samples"):
        non_markovianity(m, np.stack([bad, bad]), EPSILON)


def _panel_stack(spec, shots, repaired):
    """Snapshot and the stack of samples `fit` hands to the fallback."""
    if repaired:
        m, samples = _stack(spec, shots, EPSILON)
        return m, np.stack([r for _, r in samples])
    m = simulate_process_tomography(spec, TomographyConfig(shots=shots, seed=1)).mat
    return m, m[None]


# the panel's NonMarkovian inputs: the X gate fits repaired samples, the
# benchmark unital its raw snapshot
@pytest.mark.parametrize(
    "spec, shots, repaired",
    [
        (ChannelSpec("xgate"), 10**4, True),
        (ChannelSpec("xgate"), 10**5, True),
        (ChannelSpec("unital", {"gamma": BENCH_GAMMA}), 10**4, False),
        (ChannelSpec("unital", {"gamma": BENCH_GAMMA}), 10**5, False),
    ],
    ids=["X gate 1e4", "X gate 1e5", "benchmark 1e4", "benchmark 1e5"],
)
def test_winner_mu_is_within_1e7_of_a_tight_solve(spec, shots, repaired, monkeypatch):
    """The winner's rate against a solve of its own (target, delta) at
    1e-13 tolerance."""
    m, stack = _panel_stack(spec, shots, repaired)
    res, maxiters = non_markovianity(m, stack, EPSILON)
    assert res is not None and maxiters == 0
    spectral, l0 = checked_log(stack[res.basis_sample])
    target = branch_targets(l0, spectral, np.array([res.branch]))[0]
    monkeypatch.setattr(solver, "TOL", 1e-13)
    ref = solver.min_mu_batch(target, 2, res.delta_used)[0]
    assert ref.status == solver.OPTIMAL
    assert res.mu_min == pytest.approx(ref.mu, abs=1e-7)


def test_x_gate_fallback_batch_converges_in_under_1000_iterations(monkeypatch):
    """Every pair of the X gate (1e4 shots) fallback batch is Optimal, the
    slowest within 1000 iterations."""
    batch = solver.min_mu_batch
    reports = []

    def counted(targets, d, deltas):
        out = batch(targets, d, deltas)
        reports.extend(out)
        return out

    monkeypatch.setattr(solver, "min_mu_batch", counted)
    non_markovianity(*_panel_stack(ChannelSpec("xgate"), 10**4, True), EPSILON)
    assert len(reports) == 54
    assert all(rep.status == solver.OPTIMAL for rep in reports)
    assert max(rep.iterations for rep in reports) <= 1000


def test_maxiters_reports_are_counted(monkeypatch):
    """With the solver cut at a few iterations, every solved pair is
    MaxIters, and the count is the number of pairs solved."""
    batch = solver.min_mu_batch
    solved = []

    def recording(targets, d, deltas):
        reports = batch(targets, d, deltas)
        solved.extend(rep.status for rep in reports)
        return reports

    monkeypatch.setattr(solver, "ITER_LIMIT", 5)
    monkeypatch.setattr(solver, "min_mu_batch", recording)
    m = bench_snapshot(10**4)
    _, maxiters = non_markovianity(m, np.stack([m, m]), EPSILON)
    assert maxiters == solved.count(solver.MAX_ITERS) == len(solved) > 0


@pytest.mark.parametrize("shots", [10**4, 10**5, 10**6])
def test_sweep_agrees_with_the_analytical_noise_rate(shots):
    """The sweep may spend the epsilon budget, so its mu is at most the
    closed-form rate of the filtered snapshot, and close to it."""
    m = bench_snapshot(shots)
    swept = non_markovianity(m, m, EPSILON)[0].mu_min
    closed = analytical_mu_unital(m).mu
    assert swept <= closed
    assert swept >= 0.95 * closed


def test_analytical_mu_is_exact_on_the_exact_channel():
    exact = ChannelSpec("unital", {"gamma": BENCH_GAMMA}).transfer()
    res = analytical_mu_unital(exact.mat)
    assert res.epsilon < 1e-12
    assert res.mu > 0
