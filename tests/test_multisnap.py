"""Joint fits across snapshot series: the batched joint solver, its
feasibility screen and radial prox, the answers of ``best_fit_multi`` on
simulated unital series against an all-pairs reference, its reuse of one
solve per branch assignment and its MaxIters count, and the ``multifit``
CLI command.
"""

import itertools
import json

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

from lindbladfit import cli, fitting, multisnap, solver
from lindbladfit.channels import (
    ChannelSpec,
    TomographyConfig,
    is_lindbladian,
    random_lindblad_generator,
    simulate_process_tomography,
)
from lindbladfit.errors import DimensionMismatch, OutOfRange
from lindbladfit.linalg import expm as batched_expm
from lindbladfit.linalg import frobenius, gamma_involution
from lindbladfit.multisnap import SnapshotSeries, _joint_assignments, best_fit_multi
from lindbladfit.nonmarkov import DeltaSweep

EPSILON = 0.05
TIMES = (1.0, 2.0)
WEAK_GAMMA = [0.1, 0.2, 0.3]
BENCH_GAMMA = [-200.0, 201.0, 200.5]


def unital_series(gamma, seed, times=TIMES):
    return [
        simulate_process_tomography(
            ChannelSpec("unital", {"gamma": gamma, "t": t}),
            TomographyConfig(shots=10**5, seed=seed),
        ).mat
        for t in times
    ]


@pytest.fixture(scope="module")
def weak_series():
    return {seed: unital_series(WEAK_GAMMA, seed) for seed in (1, 2, 3)}


def assignment_grid(mats, policy=fitting.BranchPolicy()):
    """(deltas, assignments, stacked targets (A, q, n, n)) as multifit builds them."""
    logs = [fitting.checked_log(m) for m in mats]
    deltas = DeltaSweep.from_epsilon(EPSILON, frobenius(logs[0][1])).grid()
    n = mats[0].shape[0]
    assignments = list(_joint_assignments(policy, len(mats), n))
    targets = np.array([
        [fitting.branch_targets(l0, s, np.array([m]))[0] for (s, l0), m in zip(logs, a)]
        for a in assignments
    ])
    return deltas, assignments, targets


# ----------------------------------------------------------------------
# feasibility screen
# ----------------------------------------------------------------------

def fro(x):
    return float(np.sqrt(np.sum(np.abs(x) ** 2)))


def scalar_screen(targets, times, delta):
    """The two infeasibility tests, one problem at a time, in plain Python."""
    t_h = [0.5 * (t + t.conj().T) for t in targets]
    skew_sq = [fro(t - h) ** 2 for t, h in zip(targets, t_h)]
    if any(s > delta**2 for s in skew_sq):
        return np.inf
    for a, b in itertools.combinations(range(len(targets)), 2):
        gap = fro(t_h[a] / times[a] - t_h[b] / times[b])
        r_a = np.sqrt(max(delta**2 - skew_sq[a], 0.0)) / times[a]
        r_b = np.sqrt(max(delta**2 - skew_sq[b], 0.0)) / times[b]
        if gap > r_a + r_b + 1e-12:
            return gap - r_a - r_b
    return 0.0


def test_grid_screen_matches_scalar_tests(weak_series):
    deltas, assignments, targets = assignment_grid(weak_series[1])
    # the sweep, plus radii on the skew test's boundary
    skew = np.unique([fro(t - 0.5 * (t + t.conj().T)) for t in targets.reshape(-1, 4, 4)])
    deltas = np.concatenate([deltas, skew[:: len(skew) // 8]])
    grid = solver.joint_infeasibility(targets, TIMES, deltas[:, None])
    assert grid.shape == (len(deltas), len(assignments))
    expected = np.array([
        [scalar_screen(list(t), TIMES, float(delta)) for t in targets] for delta in deltas
    ])
    assert np.isinf(expected).any() and (expected == 0).any()
    np.testing.assert_allclose(grid, expected, rtol=1e-13, atol=0)
    assert np.array_equal(grid == 0, expected == 0)


def test_screen_reports_first_disjoint_pair():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((4, 4))
    base = base + base.T
    times = (1.0, 2.0, 3.0)
    # snapshot 2 sits far from both others; pairs (0, 2) and (1, 2) are disjoint
    targets = np.array([base, 2 * base, 3 * base + 30 * np.eye(4)])
    excess = solver.joint_infeasibility(targets, times, 0.5)
    assert excess == pytest.approx(scalar_screen(list(targets), times, 0.5), rel=1e-13)
    gap = np.linalg.norm(targets[0] / 1.0 - targets[2] / 3.0)
    assert excess == pytest.approx(gap - 0.5 - 0.5 / 3.0, rel=1e-13)
    assert solver.joint_infeasibility(targets[:1], times[:1], 0.5) == 0.0


def test_screen_allows_balls_within_margin():
    # unit balls around 0 and x·E: disjoint only beyond the 1e-12 margin
    unit = np.zeros((4, 4))
    unit[0, 0] = 1.0
    excess = [
        float(solver.joint_infeasibility(np.array([0 * unit, x * unit]), (1.0, 1.0), 1.0))
        for x in (2.0, 2.0 + 5e-13, 2.0 + 5e-12)
    ]
    assert excess[:2] == [0.0, 0.0]
    assert excess[2] == pytest.approx(5e-12, rel=1e-3)


# ----------------------------------------------------------------------
# radial prox
# ----------------------------------------------------------------------

def reference_root(g, s, c):
    def h(r):
        return (r / np.hypot(r, s) if r > 0 else 0.0) + c * (r - g)

    return brentq(h, 0.0, g, xtol=1e-16, rtol=4 * np.finfo(float).eps)


def test_prox_root_matches_brentq():
    rng = np.random.default_rng(7)
    b, n = 64, 4
    v = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
    target = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
    t = 1.7
    g = np.linalg.norm(t * v - target, axis=(-2, -1))
    s = rng.uniform(0.0, 2.0, b)
    s[::4] = 0.0
    # about half the problems have g < t²/ρ, where the s → 0 start is r₀ = 0
    rho = t**2 / (g * rng.uniform(0.3, 3.0, b))
    radius = np.full(b, 1e3)
    radius[1::3] = np.hypot(s[1::3], 0.25 * g[1::3])  # the ball clips these
    out = solver._prox_scaled_distance(v, target, s**2, t, rho, radius)

    assert (g < t**2 / rho).sum() > 10 and (g > t**2 / rho).sum() > 10
    clipped = 0
    for i in range(b):
        root = reference_root(g[i], s[i], rho[i] / t**2)
        r_max = np.sqrt(max(radius[i] ** 2 - s[i] ** 2, 0.0))
        clipped += root > r_max
        r = min(root, r_max)
        g_mat = t * v[i] - target[i]
        expected = v[i] + (r - g[i]) / (t * g[i]) * g_mat
        np.testing.assert_allclose(out[i], expected, rtol=0, atol=1e-12)
    assert clipped >= 3


def test_radial_root_at_zero_skew_is_closed_form():
    g = np.array([0.0, 0.5, 2.0, 3.0])
    c = np.array([1.0, 1.0, 1.0, 0.25])
    r = solver._radial_root(g, np.zeros(4), c)
    np.testing.assert_allclose(r, np.maximum(g - 1.0 / c, 0.0), atol=1e-15)


# ----------------------------------------------------------------------
# batched joint solver
# ----------------------------------------------------------------------

def lindbladian_series(seed, times=(0.5, 1.0), noise=1e-3):
    rng = np.random.default_rng(seed)
    gen = random_lindblad_generator(2, rng).mat
    return np.array([
        gamma_involution(t * gen) + noise * rng.standard_normal((4, 4)) for t in times
    ])


def test_batch_matches_single_solves(weak_series, monkeypatch):
    # Converged after 1 and 381 iterations, cut at the iteration limit, and
    # screened; residual balancing drives the problems to different step sizes ρ.
    monkeypatch.setattr(solver, "ITER_LIMIT", 600)
    deltas, _, grid = assignment_grid(weak_series[2])
    batch = np.array([
        grid[0], grid[0], grid[1], grid[40],  # zero branch at two radii; two moved branches
        lindbladian_series(1), lindbladian_series(2, noise=0.0),
        lindbladian_series(3, noise=0.05),
    ])
    radii = [deltas[3], deltas[20], deltas[20], deltas[20], 0.5, 0.01, 5.0]
    reports = solver.solve_joint_fit_batch(batch, np.array(TIMES), 2, radii)
    assert {rep.status for rep in reports} == {
        solver.OPTIMAL, solver.MAX_ITERS, solver.INFEASIBLE
    }
    assert len({rep.iterations for rep in reports}) == 4
    monkeypatch.setattr(solver, "CHUNK", 3)
    chunked = solver.solve_joint_fit_batch(batch, np.array(TIMES), 2, radii)
    for rep, other in zip(reports, chunked):
        assert (rep.status, rep.iterations) == (other.status, other.iterations)
        np.testing.assert_array_equal(rep.x_opt, other.x_opt)
    for targets, delta, rep in zip(batch, radii, reports):
        single = solver.solve_joint_fit(list(targets), TIMES, 2, delta)
        assert rep.status == single.status
        assert rep.iterations == single.iterations
        np.testing.assert_allclose(rep.x_opt, single.x_opt, rtol=0, atol=1e-12)
        if rep.status != solver.INFEASIBLE:
            assert rep.objective == pytest.approx(single.objective, abs=1e-12)
        np.testing.assert_allclose(rep.residuals, single.residuals, rtol=0, atol=1e-12)


def test_batch_screen_marks_infeasible(weak_series):
    deltas, _, grid = assignment_grid(weak_series[1])
    reports = solver.solve_joint_fit_batch(grid[:8], TIMES, 2, deltas[0])
    excess = solver.joint_infeasibility(grid[:8], TIMES, deltas[0])
    for rep, e in zip(reports, excess):
        assert (rep.status == solver.INFEASIBLE) == (e > 0)
        if e > 0:
            assert rep.iterations == 0 and rep.residuals[2] == e


def test_exact_series_fits_at_zero_objective():
    rng = np.random.default_rng(11)
    gen = random_lindblad_generator(2, rng).mat
    times = (0.3, 0.9, 1.4)
    targets = [gamma_involution(t * gen) for t in times]
    rep = solver.solve_joint_fit(targets, times, 2, 0.1)
    assert rep.status == solver.OPTIMAL
    assert rep.objective < 1e-6
    assert is_lindbladian(gamma_involution(rep.x_opt), tol=1e-7).ok


def test_joint_fit_validates_input():
    targets = lindbladian_series(4)
    with pytest.raises(DimensionMismatch):
        solver.solve_joint_fit(list(targets), (1.0,), 2, 0.1)
    with pytest.raises(OutOfRange):
        solver.solve_joint_fit(list(targets), (1.0, -1.0), 2, 0.1)
    with pytest.raises(OutOfRange):
        solver.solve_joint_fit_batch(targets[None], (1.0, 2.0), 2, [-0.1])
    with pytest.raises(DimensionMismatch):
        solver.solve_joint_fit_batch(targets, (1.0, 2.0), 2, [0.1])


# ----------------------------------------------------------------------
# golden multifit answers
# ----------------------------------------------------------------------

GOLDEN_DISTANCES = {
    1: 0.0021156132301652897,
    2: 0.002610434026653962,
    3: 0.002352034438161084,
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_DISTANCES))
def test_weak_unital_series_is_markovian(weak_series, seed):
    mats = weak_series[seed]
    fit, maxiters = best_fit_multi(SnapshotSeries(mats, TIMES), EPSILON)
    assert fit is not None and maxiters == 0
    assert fit.branch == (0,) * 8
    assert fit.distance == pytest.approx(GOLDEN_DISTANCES[seed], abs=1e-9)
    dists = [frobenius(m - expm(t * fit.lindbladian)) for m, t in zip(mats, TIMES)]
    assert max(dists) < EPSILON
    assert sum(dists) == pytest.approx(fit.distance, abs=1e-12)
    assert is_lindbladian(fit.lindbladian, tol=fitting.VERIFY_TOL).ok


def test_benchmark_unital_series_has_no_fit():
    mats = unital_series(BENCH_GAMMA, 1)
    assert best_fit_multi(SnapshotSeries(mats, TIMES), EPSILON) == (None, 0)


# ----------------------------------------------------------------------
# one solve per live assignment, against every (δ, assignment) pair
# ----------------------------------------------------------------------

def all_pairs_best_fit_multi(series, epsilon, policy=fitting.BranchPolicy(), delta_step=0.01):
    """The reference: every live (δ, assignment) pair solved on its own,
    each pair's exponential taken, and the pairs ranked by (summed
    distance, grid position)."""
    q = series.count
    times = np.asarray(series.times, dtype=float)
    mats = [series.matrix(c) for c in range(q)]
    n = mats[0].shape[0]
    logs = [fitting.checked_log(m) for m in mats]
    deltas = DeltaSweep.from_epsilon(epsilon, frobenius(logs[0][1]), delta_step).grid()
    assignments = np.array(list(_joint_assignments(policy, q, n)), dtype=int)
    targets = np.empty(assignments.shape[:2] + (n, n), dtype=complex)
    for c, (spectral, l0) in enumerate(logs):
        branches, inverse = np.unique(assignments[:, c], axis=0, return_inverse=True)
        targets[:, c] = fitting.branch_targets(l0, spectral, branches)[inverse.reshape(-1)]
    excess = solver.joint_infeasibility(targets, times, deltas[:, None])
    delta_idx, assign_idx = np.nonzero(excess == 0)
    if not assign_idx.size:
        return None
    reports = solver.solve_joint_fit_batch(
        targets[assign_idx], times, int(np.sqrt(n)), deltas[delta_idx]
    )
    generators = gamma_involution(np.stack([rep.x_opt for rep in reports]))
    exps = batched_expm(times[None, :, None, None] * generators[:, None])
    dists = np.linalg.norm(np.array(mats)[None] - exps, axis=(-2, -1))
    distance = dists.sum(axis=1)
    fits = (dists.max(axis=1) < epsilon) & (distance < q * epsilon)
    for k in np.flatnonzero(fits)[np.argsort(distance[fits], kind="stable")]:
        if is_lindbladian(generators[k], tol=fitting.VERIFY_TOL).ok:
            return fitting.FitResult(
                lindbladian=generators[k],
                distance=float(distance[k]),
                branch=tuple(int(v) for v in assignments[assign_idx[k]].ravel()),
            )
    return None


@pytest.fixture
def joint_calls(monkeypatch):
    """Every ``solve_joint_fit_batch`` call: (targets, deltas, reports)."""
    batch = solver.solve_joint_fit_batch
    calls = []

    def recording(targets, times, d, deltas):
        reports = batch(targets, times, d, deltas)
        calls.append((np.array(targets), np.array(deltas), reports))
        return reports

    monkeypatch.setattr(solver, "solve_joint_fit_batch", recording)
    return calls


# name: (gamma, shots, tomography seed, epsilon, problems solved by the
# all-pairs reference, sizes of the solver batches, answer tolerance)
REUSE_CASES = {
    "weak-s1": (WEAK_GAMMA, 10**5, 1, EPSILON, 60, [1], 0.0),
    "weak-s2": (WEAK_GAMMA, 10**5, 2, EPSILON, 59, [1], 0.0),
    "weak-s3": (WEAK_GAMMA, 10**5, 3, EPSILON, 60, [1], 0.0),
    # the smallest radius binds the probe's misfit: that pair is re-solved
    "weak-1e3-shots": (WEAK_GAMMA, 10**3, 1, 0.01, 12, [1, 1], 0.0),
    "skewed-1e3-shots": ([0.05, 0.05, 0.4], 10**3, 1, 0.01, 12, [1, 1], 0.0),
    # The reference's winner is a smaller-δ solve whose ball binds during
    # its iterations, so its X differs from the probe's at the solver
    # tolerance: the answers agree to the golden tolerance, not bitwise.
    "fast-1e3-shots": ([0.3, 0.5, 0.8], 10**3, 1, 0.5, 189, [1], 1e-9),
}


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_reuse_matches_all_pairs(case, joint_calls):
    gamma, shots, seed, epsilon, ref_problems, sizes, tol = REUSE_CASES[case]
    series = SnapshotSeries(
        [
            simulate_process_tomography(
                ChannelSpec("unital", {"gamma": gamma, "t": t}),
                TomographyConfig(shots=shots, seed=seed),
            ).mat
            for t in TIMES
        ],
        TIMES,
    )
    expected = all_pairs_best_fit_multi(series, epsilon)
    (ref_targets, ref_deltas, ref_reports), = joint_calls
    joint_calls.clear()
    fit, maxiters = best_fit_multi(series, epsilon)

    assert len(ref_reports) == ref_problems
    assert [len(reports) for _, _, reports in joint_calls] == sizes
    assert maxiters == 0
    if expected is None:
        assert fit is None
    elif tol == 0:
        np.testing.assert_array_equal(fit.lindbladian, expected.lindbladian)
        assert (fit.distance, fit.branch) == (expected.distance, expected.branch)
    else:
        assert fit.branch == expected.branch
        assert fit.distance == pytest.approx(expected.distance, abs=tol)
        np.testing.assert_allclose(fit.lindbladian, expected.lindbladian, rtol=0, atol=10 * tol)
    # every problem solved is one of the reference's, with the same solution
    for targets, deltas, reports in joint_calls:
        for t, delta, rep in zip(targets, deltas, reports):
            (i,) = np.flatnonzero(
                (ref_deltas == delta) & (ref_targets == t).all(axis=(1, 2, 3))
            )
            np.testing.assert_array_equal(rep.x_opt, ref_reports[i].x_opt)


def test_maxiters_probe_is_not_reused(weak_series, joint_calls, monkeypatch):
    """A probe cut at the iteration limit covers only its own pair: every
    other live pair of its assignment is solved again, and each cut solve
    is counted."""
    monkeypatch.setattr(solver, "ITER_LIMIT", 20)
    series = SnapshotSeries(weak_series[1], TIMES)
    deltas, _, targets = assignment_grid(weak_series[1])
    live = int(np.sum(solver.joint_infeasibility(targets, TIMES, deltas[:, None]) == 0))
    _, maxiters = best_fit_multi(series, EPSILON)
    statuses = [rep.status for _, _, reports in joint_calls for rep in reports]
    assert [len(reports) for _, _, reports in joint_calls] == [1, live - 1]
    assert maxiters == statuses.count(solver.MAX_ITERS) == live


# ----------------------------------------------------------------------
# multifit CLI
# ----------------------------------------------------------------------

def write_series(tmp_path, name, mats):
    paths = []
    for c, mat in enumerate(mats):
        path = tmp_path / f"{name}-{c}.json"
        cli.write_matrix_file(str(path), mat)
        paths.append(str(path))
    return ",".join(paths)


def run_multifit(tmp_path, files, times="1,2", *flags):
    report = tmp_path / "report.json"
    report.unlink(missing_ok=True)
    code = cli.main([
        "multifit", "--in", files, "--times", times,
        "--epsilon", str(EPSILON), *flags, "--report", str(report),
    ])
    return code, (json.loads(report.read_text()) if report.exists() else None)


def test_cli_multifit_markovian(tmp_path, weak_series):
    mats = weak_series[1]
    code, doc = run_multifit(tmp_path, write_series(tmp_path, "weak", mats))
    assert code == cli.EXIT_OK
    assert doc["verdict"] == "Markovian"
    assert doc["settings"]["epsilon"] == EPSILON
    assert doc["settings"]["delta_grid_snapshot"] == multisnap.DELTA_GRID_SNAPSHOT == 0
    assert doc["joint_maxiters"] == 0
    res = doc["result"]
    for key in ("lindbladian", "distance", "lindblad_check_tolerance", "branch", "basis_sample"):
        assert key in res
    assert res["lindblad_check_tolerance"] == fitting.VERIFY_TOL
    assert res["branch"] == [0] * 8
    data = np.array([complex(re, im) for re, im in res["lindbladian"]["data"]])
    gen = data.reshape(res["lindbladian"]["dim"], -1)
    dists = [frobenius(m - expm(t * gen)) for m, t in zip(mats, TIMES)]
    assert sum(dists) == pytest.approx(res["distance"], abs=1e-9)
    assert is_lindbladian(gen, tol=res["lindblad_check_tolerance"]).ok


def test_cli_multifit_m_max_2_enumerates_its_branches(tmp_path, weak_series):
    """--m-max bounds the branch entries of multifit as of fit: at m_max = 2
    each snapshot in turn takes every one of the 5^4 - 1 nonzero branches.
    The weak series keeps its principal-branch answer."""
    policy = fitting.BranchPolicy(m_max=2)
    assert len(list(_joint_assignments(policy, 2, 4))) == 1 + 2 * (5**4 - 1)
    files = write_series(tmp_path, "weak", weak_series[1])
    _, base = run_multifit(tmp_path, files)
    code, doc = run_multifit(tmp_path, files, "1,2", "--m-max", "2")
    assert (code, doc["verdict"]) == (cli.EXIT_OK, "Markovian")
    assert (base["settings"]["m_max"], doc["settings"]["m_max"]) == (1, 2)
    assert doc["result"]["distance"] == base["result"]["distance"]
    assert doc["result"]["branch"] == [0] * 8


def test_cli_multifit_no_result(tmp_path):
    files = write_series(tmp_path, "bench", unital_series(BENCH_GAMMA, 1))
    code, doc = run_multifit(tmp_path, files)
    assert code == cli.EXIT_NO_RESULT
    assert doc["verdict"] == "NoResult" and "result" not in doc
    assert doc["joint_maxiters"] == 0


def test_cli_multifit_counts_maxiters(tmp_path, weak_series, monkeypatch):
    batch = solver.solve_joint_fit_batch
    statuses = []

    def recording(targets, times, d, deltas):
        reports = batch(targets, times, d, deltas)
        statuses.extend(rep.status for rep in reports)
        return reports

    monkeypatch.setattr(solver, "ITER_LIMIT", 20)
    monkeypatch.setattr(solver, "solve_joint_fit_batch", recording)
    _, doc = run_multifit(tmp_path, write_series(tmp_path, "weak", weak_series[1]))
    assert doc["joint_maxiters"] == statuses.count(solver.MAX_ITERS) == len(statuses) > 0


def test_cli_multifit_times_count_mismatch(tmp_path, weak_series):
    files = write_series(tmp_path, "weak", weak_series[1])
    code, doc = run_multifit(tmp_path, files, times="1,2,3")
    assert code == cli.EXIT_INPUT_ERROR
    assert doc is None
