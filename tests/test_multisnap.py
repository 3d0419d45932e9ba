"""Joint fits across snapshot series: the batched joint solver and its
feasibility screen, the answers of ``best_fit_multi`` on simulated unital
series against an all-pairs reference, its one solve per branch
assignment and its MaxIters count, and the ``multifit`` CLI command.
"""

import itertools
import json

import numpy as np
import pytest
from scipy.linalg import expm

from lindbladfit import cli, fitting, multisnap, solver
from lindbladfit.channels import (
    ChannelSpec,
    TomographyConfig,
    is_lindbladian,
    random_lindblad_generator,
    simulate_process_tomography,
)
from lindbladfit.errors import DimensionMismatch, NumericalFailure, OutOfRange
from lindbladfit.linalg import expm as batched_expm
from lindbladfit.linalg import frobenius, gamma_involution
from lindbladfit.multisnap import _joint_assignments, best_fit_multi
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
    logs = fitting.checked_logs(np.stack(mats))
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


def test_screen_mask_matches_scalar_tests(weak_series):
    deltas, assignments, targets = assignment_grid(weak_series[1])
    # the sweep, plus radii on the skew test's boundary
    skew = np.unique([fro(t - 0.5 * (t + t.conj().T)) for t in targets.reshape(-1, 4, 4)])
    masks, expected = [], []
    for delta in np.concatenate([deltas, skew[:: len(skew) // 8]]):
        masks.append(solver.joint_infeasible(targets, TIMES, delta))
        expected.append([scalar_screen(list(t), TIMES, float(delta)) != 0 for t in targets])
    assert masks[0].shape == (len(assignments),) and masks[0].dtype == bool
    assert np.any(expected) and not np.all(expected)
    np.testing.assert_array_equal(masks, expected)


def test_screen_marks_a_disjoint_series_dead():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((4, 4))
    base = base + base.T
    times = (1.0, 2.0, 3.0)
    # snapshot 2 sits far from both others; pairs (0, 2) and (1, 2) are disjoint
    targets = np.array([base, 2 * base, 3 * base + 30 * np.eye(4)])
    assert scalar_screen(list(targets), times, 0.5) > 0
    assert solver.joint_infeasible(targets[None], times, 0.5).tolist() == [True]
    assert solver.joint_infeasible(targets[None, :1], times[:1], 0.5).tolist() == [False]


def test_screen_allows_balls_within_margin():
    # unit balls around 0 and x·E: disjoint only beyond the 1e-12 margin
    unit = np.zeros((4, 4))
    unit[0, 0] = 1.0
    targets = np.array([[0 * unit, x * unit] for x in (2.0, 2.0 + 5e-13, 2.0 + 5e-12)])
    assert solver.joint_infeasible(targets, (1.0, 1.0), 1.0).tolist() == [False, False, True]


# ----------------------------------------------------------------------
# batched joint solver
# ----------------------------------------------------------------------

def lindbladian_series(seed, times=(0.5, 1.0), noise=1e-3):
    rng = np.random.default_rng(seed)
    gen = random_lindblad_generator(2, rng)
    return np.array([
        gamma_involution(t * gen) + noise * rng.standard_normal((4, 4)) for t in times
    ])


def test_batch_matches_single_solves(weak_series, monkeypatch):
    """Cut at 15 reweighting steps: the zero branch of a weak series is
    still running, two moved branches retire after 3 steps, an exact
    series after 1 and two noisy ones after 10.  Batch, singles and pieces
    of three give the same reports."""
    monkeypatch.setattr(solver, "ITER_LIMIT", 15)
    _, _, grid = assignment_grid(weak_series[2])
    batch = np.array([
        grid[0], grid[1], grid[40],
        lindbladian_series(1), lindbladian_series(2, noise=0.0),
        lindbladian_series(3, noise=0.05),
    ])
    reports = solver.solve_joint_fit_batch(batch, np.array(TIMES), 2)
    assert [(rep.status, rep.iterations) for rep in reports] == [
        (solver.MAX_ITERS, 15), (solver.OPTIMAL, 3), (solver.OPTIMAL, 3),
        (solver.OPTIMAL, 10), (solver.OPTIMAL, 1), (solver.OPTIMAL, 10),
    ]
    monkeypatch.setattr(solver, "CHUNK", 3)
    chunked = solver.solve_joint_fit_batch(batch, np.array(TIMES), 2)
    singles = [solver.solve_joint_fit(list(targets), TIMES, 2) for targets in batch]
    for rep, *others in zip(reports, chunked, singles):
        for other in others:
            assert (rep.status, rep.iterations, rep.objective, rep.residuals) == (
                other.status, other.iterations, other.objective, other.residuals
            )
            np.testing.assert_array_equal(rep.x_opt, other.x_opt)


def test_joint_objective_never_increases(weak_series, monkeypatch):
    """Each reweighting step minimizes a majorizer of the summed misfit, so
    the objective after k steps does not increase with k."""
    _, _, grid = assignment_grid(weak_series[2])
    batch = np.array([grid[0], grid[40], lindbladian_series(1), lindbladian_series(3, noise=0.05)])
    objectives = []
    for limit in range(21):
        monkeypatch.setattr(solver, "ITER_LIMIT", limit)
        objectives.append([rep.objective for rep in solver.solve_joint_fit_batch(batch, TIMES, 2)])
    steps = np.diff(objectives, axis=0)
    assert np.all(steps <= 0)
    assert np.all(steps[0] < 0)


@pytest.mark.parametrize("t", [0.7, 2.0])
def test_one_snapshot_joint_fit_is_the_p1_projection(weak_series, t):
    """At q = 1 the reweighting is one projection of T/t, repeated once to
    confirm it."""
    _, _, grid = assignment_grid(weak_series[1])
    for target in (grid[0, 0], grid[5, 0], lindbladian_series(5, noise=0.5)[0]):
        rep = solver.solve_joint_fit([target], (t,), 2)
        ref = solver.closest_lindbladian_batch(target / t, 2)[0]
        assert (rep.status, rep.iterations) == (solver.OPTIMAL, 1)
        np.testing.assert_allclose(rep.x_opt, ref.x_opt, rtol=0, atol=1e-12)
        assert rep.objective == pytest.approx(t * ref.objective, rel=1e-12)


def test_exact_series_fits_at_zero_objective():
    rng = np.random.default_rng(11)
    gen = random_lindblad_generator(2, rng)
    times = (0.3, 0.9, 1.4)
    targets = [gamma_involution(t * gen) for t in times]
    rep = solver.solve_joint_fit(targets, times, 2)
    assert rep.status == solver.OPTIMAL
    assert rep.objective < 1e-6
    assert is_lindbladian(gamma_involution(rep.x_opt), tol=1e-7).ok


def test_joint_fit_validates_input():
    targets = lindbladian_series(4)
    with pytest.raises(DimensionMismatch):
        solver.solve_joint_fit(list(targets), (1.0,), 2)
    with pytest.raises(DimensionMismatch):
        solver.solve_joint_fit_batch(targets, (1.0, 2.0), 2)
    for times in [(1.0, -1.0), (np.nan, 2.0), (1.0, np.inf)]:
        with pytest.raises(OutOfRange):
            solver.solve_joint_fit(list(targets), times, 2)


@pytest.mark.parametrize("times", [(np.nan, 2.0), (1.0, np.inf)], ids=["nan", "inf"])
def test_series_with_non_finite_times_is_refused(weak_series, times):
    with pytest.raises(OutOfRange):
        best_fit_multi(weak_series[1], times, EPSILON)


@pytest.mark.parametrize(
    "count, times, error",
    [
        (0, (), OutOfRange),
        (2, (1.0,), DimensionMismatch),
        (None, TIMES, DimensionMismatch),
        (2, (2.0, 1.0), OutOfRange),
        (2, (1.0, 1.0), OutOfRange),
        (2, (0.0, 1.0), OutOfRange),
    ],
    ids=["empty", "count-mismatch", "mixed-shapes", "decreasing", "repeated", "zero"],
)
def test_malformed_series_is_refused(weak_series, count, times, error):
    """``count`` snapshots of the weak series, or (None) a d=2 snapshot
    followed by a d=4 one."""
    mats = weak_series[1][:count] if count is not None else [
        weak_series[1][0], np.eye(16, dtype=complex)
    ]
    with pytest.raises(error):
        best_fit_multi(mats, times, EPSILON)


# ----------------------------------------------------------------------
# golden multifit answers
# ----------------------------------------------------------------------

GOLDEN_DISTANCES = {
    1: 0.0021156120097405597,
    2: 0.002610434026653962,
    3: 0.002352034438161084,
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_DISTANCES))
def test_weak_unital_series_is_markovian(weak_series, seed):
    mats = weak_series[seed]
    fit, maxiters = best_fit_multi(mats, TIMES, EPSILON)
    assert fit is not None and maxiters == 0
    assert fit.branch == (0,) * 8
    assert fit.distance == pytest.approx(GOLDEN_DISTANCES[seed], abs=1e-9)
    dists = [frobenius(m - expm(t * fit.lindbladian)) for m, t in zip(mats, TIMES)]
    assert max(dists) < EPSILON
    assert sum(dists) == pytest.approx(fit.distance, abs=1e-12)
    assert is_lindbladian(fit.lindbladian, tol=fitting.VERIFY_TOL).ok


def test_a_series_audits_its_logs_with_one_expm(weak_series, monkeypatch):
    """Every snapshot's log audit shares one expm call (the second is the
    winner search's), the fit is unchanged, and a snapshot that fails its
    audit raises its NumericalFailure."""
    mats = weak_series[1]
    want, _ = best_fit_multi(mats, TIMES, EPSILON)
    exponential = fitting.expm
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return exponential(a)

    monkeypatch.setattr(fitting, "expm", counting)
    fit, _ = best_fit_multi(mats, TIMES, EPSILON)
    assert calls[0] == (2, 4, 4) and len(calls) == 2
    assert (fit.distance, fit.branch) == (want.distance, want.branch)
    assert np.array_equal(fit.lindbladian, want.lindbladian)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((4, 4)) + 0j
    v[:, 1] = v[:, 0] + 1e-6 * rng.standard_normal(4)  # nearly parallel eigenvectors
    bad = (v * np.array([1.0, 0.5, 0.7, 0.9])) @ np.linalg.inv(v)
    with pytest.raises(NumericalFailure, match="misses R"):
        best_fit_multi([mats[0], bad], TIMES, EPSILON)


def test_benchmark_unital_series_has_no_fit():
    mats = unital_series(BENCH_GAMMA, 1)
    assert best_fit_multi(mats, TIMES, EPSILON) == (None, 0)


# ----------------------------------------------------------------------
# one solve per live assignment, against every (δ, assignment) pair
# ----------------------------------------------------------------------

def all_pairs_best_fit_multi(mats, times, epsilon, policy=fitting.BranchPolicy(), delta_step=0.01):
    """The reference: every live (δ, assignment) pair solved on its own,
    kept where its misfits fit inside its δ, each kept pair's exponential
    taken, and the pairs ranked by (summed distance, grid position)."""
    q = len(mats)
    times = np.asarray(times, dtype=float)
    n = mats[0].shape[0]
    logs = fitting.checked_logs(np.stack(mats))
    deltas = DeltaSweep.from_epsilon(epsilon, frobenius(logs[0][1]), delta_step).grid()
    assignments = np.array(list(_joint_assignments(policy, q, n)), dtype=int)
    targets = np.empty(assignments.shape[:2] + (n, n), dtype=complex)
    for c, (spectral, l0) in enumerate(logs):
        branches, inverse = np.unique(assignments[:, c], axis=0, return_inverse=True)
        targets[:, c] = fitting.branch_targets(l0, spectral, branches)[inverse.reshape(-1)]
    live = [~solver.joint_infeasible(targets, times, delta) for delta in deltas]
    delta_idx, assign_idx = np.nonzero(live)
    reports = [
        solver.solve_joint_fit(list(targets[a]), times, int(np.sqrt(n))) for a in assign_idx
    ]
    kept = [
        k for k, (rep, j, a) in enumerate(zip(reports, delta_idx, assign_idx))
        if max(fro(t * rep.x_opt - target) for t, target in zip(times, targets[a])) <= deltas[j]
    ]
    if not kept:
        return None, len(reports)
    generators = gamma_involution(np.stack([reports[k].x_opt for k in kept]))
    exps = batched_expm(times[None, :, None, None] * generators[:, None])
    dists = np.linalg.norm(np.array(mats)[None] - exps, axis=(-2, -1))
    distance = dists.sum(axis=1)
    fits = (dists.max(axis=1) < epsilon) & (distance < q * epsilon)
    for k in np.flatnonzero(fits)[np.argsort(distance[fits], kind="stable")]:
        if is_lindbladian(generators[k], tol=fitting.VERIFY_TOL).ok:
            return fitting.FitResult(
                lindbladian=generators[k],
                distance=float(distance[k]),
                branch=tuple(int(v) for v in assignments[assign_idx[kept[k]]].ravel()),
            ), len(reports)
    return None, len(reports)


@pytest.fixture
def joint_calls(monkeypatch):
    """The targets and reports of every ``solve_joint_fit_batch`` call."""
    batch = solver.solve_joint_fit_batch
    calls = []

    def recording(targets, times, d):
        reports = batch(targets, times, d)
        calls.append((np.array(targets), reports))
        return reports

    monkeypatch.setattr(solver, "solve_joint_fit_batch", recording)
    return calls


# name: (gamma, shots, tomography seed, epsilon, times, live pairs solved
# by the all-pairs reference, live assignments solved by best_fit_multi)
REUSE_CASES = {
    "weak-s1": (WEAK_GAMMA, 10**5, 1, EPSILON, TIMES, 60, 1),
    "weak-s2": (WEAK_GAMMA, 10**5, 2, EPSILON, TIMES, 59, 1),
    "weak-s3": (WEAK_GAMMA, 10**5, 3, EPSILON, TIMES, 60, 1),
    # the smallest radius is below the solution's largest misfit: that
    # pair is dropped
    "weak-1e3-shots": (WEAK_GAMMA, 10**3, 1, 0.01, TIMES, 12, 1),
    "skewed-1e3-shots": ([0.05, 0.05, 0.4], 10**3, 1, 0.01, TIMES, 12, 1),
    "fast-1e3-shots": ([0.3, 0.5, 0.8], 10**3, 1, 0.5, TIMES, 189, 1),
    # three snapshots: 241 assignments, one of them live
    "weak-1e4-shots-3-snapshots": (WEAK_GAMMA, 10**4, 2, EPSILON, (0.5, 1.0, 2.0), 111, 1),
}


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_reuse_matches_all_pairs(case, joint_calls):
    gamma, shots, seed, epsilon, times, ref_problems, solved = REUSE_CASES[case]
    mats = [
        simulate_process_tomography(
            ChannelSpec("unital", {"gamma": gamma, "t": t}),
            TomographyConfig(shots=shots, seed=seed),
        ).mat
        for t in times
    ]
    expected, ref_count = all_pairs_best_fit_multi(mats, times, epsilon)
    references = {t[0].tobytes(): reports[0] for t, reports in joint_calls}
    joint_calls.clear()
    fit, maxiters = best_fit_multi(mats, times, epsilon)

    assert ref_count == ref_problems
    assert [len(reports) for _, reports in joint_calls] == [solved]
    assert maxiters == 0
    if expected is None:
        assert fit is None
    else:
        np.testing.assert_array_equal(fit.lindbladian, expected.lindbladian)
        assert (fit.distance, fit.branch) == (expected.distance, expected.branch)
    # every problem solved is one of the reference's, with the same solution
    (targets, reports), = joint_calls
    for t, rep in zip(targets, reports):
        np.testing.assert_array_equal(rep.x_opt, references[t.tobytes()].x_opt)


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

    def recording(targets, times, d):
        reports = batch(targets, times, d)
        statuses.extend(rep.status for rep in reports)
        return reports

    monkeypatch.setattr(solver, "ITER_LIMIT", 10)
    monkeypatch.setattr(solver, "solve_joint_fit_batch", recording)
    _, doc = run_multifit(tmp_path, write_series(tmp_path, "weak", weak_series[1]))
    assert doc["joint_maxiters"] == statuses.count(solver.MAX_ITERS) == len(statuses) > 0


def test_cli_multifit_times_count_mismatch(tmp_path, weak_series):
    files = write_series(tmp_path, "weak", weak_series[1])
    code, doc = run_multifit(tmp_path, files, times="1,2,3")
    assert code == cli.EXIT_INPUT_ERROR
    assert doc is None
