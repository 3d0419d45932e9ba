"""Branch enumeration, the herm-class quotient and the branch-search
generator fit."""

import itertools
import json

import numpy as np
import pytest
from scipy.linalg import expm

from lindbladfit import cli, fitting, preprocess, solver
from lindbladfit.channels import (
    ChannelSpec,
    TomographyConfig,
    is_lindbladian,
    random_lindblad_generator,
    simulate_process_tomography,
    unital_transfer,
    unitary_transfer,
    x_gate,
)
from lindbladfit.errors import DegenerateSpectrum, OutOfRange
from lindbladfit.fitting import (
    BranchPolicy,
    best_fit_lindbladian,
    branch_targets,
    checked_log,
    enumerate_branches,
    exp_distances,
    herm_classes,
)
from lindbladfit.linalg import (
    eig_full,
    frobenius,
    gamma_involution,
    matrix_log_principal,
    side_dim,
)
from lindbladfit.solver import closest_lindbladian_batch


# ----------------------------------------------------------------------
# branch enumeration
# ----------------------------------------------------------------------

def test_branch_counts():
    assert len(list(enumerate_branches(BranchPolicy(0), 4))) == 1
    assert len(list(enumerate_branches(BranchPolicy(1), 4))) == 81
    assert len(list(enumerate_branches(BranchPolicy(2), 2))) == 25
    assert len(list(enumerate_branches(BranchPolicy(1), 2))) == 9


def test_branch_order_starts_at_zero():
    first = next(iter(enumerate_branches(BranchPolicy(3), 4)))
    assert first == (0, 0, 0, 0)


def test_branch_order_by_total_then_lex():
    got = list(enumerate_branches(BranchPolicy(1), 2))
    totals = [sum(abs(v) for v in b) for b in got]
    assert totals == sorted(totals)
    for t in set(totals):
        shell = [b for b in got if sum(abs(v) for v in b) == t]
        assert shell == sorted(shell)


def test_branches_unique_and_in_box():
    got = list(enumerate_branches(BranchPolicy(2), 3))
    assert len(got) == len(set(got)) == 125
    assert all(max(abs(v) for v in b) <= 2 for b in got)


def test_branch_cap_is_a_prefix():
    full = list(enumerate_branches(BranchPolicy(2), 3))
    capped = list(enumerate_branches(BranchPolicy(2, max_branches=40), 3))
    assert capped == full[:40]


def test_branch_cap_is_lazy():
    # a full m_max=3 grid in dim 16 would have 7^16 elements; slicing ten
    # must return instantly
    got = list(
        itertools.islice(enumerate_branches(BranchPolicy(3, max_branches=10), 16), 10)
    )
    assert len(got) == 10
    assert got[0] == (0,) * 16


def test_low_shells_shared_across_m_max():
    """Any two policies agree on every branch with all |m_j| below both caps."""
    small = list(enumerate_branches(BranchPolicy(1), 3))
    large = list(enumerate_branches(BranchPolicy(2), 3))
    in_box = [b for b in large if max(abs(v) for v in b) <= 1]
    assert in_box == small


def test_branch_policy_validation():
    with pytest.raises(OutOfRange):
        BranchPolicy(m_max=-1).validate()
    with pytest.raises(OutOfRange):
        BranchPolicy(m_max=1, max_branches=0).validate()
    with pytest.raises(OutOfRange):
        list(enumerate_branches(BranchPolicy(1), 0))


# ----------------------------------------------------------------------
# the fit itself
# ----------------------------------------------------------------------

def test_exact_markovian_snapshot_recovered():
    gen = random_lindblad_generator(2, np.random.default_rng(0))
    m = expm(gen)
    res, _ = best_fit_lindbladian(m, m, 1e-6)
    assert res is not None
    assert res.branch == (0, 0, 0, 0)
    assert res.distance <= 1e-9
    assert frobenius(res.lindbladian - gen) <= 1e-7
    assert is_lindbladian(res.lindbladian, tol=1e-8).ok


def test_acceptance_radius_is_honest():
    """No result is returned when every branch exponential misses the
    snapshot by more than epsilon."""
    gen = random_lindblad_generator(2, np.random.default_rng(0))
    r = expm(gen)
    rng = np.random.default_rng(1)
    noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = r + 0.5 * noise / frobenius(noise)
    assert best_fit_lindbladian(m, r, 0.1)[0] is None
    res, _ = best_fit_lindbladian(m, r, 1.0)
    assert res is not None
    assert res.distance == pytest.approx(0.5, abs=1e-6)


def test_wider_branch_search_never_hurts():
    t = unital_transfer((0.9, 0.7, -0.1))  # negative rate: log is not CCP
    dists = [
        best_fit_lindbladian(t.mat, t.mat, np.inf, BranchPolicy(m))[0].distance
        for m in (0, 1, 2)
    ]
    assert dists[0] > 1e-3
    assert dists[1] <= dists[0] + 1e-12
    assert dists[2] <= dists[1] + 1e-12


def test_chunk_size_does_not_change_the_answer(monkeypatch):
    snap = simulate_process_tomography(
        ChannelSpec("unital", {"gamma": [0.3, 0.5, 0.8]}),
        TomographyConfig(shots=10**4, seed=3),
    )
    a, _ = best_fit_lindbladian(snap.mat, snap.mat, np.inf, BranchPolicy(1))
    monkeypatch.setattr(solver, "CHUNK", 1)
    b, _ = best_fit_lindbladian(snap.mat, snap.mat, np.inf, BranchPolicy(1))
    assert a.branch == b.branch
    assert np.allclose(a.lindbladian, b.lindbladian, atol=1e-12)


def test_basis_sample_id_passthrough():
    """The winner's basis_sample_id is its position in the stack."""
    t = unital_transfer((0.3, 0.5, 0.8))
    assert best_fit_lindbladian(t.mat, t.mat, 1e-6)[0].basis_sample_id == 0
    far = unital_transfer((0.4, 0.6, 0.9)).mat
    res, _ = best_fit_lindbladian(t.mat, np.stack([far, far, t.mat]), 1e-6)
    assert res.basis_sample_id == 2


def test_fit_input_validation():
    t = unital_transfer((0.3, 0.5, 0.8))
    with pytest.raises(OutOfRange):
        best_fit_lindbladian(t.mat, t.mat, 0.0)
    with pytest.raises(OutOfRange):
        best_fit_lindbladian(t.mat, np.eye(9, dtype=complex), 1e-3)


def test_degenerate_snapshot_is_rejected():
    m = unitary_transfer(x_gate()).mat  # eigenvalues {1, 1, -1, -1}
    with pytest.raises(DegenerateSpectrum):
        best_fit_lindbladian(m, m, 1e-3)


def test_exponential_perturbation_bound():
    """The fitted generator C and the principal log L differ little for a
    Markovian channel, and the exponential gap obeys
    |e^C - e^L| <= |C-L| e^|C-L| e^|L|."""
    t = unital_transfer((0.3, 0.5, 0.8))
    l_r = matrix_log_principal(eig_full(t.mat))
    res, _ = best_fit_lindbladian(t.mat, t.mat, 1e-6)
    gap = frobenius(res.lindbladian - l_r)
    lhs = frobenius(expm(res.lindbladian) - expm(l_r))
    assert lhs <= gap * np.exp(gap) * np.exp(frobenius(l_r)) + 1e-15


def test_noisy_snapshot_fit_quality_tracks_noise():
    """With open acceptance radius the best exponential is at least as close
    to the snapshot as the exact channel is (the endpoints differ by shot
    noise only)."""
    exact = unital_transfer((0.3, 0.5, 0.8)).mat
    snap = simulate_process_tomography(
        ChannelSpec("unital", {"gamma": [0.3, 0.5, 0.8]}),
        TomographyConfig(shots=10**4, seed=5),
    )
    noise = frobenius(snap.mat - exact)
    res, _ = best_fit_lindbladian(snap.mat, snap.mat, np.inf, BranchPolicy(1))
    assert res.distance <= noise
    assert is_lindbladian(res.lindbladian, tol=1e-6).ok


# ----------------------------------------------------------------------
# the herm-class quotient
# ----------------------------------------------------------------------

def _repaired(spec, shots, samples):
    """Snapshot (tomography seed 1) and the repaired matrices ``fit`` searches."""
    mat = simulate_process_tomography(spec, TomographyConfig(shots=shots, seed=1)).mat
    cfg = preprocess.RandomBasisConfig(samples=samples, seed=0)
    _, stream = preprocess.repaired_samples(mat, preprocess.DEFAULT_PRECISION, 0.05, cfg)
    return mat, [r for _, r in stream]


def _class_solve(mat, r, policy):
    """(branches, targets, label, x_opts, distances) of one sample's search."""
    spectral, l0 = checked_log(r)
    branches = np.array(list(enumerate_branches(policy, r.shape[0])))
    targets = branch_targets(l0, spectral, branches)
    leaders, label = np.unique(herm_classes(targets), return_inverse=True)
    reports = closest_lindbladian_batch(targets[leaders], side_dim(r.shape[0]))
    x_opts = np.stack([report.x_opt for report in reports])
    distances = exp_distances(mat[None], np.ones(1), gamma_involution(x_opts))[:, 0]
    return branches, targets, label, x_opts, distances


@pytest.fixture(scope="module")
def depol_stack():
    """d=2 depolarizing p=0.1, 10^4 shots: the snapshot and its four
    repaired samples."""
    return _repaired(ChannelSpec("depolarizing", {"p": 0.1}), 10**4, 4)


@pytest.fixture(scope="module")
def depol_case(depol_stack):
    """The fourth repaired sample, the one that wins the fit."""
    mat, samples = depol_stack
    return mat, samples[3], BranchPolicy(1)


@pytest.fixture(scope="module")
def iswap_case():
    """d=4 ISWAP, the first 32 branches of its repaired sample."""
    mat, samples = _repaired(ChannelSpec("iswap"), 10**5, 1)
    return mat, samples[0], BranchPolicy(1, max_branches=32)


def test_herm_classes_group_by_hermitian_part_only():
    rng = np.random.default_rng(7)
    a, b, skew = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    skew = skew - skew.conj().T
    jitter = 1e-13 * rng.standard_normal((4, 4))
    stack = np.stack([a, b, a + skew + jitter, b - 3 * skew, a + 1e-3, a])
    assert list(herm_classes(stack)) == [0, 1, 0, 1, 4, 0]


def test_herm_classes_never_chain():
    """Each target is compared with the representative, not with its
    neighbour, so a chain of close neighbours does not merge far targets."""
    unit = np.zeros((4, 4))
    unit[0, 0] = 1.0
    step = 0.6 * fitting.CLASS_TOL  # all norms stay below 1
    stack = np.stack([k * step * unit for k in range(40)])
    assert list(herm_classes(stack)) == [k - k % 2 for k in range(40)]


@pytest.mark.parametrize("case", ["depol_case", "iswap_case"])
def test_quotient_matches_per_branch_solves(case, request):
    mat, r, policy = request.getfixturevalue(case)
    branches, targets, label, x_opts, distances = _class_solve(mat, r, policy)
    assert len(distances) < len(branches)  # some class has several members
    d = side_dim(r.shape[0])
    for b, target in enumerate(targets):
        x = closest_lindbladian_batch(target, d)[0].x_opt
        dist = frobenius(mat - expm(gamma_involution(x)))
        assert dist == pytest.approx(distances[label[b]], abs=1e-9)


@pytest.mark.parametrize("case", ["depol_case", "iswap_case"])
def test_quotient_winner_does_not_depend_on_chunk_size(case, request, monkeypatch):
    mat, r, policy = request.getfixturevalue(case)
    a, _ = best_fit_lindbladian(mat, r, np.inf, policy)
    monkeypatch.setattr(solver, "CHUNK", 1)
    b, _ = best_fit_lindbladian(mat, r, np.inf, policy)
    assert a.branch == b.branch
    assert a.distance == pytest.approx(b.distance, abs=1e-12)


def test_class_members_report_the_lowest_enumeration_position(depol_case):
    """The winning class reports its lowest enumeration position."""
    mat, r, policy = depol_case
    branches, _, label, _, distances = _class_solve(mat, r, policy)
    res, _ = best_fit_lindbladian(mat, r, np.inf, policy)
    won = [tuple(b) for b in branches].index(res.branch)
    members = np.nonzero(label == label[won])[0]
    assert len(members) >= 5  # the five branches that tie in distance
    assert won == members.min()
    assert res.distance == distances[label[won]]


# ----------------------------------------------------------------------
# the stacked search
# ----------------------------------------------------------------------

def test_stack_winner_is_the_least_per_sample_winner(depol_stack, monkeypatch):
    """One search over the stack picks what one search per sample, reduced
    by (distance, sample id), picks; also with one-problem solver pieces."""
    mat, samples = depol_stack
    policy = BranchPolicy(1)
    per_sample = [best_fit_lindbladian(mat, r, np.inf, policy)[0] for r in samples]
    want = min(range(len(samples)), key=lambda k: (per_sample[k].distance, k))
    fits = {}
    res, _ = best_fit_lindbladian(mat, np.stack(samples), np.inf, policy, sample_fits=fits)
    assert res.basis_sample_id == want == 3
    assert (res.distance, res.branch) == (per_sample[want].distance, per_sample[want].branch)
    assert np.array_equal(res.lindbladian, per_sample[want].lindbladian)
    assert [fits[k].distance for k in range(4)] == [fit.distance for fit in per_sample]
    monkeypatch.setattr(solver, "CHUNK", 1)
    chunked, _ = best_fit_lindbladian(mat, np.stack(samples), np.inf, policy)
    assert (chunked.basis_sample_id, chunked.branch) == (want, res.branch)
    assert chunked.distance == pytest.approx(res.distance, abs=1e-12)


def test_one_solver_call_holds_every_sample(monkeypatch):
    """Sample 0 is the snapshot exp(L) itself, sample 1 a noisy copy: one
    solver call holds every class leader of both, and sample 0 wins."""
    m = expm(random_lindblad_generator(2, np.random.default_rng(0)))
    rng = np.random.default_rng(1)
    noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    noisy = m + 0.05 * noise / frobenius(noise)
    branches = np.array(list(enumerate_branches(BranchPolicy(1), 4)))
    classes = []
    for r in (m, noisy):
        spectral, l0 = checked_log(r)
        classes.append(len(np.unique(herm_classes(branch_targets(l0, spectral, branches)))))
    batch = solver.closest_lindbladian_batch
    calls = []

    def counting(targets, d):
        calls.append(len(targets))
        return batch(targets, d)

    monkeypatch.setattr(solver, "closest_lindbladian_batch", counting)
    res, _ = best_fit_lindbladian(m, np.stack([m, noisy]), 1e-6)
    assert calls == [sum(classes)]
    assert res.basis_sample_id == 0 and res.distance < 1e-9


def test_a_single_matrix_is_a_stack_of_one(depol_case):
    mat, r, policy = depol_case
    a, a_maxiters = best_fit_lindbladian(mat, r, np.inf, policy)
    b, b_maxiters = best_fit_lindbladian(mat, r[None], np.inf, policy)
    assert a.basis_sample_id == b.basis_sample_id == 0
    assert (a.distance, a.branch, a_maxiters) == (b.distance, b.branch, b_maxiters)
    assert np.array_equal(a.lindbladian, b.lindbladian)


@pytest.mark.parametrize("shots", [10**4, 10**5])
def test_depolarizing_fit_reports_the_principal_branch(tmp_path, shots):
    """Five branches tie in distance; the tie goes to enumeration order."""
    snap = simulate_process_tomography(
        ChannelSpec("depolarizing", {"p": 0.1}), TomographyConfig(shots=shots, seed=1)
    )
    path, report = tmp_path / "snap.json", tmp_path / "report.json"
    cli.write_matrix_file(str(path), snap.mat)
    argv = ["fit", "--in", str(path), "--samples", "4", "--epsilon", "0.05"]
    assert cli.main(argv + ["--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "Markovian"
    assert doc["result"]["branch"] == [0, 0, 0, 0]
