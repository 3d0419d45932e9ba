"""Branch enumeration, the herm-class quotient and the branch-search
generator fit: each audited sample's own certified fit, with no acceptance
radius (the CLI ranks the fits and applies epsilon); and the unitary-frame
candidate, which needs no branch search."""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from lindbladfit import cli, decide, fitting, nonmarkov, preprocess, solver
from lindbladfit.channels import (
    ChannelSpec,
    TomographyConfig,
    TransferMatrix,
    is_lindbladian,
    iswap_gate,
    lindblad_generator,
    random_lindblad_generator,
    simulate_process_tomography,
    unital_transfer,
    unitary_transfer,
    x_gate,
)
from lindbladfit.errors import DegenerateSpectrum, NumericalFailure, OutOfRange
from lindbladfit.fitting import (
    BranchPolicy,
    best_fit_lindbladian,
    branch_classes,
    branch_grid,
    branch_targets,
    checked_logs,
    enumerate_branches,
    exp_distances,
)
from lindbladfit.linalg import (
    SpectralData,
    eig_full,
    frobenius,
    gamma_involution,
    herm,
    matrix_log_principal,
    max_entangled,
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

def own_fit(m, r, policy=BranchPolicy()):
    """The fit of the one matrix ``r``, audited and searched as a stack of one."""
    fits, _ = best_fit_lindbladian(m, checked_logs(np.asarray(r)[None]), policy)
    return fits[0]


def test_exact_markovian_snapshot_recovered():
    gen = random_lindblad_generator(2, np.random.default_rng(0))
    m = expm(gen)
    res = own_fit(m, m)
    assert res is not None
    assert res.branch == (0, 0, 0, 0)
    assert res.distance <= 1e-9
    assert frobenius(res.lindbladian - gen) <= 1e-7
    assert is_lindbladian(res.lindbladian, tol=1e-8).ok


def test_acceptance_radius_is_honest():
    """A sample's fit reports how far its exponential lands from the
    snapshot, however far that is: it is not held against any radius here
    (the CLI applies epsilon, `tests/test_cli.py`)."""
    gen = random_lindblad_generator(2, np.random.default_rng(0))
    r = expm(gen)
    rng = np.random.default_rng(1)
    noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = r + 0.5 * noise / frobenius(noise)
    res = own_fit(m, r)
    assert res is not None
    assert res.distance == pytest.approx(0.5, abs=1e-6)
    assert res.distance == pytest.approx(frobenius(m - expm(res.lindbladian)), rel=1e-12)


def test_wider_branch_search_never_hurts():
    t = unital_transfer((0.9, 0.7, -0.1))  # negative rate: log is not CCP
    dists = [
        own_fit(t.mat, t.mat, BranchPolicy(m)).distance
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
    a = own_fit(snap.mat, snap.mat, BranchPolicy(1))
    monkeypatch.setattr(solver, "CHUNK", 1)
    b = own_fit(snap.mat, snap.mat, BranchPolicy(1))
    assert a.branch == b.branch
    assert np.allclose(a.lindbladian, b.lindbladian, atol=1e-12)


def test_basis_sample_id_passthrough():
    """Each fit is keyed by its position in the stack; the one that matches
    the snapshot lands at round-off."""
    t = unital_transfer((0.3, 0.5, 0.8))
    own, _ = best_fit_lindbladian(t.mat, checked_logs(t.mat[None]))
    assert list(own) == [0]
    far = unital_transfer((0.4, 0.6, 0.9)).mat
    fits, _ = best_fit_lindbladian(t.mat, checked_logs(np.stack([far, far, t.mat])))
    assert list(fits) == [0, 1, 2]
    assert fits[2].distance < 1e-6 < fits[0].distance == fits[1].distance


def test_fit_input_validation():
    t = unital_transfer((0.3, 0.5, 0.8))
    wrong_size = np.diag(np.linspace(0.2, 1.0, 9)).astype(complex)
    with pytest.raises(OutOfRange):
        best_fit_lindbladian(t.mat, checked_logs(wrong_size[None]))


def test_degenerate_snapshot_is_nudged_and_audited():
    """The exact X gate has no simple spectrum: its audit takes the
    logarithm of the matrix `preprocess.perturb_to_nd2` nudges it onto,
    which reproduces the snapshot within the round-trip tolerance."""
    m = unitary_transfer(x_gate()).mat  # eigenvalues {1, 1, -1, -1}
    with pytest.raises(DegenerateSpectrum):
        eig_full(m)
    [(spectral, l0)] = checked_logs(m[None])
    nudged, want = preprocess.perturb_to_nd2(m)
    assert 0 < frobenius(nudged - m) < 1e-8
    assert np.array_equal(spectral.eigenvalues, want.eigenvalues)
    assert frobenius(expm(l0) - m) < fitting.ROUND_TRIP_TOL
    fits, _ = best_fit_lindbladian(m, [(spectral, l0)])
    assert list(fits) == [0]


def test_exponential_perturbation_bound():
    """The fitted generator C and the principal log L differ little for a
    Markovian channel, and the exponential gap obeys
    |e^C - e^L| <= |C-L| e^|C-L| e^|L|."""
    t = unital_transfer((0.3, 0.5, 0.8))
    l_r = matrix_log_principal(eig_full(t.mat))
    res = own_fit(t.mat, t.mat)
    gap = frobenius(res.lindbladian - l_r)
    lhs = frobenius(expm(res.lindbladian) - expm(l_r))
    assert lhs <= gap * np.exp(gap) * np.exp(frobenius(l_r)) + 1e-15


def test_noisy_snapshot_fit_quality_tracks_noise():
    """The best exponential is at least as close to the snapshot as the
    exact channel is (the endpoints differ by shot noise only)."""
    exact = unital_transfer((0.3, 0.5, 0.8)).mat
    snap = simulate_process_tomography(
        ChannelSpec("unital", {"gamma": [0.3, 0.5, 0.8]}),
        TomographyConfig(shots=10**4, seed=5),
    )
    noise = frobenius(snap.mat - exact)
    res = own_fit(snap.mat, snap.mat, BranchPolicy(1))
    assert res.distance <= noise
    assert is_lindbladian(res.lindbladian, tol=1e-6).ok


# ----------------------------------------------------------------------
# the herm-class quotient
# ----------------------------------------------------------------------

def _repaired(spec, shots, samples):
    """Snapshot (tomography seed 1) and the repaired matrices ``fit`` searches."""
    mat = simulate_process_tomography(spec, TomographyConfig(shots=shots, seed=1)).mat
    repair = preprocess.Repair(mat, preprocess.DEFAULT_PRECISION)
    assert repair.kind(0.05) == preprocess.SAMPLES
    return mat, [repair.sample(0, k) for k in range(samples)]


def _class_solve(mat, r, policy):
    """(branches, targets, label, x_opts, distances) of one sample's search,
    labelled by the one-pass classes, whose leaders ``branch_classes`` gives."""
    spectral, l0 = checked_logs(r[None])[0]
    branches = branch_grid(policy, r.shape[0])
    targets = branch_targets(l0, spectral, branches)
    leaders, label = np.unique(_one_pass_classes(targets), return_inverse=True)
    assert np.array_equal(leaders, branch_classes(l0, spectral, branches))
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


def _one_pass_classes(targets):
    """The reference classes: one greedy pass over the whole stack, each
    target joining the first representative whose hermitian part lies within
    CLASS_TOL * max(1, largest |herm T|) of its own."""
    flat = herm(targets).reshape(len(targets), -1)
    tol = fitting.CLASS_TOL * max(1.0, float(np.max(np.linalg.norm(flat, axis=1), initial=0.0)))
    rep = np.arange(len(flat))
    todo = rep.copy()
    while todo.size:
        near = np.linalg.norm(flat[todo] - flat[todo[0]], axis=1) <= tol
        rep[todo[near]] = todo[0]
        todo = todo[~near]
    return rep


def key_classes(l0, spectral, branches):
    """Each branch's class representative under ``fitting.class_keys``: the
    first branch with its key labels."""
    keys = fitting.class_keys(l0, spectral, max(1, int(np.abs(branches).max())))
    _, first, inverse = np.unique(branches @ keys, axis=0, return_index=True, return_inverse=True)
    return first[inverse.reshape(-1)]


def assert_one_pass_partition(audit, policy):
    """The key classes of the branches of an audited (spectral data, log)
    are the one-pass classes, and ``branch_classes`` gives their leaders;
    returns (branch targets, classes)."""
    spectral, l0 = audit
    branches = branch_grid(policy, len(l0))
    targets = branch_targets(l0, spectral, branches)
    reference = _one_pass_classes(targets)
    assert np.array_equal(key_classes(l0, spectral, branches), reference)
    assert np.array_equal(branch_classes(l0, spectral, branches), np.unique(reference))
    return targets, reference


def test_branch_classes_group_by_hermitian_part_only():
    """exp(L) at d=2 has two real eigenvalues and one conjugate pair: moving
    a real slot, or both slots of the pair alike, moves only the skew part
    of a target, so the 81 branches fall into the 5 classes of the pair's
    m_j - m_k, each holding one hermitian part and several skew parts."""
    m = expm(random_lindblad_generator(2, np.random.default_rng(0)))
    targets, classes = assert_one_pass_partition(checked_logs(m[None])[0], BranchPolicy(1))
    assert len(np.unique(classes)) == 5
    for leader in np.unique(classes):
        members = targets[classes == leader]
        assert len(members) >= 9
        assert np.abs(herm(members - members[0])).max() < 1e-9
        assert np.abs(members[1:] - members[0]).max(axis=(1, 2)).min() > 1.0


def test_branch_classes_of_the_iswap_sample_are_one_pass_classes():
    """ISWAP's repaired sample is not hermiticity-preserving; over 256
    branches its key classes are still the one-pass classes (72 of them)."""
    _, samples = _repaired(ChannelSpec("iswap"), 10**5, 1)
    audit = checked_logs(samples[0][None])[0]
    _, classes = assert_one_pass_partition(audit, BranchPolicy(1, max_branches=256))
    assert len(np.unique(classes)) == 72


def _tomographic(exact, shots):
    """A tomography snapshot (seed 1) of the transfer matrix ``exact``."""
    channel = TransferMatrix(side_dim(exact.shape[0]), exact)
    return simulate_process_tomography(channel, TomographyConfig(shots, seed=1)).mat


@pytest.mark.parametrize("d, seeds", [(2, range(12)), (3, range(6)), (4, range(3))],
                         ids=["d2", "d3", "d4"])
def test_branch_classes_are_one_pass_classes_on_random_generators(d, seeds):
    """exp(L) of random generators, and at d=2 and d=4 their tomography
    snapshots at 10^3, 10^4 and 10^5 shots, over up to 256 branches."""
    policy = BranchPolicy(1, max_branches=256)
    for seed in seeds:
        exact = expm(random_lindblad_generator(d, np.random.default_rng(seed)))
        shots = [] if d == 3 else [10**3, 10**4, 10**5]  # the simulator takes qubits
        snapshots = [_tomographic(exact, n) for n in shots]
        for audit in checked_logs(np.stack([exact, *snapshots])):
            assert_one_pass_partition(audit, policy)


def _panel():
    """The benchmark's panel module (``perfbench/panel.py``)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "panel.py"
    spec = importlib.util.spec_from_file_location("perfbench_panel", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _panel_searches(tmp_path, monkeypatch):
    """The (audit, policy) of every sample searched by ``fit`` on the seed-1
    qubit-fit and ququart-branch inputs, at epsilon 0.05 and 0.001: raw,
    mirrored and repaired-sample candidates alike, 48 in all."""
    panel = _panel()
    searched = []
    search = fitting.best_fit_lindbladian

    def recording(m, logs, policy=BranchPolicy()):
        searched.extend((r, policy) for r in logs if not isinstance(r, NumericalFailure))
        return search(m, logs, policy)

    monkeypatch.setattr(fitting, "best_fit_lindbladian", recording)
    inputs = panel.WORKLOADS["qubit-fit"]() + panel.WORKLOADS["ququart-branch"]()
    panel.materialize(inputs, tmp_path)
    for inp in inputs:
        assert inp.flags[:2] == ["--epsilon", str(panel.EPSILON)]
        for epsilon in ("0.05", "0.001"):
            argv = ["fit", "--in", inp.paths[0], *inp.flags[2:], "--epsilon", epsilon]
            cli.main(argv + ["--report", str(tmp_path / "report.json")])
    assert len(searched) == 48  # 6 of them at d=4
    return searched


def test_branch_classes_are_one_pass_classes_on_the_panel(tmp_path, monkeypatch):
    """Every sample the seed-1 panel searches (`_panel_searches`)."""
    for audit, policy in _panel_searches(tmp_path, monkeypatch):
        assert_one_pass_partition(audit, policy)


def _slot_loop_keys(l0, spectral, m_max):
    """Reference: ``class_keys`` with each slot's residuals against the
    unused slots computed in its own turn of the slot-order walk."""
    n, eye, keys = len(l0), np.eye(len(l0), dtype=int), []
    shifts = herm(fitting.TWO_PI * 1j * gamma_involution(spectral.projectors)).reshape(n, n * n)
    budget = fitting.CLASS_TOL * max(1.0, frobenius(herm(gamma_involution(l0)))) / (2 * m_max * n)
    unused = np.linalg.norm(shifts, axis=1) > budget
    for j in np.flatnonzero(unused):
        if not unused[j]:
            continue
        unused[j] = False
        others = np.flatnonzero(unused)
        residuals = np.linalg.norm(shifts[j] + shifts[others], axis=1)
        keys.append(eye[j])
        if others.size and residuals.min() <= budget:
            k = others[np.argmin(residuals)]
            keys[-1], unused[k] = eye[j] - eye[k], False
    return np.array(keys, dtype=int).reshape(-1, n).T


def assert_slot_loop_keys(spectral, l0):
    for m_max in (1, 2):
        assert np.array_equal(fitting.class_keys(l0, spectral, m_max),
                              _slot_loop_keys(l0, spectral, m_max))


def test_class_keys_are_the_slot_loop_keys_on_the_panel(tmp_path, monkeypatch):
    """Every sample the seed-1 panel searches (`_panel_searches`)."""
    for audit, _ in _panel_searches(tmp_path, monkeypatch):
        assert_slot_loop_keys(*audit)


@pytest.mark.parametrize("d, seeds", [(2, range(30)), (3, range(6)), (4, range(4))],
                         ids=["d2", "d3", "d4"])
def test_class_keys_are_the_slot_loop_keys_on_random_generators(d, seeds):
    """exp(L) of random generators, which preserve hermiticity, their
    tomography snapshots at d=2 and d=4 (10^4 shots), and copies with
    complex noise of 1e-3 and 1e-6, which do not; each also with its slots
    shuffled, since in canonical order a conjugate partner is always the
    next live slot and the least residual would never be searched for."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        exact = expm(random_lindblad_generator(d, rng))
        stack = [exact, noisy_copy(exact, seed, 1e-3), noisy_copy(exact, seed, 1e-6)]
        if d != 3:  # the simulator takes qubits
            stack.append(_tomographic(exact, 10**4))
        for audit in checked_logs(np.stack(stack)):
            if not isinstance(audit, NumericalFailure):
                spectral, l0 = audit
                assert_slot_loop_keys(spectral, l0)
                order = rng.permutation(spectral.dim)
                shuffled = SpectralData(spectral.eigenvalues[order],
                                        spectral.right_vectors[:, order],
                                        spectral.left_vectors[order])
                assert_slot_loop_keys(shuffled, l0)


@pytest.mark.parametrize("d, size, seeds", [
    (2, 1e-3, range(40)), (2, 1e-6, range(40)), (3, 1e-3, range(4)), (4, 1e-3, range(2)),
    (4, 1e-6, range(2)),
], ids=["d2-1e-3", "d2-1e-6", "d3-1e-3", "d4-1e-3", "d4-1e-6"])
def test_key_class_members_lie_within_the_class_tolerance(d, size, seeds):
    """exp(L) plus complex noise is not hermiticity-preserving, so its key
    classes may be finer than the one-pass ones, but never coarser, and each
    member's hermitian target lies within CLASS_TOL * max(1, largest
    |herm T|) of its leader's.  (A budget of CLASS_TOL * max |A_j| per slot
    merges two one-pass classes at d=2 seeds 23, 30 and 35 and d=4 seed 1,
    noise 1e-6.)"""
    policy = BranchPolicy(1, max_branches=256)
    for seed in seeds:
        exact = expm(random_lindblad_generator(d, np.random.default_rng(seed)))
        spectral, l0 = checked_logs(noisy_copy(exact, seed, size)[None])[0]
        branches = branch_grid(policy, len(l0))
        targets = branch_targets(l0, spectral, branches)
        flat = herm(targets).reshape(len(branches), -1)
        tol = fitting.CLASS_TOL * max(1.0, np.linalg.norm(flat, axis=1).max())
        classes, reference = key_classes(l0, spectral, branches), _one_pass_classes(targets)
        assert np.array_equal(np.unique(classes), branch_classes(l0, spectral, branches))
        assert all(len(np.unique(reference[classes == c])) == 1 for c in np.unique(classes))
        assert np.linalg.norm(flat - flat[classes], axis=1).max() <= tol


def test_the_principal_branch_alone_or_a_real_spectrum_is_one_class():
    """At m_max 0 the principal branch is the only class; a Pauli channel
    with distinct rates has a simple real spectrum, so all 81 branches
    share the principal's hermitian target."""
    m = expm(random_lindblad_generator(2, np.random.default_rng(0)))
    spectral, l0 = checked_logs(m[None])[0]
    assert list(branch_classes(l0, spectral, branch_grid(BranchPolicy(0), 4))) == [0]
    pauli = unital_transfer([0.1, 0.2, 0.3], 1.0).mat
    assert np.allclose(np.linalg.eigvals(pauli).imag, 0)
    _, classes = assert_one_pass_partition(checked_logs(pauli[None])[0], BranchPolicy(1))
    assert not classes.any()


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
    a = own_fit(mat, r, policy)
    monkeypatch.setattr(solver, "CHUNK", 1)
    b = own_fit(mat, r, policy)
    assert a.branch == b.branch
    assert a.distance == pytest.approx(b.distance, abs=1e-12)


def test_class_members_report_the_lowest_enumeration_position(depol_case):
    """The winning class reports its lowest enumeration position."""
    mat, r, policy = depol_case
    branches, _, label, _, distances = _class_solve(mat, r, policy)
    res = own_fit(mat, r, policy)
    won = [tuple(b) for b in branches].index(res.branch)
    members = np.nonzero(label == label[won])[0]
    assert len(members) >= 5  # the five branches that tie in distance
    assert won == members.min()
    assert res.distance == distances[label[won]]


# ----------------------------------------------------------------------
# the stacked search
# ----------------------------------------------------------------------

def test_stack_winner_is_the_least_per_sample_winner(depol_stack, monkeypatch):
    """One search over the stack gives each sample the fit a search of its
    own gives, also with one-problem solver pieces; the samples group of
    the snapshot's candidate table holds those fits, and its ranking picks
    what reducing the per-sample fits by (distance, sample id) picks."""
    mat, samples = depol_stack
    policy = BranchPolicy(1)
    per_sample = [own_fit(mat, r, policy) for r in samples]
    want = min(range(len(samples)), key=lambda k: (per_sample[k].distance, k))
    fits, _ = best_fit_lindbladian(mat, checked_logs(np.stack(samples)), policy)
    for k, fit in enumerate(per_sample):
        assert (fits[k].distance, fits[k].branch) == (fit.distance, fit.branch)
        assert np.array_equal(fits[k].lindbladian, fit.lindbladian)
    group = decide.Candidates(mat, policy, preprocess.DEFAULT_PRECISION, len(samples), 0).samples
    assert decide.best(group.fits) == want == 3
    assert group.fits[want].distance == per_sample[want].distance
    monkeypatch.setattr(solver, "CHUNK", 1)
    chunked, _ = best_fit_lindbladian(mat, checked_logs(np.stack(samples)), policy)
    for k, fit in fits.items():
        assert chunked[k].branch == fit.branch
        assert chunked[k].distance == pytest.approx(fit.distance, abs=1e-12)


def test_a_single_matrix_is_a_stack_of_one(depol_case):
    """A matrix searched as a stack of one gets the fit each of its copies
    gets in a stack of two, with half the MaxIters, whether checked_logs
    eigendecomposes it or is handed its spectrum."""
    mat, r, policy = depol_case
    a, a_maxiters = best_fit_lindbladian(mat, checked_logs(r[None]), policy)
    b, b_maxiters = best_fit_lindbladian(
        mat, checked_logs(np.stack([r, r]), spectra=[eig_full(r)]), policy
    )
    assert list(a) == [0] and list(b) == [0, 1]
    assert 2 * a_maxiters == b_maxiters
    for fit in b.values():
        assert (fit.distance, fit.branch) == (a[0].distance, a[0].branch)
        assert np.array_equal(fit.lindbladian, a[0].lindbladian)


@pytest.mark.parametrize("search", [
    lambda m, logs: best_fit_lindbladian(m, logs),
    lambda m, logs: nonmarkov.non_markovianity(m, logs, 0.05),
], ids=["best_fit_lindbladian", "non_markovianity"])
def test_an_empty_stack_is_out_of_range(search):
    """A search needs at least one sample, as a series needs a snapshot."""
    with pytest.raises(OutOfRange, match="at least one sample"):
        search(np.eye(4, dtype=complex), [])


def test_the_branch_grid_is_enumerated_once_per_policy(monkeypatch):
    """Every search on one policy and dimension shares one read-only array of
    the ``enumerate_branches`` order, enumerated once."""
    enumerate_ = fitting.enumerate_branches
    calls = []
    monkeypatch.setattr(fitting, "enumerate_branches", lambda *a: calls.append(a) or enumerate_(*a))
    fitting.branch_grid.cache_clear()
    policy = BranchPolicy(2, max_branches=30)
    grid = branch_grid(policy, 4)
    m = expm(random_lindblad_generator(2, np.random.default_rng(0)))
    assert fitting.search_setup(m, checked_logs(m[None]), policy)[2] is grid
    assert branch_grid(BranchPolicy(2, max_branches=30), 4) is grid
    assert calls == [(policy, 4)]
    assert grid.tolist() == [list(b) for b in enumerate_(policy, 4)]
    with pytest.raises(ValueError):
        grid[0, 0] = 1


def test_the_log_audits_of_a_stack_share_one_expm(depol_stack, monkeypatch):
    """checked_logs audits every sample with one expm call, each audit is
    the one a stack of one gives, and a failing sample is rejected;
    search_setup reuses the audit and takes no exponential of its own."""
    mat, samples = depol_stack
    rng = np.random.default_rng(0)
    v = rng.standard_normal((4, 4)) + 0j
    v[:, 1] = v[:, 0] + 1e-6 * rng.standard_normal(4)  # nearly parallel eigenvectors
    bad = (v * np.array([1.0, 0.5, 0.7, 0.9])) @ np.linalg.inv(v)
    stack = np.stack([samples[0], bad, samples[1]])
    exponential = fitting.expm
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return exponential(a)

    monkeypatch.setattr(fitting, "expm", counting)
    logs = fitting.checked_logs(stack)
    assert calls == [(3, 4, 4)]
    searches = fitting.search_setup(mat, logs, BranchPolicy(1))[3]
    assert len(calls) == 1 and [k for k, _, _ in searches] == [0, 2]
    assert isinstance(logs[1], NumericalFailure) and "misses R" in str(logs[1])
    for k in (0, 2):
        spectral, l0 = checked_logs(stack[k][None])[0]
        assert np.array_equal(logs[k][1], l0)
        assert np.array_equal(logs[k][0].eigenvalues, spectral.eigenvalues)


def counted_solves(monkeypatch):
    """Record the targets of every P1 call, one stack per call."""
    batch = solver.closest_lindbladian_batch
    calls = []

    def counting(targets, d):
        calls.append(np.asarray(targets))
        return batch(targets, d)

    monkeypatch.setattr(solver, "closest_lindbladian_batch", counting)
    return calls


def noisy_copy(m, seed, size=0.05):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    return m + size * noise / frobenius(noise)


def test_one_solver_call_holds_every_sample(monkeypatch):
    """Sample 0 is the snapshot exp(L) itself, sample 1 a noisy copy.  Sample
    0's principal logarithm is a Lindbladian, and its principal fit, one
    problem in a call of its own, lands at round-off and settles it; one
    more call holds every class leader of sample 1.  When no principal
    logarithm is a Lindbladian, one call holds every class leader of every
    sample."""
    m = expm(random_lindblad_generator(2, np.random.default_rng(0)))
    branches = branch_grid(BranchPolicy(1), 4)
    calls = counted_solves(monkeypatch)

    def classes(logs):
        return [len(branch_classes(l0, spectral, branches)) for spectral, l0 in logs]

    logs = checked_logs(np.stack([m, noisy_copy(m, 1)]))
    assert [fitting.principal_first(l0) for _, l0 in logs] == [True, False]
    fits, _ = best_fit_lindbladian(m, logs)
    assert [len(c) for c in calls] == [1, classes(logs)[1]]
    assert fits[0].distance < 1e-9 < fits[1].distance
    assert fits[0].branch == (0, 0, 0, 0)

    calls.clear()
    logs = checked_logs(np.stack([noisy_copy(m, 1), noisy_copy(m, 2)]))
    assert not any(fitting.principal_first(l0) for _, l0 in logs)
    best_fit_lindbladian(m, logs)
    assert [len(c) for c in calls] == [sum(classes(logs))]


# ----------------------------------------------------------------------
# the principal fit first: the same fits as the full class search
# ----------------------------------------------------------------------

def full_search(monkeypatch, m, logs, policy=BranchPolicy()):
    """The search with every sample's principal gate failed: every sample's
    class leaders in one batch."""
    with monkeypatch.context() as patch:
        patch.setattr(fitting, "principal_first", lambda l0: False)
        return best_fit_lindbladian(m, logs, policy)


def assert_same_fits(got, want):
    """The same keys in the same order, and bitwise the same fits."""
    assert list(got) == list(want)
    for k, fit in want.items():
        assert (got[k] is None) == (fit is None)
        if fit is not None:
            assert got[k].lindbladian.tobytes() == fit.lindbladian.tobytes()
            assert (got[k].distance, got[k].branch) == (fit.distance, fit.branch)


@pytest.mark.parametrize("d, seed", [(2, s) for s in range(6)] + [(3, 1), (3, 3)])
def test_principal_first_matches_the_full_search_on_exact_generators(d, seed, monkeypatch):
    """exp(L) of a random generator: where the principal logarithm is L
    (d=2 seeds 0, 1, 4 and 5, d=3 seed 1), one problem settles the fit;
    elsewhere the search is the full one."""
    m = expm(random_lindblad_generator(d, np.random.default_rng(seed)))
    logs = checked_logs(m[None])
    policy = BranchPolicy(1, max_branches=64)
    want, want_maxiters = full_search(monkeypatch, m, logs, policy)
    calls = counted_solves(monkeypatch)
    got, maxiters = best_fit_lindbladian(m, logs, policy)
    assert_same_fits(got, want)
    assert maxiters == want_maxiters == 0
    gated = fitting.principal_first(logs[0][1])
    assert gated == ((d, seed) in {(2, 0), (2, 1), (2, 4), (2, 5), (3, 1)})
    if gated:
        assert [len(c) for c in calls] == [1] and got[0].branch == (0,) * d**2


@pytest.mark.parametrize("name, spec", [
    ("depol-0.1", ChannelSpec("depolarizing", {"p": 0.1})),
    ("depol-0.2", ChannelSpec("depolarizing", {"p": 0.2})),
    ("unital-weak-t1", ChannelSpec("unital", {"gamma": [0.1, 0.2, 0.3], "t": 1.0})),
    ("unital-weak-t2", ChannelSpec("unital", {"gamma": [0.1, 0.2, 0.3], "t": 2.0})),
])
@pytest.mark.parametrize("shots", [10**4, 10**5])
def test_principal_first_matches_the_full_search_on_the_panel(name, spec, shots, monkeypatch):
    """The benchmark's depolarizing and weak-unital snapshots (tomography
    seed 1), searched as ``fit`` searches their own group, which has no
    mirror: each raw fit is settled at its principal branch by one
    problem."""
    mat = simulate_process_tomography(spec, TomographyConfig(shots=shots, seed=1)).mat
    repair = preprocess.Repair(mat, preprocess.DEFAULT_PRECISION)
    stack = [repair.snapshot] + ([] if repair.mirrored is None else [repair.mirrored])
    logs = checked_logs(np.stack(stack), [repair.spectral])
    want, _ = full_search(monkeypatch, mat, logs)
    calls = counted_solves(monkeypatch)
    got, _ = best_fit_lindbladian(mat, logs)
    assert_same_fits(got, want)
    assert repair.mirrored is None and fitting.principal_first(logs[0][1])
    assert [len(c) for c in calls] == [1]
    assert got[0].distance < fitting.TIE_TOL and got[0].branch == (0, 0, 0, 0)


def test_a_mixed_stack_keeps_stack_order(monkeypatch):
    """A noisy copy, the exact snapshot and another noisy copy: only the
    middle one is gated, it is settled first, and the fits still come back
    keyed 0, 1, 2 in that order, as the full search gives them."""
    m = expm(random_lindblad_generator(2, np.random.default_rng(0)))
    logs = checked_logs(np.stack([noisy_copy(m, 1), m, noisy_copy(m, 2)]))
    assert [fitting.principal_first(l0) for _, l0 in logs] == [False, True, False]
    want, _ = full_search(monkeypatch, m, logs)
    calls = counted_solves(monkeypatch)
    got, _ = best_fit_lindbladian(m, logs)
    assert list(got) == [0, 1, 2]
    assert_same_fits(got, want)
    assert len(calls) == 2 and len(calls[0]) == 1


def near_miss():
    """exp(L') of a generator L' that passes the Lindblad test at
    ``VERIFY_TOL`` with a CCP residual of 1e-8: L with one jump operator,
    less 1e-8 of a direction orthogonal to omega on which L's compressed
    Choi block vanishes."""
    h = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.3]])
    choi = gamma_involution(lindblad_generator(h, [np.array([[0.0, 0.4], [0.0, 0.0]])]))
    basis = np.linalg.eigh(max_entangled(2).omega_perp)[1][:, 1:]  # omega_perp's range
    u = basis @ np.linalg.eigh(basis.conj().T @ herm(choi) @ basis)[1][:, 0]
    return expm(gamma_involution(choi - 1e-8 * np.outer(u, u.conj())))


@pytest.mark.parametrize("policy", [BranchPolicy(), BranchPolicy(0)], ids=["m_max 1", "m_max 0"])
def test_a_near_miss_falls_through_to_the_class_search(policy, monkeypatch):
    """The principal logarithm certifies, but its projection moves it by
    about 1e-8, so its fit lands above ``TIE_TOL``: the class search
    decides, on the principal solve it already has plus every other class
    leader, each solved once, and gives the full search's fit.  At m_max 0
    the principal is the only class, and no second call is made."""
    m = near_miss()
    logs = checked_logs(m[None])
    spectral, l0 = logs[0]
    assert fitting.principal_first(l0)
    assert 1e-9 < is_lindbladian(l0, tol=fitting.VERIFY_TOL).ccp < fitting.VERIFY_TOL
    want, _ = full_search(monkeypatch, m, logs, policy)
    calls = counted_solves(monkeypatch)
    got, _ = best_fit_lindbladian(m, logs, policy)
    assert_same_fits(got, want)
    assert got[0].distance >= fitting.TIE_TOL
    branches = branch_grid(policy, 4)
    targets = branch_targets(l0, spectral, branches)
    leaders = branch_classes(l0, spectral, branches)
    assert np.array_equal(leaders, np.unique(_one_pass_classes(targets)))
    assert [len(c) for c in calls] == ([1, len(leaders) - 1] if len(leaders) > 1 else [1])
    assert np.array_equal(herm(np.concatenate(calls)), herm(targets[leaders]))


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


def test_a_zero_eigenvalue_fails_the_log_audit():
    """It has no logarithm: the audit records the failure instead of raising."""
    [audit] = checked_logs(np.diag([1.0, 0.5, 0.3, 0.0]).astype(complex)[None])
    assert isinstance(audit, NumericalFailure) and "zero eigenvalue" in str(audit)


# ----------------------------------------------------------------------
# the unitary frame
# ----------------------------------------------------------------------

def _haar(d, seed):
    """A Haar-random d x d unitary from a fixed seed."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


UNITARIES = {
    "xgate": x_gate(),
    "iswap": iswap_gate(),
    "random d=2": _haar(2, 0),
    "random d=3": _haar(3, 0),
}


@pytest.mark.parametrize("name", list(UNITARIES))
def test_the_unitary_frame_of_an_exact_unitary_fits(name, monkeypatch):
    """On U (x) U* the frame's candidate is certified within 1e-8, the
    scale of the nudge that makes exp(-L_H) M (the identity) simple, and
    its Hamiltonian part L_H exponentiates to U (x) U* itself."""
    m = unitary_transfer(UNITARIES[name]).mat
    built = []
    make = fitting.lindblad_generator

    def recording(h):
        built.append(make(h))
        return built[-1]

    monkeypatch.setattr(fitting, "lindblad_generator", recording)
    fit, maxiters = fitting.unitary_frame(m)
    assert maxiters == 0 and fit is not None and fit.branch is None
    assert fit.distance < 1e-8
    assert frobenius(expm(fit.lindbladian) - m) == pytest.approx(fit.distance, abs=1e-12)
    assert is_lindbladian(fit.lindbladian, tol=fitting.VERIFY_TOL).ok
    [l_h] = built
    assert frobenius(expm(l_h) - m) < 1e-12


def test_the_unitary_frame_of_a_singular_snapshot_is_none():
    """exp(-L_H) M keeps M's zero eigenvalue, so its audit fails."""
    assert fitting.unitary_frame(np.diag([1.0, 0.5, 0.3, 0.0]).astype(complex)) == (None, 0)
