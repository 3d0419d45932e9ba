"""The repair pipeline: ``preprocess.Repair``, its kind at each epsilon and
its samples, cluster detection, the draw plan and its walk, and
``perturb_to_nd2``."""

import numpy as np
import pytest

from lindbladfit import preprocess
from lindbladfit.channels import (
    ChannelSpec,
    TomographyConfig,
    simulate_process_tomography,
    unitary_transfer,
    x_gate,
)
from lindbladfit.errors import NumericalFailure
from lindbladfit.linalg import eig_full, gamma_involution, vec_adjoint

P = preprocess.DEFAULT_PRECISION
EPSILON = 0.05


def snapshot(spec, shots, seed=1):
    return simulate_process_tomography(spec, TomographyConfig(shots=shots, seed=seed)).mat


def samples(mat, count, seed=0):
    """The repair's kind at EPSILON and, in the samples pipeline, its
    samples 0..count-1."""
    repair = preprocess.Repair(mat, P)
    kind = repair.kind(EPSILON)
    drawn = [repair.sample(seed, k) for k in range(count)] if kind == preprocess.SAMPLES else []
    return kind, drawn


@pytest.mark.parametrize(
    "mat",
    [np.eye(4), snapshot(ChannelSpec("identity"), 10**4)],
    ids=["exact", "10^4 shots"],
)
def test_identity_channel_gives_no_samples(mat):
    assert samples(mat, 4) == (preprocess.IDENTITY, [])


def test_separated_spectrum_passes_the_input_through():
    # eigenvalues 1, 0.74, 0.50, 0.30: no two within the precision
    mat = snapshot(ChannelSpec("unital", {"gamma": [0.8, 0.4, -0.1]}), 10**5)
    assert samples(mat, 4) == (preprocess.PASSTHROUGH, [])
    np.testing.assert_array_equal(preprocess.Repair(mat, P).snapshot, mat)


@pytest.fixture(scope="module")
def depol():
    return snapshot(ChannelSpec("depolarizing", {"p": 0.1}), 10**4)


def test_clustered_spectrum_keeps_the_snapshot_spectrum(depol):
    kind, stream = samples(depol, 4)
    assert kind == preprocess.SAMPLES
    assert len(stream) == 4
    s = eig_full(depol)
    partition = preprocess.detect_clusters(s, P)
    clustered = {i for set_ in partition.positive_sets + partition.negative_sets + partition.complex_sets for i in set_}
    single = [i for i in range(len(s.eigenvalues)) if i not in clustered]
    assert clustered and single
    for r in stream:
        assert not np.allclose(r, depol, atol=1e-6)  # the eigenbasis did change
        gaps = np.abs(np.linalg.eigvals(r)[:, None] - s.eigenvalues[None, :])
        # every eigenvalue of R has a partner in the snapshot's spectrum and back
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-10
        # an eigenvalue outside every cluster keeps its eigenvector
        for i in single:
            v = s.right_vectors[:, i]
            assert np.linalg.norm(r @ v - s.eigenvalues[i] * v) <= 1e-10


def test_sample_k_depends_only_on_seed_and_k(depol):
    _, four = samples(depol, 4)
    _, again = samples(depol, 4)
    _, two = samples(depol, 2)
    for r, r2 in zip(four, again):
        np.testing.assert_array_equal(r, r2)
    assert len(two) == 2
    for r, r2 in zip(four, two):
        np.testing.assert_array_equal(r, r2)
    # drawn out of order, from one repair, sample 1 is the same
    repair = preprocess.Repair(depol, P)
    np.testing.assert_array_equal(repair.sample(0, 1), four[1])
    assert not np.array_equal(four[0], four[1])
    _, other_seed = samples(depol, 2, seed=1)
    assert not np.array_equal(other_seed[0], four[0])


# ----------------------------------------------------------------------
# clusters, the draw plan and its walk
# ----------------------------------------------------------------------

CLUSTERED = {
    "xgate": (ChannelSpec("xgate"), 10**4),
    "depol": (ChannelSpec("depolarizing", {"p": 0.1}), 10**4),
    "iswap": (ChannelSpec("iswap"), 10**5),
}


@pytest.fixture(scope="module")
def repair():
    """Per snapshot: (matrix, spectral data, partition, draw plan)."""
    out = {}
    for name, (spec, shots) in CLUSTERED.items():
        mat = snapshot(spec, shots)
        s = eig_full(mat)
        partition = preprocess.detect_clusters(s, P)
        plan, residual = preprocess.build_cluster_bases(s, partition, P)
        assert residual < 1e-12  # shot-noise tomography: the kernels are exact
        out[name] = (mat, s, partition, plan)
    return out


def test_detect_clusters_on_x_gate_and_iswap(repair):
    x = repair["xgate"][2]
    assert (x.positive_sets, x.negative_sets, x.complex_sets) == (((0, 1),), ((2, 3),), ())
    iswap = repair["iswap"][2]
    assert iswap.positive_sets == (tuple(range(6)),)
    assert iswap.negative_sets == ((14, 15),)
    assert iswap.complex_sets == ((6, 9, 10, 12), (7, 8, 11, 13))
    assert iswap.conjugate_pairs == ((0, 1),)


def test_components_match_scipy_connected_components():
    """The squaring closure against scipy's graph search, on random sparse
    graphs of up to 16 nodes, directed ones read as undirected."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(8)
    for n in rng.integers(1, 17, size=300):
        adjacency = rng.random((n, n)) < rng.uniform(0.0, 0.3)
        count, labels = connected_components(csr_matrix(adjacency), directed=False)
        groups = [tuple(int(i) for i in np.flatnonzero(labels == c)) for c in range(count)]
        want = sorted(g for g in groups if len(g) >= 2)
        assert preprocess._components(adjacency) == want


def _conjugation_slots(lam, cols):
    remaining = list(cols)
    pairs, singles = [], []
    while remaining:
        c = remaining.pop(0)
        self_gap = 2.0 * abs(lam[c].imag)
        if remaining:
            gaps = np.abs(lam[remaining] - np.conj(lam[c]))
            k = int(np.argmin(gaps))
            if gaps[k] < self_gap:
                pairs.append((c, remaining.pop(k)))
                continue
        singles.append(c)
    return pairs, singles


def _match_conjugates(lam, set_a, set_b):
    remaining = list(set_a)
    mapping = []
    for cb in set_b:
        k = int(np.argmin(np.abs(lam[remaining] - np.conj(lam[cb]))))
        mapping.append((cb, remaining.pop(k)))
    return mapping


def three_loop_basis(s, partition, pools, seed, sample_index):
    """Reference: the draw as one loop per cluster kind, re-deriving the
    slots and conjugate partners on every attempt."""
    gauss = preprocess._complex_gaussian
    rng = np.random.default_rng((seed, sample_index))
    lam = s.eigenvalues
    for _ in range(preprocess._MAX_RESAMPLE):
        new_basis = np.array(s.right_vectors, copy=True)
        retry = False
        for set_ in partition.positive_sets:
            pool = pools[set_]
            pair_slots, sa_slots = _conjugation_slots(lam, set_)
            for c in sa_slots:
                z = pool @ gauss(rng, pool.shape[1])
                col = (z + vec_adjoint(z)) / 2.0
                norm = np.linalg.norm(col)
                if norm < 1e-6 * np.linalg.norm(z):
                    retry = True
                    break
                new_basis[:, c] = col / norm
            if retry:
                break
            for c1, c2 in pair_slots:
                z = pool @ gauss(rng, pool.shape[1])
                z = z / np.linalg.norm(z)
                new_basis[:, c1] = z
                new_basis[:, c2] = vec_adjoint(z)
        if retry:
            continue
        for set_ in partition.negative_sets:
            pool = pools[set_]
            pairs, singles = _conjugation_slots(lam, set_)
            while singles:
                pairs.append((singles.pop(0), singles.pop(0)))
            for c1, c2 in pairs:
                z = pool @ gauss(rng, pool.shape[1])
                z = z / np.linalg.norm(z)
                new_basis[:, c1] = z
                new_basis[:, c2] = vec_adjoint(z)
        for ia, ib in partition.conjugate_pairs:
            set_a = partition.complex_sets[ia]
            set_b = partition.complex_sets[ib]
            pool = pools[set_a]
            for c in set_a:
                z = pool @ gauss(rng, pool.shape[1])
                new_basis[:, c] = z / np.linalg.norm(z)
            for cb, ca in _match_conjugates(lam, set_a, set_b):
                new_basis[:, cb] = vec_adjoint(new_basis[:, ca])
        cond = np.linalg.cond(new_basis)
        if np.isfinite(cond) and cond < 1e8:
            return new_basis
    raise NumericalFailure("no invertible basis")


@pytest.mark.parametrize("name", list(CLUSTERED))
def test_plan_walk_equals_the_three_loop_draw(repair, name):
    _, s, partition, plan = repair[name]
    pools = {set_: preprocess.real_positive_basis(s, set_, P)[0]
             for set_ in partition.positive_sets}
    pools.update({set_: preprocess.conjugate_basis(s, set_, set_)[0]
                  for set_ in partition.negative_sets})
    for ia, ib in partition.conjugate_pairs:
        set_a, set_b = partition.complex_sets[ia], partition.complex_sets[ib]
        pools[set_a] = preprocess.conjugate_basis(s, set_a, set_b)[0]
    for k in range(8):
        np.testing.assert_array_equal(
            preprocess.random_hp_basis(s, plan, 0, k),
            three_loop_basis(s, partition, pools, 0, k),
        )


def repaired(mat):
    kind, stream = samples(mat, 8)
    assert kind == preprocess.SAMPLES
    return stream


# depol is test_clustered_spectrum_keeps_the_snapshot_spectrum
@pytest.mark.parametrize("name", ["xgate", "iswap"])
def test_samples_keep_the_snapshot_spectrum(repair, name):
    mat, s = repair[name][:2]
    for r in repaired(mat):
        gaps = np.abs(np.linalg.eigvals(r)[:, None] - s.eigenvalues[None, :])
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-10


# ISWAP's negative cluster holds two distinct reals (-0.99941 and -1.00032)
# that are paired anyway, so its samples preserve hermiticity only to the
# cluster width (0.037 relative); it is left out here.
@pytest.mark.parametrize("name", ["xgate", "depol"])
def test_samples_preserve_hermiticity(repair, name):
    for r in repaired(repair[name][0]):
        g = gamma_involution(r)
        assert np.linalg.norm(g - g.conj().T) <= 1e-12 * np.linalg.norm(r)


def test_odd_negative_cluster_passes_through():
    mat = np.diag([1.0, -0.5 + 0.01j, -0.5 - 0.01j, -0.53])
    s = eig_full(mat)
    partition = preprocess.detect_clusters(s, P)
    assert partition.negative_sets == ((1, 2, 3),)
    assert preprocess.build_cluster_bases(s, partition, P) == (None, np.inf)
    assert samples(mat, 4) == (preprocess.PASSTHROUGH, [])


def bumped(mat):
    """``mat`` plus 1e-4 of seeded complex noise, which breaks its
    hermiticity preservation, so the cluster kernels are no longer exact."""
    rng = np.random.default_rng(7)
    return mat + 1e-4 * (rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape))


def test_the_kernel_tolerance_picks_the_pipeline(depol):
    """A plan exists at every epsilon; it is drawn from only while its
    largest kernel residual (here 1.9e-3) lies strictly below
    max(1e-8, epsilon)."""
    repair = preprocess.Repair(bumped(depol), P)
    plan, residual = preprocess.build_cluster_bases(repair.spectral, repair.partition, P)
    assert plan is not None and 1e-3 < residual < EPSILON
    assert repair.kind(EPSILON) == preprocess.SAMPLES
    assert repair.kind(0.001) == preprocess.PASSTHROUGH
    assert repair.kind(residual) == preprocess.PASSTHROUGH
    assert repair.kind(np.nextafter(residual, np.inf)) == preprocess.SAMPLES
    # the plan does not depend on epsilon: the same samples at either side
    kind, drawn = samples(bumped(depol), 2)
    assert kind == preprocess.SAMPLES
    for k, r in enumerate(drawn):
        np.testing.assert_array_equal(repair.sample(0, k), r)


def eig_spy(monkeypatch):
    """Records every `eig_full` call `preprocess` makes."""
    eig = preprocess.eig_full
    calls = []

    def counting(m, *args):
        calls.append(1)
        return eig(m, *args)

    monkeypatch.setattr(preprocess, "eig_full", counting)
    return calls


def test_perturb_to_nd2(monkeypatch):
    """A degenerate input is nudged within the budget onto a simple
    spectrum that stays hermiticity-preserving, and comes back with that
    spectrum's `eig_full`; each matrix tried is eigendecomposed once (2
    calls), and a simple input is returned unchanged after one."""
    calls = eig_spy(monkeypatch)
    nudged, spectral = preprocess.perturb_to_nd2(np.eye(4))
    assert len(calls) == 2
    want = eig_full(nudged)  # simple spectrum, or DegenerateSpectrum
    for field in ("eigenvalues", "right_vectors", "left_vectors"):
        assert np.array_equal(getattr(spectral, field), getattr(want, field))
    assert np.linalg.norm(nudged - np.eye(4)) <= 1e-8
    g = gamma_involution(nudged)
    assert np.array_equal(g, g.conj().T)
    calls.clear()
    simple = np.diag([1.0, 0.7, 0.4, 0.2]).astype(complex)
    kept, spectral = preprocess.perturb_to_nd2(simple)
    np.testing.assert_array_equal(kept, simple)
    np.testing.assert_array_equal(spectral.eigenvalues, eig_full(simple).eigenvalues)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "mat, eigs",
    [
        (np.eye(4), 2),
        (unitary_transfer(x_gate()).mat, 2),
        (snapshot(ChannelSpec("xgate"), 10**4), 1),
    ],
    ids=["degenerate", "exact X gate", "simple"],
)
def test_only_a_degenerate_input_is_nudged(monkeypatch, mat, eigs):
    """The repair takes its snapshot and spectral data from
    `perturb_to_nd2`: a simple input is eigendecomposed once and kept as
    it is, a degenerate one is nudged and eigendecomposed twice (the input,
    then the neighbour kept)."""
    calls = eig_spy(monkeypatch)
    repair = preprocess.Repair(mat, P)
    assert len(calls) == eigs
    assert np.array_equal(repair.snapshot, mat) == (eigs == 1)
    want = eig_full(repair.snapshot)
    for field in ("eigenvalues", "right_vectors", "left_vectors"):
        assert np.array_equal(getattr(repair.spectral, field), getattr(want, field))


@pytest.mark.parametrize("partner", [None, 1], ids=["real slot", "pair"])
def test_all_zero_pool_raises_after_the_retries(repair, partner):
    s = repair["xgate"][1]
    plan = [(np.zeros((4, 2), dtype=complex), 0, partner)]
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure):
        preprocess.random_hp_basis(s, plan, 0, 0)


# ----------------------------------------------------------------------
# the mirrored lone negative eigenvalue
# ----------------------------------------------------------------------

BENCH_UNITAL = ChannelSpec("unital", {"gamma": [-200.0, 201.0, 200.5]})


def test_a_lone_negative_eigenvalue_is_mirrored():
    """Benchmark unital at tomography seed 2: the one real negative
    eigenvalue becomes |lambda|, the other eigenpairs stay, and the mirror
    stays hermiticity-preserving."""
    mat = snapshot(BENCH_UNITAL, 10**4, seed=2)
    s = eig_full(mat)
    mirrored = preprocess.mirrored_negative(s, P)
    j = int(np.argmin(s.eigenvalues.real))
    assert s.eigenvalues[j].real < 0
    want = s.eigenvalues.copy()
    want[j] = abs(want[j])
    mirror = eig_full(mirrored)
    assert np.allclose(np.sort_complex(mirror.eigenvalues), np.sort_complex(want), atol=1e-12)
    assert np.allclose(mirrored @ s.right_vectors, s.right_vectors * want, atol=1e-12)
    choi = gamma_involution(mirrored)
    assert np.allclose(choi, choi.conj().T, atol=1e-12)
    repair = preprocess.Repair(mat, P)
    assert repair.kind(EPSILON) == preprocess.PASSTHROUGH
    assert np.array_equal(repair.mirrored, mirrored)


@pytest.mark.parametrize(
    "spec, seed",
    [(ChannelSpec("xgate"), 1), (ChannelSpec("xgate"), 2), (BENCH_UNITAL, 1),
     (ChannelSpec("depolarizing", {"p": 0.2}), 1)],
    ids=["conjugate pair", "two negative reals", "no negative", "depolarizing"],
)
def test_no_mirror_without_a_lone_negative_eigenvalue(spec, seed):
    """The X gate's pair near -1 is complex at seed 1 and two reals at
    seed 2; neither is mirrored."""
    mat = snapshot(spec, 10**4, seed=seed)
    assert preprocess.mirrored_negative(eig_full(mat), P) is None
    assert preprocess.Repair(mat, P).mirrored is None
