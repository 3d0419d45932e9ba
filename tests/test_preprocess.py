"""The repair pipeline's lazy sample generator, ``preprocess.repaired_samples``."""

import numpy as np
import pytest

from lindbladfit import preprocess
from lindbladfit.channels import ChannelSpec, TomographyConfig, simulate_process_tomography
from lindbladfit.linalg import eig_full

P = preprocess.DEFAULT_PRECISION
EPSILON = 0.05


def snapshot(spec, shots, seed=1):
    return simulate_process_tomography(spec, TomographyConfig(shots=shots, seed=seed)).mat


def samples(mat, count, seed=0):
    cfg = preprocess.RandomBasisConfig(samples=count, seed=seed)
    kind, stream = preprocess.repaired_samples(mat, P, EPSILON, cfg)
    return kind, list(stream)


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
    kind, stream = samples(mat, 4)
    assert kind == preprocess.PASSTHROUGH
    assert len(stream) == 1 and stream[0][0] == 0
    np.testing.assert_array_equal(stream[0][1], mat)


@pytest.fixture(scope="module")
def depol():
    return snapshot(ChannelSpec("depolarizing", {"p": 0.1}), 10**4)


def test_clustered_spectrum_keeps_the_snapshot_spectrum(depol):
    kind, stream = samples(depol, 4)
    assert kind == preprocess.SAMPLES
    assert [k for k, _ in stream] == [0, 1, 2, 3]
    s = eig_full(depol)
    partition = preprocess.detect_clusters(s, P)
    clustered = {i for set_ in partition.real_sets() + partition.complex_sets for i in set_}
    single = [i for i in range(len(s.eigenvalues)) if i not in clustered]
    assert clustered and single
    for _, r in stream:
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
    for (k, r), (k2, r2) in zip(four, again):
        assert k == k2
        np.testing.assert_array_equal(r, r2)
    assert len(two) == 2
    for (k, r), (k2, r2) in zip(four, two):
        assert k == k2
        np.testing.assert_array_equal(r, r2)
    assert not np.array_equal(four[0][1], four[1][1])
    _, other_seed = samples(depol, 2, seed=1)
    assert not np.array_equal(other_seed[0][1], four[0][1])
