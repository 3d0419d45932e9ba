"""Eigenvalue-cluster detection and hermiticity-structured basis repair.

Shot noise splits degenerate transfer-matrix eigenvalues into tight
clusters, and inside each perturbed eigenspace the eigensolver hands back
an essentially arbitrary basis.  A logarithm assembled from such a basis
loses the adjoint pairing between eigenvectors that generators of
hermiticity-preserving dynamics rely on, so the downstream fit can land
order-one away from the truth even for tiny noise (a noisy X-gate
snapshot famously "fits" the identity).  The repair implemented here:

1. group eigenvalues into clusters of mutual distance below a precision
   ``p``, split by sign / imaginary part (`detect_clusters`);
2. inside each cluster, rebuild a basis whose columns are self-adjoint
   or come in adjoint pairs (`real_positive_basis`, `conjugate_basis`);
3. draw random mixtures of those structured vectors, one invertible
   basis per sample (`random_hp_basis`);
4. reassemble ``R = S diag(lambda) S^-1`` carrying the snapshot's exact
   spectrum but the repaired eigenbasis, one sample at a time
   (`repaired_samples`, the lazy generator the fit stage consumes).

Inputs whose spectrum is outright degenerate are first nudged onto a
nearby matrix with simple spectrum by `perturb_to_nd2`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.sparse import csr_matrix

from .errors import (
    BasisUnavailable,
    DegenerateSpectrum,
    DimensionMismatch,
    NumericalFailure,
    OutOfRange,
)
from . import linalg
from .linalg import SpectralData, eig_full, frobenius, vec_adjoint

__all__ = [
    "ClusterPartition",
    "HPBasis",
    "RandomBasisConfig",
    "detect_clusters",
    "conjugate_basis",
    "real_positive_basis",
    "random_hp_basis",
    "perturb_to_nd2",
    "repaired_samples",
    "DEFAULT_PRECISION",
    "CONJUGATE_PAIRS",
    "SELF_ADJOINT_AND_PAIRS",
    "IDENTITY",
    "PASSTHROUGH",
    "SAMPLES",
]

DEFAULT_PRECISION = 0.1

CONJUGATE_PAIRS = "conjugate_pairs"
SELF_ADJOINT_AND_PAIRS = "self_adjoint_and_pairs"

IDENTITY = "identity"
PASSTHROUGH = "passthrough"
SAMPLES = "samples"

# Relative singular-value threshold below which a kernel direction counts
# as exact (as opposed to the approximate fallback gated by residual_tol).
_STRICT_KERNEL_TOL = 1e-10
_CONDITION_LIMIT = 1e8
_MAX_RESAMPLE = 32
_ND2_HALVING_CAP = 60
# Frobenius budget for nudging a degenerate input onto a simple spectrum.
_ND2_BUDGET = 1e-8


# ----------------------------------------------------------------------
# Cluster detection
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterPartition:
    """Clusters of mutually close eigenvalues, as index sets into the
    canonical eigenvalue order.

    Sets are sorted tuples; singletons are omitted (an isolated
    eigenvalue needs no repair).  ``conjugate_pairs`` holds index pairs
    into ``complex_sets`` whose eigenvalues are conjugates of each other.
    """

    positive_sets: tuple
    negative_sets: tuple
    complex_sets: tuple
    conjugate_pairs: tuple
    consistent_with_identity: bool = False

    @property
    def has_clusters(self) -> bool:
        return bool(self.positive_sets or self.negative_sets or self.complex_sets)

    def real_sets(self):
        return tuple(self.positive_sets) + tuple(self.negative_sets)


def _components(adjacency: np.ndarray) -> list:
    """Connected components of a boolean adjacency matrix, as sorted tuples."""
    n_comp, labels = connected_components(
        csr_matrix(adjacency), directed=False
    )
    out = []
    for c in range(n_comp):
        members = tuple(int(i) for i in np.flatnonzero(labels == c))
        if len(members) >= 2:
            out.append(members)
    out.sort()
    return out


def _cluster_sets(eigenvalues: np.ndarray, p: float):
    """Raw clustering on an eigenvalue vector; order of the vector defines
    the index space, so the result is a pure function of (values, p)."""
    lam = np.asarray(eigenvalues, dtype=complex)
    close = np.abs(lam[:, None] - lam[None, :]) < p
    realish = np.abs(lam.imag) < p
    positive = realish & (lam.real > 0)
    negative = realish & (lam.real < 0)
    complex_ = np.abs(lam.imag) > p

    def restricted(mask):
        return close & mask[:, None] & mask[None, :]

    pos_sets = _components(restricted(positive))
    neg_sets = _components(restricted(negative))
    cpx_sets = _components(restricted(complex_))

    # Identity consistency: every unordered pair passes the positive-pair
    # checklist, i.e. the whole spectrum is one mutually close positive set.
    n = lam.size
    pair_ok = np.triu(restricted(positive), k=1)
    identity = bool(pair_ok.sum() == n * (n - 1) // 2)
    return pos_sets, neg_sets, cpx_sets, identity


def _pair_conjugate_sets(lam: np.ndarray, complex_sets, p: float):
    """Match complex clusters with their conjugate partners (equal sizes,
    conjugated eigenvalue multisets within p)."""
    pairs = []
    used = set()
    for i, set_a in enumerate(complex_sets):
        if i in used:
            continue
        target = np.sort_complex(np.conj(lam[list(set_a)]))
        for j in range(i + 1, len(complex_sets)):
            if j in used or len(complex_sets[j]) != len(set_a):
                continue
            values = np.sort_complex(lam[list(complex_sets[j])])
            if np.all(np.abs(values - target) < p):
                pairs.append((i, j))
                used.add(i)
                used.add(j)
                break
    return tuple(pairs)


def detect_clusters(s: SpectralData, p: float) -> ClusterPartition:
    """Group eigenvalues that plausibly stem from a perturbed degeneracy.

    Two eigenvalues belong together when they are within ``p`` of each
    other and fall in the same class: real positive, real negative
    (imaginary part below ``p``), or complex (imaginary part above
    ``p``).  Chains are merged by transitive closure.
    """
    if p <= 0:
        raise OutOfRange(f"cluster precision must be positive, got {p}")
    pos_sets, neg_sets, cpx_sets, identity = _cluster_sets(s.eigenvalues, p)
    return ClusterPartition(
        positive_sets=tuple(pos_sets),
        negative_sets=tuple(neg_sets),
        complex_sets=tuple(cpx_sets),
        conjugate_pairs=_pair_conjugate_sets(s.eigenvalues, cpx_sets, p),
        consistent_with_identity=identity,
    )


# ----------------------------------------------------------------------
# Structured bases for clustered eigenspaces
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HPBasis:
    """Basis of a clustered eigenspace with hermiticity-compatible columns.

    kind == CONJUGATE_PAIRS: ``vectors`` span the cluster and their
    adjoints live in the partner cluster (the same cluster for a negative
    real eigenvalue).

    kind == SELF_ADJOINT_AND_PAIRS: columns split into ``self_adjoint``
    vectors (equal to their own adjoint) and ``pairs`` vectors whose
    adjoints complete the span.
    """

    kind: str
    vectors: Optional[np.ndarray] = None
    self_adjoint: Optional[np.ndarray] = None
    pairs: Optional[np.ndarray] = None

    @property
    def span_vectors(self) -> np.ndarray:
        """All constructed columns, for span comparisons."""
        if self.kind == CONJUGATE_PAIRS:
            return self.vectors
        return np.concatenate([self.self_adjoint, self.pairs], axis=1)


def _adjoint_columns(w: np.ndarray) -> np.ndarray:
    """vec-adjoint applied column-wise: column j becomes F|w_j*>."""
    return vec_adjoint(w.T).T


def _near_kernel(a: np.ndarray, n: int):
    """The n best kernel candidates of ``a``: unit vectors x minimizing
    ||a x||, with their residuals.  Exact kernel directions come out with
    residual ~ machine epsilon."""
    _, sv, vh = np.linalg.svd(a)
    cols = a.shape[1]
    resid = np.zeros(cols)
    resid[: sv.size] = sv
    solutions = np.conj(vh[cols - n:, :])
    return solutions, resid[cols - n:], float(sv[0]) if sv.size else 0.0


def _accept_kernel(resid: np.ndarray, scale: float, residual_tol) -> bool:
    strict = resid < _STRICT_KERNEL_TOL * max(1.0, scale)
    if np.all(strict):
        return True
    if residual_tol is not None and np.all(resid < residual_tol):
        return True
    return False


def _independent(columns: np.ndarray, tol: float = 1e-6) -> bool:
    sv = np.linalg.svd(columns, compute_uv=False)
    return bool(sv.size and sv[-1] > tol * max(1.0, sv[0]))


def conjugate_basis(
    s: SpectralData,
    set_a: Sequence[int],
    set_b: Sequence[int],
    residual_tol: Optional[float] = None,
) -> Optional[HPBasis]:
    """Basis of adjoint pairs for a complex or negative-real cluster.

    Solves sum_j conj(alpha_j) F|w_j*> = sum_j beta_j |u_j> for vectors
    ``w`` spanning the cluster ``set_a`` and ``u`` spanning the conjugate
    cluster ``set_b`` (the same set for negative real eigenvalues): each
    solution yields v = sum_j alpha_j w_j whose adjoint lies in the
    partner span.  Returns None when the joint kernel is too small, i.e.
    the two spans are not adjoints of each other.  With ``residual_tol``
    set, nearly compliant vectors (smallest singular directions with
    residual below the tolerance) are accepted as well, which is the
    relevant mode for noisy snapshots.
    """
    a_idx = tuple(sorted(int(i) for i in set_a))
    b_idx = tuple(sorted(int(i) for i in set_b))
    if len(a_idx) != len(b_idx):
        raise DimensionMismatch(
            f"cluster sizes differ: {len(a_idx)} vs {len(b_idx)}"
        )
    n = len(a_idx)
    w = s.right_vectors[:, a_idx]
    u = s.right_vectors[:, b_idx]
    a = np.concatenate([_adjoint_columns(w), -u], axis=1)
    solutions, resid, scale = _near_kernel(a, n)
    if not _accept_kernel(resid, scale, residual_tol):
        return None

    vectors = np.empty((s.dim, n), dtype=complex)
    for i, x in enumerate(solutions):
        v = w @ np.conj(x[:n])
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            return None
        vectors[:, i] = v / norm
    if not _independent(vectors):
        return None
    return HPBasis(kind=CONJUGATE_PAIRS, vectors=vectors)


def _canonical_phase(x: np.ndarray, n: int) -> np.ndarray:
    """Rotate a kernel solution so its self-adjoint character is visible.

    The involution J(alpha*, beta) = (beta*, alpha) maps solutions to
    solutions; a J-fixed solution has alpha = beta and describes a
    self-adjoint vector.  Kernel vectors come back with an arbitrary
    global phase which can hide that symmetry, so rotate by half the
    phase of <x, Jx> first.
    """
    jx = np.conj(np.concatenate([x[n:], x[:n]]))
    inner = np.vdot(x, jx)
    if np.abs(inner) < 1e-14:
        return x
    return x * np.exp(0.5j * np.angle(inner))


def real_positive_basis(
    s: SpectralData,
    set_a: Sequence[int],
    p: float,
    residual_tol: Optional[float] = None,
) -> Optional[HPBasis]:
    """Self-adjoint / adjoint-pair basis for a positive-real cluster.

    Same kernel construction as `conjugate_basis` with the cluster as its
    own partner.  Each solution is classified as self-adjoint when its
    alpha and beta coefficients agree componentwise within ``p``; the
    rest count as pair vectors.  An odd number of pair vectors is
    repaired by promoting the one closest to self-adjointness, and every
    declared self-adjoint column is replaced by its exactly symmetrized
    part so the declared structure holds to machine precision.
    """
    if p <= 0:
        raise OutOfRange(f"precision must be positive, got {p}")
    a_idx = tuple(sorted(int(i) for i in set_a))
    n = len(a_idx)
    w = s.right_vectors[:, a_idx]
    a = np.concatenate([_adjoint_columns(w), -w], axis=1)
    solutions, resid, scale = _near_kernel(a, n)
    if not _accept_kernel(resid, scale, residual_tol):
        return None

    alphas = np.empty((n, n), dtype=complex)
    betas = np.empty((n, n), dtype=complex)
    for i, x in enumerate(solutions):
        x = _canonical_phase(x, n)
        alphas[i] = np.conj(x[:n])
        betas[i] = x[n:]

    gaps = np.abs(alphas - betas)
    is_sa = np.all(gaps < p, axis=1)
    if int(np.sum(~is_sa)) % 2 != 0:
        candidates = np.flatnonzero(~is_sa)
        promote = candidates[np.argmin(gaps[candidates].sum(axis=1))]
        is_sa[promote] = True

    sa_cols = []
    pair_cols = []
    for i in range(n):
        v = w @ alphas[i]
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            return None
        v = v / norm
        if is_sa[i]:
            v = (v + vec_adjoint(v)) / 2.0
            norm = np.linalg.norm(v)
            if norm < 1e-8:
                return None
            sa_cols.append(v / norm)
        else:
            pair_cols.append(v)

    d2 = s.dim
    sa = np.stack(sa_cols, axis=1) if sa_cols else np.empty((d2, 0), complex)
    pairs = (
        np.stack(pair_cols, axis=1) if pair_cols else np.empty((d2, 0), complex)
    )
    all_cols = np.concatenate([sa, pairs], axis=1)
    if not _independent(all_cols):
        return None
    return HPBasis(kind=SELF_ADJOINT_AND_PAIRS, self_adjoint=sa, pairs=pairs)


# ----------------------------------------------------------------------
# Random structured bases and the repaired matrices
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RandomBasisConfig:
    """How many random bases to draw and from which seeded stream.

    The first column of every pair is the random one and, for a conjugate
    pair of complex clusters, the first-listed cluster is built randomly.
    """

    samples: int
    seed: int = 0

    def validate(self) -> None:
        if self.samples < 1:
            raise OutOfRange(f"need at least one sample, got {self.samples}")


def _complex_gaussian(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _match_conjugates(lam: np.ndarray, set_a, set_b):
    """Map each column in set_b to the column of set_a whose eigenvalue is
    closest to its conjugate."""
    remaining = list(set_a)
    mapping = []
    for cb in set_b:
        target = np.conj(lam[cb])
        k = int(np.argmin(np.abs(lam[remaining] - target)))
        mapping.append((cb, remaining.pop(k)))
    return mapping


def _conjugation_slots(lam: np.ndarray, cols):
    """Split a real cluster's columns into conjugate pairs and real slots.

    The snapshot's spectrum is conjugation-closed whenever the snapshot
    preserves hermiticity, so inside a cluster every column either sits
    on the real axis or has an exact conjugate partner.  Matching the
    pair structure onto those partners keeps the repaired matrix exactly
    hermiticity-preserving instead of merely within the cluster width.
    """
    remaining = list(cols)
    pairs = []
    singles = []
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


def _symmetrized_column(rng, pool: np.ndarray) -> Optional[np.ndarray]:
    """Random self-adjoint unit vector from the span of ``pool``."""
    z = pool @ _complex_gaussian(rng, pool.shape[1])
    col = (z + vec_adjoint(z)) / 2.0
    norm = np.linalg.norm(col)
    if norm < 1e-6 * np.linalg.norm(z):
        return None
    return col / norm


def random_hp_basis(
    s: SpectralData,
    partition: ClusterPartition,
    bases: Mapping[tuple, HPBasis],
    cfg: RandomBasisConfig,
    sample_index: int,
) -> np.ndarray:
    """One random basis respecting every cluster's hermiticity structure.

    Unclustered columns keep the original eigenvectors.  Within a real
    cluster, columns sitting on conjugate eigenvalue pairs are drawn as
    (z, adjoint of z) from complex Gaussian mixtures of the structured
    vectors, and columns on real eigenvalues get the symmetrized
    (exactly self-adjoint) part of such a draw; complex conjugate
    clusters get random columns on one side and bit-exact vec-adjoint
    copies on the other.  Matching the structure to the eigenvalues this
    way keeps the reassembled matrix hermiticity-preserving to machine
    precision rather than merely to the cluster width.  Draws come from
    the stream keyed by (cfg.seed, sample_index), and a badly
    conditioned draw is retried on the same stream.
    """
    cfg.validate()
    for set_ in partition.real_sets():
        if bases.get(tuple(set_)) is None:
            raise BasisUnavailable(f"no structured basis for cluster {set_}")
    paired = set()
    for ia, ib in partition.conjugate_pairs:
        paired.update((ia, ib))
        if bases.get(tuple(partition.complex_sets[ia])) is None:
            raise BasisUnavailable(
                f"no structured basis for cluster {partition.complex_sets[ia]}"
            )
    for i, set_ in enumerate(partition.complex_sets):
        if i not in paired:
            raise BasisUnavailable(
                f"complex cluster {set_} has no conjugate partner"
            )

    rng = np.random.default_rng((cfg.seed, sample_index))
    for _ in range(_MAX_RESAMPLE):
        new_basis = np.array(s.right_vectors, copy=True)

        retry = False
        for set_ in partition.positive_sets:
            basis = bases[tuple(set_)]
            pool = basis.span_vectors
            pair_slots, sa_slots = _conjugation_slots(s.eigenvalues, set_)
            for c in sa_slots:
                col = _symmetrized_column(rng, pool)
                if col is None:
                    retry = True
                    break
                new_basis[:, c] = col
            if retry:
                break
            for c1, c2 in pair_slots:
                z = pool @ _complex_gaussian(rng, pool.shape[1])
                z = z / np.linalg.norm(z)
                new_basis[:, c1] = z
                new_basis[:, c2] = vec_adjoint(z)
        if retry:
            continue

        for set_ in partition.negative_sets:
            basis = bases[tuple(set_)]
            n_vec = basis.vectors.shape[1]
            pairs, singles = _conjugation_slots(s.eigenvalues, set_)
            while singles:
                pairs.append((singles.pop(0), singles.pop(0)))
            for c1, c2 in pairs:
                z = basis.vectors @ _complex_gaussian(rng, n_vec)
                z = z / np.linalg.norm(z)
                new_basis[:, c1] = z
                new_basis[:, c2] = vec_adjoint(z)

        for ia, ib in partition.conjugate_pairs:
            set_a = partition.complex_sets[ia]
            set_b = partition.complex_sets[ib]
            basis = bases[tuple(set_a)]
            n_vec = basis.vectors.shape[1]
            for c in set_a:
                z = basis.vectors @ _complex_gaussian(rng, n_vec)
                new_basis[:, c] = z / np.linalg.norm(z)
            for cb, ca in _match_conjugates(s.eigenvalues, set_a, set_b):
                new_basis[:, cb] = vec_adjoint(new_basis[:, ca])

        cond = np.linalg.cond(new_basis)
        if np.isfinite(cond) and cond < _CONDITION_LIMIT:
            return new_basis
    raise NumericalFailure(
        "failed to draw an invertible structured basis "
        f"after {_MAX_RESAMPLE} attempts"
    )


# ----------------------------------------------------------------------
# Simple-spectrum repair for degenerate inputs
# ----------------------------------------------------------------------

def _is_simple(m: np.ndarray) -> bool:
    try:
        eig_full(m)
    except DegenerateSpectrum:
        return False
    return True


def _probe_matrix(n: int, scale: float) -> np.ndarray:
    """A fixed diagonal hermiticity-preserving matrix with simple spectrum.

    Entry (j,k) pairs with entry (k,j) by conjugation, so the matrix maps
    hermitian operators to hermitian operators, while all diagonal values
    stay pairwise distinct.
    """
    d = linalg.side_dim(n)
    diag = np.zeros(n, dtype=complex)
    for j in range(d):
        diag[j * d + j] = 1.0 + j
        for k in range(j + 1, d):
            value = (j * d + k + 1) * (1.0 + 1.0j)
            diag[j * d + k] = value
            diag[k * d + j] = np.conj(value)
    probe = np.diag(diag)
    return probe * (scale / frobenius(probe))


def perturb_to_nd2(m: np.ndarray, budget: float) -> np.ndarray:
    """Nudge a matrix with degenerate spectrum onto a simple-spectrum
    neighbor within ``budget`` in Frobenius norm.

    Mixes toward a fixed diagonal probe that preserves hermiticity, so a
    hermiticity-preserving input stays hermiticity-preserving exactly.
    The mixing weight is halved until the spectrum is simple; only
    finitely many weights can fail, so this terminates (capped at
    {cap} halvings).  An already simple input is returned unchanged.
    """.format(cap=_ND2_HALVING_CAP)
    if budget <= 0:
        raise OutOfRange(f"perturbation budget must be positive, got {budget}")
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
    if _is_simple(m):
        return m
    probe = _probe_matrix(m.shape[0], max(1.0, frobenius(m)))
    delta = probe - m
    alpha = min(0.5, 0.999 * budget / frobenius(delta))
    for _ in range(_ND2_HALVING_CAP):
        candidate = (1.0 - alpha) * m + alpha * probe
        if _is_simple(candidate):
            return candidate
        alpha /= 2.0
    raise NumericalFailure(
        "could not reach a simple-spectrum neighbor within the budget"
    )


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------

def build_cluster_bases(
    s: SpectralData,
    partition: ClusterPartition,
    p: float,
    residual_tol: Optional[float],
):
    """Structured bases for every cluster; returns (bases, failed_sets)."""
    bases = {}
    failed = []
    for set_ in partition.positive_sets:
        basis = real_positive_basis(s, set_, p, residual_tol=residual_tol)
        bases[tuple(set_)] = basis
        if basis is None:
            failed.append(tuple(set_))
    for set_ in partition.negative_sets:
        if len(set_) % 2 != 0:
            # A negative eigenvalue's logarithm is complex, so the log's
            # hermiticity forces these columns into adjoint pairs — an
            # odd-size cluster cannot be paired up.
            bases[tuple(set_)] = None
            failed.append(tuple(set_))
            continue
        basis = conjugate_basis(s, set_, set_, residual_tol=residual_tol)
        bases[tuple(set_)] = basis
        if basis is None:
            failed.append(tuple(set_))
    paired = set()
    for ia, ib in partition.conjugate_pairs:
        paired.update((ia, ib))
        set_a = partition.complex_sets[ia]
        set_b = partition.complex_sets[ib]
        basis = conjugate_basis(s, set_a, set_b, residual_tol=residual_tol)
        bases[tuple(set_a)] = basis
        if basis is None:
            failed.append(tuple(set_a))
    for i, set_ in enumerate(partition.complex_sets):
        if i not in paired:
            failed.append(tuple(set_))
    return bases, failed


def repaired_samples(
    m: np.ndarray, p: float, epsilon: float, cfg: RandomBasisConfig
) -> tuple[str, Iterator[tuple[int, np.ndarray]]]:
    """The repair pipeline: its kind and a lazy stream of (sample id, matrix).

    Nudges a degenerate input onto a simple spectrum (`perturb_to_nd2`),
    detects clusters at precision ``p`` and builds every cluster's
    structured basis.  The kind is then:

    * IDENTITY: the whole spectrum is one positive cluster and the input
      lies within ``epsilon`` of the identity, so the data is consistent
      with the identity map; the stream is empty.  A single positive
      cluster away from the identity is repaired like any other.
    * PASSTHROUGH: no clusters, or some cluster admits no usable
      structured basis; the stream holds the (nudged) input as sample 0.
    * SAMPLES: the stream yields ``cfg.samples`` repaired matrices
      R = S diag(lambda) S^-1, each with the snapshot's spectrum, computed
      one at a time so large sample counts run in constant memory.
      Sample k draws from the stream keyed by (cfg.seed, k), so it does
      not depend on how many samples are taken.

    ``epsilon`` scales the tolerance under which nearly compliant basis
    vectors are accepted; on shot-noise data the kernels are never exact,
    so this approximate mode is the one that actually fires.
    """
    m = perturb_to_nd2(np.asarray(m, dtype=complex), _ND2_BUDGET)
    s = eig_full(m)
    partition = detect_clusters(s, p)
    if not partition.has_clusters:
        return PASSTHROUGH, iter([(0, m)])
    if partition.consistent_with_identity and frobenius(m - np.eye(len(m))) < epsilon:
        return IDENTITY, iter(())
    bases, failed = build_cluster_bases(s, partition, p, max(1e-8, float(epsilon)))
    if failed:
        return PASSTHROUGH, iter([(0, m)])

    def generate() -> Iterator[tuple[int, np.ndarray]]:
        for k in range(cfg.samples):
            basis = random_hp_basis(s, partition, bases, cfg, k)
            yield k, (basis * s.eigenvalues) @ np.linalg.inv(basis)

    return SAMPLES, generate()
