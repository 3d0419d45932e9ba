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
2. inside each cluster, solve for the vectors whose adjoints lie in the
   partner cluster's span, once per snapshot (`cluster_kernels`); how far
   the solutions are from exact, the largest kernel residual
   (`kernel_residual`), is all the pipeline choice reads (`Repair.kind`);
3. only when a sample is drawn, rebuild from those solutions a basis per
   cluster whose columns are self-adjoint or come in adjoint pairs
   (`real_positive_basis`, `conjugate_basis`), and lay those pools out
   once per snapshot as the draw plan (`build_cluster_bases`): one step
   (pool, c1, c2) per drawn column, either a real slot c1 or a pair whose
   column c2 is the adjoint of c1;
4. walk the plan once per sample, drawing random mixtures of each pool,
   to get one invertible basis per sample (`random_hp_basis`), and
   reassemble ``R = S diag(lambda) S^-1`` carrying the snapshot's exact
   spectrum but the repaired eigenbasis, one sample at a time
   (`Repair.sample`).

`Repair` holds all of it for one snapshot and precision, each part
computed once and only when first read; the acceptance radius epsilon only
picks its pipeline (`Repair.kind`).

Inputs whose spectrum is outright degenerate are first nudged onto a
nearby matrix with simple spectrum by `perturb_to_nd2`.  A snapshot with
one lone real negative eigenvalue also gets a mirror, with that eigenvalue
replaced by its modulus (`mirrored_negative`), as a candidate of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NumericalFailure,
    OutOfRange,
)
from . import linalg
from .linalg import SpectralData, eig_full, frobenius, vec_adjoint

__all__ = [
    "ClusterPartition",
    "detect_clusters",
    "conjugate_basis",
    "real_positive_basis",
    "random_hp_basis",
    "cluster_kernels",
    "kernel_residual",
    "perturb_to_nd2",
    "Repair",
    "mirrored_negative",
    "DEFAULT_PRECISION",
    "IDENTITY",
    "PASSTHROUGH",
    "SAMPLES",
]

DEFAULT_PRECISION = 0.1

IDENTITY = "identity"
PASSTHROUGH = "passthrough"
SAMPLES = "samples"

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


def _components(adjacency: np.ndarray) -> list:
    """Connected components of at least two members of a boolean adjacency
    matrix (read as undirected), as sorted tuples, by one depth-first
    search over its rows."""
    rows = (adjacency | adjacency.T).tolist()
    seen = [False] * len(rows)
    found = []
    for start in range(len(rows)):
        if seen[start]:
            continue
        seen[start] = True
        members, frontier = [start], [start]
        while frontier:
            for j, edge in enumerate(rows[frontier.pop()]):
                if edge and not seen[j]:
                    seen[j] = True
                    members.append(j)
                    frontier.append(j)
        if len(members) >= 2:
            found.append(tuple(sorted(members)))
    return sorted(found)


# The class of an eigenvalue in `_cluster_sets`: only eigenvalues of one
# class cluster together, and an eigenvalue of neither (|Im| exactly p, or
# real part 0 within p of the real axis) clusters with none.
_NONE, _POSITIVE, _NEGATIVE, _COMPLEX = -1, 0, 1, 2


def _cluster_sets(eigenvalues: np.ndarray, p: float):
    """Raw clustering on an eigenvalue vector; order of the vector defines
    the index space, so the result is a pure function of (values, p).

    Each eigenvalue gets its class once; the adjacency ``close & same
    class`` is block-diagonal across classes, so one component search
    yields the positive, negative and complex partitions."""
    lam = np.asarray(eigenvalues, dtype=complex)
    close = np.abs(lam[:, None] - lam[None, :]) < p
    realish = np.abs(lam.imag) < p
    classes = np.where(np.abs(lam.imag) > p, _COMPLEX, _NONE)
    classes[realish & (lam.real > 0)] = _POSITIVE
    classes[realish & (lam.real < 0)] = _NEGATIVE
    adjacency = close & (classes[:, None] == classes) & (classes >= 0)[:, None]
    sets = {_POSITIVE: [], _NEGATIVE: [], _COMPLEX: []}
    for members in _components(adjacency):
        sets[int(classes[members[0]])].append(members)

    # Identity consistency: every unordered pair passes the positive-pair
    # checklist, i.e. the whole spectrum is one mutually close positive set.
    positive_pairs = adjacency & (classes == _POSITIVE)[:, None]
    identity = bool((positive_pairs | np.eye(lam.size, dtype=bool)).all())
    return sets[_POSITIVE], sets[_NEGATIVE], sets[_COMPLEX], identity


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

def _adjoint_columns(w: np.ndarray) -> np.ndarray:
    """vec-adjoint applied column-wise: column j becomes F|w_j*>."""
    return vec_adjoint(w.T).T


def _cluster_kernel(s: SpectralData, set_a, set_b):
    """Solutions of sum_j conj(alpha_j) F|w_j*> = sum_j beta_j |u_j>.

    ``w`` spans the cluster ``set_a`` and ``u`` its partner ``set_b``.
    Returns (w, x, residual): the n = |set_a| unit vectors x =
    (conj(alpha), beta), as rows, that minimize the residual, and the
    largest of their residuals.
    """
    w = s.right_vectors[:, sorted(set_a)]
    n = w.shape[1]
    a = np.concatenate([_adjoint_columns(w), -s.right_vectors[:, sorted(set_b)]], axis=1)
    _, sv, vh = np.linalg.svd(a)
    resid = np.zeros(2 * n)
    resid[: sv.size] = sv
    return w, np.conj(vh[n:, :]), float(resid[n:].max())


def _independent(columns: np.ndarray, tol: float = 1e-6) -> bool:
    sv = np.linalg.svd(columns, compute_uv=False)
    return bool(sv.size and sv[-1] > tol * max(1.0, sv[0]))


def conjugate_basis(
    s: SpectralData,
    set_a: Sequence[int],
    set_b: Sequence[int],
    kernel: Optional[tuple] = None,
) -> Optional[tuple[np.ndarray, float]]:
    """Basis of adjoint pairs for a complex or negative-real cluster, with
    its largest kernel residual.

    Solves sum_j conj(alpha_j) F|w_j*> = sum_j beta_j |u_j> for vectors
    ``w`` spanning the cluster ``set_a`` and ``u`` spanning the conjugate
    cluster ``set_b`` (the same set for negative real eigenvalues): each
    solution yields a unit column v = sum_j alpha_j w_j whose adjoint lies
    in the partner span.  The solutions are the smallest singular
    directions; the residual says how far they are from exact, and the
    caller decides whether it is small enough (`Repair.kind`).  ``kernel``
    is that solve when the caller already made it (`cluster_kernels`).
    Returns None when the columns vanish or are dependent.
    """
    if len(set_a) != len(set_b):
        raise DimensionMismatch(
            f"cluster sizes differ: {len(set_a)} vs {len(set_b)}"
        )
    w, solutions, residual = kernel or _cluster_kernel(s, set_a, set_b)
    n = w.shape[1]
    vectors = np.empty((s.dim, n), dtype=complex)
    for i, x in enumerate(solutions):
        v = w @ np.conj(x[:n])
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            return None
        vectors[:, i] = v / norm
    return (vectors, residual) if _independent(vectors) else None


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
    kernel: Optional[tuple] = None,
) -> Optional[tuple[np.ndarray, float]]:
    """Self-adjoint and adjoint-pair columns for a positive-real cluster,
    with the largest kernel residual.

    Same kernel construction as `conjugate_basis` with the cluster as its
    own partner.  Each solution is classified as self-adjoint when its
    alpha and beta coefficients agree componentwise within ``p``; the
    rest count as pair vectors.  An odd number of pair vectors is
    repaired by promoting the one closest to self-adjointness, and every
    declared self-adjoint column is replaced by its exactly symmetrized
    part so the declared structure holds to machine precision.  ``kernel``
    is the kernel solve when the caller already made it.  Returns the unit
    columns, self-adjoint ones first, and the residual, or None.
    """
    if p <= 0:
        raise OutOfRange(f"precision must be positive, got {p}")
    w, solutions, residual = kernel or _cluster_kernel(s, set_a, set_a)
    n = w.shape[1]
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

    cols = []
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
            v = v / norm
        cols.append(v)
    pool = np.stack([cols[i] for i in np.argsort(~is_sa, kind="stable")], axis=1)
    return (pool, residual) if _independent(pool) else None


# ----------------------------------------------------------------------
# The draw plan and the random structured bases
# ----------------------------------------------------------------------

def _complex_gaussian(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


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


def cluster_kernels(s: SpectralData, partition: ClusterPartition) -> Optional[list]:
    """The `_cluster_kernel` solve of every cluster against its partner, in
    the order `build_cluster_bases` lays out its pools: each positive
    cluster and each negative cluster against itself, then each conjugate
    pair of complex clusters.  None when the clusters cannot be paired up
    (a complex cluster with no conjugate partner, a negative cluster of odd
    size).
    """
    if 2 * len(partition.conjugate_pairs) != len(partition.complex_sets):
        return None
    if any(len(set_) % 2 for set_ in partition.negative_sets):
        return None
    pairs = [(set_, set_) for set_ in partition.positive_sets + partition.negative_sets]
    pairs += [(partition.complex_sets[ia], partition.complex_sets[ib])
              for ia, ib in partition.conjugate_pairs]
    return [_cluster_kernel(s, set_a, set_b) for set_a, set_b in pairs]


def kernel_residual(s: SpectralData, partition: ClusterPartition,
                    kernels: Optional[list] = None) -> float:
    """The largest kernel residual of the partition's clusters, from the
    kernel solves `build_cluster_bases` uses, so bit for bit the residual
    it reports when every pool is built, without building one; inf when
    the clusters cannot be paired up.  ``kernels`` are those solves
    (`cluster_kernels`) when the caller already made them.
    """
    kernels = kernels or cluster_kernels(s, partition)
    if kernels is None:
        return np.inf
    return max([0.0] + [kernel[2] for kernel in kernels])


def build_cluster_bases(
    s: SpectralData,
    partition: ClusterPartition,
    p: float,
    kernels: Optional[list] = None,
) -> tuple[Optional[list], float]:
    """The draw plan, one step (pool, c1, c2) per drawn column in draw
    order, and the largest kernel residual of its pools.

    ``pool`` holds the cluster's structured columns.  A step with ``c2``
    None fills real slot ``c1`` with a self-adjoint draw; otherwise ``c1``
    gets the draw and ``c2`` its adjoint.  The order is: each positive
    cluster's real slots, then its conjugate pairs; each negative
    cluster's pairs, leftover real slots paired in order; for each
    conjugate pair of complex clusters, every column of the first cluster
    with its partner in the second.  The pools come from the kernel solves
    ``kernels`` (`cluster_kernels`), made here when the caller has none.
    Returns (None, inf) when some cluster has no structured basis (or no
    conjugate partner).
    """
    failed = None, np.inf
    kernels = kernels or cluster_kernels(s, partition)
    if kernels is None:
        return failed
    kernels = iter(kernels)
    lam = s.eigenvalues
    plan, residuals = [], [0.0]
    for set_ in partition.positive_sets:
        built = real_positive_basis(s, set_, p, next(kernels))
        if built is None:
            return failed
        pairs, singles = _conjugation_slots(lam, set_)
        plan += [(built[0], c, None) for c in singles] + [(built[0], *pair) for pair in pairs]
        residuals.append(built[1])
    for set_ in partition.negative_sets:
        # A negative eigenvalue's logarithm is complex, so the log's
        # hermiticity forces these columns into adjoint pairs — an
        # odd-size cluster cannot be paired up (`cluster_kernels`).
        built = conjugate_basis(s, set_, set_, next(kernels))
        if built is None:
            return failed
        pairs, singles = _conjugation_slots(lam, set_)
        pairs += zip(singles[::2], singles[1::2])
        plan += [(built[0], *pair) for pair in pairs]
        residuals.append(built[1])
    for ia, ib in partition.conjugate_pairs:
        set_a = partition.complex_sets[ia]
        set_b = partition.complex_sets[ib]
        built = conjugate_basis(s, set_a, set_b, next(kernels))
        if built is None:
            return failed
        # each column of set_b partners the remaining column of set_a
        # whose eigenvalue is closest to its conjugate
        remaining = list(set_a)
        partner = {}
        for cb in set_b:
            k = int(np.argmin(np.abs(lam[remaining] - np.conj(lam[cb]))))
            partner[remaining.pop(k)] = cb
        plan += [(built[0], c, partner[c]) for c in set_a]
        residuals.append(built[1])
    return plan, max(residuals)


def random_hp_basis(
    s: SpectralData,
    plan: list,
    seed: int,
    sample_index: int,
) -> np.ndarray:
    """One random basis drawn along the plan from `build_cluster_bases`.

    Columns outside every cluster keep the snapshot's eigenvectors.  Each
    step (pool, c1, c2) draws z, a complex Gaussian mixture of the pool's
    columns.  A real slot (c2 None) gets the symmetrized, exactly
    self-adjoint part of z; a pair gets z/||z|| in c1 and its bit-exact
    vec-adjoint in c2.  Where a cluster's eigenvalues are closed under
    conjugation (the real and conjugate-pair slots of a cluster, and
    conjugate complex clusters) this keeps the reassembled matrix
    hermiticity-preserving to machine precision.  A negative cluster's
    leftover real eigenvalues are paired anyway, so where they differ the
    matrix is hermiticity-preserving only to the cluster width.  Draws
    come from the stream keyed by (seed, sample_index); a vanishing
    symmetrized part or a badly conditioned basis redraws the whole basis
    on the same stream.
    """
    rng = np.random.default_rng((seed, sample_index))
    for _ in range(_MAX_RESAMPLE):
        basis = np.array(s.right_vectors, copy=True)
        for pool, c1, c2 in plan:
            z = pool @ _complex_gaussian(rng, pool.shape[1])
            if c2 is None:
                col = (z + vec_adjoint(z)) / 2.0
                norm = np.linalg.norm(col)
                if norm < 1e-6 * np.linalg.norm(z):
                    break
                basis[:, c1] = col / norm
            else:
                z = z / np.linalg.norm(z)
                basis[:, c1] = z
                basis[:, c2] = vec_adjoint(z)
        else:
            if np.isfinite(basis).all() and np.linalg.cond(basis) < _CONDITION_LIMIT:
                return basis
    raise NumericalFailure(
        "failed to draw an invertible structured basis "
        f"after {_MAX_RESAMPLE} attempts"
    )


# ----------------------------------------------------------------------
# Simple-spectrum repair for degenerate inputs
# ----------------------------------------------------------------------

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


def perturb_to_nd2(m: np.ndarray) -> tuple[np.ndarray, SpectralData]:
    """Nudge a matrix with degenerate spectrum onto a simple-spectrum
    neighbor within {budget:g} in Frobenius norm; returns the matrix kept
    and its `eig_full`.

    Mixes toward a fixed diagonal probe that preserves hermiticity, so a
    hermiticity-preserving input stays hermiticity-preserving exactly.
    The mixing weight is halved until the spectrum is simple; only
    finitely many weights can fail, so this terminates (capped at
    {cap} halvings).  An already simple input is returned unchanged.
    Each matrix tried is eigendecomposed once.
    """.format(budget=_ND2_BUDGET, cap=_ND2_HALVING_CAP)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
    try:
        return m, eig_full(m)
    except DegenerateSpectrum:
        pass
    probe = _probe_matrix(m.shape[0], max(1.0, frobenius(m)))
    delta = probe - m
    alpha = min(0.5, 0.999 * _ND2_BUDGET / frobenius(delta))
    for _ in range(_ND2_HALVING_CAP):
        candidate = (1.0 - alpha) * m + alpha * probe
        try:
            return candidate, eig_full(candidate)
        except DegenerateSpectrum:
            alpha /= 2.0
    raise NumericalFailure(
        "could not reach a simple-spectrum neighbor within the budget"
    )


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------

def mirrored_negative(s: SpectralData, p: float) -> Optional[np.ndarray]:
    """S diag(lambda') S^-1, where lambda' is the spectrum with its one real
    negative eigenvalue replaced by |lambda|; None unless exactly one
    eigenvalue is real (imaginary part below ``p``, as in `detect_clusters`)
    and negative.

    A lone negative real has no real logarithm, so no branch of the
    snapshot's own logarithm is hermiticity-preserving; the mirror has
    one.  In a hermiticity-preserving snapshot the partner of a complex
    eigenvalue is its conjugate, with the same real part, so a lone
    negative within ``p`` of the real axis is real.
    """
    lam = s.eigenvalues.copy()
    lone = np.flatnonzero((np.abs(lam.imag) < p) & (lam.real < 0))
    if lone.size != 1:
        return None
    lam[lone] = np.abs(lam[lone])
    return (s.right_vectors * lam) @ s.left_vectors


class Repair:
    """The repair of one snapshot at cluster precision ``p``, computed once;
    epsilon only picks its pipeline (`kind`).

    ``snapshot`` and ``spectral`` come from `perturb_to_nd2` (the fit stage
    reuses that spectral data for the snapshot's own log audit),
    ``partition`` from `detect_clusters` and ``mirrored`` from
    `mirrored_negative`.  The rest is built on first use: ``kernels``
    (`cluster_kernels`) and ``residual`` (`kernel_residual`) at the first
    `kind` that gets past the cluster and identity tests, and ``plan``
    (`build_cluster_bases`, from those same kernels) at the first `sample`.
    So an Identity verdict and a snapshot with no clusters build none of
    them, a verdict that draws no sample builds no plan, and each cluster
    kernel is solved once.

    The pools can still fail after the residual passes, on a column below
    1e-8 or a dependent pool; ``plan`` is then None and nothing can be
    drawn.  A verdict that would draw is then the passthrough verdict and
    says so (`decide.decide`), while one that never draws reads SAMPLES:
    only the pipeline name tells the two apart.  No snapshot of the
    benchmark panels has such pools.
    """

    def __init__(self, m: np.ndarray, p: float) -> None:
        self.snapshot, self.spectral = perturb_to_nd2(m)
        self.precision = p
        self.partition = detect_clusters(self.spectral, p)
        self.mirrored = mirrored_negative(self.spectral, p)

    @cached_property
    def kernels(self) -> Optional[list]:
        return cluster_kernels(self.spectral, self.partition)

    @cached_property
    def residual(self) -> float:
        return kernel_residual(self.spectral, self.partition, self.kernels)

    @cached_property
    def plan(self) -> Optional[list]:
        return build_cluster_bases(self.spectral, self.partition, self.precision,
                                   self.kernels)[0]

    def kind(self, epsilon: float) -> str:
        """The pipeline at acceptance radius ``epsilon``:

        * IDENTITY: the whole spectrum is one positive cluster and the
          snapshot lies within ``epsilon`` of the identity, so the data is
          consistent with the identity map.  A single positive cluster
          away from the identity is repaired like any other.
        * SAMPLES: every cluster has a conjugate partner (a negative one
          is its own, of even size) and the largest kernel residual is
          below max(1e-8, ``epsilon``), so nearly compliant basis vectors
          count.
        * PASSTHROUGH: no clusters, a cluster with no partner, or a
          residual at or above that tolerance.

        The tolerance decides only for a snapshot that is not exactly
        hermiticity-preserving, or for clusters that split a conjugate
        pair: on shot-noise tomography the kernels are exact (the 20
        clustered matrices of the benchmark panel have residuals of at
        most 1.9e-15).
        """
        m = self.snapshot
        if not self.partition.has_clusters:
            return PASSTHROUGH
        if self.partition.consistent_with_identity and frobenius(m - np.eye(len(m))) < epsilon:
            return IDENTITY
        return SAMPLES if self.residual < max(1e-8, float(epsilon)) else PASSTHROUGH

    def sample(self, seed: int, k: int) -> np.ndarray:
        """Repaired sample k, R = S diag(lambda) S^-1 with the snapshot's
        spectrum and a basis from `random_hp_basis`; needs a ``plan``.  It
        draws from the stream keyed by (``seed``, k), so it does not depend
        on how many samples are taken."""
        basis = random_hp_basis(self.spectral, self.plan, seed, k)
        return (basis * self.spectral.eigenvalues) @ np.linalg.inv(basis)
