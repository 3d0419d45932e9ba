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
   or come in adjoint pairs (`real_positive_basis`, `conjugate_basis`),
   and lay those pools out once per snapshot as the draw plan
   (`build_cluster_bases`): one step (pool, c1, c2) per drawn column,
   either a real slot c1 or a pair whose column c2 is the adjoint of c1;
3. walk the plan once per sample, drawing random mixtures of each pool,
   to get one invertible basis per sample (`random_hp_basis`);
4. reassemble ``R = S diag(lambda) S^-1`` carrying the snapshot's exact
   spectrum but the repaired eigenbasis, one sample at a time
   (`Repair.sample`).

`Repair` holds all of it for one snapshot and precision, computed once;
the acceptance radius epsilon only picks its pipeline (`Repair.kind`).

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
    matrix (read as undirected), as sorted tuples.

    Each squaring of the reachability matrix doubles the path length it
    covers, so a fixpoint comes within log2(n) + 1 squarings; a row of it
    is then its node's component.
    """
    reach = adjacency | adjacency.T | np.eye(len(adjacency), dtype=bool)
    while True:
        wider = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    members = {tuple(int(i) for i in np.flatnonzero(row)) for row in reach}
    return sorted(m for m in members if len(m) >= 2)


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
) -> Optional[tuple[np.ndarray, float]]:
    """Basis of adjoint pairs for a complex or negative-real cluster, with
    its largest kernel residual.

    Solves sum_j conj(alpha_j) F|w_j*> = sum_j beta_j |u_j> for vectors
    ``w`` spanning the cluster ``set_a`` and ``u`` spanning the conjugate
    cluster ``set_b`` (the same set for negative real eigenvalues): each
    solution yields a unit column v = sum_j alpha_j w_j whose adjoint lies
    in the partner span.  The solutions are the smallest singular
    directions; the residual says how far they are from exact, and the
    caller decides whether it is small enough (`Repair.kind`).  Returns
    None when the columns vanish or are dependent.
    """
    if len(set_a) != len(set_b):
        raise DimensionMismatch(
            f"cluster sizes differ: {len(set_a)} vs {len(set_b)}"
        )
    w, solutions, residual = _cluster_kernel(s, set_a, set_b)
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
) -> Optional[tuple[np.ndarray, float]]:
    """Self-adjoint and adjoint-pair columns for a positive-real cluster,
    with the largest kernel residual.

    Same kernel construction as `conjugate_basis` with the cluster as its
    own partner.  Each solution is classified as self-adjoint when its
    alpha and beta coefficients agree componentwise within ``p``; the
    rest count as pair vectors.  An odd number of pair vectors is
    repaired by promoting the one closest to self-adjointness, and every
    declared self-adjoint column is replaced by its exactly symmetrized
    part so the declared structure holds to machine precision.  Returns
    the unit columns, self-adjoint ones first, and the residual, or None.
    """
    if p <= 0:
        raise OutOfRange(f"precision must be positive, got {p}")
    w, solutions, residual = _cluster_kernel(s, set_a, set_a)
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


def build_cluster_bases(
    s: SpectralData,
    partition: ClusterPartition,
    p: float,
) -> tuple[Optional[list], float]:
    """The draw plan, one step (pool, c1, c2) per drawn column in draw
    order, and the largest kernel residual of its pools.

    ``pool`` holds the cluster's structured columns.  A step with ``c2``
    None fills real slot ``c1`` with a self-adjoint draw; otherwise ``c1``
    gets the draw and ``c2`` its adjoint.  The order is: each positive
    cluster's real slots, then its conjugate pairs; each negative
    cluster's pairs, leftover real slots paired in order; for each
    conjugate pair of complex clusters, every column of the first cluster
    with its partner in the second.  Returns (None, inf) when some cluster
    has no structured basis (or no conjugate partner).
    """
    failed = None, np.inf
    if 2 * len(partition.conjugate_pairs) != len(partition.complex_sets):
        return failed
    lam = s.eigenvalues
    plan, residuals = [], [0.0]
    for set_ in partition.positive_sets:
        built = real_positive_basis(s, set_, p)
        if built is None:
            return failed
        pairs, singles = _conjugation_slots(lam, set_)
        plan += [(built[0], c, None) for c in singles] + [(built[0], *pair) for pair in pairs]
        residuals.append(built[1])
    for set_ in partition.negative_sets:
        # A negative eigenvalue's logarithm is complex, so the log's
        # hermiticity forces these columns into adjoint pairs — an
        # odd-size cluster cannot be paired up.
        built = conjugate_basis(s, set_, set_) if len(set_) % 2 == 0 else None
        if built is None:
            return failed
        pairs, singles = _conjugation_slots(lam, set_)
        pairs += zip(singles[::2], singles[1::2])
        plan += [(built[0], *pair) for pair in pairs]
        residuals.append(built[1])
    for ia, ib in partition.conjugate_pairs:
        set_a = partition.complex_sets[ia]
        set_b = partition.complex_sets[ib]
        built = conjugate_basis(s, set_a, set_b)
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
    `mirrored_negative`.  The draw plan (`build_cluster_bases`) is built on
    first use: an Identity verdict and a snapshot with no clusters build
    none.
    """

    def __init__(self, m: np.ndarray, p: float) -> None:
        self.snapshot, self.spectral = perturb_to_nd2(m)
        self.precision = p
        self.partition = detect_clusters(self.spectral, p)
        self.mirrored = mirrored_negative(self.spectral, p)

    @cached_property
    def _plan(self) -> tuple[Optional[list], float]:
        return build_cluster_bases(self.spectral, self.partition, self.precision)

    def kind(self, epsilon: float) -> str:
        """The pipeline at acceptance radius ``epsilon``:

        * IDENTITY: the whole spectrum is one positive cluster and the
          snapshot lies within ``epsilon`` of the identity, so the data is
          consistent with the identity map.  A single positive cluster
          away from the identity is repaired like any other.
        * SAMPLES: every cluster has a structured basis and the largest
          kernel residual of the plan is below max(1e-8, ``epsilon``), so
          nearly compliant basis vectors count.
        * PASSTHROUGH: no clusters, a cluster with no structured basis,
          or a residual at or above that tolerance.

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
        return SAMPLES if self._plan[1] < max(1e-8, float(epsilon)) else PASSTHROUGH

    def sample(self, seed: int, k: int) -> np.ndarray:
        """Repaired sample k, R = S diag(lambda) S^-1 with the snapshot's
        spectrum and a basis from `random_hp_basis`.  It draws from the
        stream keyed by (``seed``, k), so it does not depend on how many
        samples are taken."""
        basis = random_hp_basis(self.spectral, self._plan[0], seed, k)
        return (basis * self.spectral.eigenvalues) @ np.linalg.inv(basis)
