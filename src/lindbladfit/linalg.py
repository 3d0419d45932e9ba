"""Dense complex linear-algebra primitives.

Everything else in the package is built on the operations in this module:
eigendecomposition with biorthogonal left/right vectors, the principal matrix
logarithm and its integer branches, the Gamma-involution between transfer and
Choi-like representations, the flip (tensor-factor swap) operator, the adjoint
on vectorized operators, partial trace over the first factor, and norms.

Vectorization convention (used everywhere in the package): row stacking,
``v[(j, k)] = <e_j|V|e_k>``, so conjugation by a unitary U has transfer matrix
``kron(U, U.conj())`` and ``vec(A @ rho @ B) = kron(A, B.T) @ vec(rho)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NotHermitian,
    NotPerfectSquareDim,
    NumericalFailure,
    SingularInput,
)

__all__ = [
    "SpectralData",
    "MaxEntangled",
    "eig_full",
    "matrix_log_principal",
    "branch",
    "gamma_involution",
    "vec_adjoint",
    "flip_matrix",
    "partial_trace_first",
    "herm",
    "skew",
    "frobenius",
    "one_norm",
    "min_eig_hermitian_part",
    "expm",
    "max_entangled",
    "side_dim",
]

TWO_PI_I = 2j * np.pi


def side_dim(n: int) -> int:
    """Return d for n = d**2, raising if n is not a perfect square."""
    d = math.isqrt(n)
    if d * d != n:
        raise NotPerfectSquareDim(f"dimension {n} is not a perfect square")
    return d


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


# ----------------------------------------------------------------------
# Eigendecomposition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a matrix with simple spectrum.

    eigenvalues : (n,) complex, in canonical order (real part descending,
        then imaginary part descending).
    right_vectors : (n, n), column j is the unit-norm right eigenvector r_j
        with its largest-magnitude component rotated to the positive real
        axis (deterministic phase).
    left_vectors : (n, n), row j is the left eigenvector l_j, taken from the
        inverse of the right-vector matrix so that <l_j|r_k> = delta_jk holds
        by construction (up to inversion error).
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def projector(self, j: int) -> np.ndarray:
        """Spectral projector P_j = |r_j><l_j| (idempotent, rank one)."""
        return np.outer(self.right_vectors[:, j], self.left_vectors[j, :])

    @property
    def projectors(self) -> np.ndarray:
        """All spectral projectors, shape (n, n, n)."""
        return np.einsum(
            "ij,jk->jik", self.right_vectors, self.left_vectors
        )

    def reconstruct(self) -> np.ndarray:
        """Sum_j lambda_j P_j, which should reproduce the source matrix."""
        return (self.right_vectors * self.eigenvalues) @ self.left_vectors

    def validate(self, biorth_tol: float = 1e-10, complete_tol: float = 1e-8) -> None:
        """Check biorthogonality and completeness, raising NumericalFailure."""
        gram = self.left_vectors @ self.right_vectors
        eye = np.eye(self.dim)
        if np.max(np.abs(gram - eye)) > biorth_tol:
            raise NumericalFailure("left/right eigenvectors are not biorthogonal")
        if np.max(np.abs(self.projectors.sum(axis=0) - eye)) > complete_tol:
            raise NumericalFailure("spectral projectors do not sum to identity")


def _canonical_order(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices sorting eigenvalues by real part desc, then imag part desc."""
    return np.lexsort((-eigenvalues.imag, -eigenvalues.real))


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Normalize columns and rotate the largest component to be real positive."""
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    anchors = np.take_along_axis(
        vectors, np.argmax(np.abs(vectors), axis=0)[None, :], axis=0
    )[0]
    phases = anchors / np.abs(anchors)
    return vectors / phases[None, :]


def eig_full(m: np.ndarray, gap_tol: float = 1e-12) -> SpectralData:
    """Full eigendecomposition of a matrix with simple spectrum.

    Raises DegenerateSpectrum when two eigenvalues are closer than
    ``gap_tol`` relative to the spectral scale; such matrices must go
    through the cluster pre-processing instead of this routine.
    """
    m = _as_square(m)
    try:
        eigenvalues, right = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailure("eigendecomposition did not converge") from exc

    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    gaps = np.abs(eigenvalues[:, None] - eigenvalues[None, :])
    np.fill_diagonal(gaps, np.inf)
    if np.min(gaps) < gap_tol * scale:
        raise DegenerateSpectrum(
            f"eigenvalue gap {np.min(gaps):.3e} below threshold "
            f"{gap_tol * scale:.3e}; route through pre-processing"
        )

    order = _canonical_order(eigenvalues)
    right = _fix_phases(right[:, order])
    try:
        left = np.linalg.inv(right)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure("eigenvector matrix is singular") from exc
    return SpectralData(eigenvalues[order], right, left)


# ----------------------------------------------------------------------
# Matrix logarithm and its branches
# ----------------------------------------------------------------------

def matrix_log_principal(s: SpectralData, zero_tol: float = 1e-14) -> np.ndarray:
    """Principal-branch logarithm L0 = sum_j log(lambda_j) P_j.

    ``log`` is the principal complex logarithm, imaginary part in (-pi, pi].
    numpy places the branch cut so that negative reals map to +i*pi, which
    is exactly the (-pi, pi] convention.
    """
    if np.min(np.abs(s.eigenvalues)) <= zero_tol:
        raise SingularInput("zero eigenvalue: matrix logarithm undefined")
    return (s.right_vectors * np.log(s.eigenvalues)) @ s.left_vectors


def branch(l0: np.ndarray, s: SpectralData, m: np.ndarray) -> np.ndarray:
    """m-branch of the logarithm: L_m = L0 + 2*pi*i * sum_j m_j P_j."""
    m = np.asarray(m)
    if m.shape != (s.dim,):
        raise DimensionMismatch(
            f"branch vector has shape {m.shape}, expected ({s.dim},)"
        )
    if not np.any(m):
        return l0
    shift = (s.right_vectors * (TWO_PI_I * m)) @ s.left_vectors
    return l0 + shift


# ----------------------------------------------------------------------
# Involutions and the flip operator
# ----------------------------------------------------------------------

def gamma_involution(a: np.ndarray) -> np.ndarray:
    """Index swap between transfer-matrix and Choi-like representations.

    tau[(j, l), (k, m)] = A[(j, k), (l, m)].  A pure entry permutation, so
    applying it twice returns the input bit-exactly, and a map is
    hermiticity-preserving iff its image under this involution is hermitian.
    Accepts a single matrix or a stack (..., d^2, d^2).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim == 2:
        a = _as_square(a)
    elif a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"stack of non-square matrices: {a.shape}")
    d = side_dim(a.shape[-1])
    lead = a.shape[:-2]
    swapped = a.reshape(*lead, d, d, d, d).swapaxes(-3, -2)
    return swapped.reshape(*lead, d * d, d * d)


def flip_matrix(d: int) -> np.ndarray:
    """Tensor-factor swap F on C^d (x) C^d: F|j,k> = |k,j>."""
    f = np.zeros((d * d, d * d))
    for j in range(d):
        for k in range(d):
            f[k * d + j, j * d + k] = 1.0
    return f


def vec_adjoint(v: np.ndarray) -> np.ndarray:
    """Adjoint on vectorized operators: |v^dag> = F|v*>.

    In row-stacking terms this is conjugate-transpose of the d x d matrix
    that v vectorizes.  An involution.
    """
    v = np.asarray(v, dtype=complex)
    d = side_dim(v.shape[-1])
    return np.conj(v).reshape(*v.shape[:-1], d, d).swapaxes(-1, -2).reshape(v.shape)


def partial_trace_first(x: np.ndarray) -> np.ndarray:
    """Trace over the first tensor factor: out[..., c, r] = sum_j x[..., (j,c), (j,r)].

    Leading axes are batch axes.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {x.shape}")
    d = side_dim(x.shape[-1])
    return np.einsum("...jcjr->...cr", x.reshape(x.shape[:-2] + (d, d, d, d)))


# ----------------------------------------------------------------------
# Norms and small helpers
# ----------------------------------------------------------------------

def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^H) / 2."""
    a = np.asarray(a)
    # halved by multiplying: numpy divides a complex array by a complex 2,
    # which takes twice as long; both are exact
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def skew(a: np.ndarray) -> np.ndarray:
    """Anti-hermitian part (A - A^H) / 2."""
    return (a - np.conj(np.swapaxes(a, -1, -2))) / 2


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def one_norm(a: np.ndarray) -> float:
    """Entrywise one-norm sum_jk |a_jk| (not the induced operator norm)."""
    return float(np.sum(np.abs(a)))


def min_eig_hermitian_part(a: np.ndarray, herm_tol: float = 1e-10) -> float:
    """Smallest eigenvalue of a hermitian matrix.

    Raises NotHermitian when the anti-hermitian part is larger than
    ``herm_tol`` relative to the matrix scale.
    """
    a = _as_square(a)
    defect = float(np.linalg.norm(a - a.conj().T))
    if defect > herm_tol * max(1.0, float(np.linalg.norm(a))):
        raise NotHermitian(f"anti-hermitian defect {defect:.3e} exceeds tolerance")
    return float(np.linalg.eigvalsh(a)[0])


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade approximants)."""
    return scipy.linalg.expm(np.asarray(a, dtype=complex))


# ----------------------------------------------------------------------
# Maximally entangled reference vector
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MaxEntangled:
    """The normalized vector omega = (1/sqrt d) sum_j |j,j> and companions.

    omega_perp is the orthogonal projector onto the complement of omega;
    it is the compression appearing in the conditional-positivity test of
    Lindblad generators.
    """

    d: int
    omega: np.ndarray
    omega_perp: np.ndarray

    @property
    def dim(self) -> int:
        return self.d * self.d


def max_entangled(d: int) -> MaxEntangled:
    omega = np.zeros(d * d, dtype=complex)
    omega[:: d + 1] = 1.0 / np.sqrt(d)
    perp = np.eye(d * d, dtype=complex) - np.outer(omega, omega.conj())
    return MaxEntangled(d, omega, perp)
