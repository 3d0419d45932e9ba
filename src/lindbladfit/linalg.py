"""Dense complex linear-algebra primitives.

Everything else in the package is built on the operations in this module:
eigendecomposition with biorthogonal left/right vectors, the principal matrix
logarithm and its integer branches, the Gamma-involution between transfer and
Choi-like representations, the flip (tensor-factor swap) operator, the adjoint
on vectorized operators, partial trace over the first factor, norms, and
the matrix exponential.

Vectorization convention (used everywhere in the package): row stacking,
``v[(j, k)] = <e_j|V|e_k>``, so conjugation by a unitary U has transfer matrix
``kron(U, U.conj())`` and ``vec(A @ rho @ B) = kron(A, B.T) @ vec(rho)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
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
    "frobenius",
    "one_norm",
    "expm",
    "max_entangled",
    "side_dim",
]

TWO_PI_I = 2j * np.pi

#: Relative eigenvalue gap below which `eig_full` calls a spectrum degenerate.
_GAP_TOL = 1e-12
#: `matrix_log_principal` refuses an eigenvalue of at most this modulus.
_ZERO_TOL = 1e-14


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

    @property
    def projectors(self) -> np.ndarray:
        """All spectral projectors, shape (n, n, n)."""
        return np.einsum(
            "ij,jk->jik", self.right_vectors, self.left_vectors
        )


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


def eig_full(m: np.ndarray) -> SpectralData:
    """Full eigendecomposition of a matrix with simple spectrum.

    Raises DegenerateSpectrum when two eigenvalues are closer than
    ``_GAP_TOL`` relative to the spectral scale; such matrices must go
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
    if np.min(gaps) < _GAP_TOL * scale:
        raise DegenerateSpectrum(
            f"eigenvalue gap {np.min(gaps):.3e} below threshold "
            f"{_GAP_TOL * scale:.3e}; route through pre-processing"
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

def matrix_log_principal(s: SpectralData) -> np.ndarray:
    """Principal-branch logarithm L0 = sum_j log(lambda_j) P_j.

    ``log`` is the principal complex logarithm, imaginary part in (-pi, pi].
    numpy places the branch cut so that negative reals map to +i*pi, which
    is exactly the (-pi, pi] convention.
    """
    if np.min(np.abs(s.eigenvalues)) <= _ZERO_TOL:
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


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def one_norm(a: np.ndarray) -> float:
    """Entrywise one-norm sum_jk |a_jk| (not the induced operator norm)."""
    return float(np.sum(np.abs(a)))


#: Coefficients b_0 .. b_13 of the [13/13] Pade approximant to exp and the
#: 1-norm up to which it meets double precision unscaled (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a matrix or a stack (..., n, n).

    Scaling and squaring with the [13/13] Pade approximant, after N. J.
    Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193.  With U
    and V the odd and even parts of its numerator, r(X) = (V - U)^-1 (V + U),
    taken here as I + 2 (V - U)^-1 U so that exp(0) is exactly I.  Leading
    axes are batch axes, and each matrix gets its own scaling
    s = max(0, ceil(log2(||A||_1 / theta_13))), so exp(A) = r(A / 2^s)^(2^s)
    whatever its neighbours' norms.  The approximant takes six matrix
    products and one linear solve for the whole stack; the squarings then
    touch only the matrices whose s is not yet spent.  A matrix with a NaN
    or infinite entry maps to all NaN, without a warning.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    n = a.shape[-1]
    x = a.reshape(-1, n, n)
    # induced 1-norm (largest column sum); NaN or inf exactly when an entry is
    norm = np.abs(x).sum(axis=1).max(axis=1)
    finite = np.isfinite(norm)
    # ceil(log2(norm / theta)) without a float-to-int cast, which warns on
    # NaN: norm / theta = f * 2^e with f in [0.5, 1), so it is e, less one
    # when f is exactly 1/2 (and e is 0 for NaN and inf)
    f, e = np.frexp(norm / _THETA13)
    s = np.maximum(e - (f == 0.5), 0)
    # a non-finite matrix is zeroed here (inf * 0 in a product would warn)
    # and set to NaN at the end
    x = np.where(finite[:, None, None], x, 0.0) * np.ldexp(1.0, -s)[:, None, None]

    b = _PADE13
    eye = np.eye(n)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (
        x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
        + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye
    )
    v = (
        x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
        + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    )
    r = eye + np.linalg.solve(v - u, 2.0 * u)
    for k in range(int(s.max(initial=0))):
        live = np.flatnonzero(s > k)
        r[live] = r[live] @ r[live]
    r[~finite] = np.nan
    return r.reshape(a.shape)


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


@functools.lru_cache(maxsize=None)
def max_entangled(d: int) -> MaxEntangled:
    """The `MaxEntangled` of side dimension ``d``, built once per ``d``; its
    arrays are shared by every caller, so they are read-only."""
    omega = np.zeros(d * d, dtype=complex)
    omega[:: d + 1] = 1.0 / np.sqrt(d)
    perp = np.eye(d * d, dtype=complex) - np.outer(omega, omega.conj())
    for a in (omega, perp):
        a.flags.writeable = False
    return MaxEntangled(d, omega, perp)
