"""Error taxonomy shared across the package.

Every failure mode that callers are expected to route on gets its own class;
everything derives from LindbladFitError so `except LindbladFitError` catches
all library-level failures without swallowing programming errors.
"""

from __future__ import annotations


class LindbladFitError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(LindbladFitError):
    """Operands have incompatible shapes."""


class NotPerfectSquareDim(LindbladFitError):
    """A superoperator-shaped argument whose dimension is not d**2."""


class NotHermitian(LindbladFitError):
    """Hermitian input required (within tolerance) but not supplied."""


class DegenerateSpectrum(LindbladFitError):
    """Two eigenvalues coincide within the resolution threshold.

    Raised by the plain eigendecomposition path; callers must route the
    matrix through the degenerate-cluster pre-processing instead.
    """


class SingularInput(LindbladFitError):
    """An eigenvalue is (numerically) zero where a logarithm is required."""


class NumericalFailure(LindbladFitError):
    """A numerical routine did not converge or produced unusable output."""


class SolverDiverged(NumericalFailure):
    """The operator-splitting solver exhausted its iteration budget."""


class Infeasible(LindbladFitError):
    """A constrained program has an empty feasible set (e.g. ball too small)."""


class BasisUnavailable(LindbladFitError):
    """No hermiticity-preserving basis could be built for a cluster."""


class NotUnitary(LindbladFitError):
    """A gate matrix that fails the unitarity check."""


class OutOfRange(LindbladFitError):
    """A probability or rate parameter outside its admissible range."""


class NotCompletelyPositive(LindbladFitError):
    """Channel parameters violate the complete-positivity inequality."""


class NotHermitianHamiltonian(LindbladFitError):
    """The Hamiltonian handed to the generator builder is not hermitian."""


class PreconditionViolated(LindbladFitError):
    """Input data does not satisfy the assumptions of a closed-form shortcut."""


class InputError(LindbladFitError):
    """Malformed user-supplied file or CLI argument."""
