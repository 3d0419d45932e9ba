"""White-noise non-Markovianity: minimal noise rate and Markovianity score.

A snapshot M that admits no Lindbladian log can still be "almost Markovian":
the measure asks for the smallest rate mu such that some logarithm branch,
after adding white noise at rate mu, satisfies all Lindblad conditions while
its exponential stays within epsilon of M.  Operationally this is a sweep
over trust radii delta and logarithm branches of every repaired sample of
M; the grid points whose delta-ball reaches the hermitian trace-zero slice
solve the noise-minimization program, all samples' points in one batch,
and a candidate is accepted only through the certificate of ``fitting``
(``first_certified``): its exponential lands strictly within epsilon of
the raw snapshot, and the noisy generator passes the Lindblad test.  The
least mu wins, ties (``fitting.ranked``) going to the lower sample, then
the smaller delta, then the earlier branch.

The module also carries a closed-form estimate for channels with real,
positive, well-separated spectra (one eigenvalue near 1): filter the
snapshot's eigenvectors down to an exactly hermiticity- and trace-preserving
generator, then read the noise rate straight off the negative part of its
Choi-side compression.  That estimate serves as an independent check on the
sweep and as a cheap epsilon suggestion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import solver
# is_lindbladian and enumerate_branches are not called here; the benchmark
# tracer (perfbench/spans.py) still looks them up on this module.
from .channels import is_lindbladian  # noqa: F401
from .errors import NumericalFailure, OutOfRange, PreconditionViolated
from .fitting import (
    BranchPolicy,
    branch_targets,
    enumerate_branches,  # noqa: F401
    exp_distances,
    first_certified,
    ranked,
    search_setup,
)
from .linalg import (
    eig_full,
    expm,
    frobenius,
    gamma_involution,
    herm,
    max_entangled,
    side_dim,
    vec_adjoint,
)

__all__ = [
    "DeltaSweep",
    "MuResult",
    "AnalyticalMu",
    "non_markovianity",
    "markovianity_score",
    "analytical_mu_unital",
]

#: Step of every delta grid a caller does not set: ``--delta-step``'s default.
DELTA_STEP = 0.01

@dataclass(frozen=True)
class DeltaSweep:
    """Grid of trust radii delta_min + k*delta_step on [delta_min, 10*delta_min).

    The start is included and the end excluded, so the grid always contains
    at least the single point delta_min; a step wider than the whole span
    degenerates to exactly that point, which is how coarse sweeps end up
    returning no result at small epsilon.
    """

    delta_min: float
    delta_step: float

    def validate(self) -> None:
        if not (self.delta_min > 0):
            raise OutOfRange(f"delta_min must be positive, got {self.delta_min}")
        if not (self.delta_step > 0):
            raise OutOfRange(f"delta_step must be positive, got {self.delta_step}")

    @classmethod
    def from_epsilon(
        cls, epsilon: float, l0_norm: float, delta_step: float = DELTA_STEP
    ) -> "DeltaSweep":
        """Start the sweep at the delta solving epsilon = exp(delta)*delta*|L0|.

        That delta is exactly W0(epsilon/|L0|) (principal Lambert W), the
        radius below which no log-ball point can move the exponential by
        more than epsilon; the sweep tops out at ten times it.  W0 comes
        from Halley's method on w·exp(w) = x, started at log1p(x) (above
        the root), until a step is at most 4e-16·|w|.
        """
        if epsilon <= 0:
            raise OutOfRange(f"epsilon must be positive, got {epsilon}")
        if l0_norm <= 0:
            raise OutOfRange(f"norm of the logarithm must be positive, got {l0_norm}")
        x = epsilon / l0_norm
        w = math.log1p(x)
        for _ in range(100):
            e = math.exp(w)
            f = w * e - x
            step = f / (e * (w + 1) - (w + 2) * f / (2 * w + 2))
            w -= step
            if abs(step) <= 4e-16 * abs(w):
                break
        sweep = cls(w, delta_step)
        sweep.validate()
        return sweep

    def grid(self) -> np.ndarray:
        self.validate()
        span = 10.0 * self.delta_min - self.delta_min
        count = max(1, int(np.ceil(span / self.delta_step - 1e-12)))
        return self.delta_min + self.delta_step * np.arange(count)


@dataclass
class MuResult:
    """Least white noise reconciling a snapshot with Markovian dynamics."""

    generator: np.ndarray
    mu_min: float
    delta_used: float
    branch: tuple[int, ...]
    distance: float
    basis_sample: Optional[int]  # stack position; `decide.named` names its candidate


@dataclass
class AnalyticalMu:
    """Closed-form noise estimate for a filtered snapshot."""

    generator: np.ndarray
    mu: float
    epsilon: float


def markovianity_score(mu_min: float, d: int) -> float:
    """Map the noise rate to a score in (0, 1]; 1 means no noise needed."""
    if mu_min < 0:
        raise OutOfRange(f"mu_min must be nonnegative, got {mu_min}")
    return float(np.exp((1 - d * d) * mu_min))


def non_markovianity(
    m_snapshot,
    logs: Sequence,
    epsilon: float,
    policy: BranchPolicy = BranchPolicy(),
    *,
    delta_step: float = DELTA_STEP,
) -> tuple[Optional[MuResult], int]:
    """Smallest white-noise rate over every (sample, delta, branch), or None.

    ``logs`` is the ``fitting.checked_logs`` audit of a stack of samples of
    the snapshot (the snapshot itself is a stack of one), so a caller that
    has already searched the samples for a fit hands on the logarithms it
    audited.  Each sample gets its own delta grid and screen, and the live
    pairs of all samples go through one ``solver.min_mu_batch`` call.
    Most grid points never reach the solver: one vectorized screen
    (``solver.min_mu_infeasible``) per sample first drops every pair whose
    delta-ball misses the hermitian trace-zero slice (every branch that
    breaks conjugation symmetry picks up a skew part of order 2*pi).

    A grid point is accepted only when its exponential lands strictly within
    epsilon of the raw snapshot and passes the Lindblad certificate; the
    winner is the first accepted point by (``fitting.ranked`` mu, sample,
    delta, branch), and ``basis_sample`` is its position in the stack.  A
    sample that failed its audit is skipped; when every sample failed,
    ``NumericalFailure`` is raised.

    Returns the winner (None when no point is accepted) and the number of
    solved pairs the solver reported as MaxIters.
    """
    if epsilon <= 0:
        raise OutOfRange(f"epsilon must be positive, got {epsilon}")
    m, d, branches, searches = search_setup(m_snapshot, logs, policy)

    # live (sample, branch, delta) pairs, each sample's in row-major order
    live = []
    for k, l0_norm, (spectral, l0) in searches:
        sample_targets = branch_targets(l0, spectral, branches)
        grid = DeltaSweep.from_epsilon(epsilon, l0_norm, delta_step).grid()
        b, j = np.nonzero(~solver.min_mu_infeasible(sample_targets, d, grid))
        live.append((np.full(b.size, k), b, j, sample_targets[b], grid[j]))
    sample, bi, di, targets, deltas = (np.concatenate(v) for v in zip(*live))
    if not bi.size:
        return None, 0

    reports = solver.min_mu_batch(targets, d, deltas)
    generators = gamma_involution(np.stack([rep.x_opt for rep in reports]))
    distances = exp_distances(m[None], np.ones(1), generators)[:, 0]
    mus = np.array([rep.mu for rep in reports])
    maxiters = sum(rep.status == solver.MAX_ITERS for rep in reports)

    order = np.lexsort((bi, di, sample, ranked(mus)))
    k = first_certified(order, distances < epsilon, generators, mus)
    if k is None:
        return None, maxiters
    return MuResult(
        generator=generators[k],
        mu_min=float(mus[k]),
        delta_used=float(deltas[k]),
        branch=tuple(int(v) for v in branches[bi[k]]),
        distance=float(distances[k]),
        basis_sample=int(sample[k]),
    ), maxiters


def analytical_mu_unital(m_snapshot) -> AnalyticalMu:
    """Closed-form noise rate for a real, positive, well-separated spectrum.

    Filters the snapshot into an exactly hermiticity- and trace-preserving
    generator: zero the log-eigenvalue that carries the trace (the one whose
    left eigenvector points along the maximally entangled row), symmetrize
    every right eigenvector to its self-adjoint part, and push the kept ones
    orthogonal to that row as biorthogonality demands.  The noise rate is
    then d times the most negative eigenvalue of the generator's compressed
    Choi form, and the returned epsilon is the exponential's distance to the
    snapshot.
    """
    m = np.asarray(m_snapshot, dtype=complex)
    d = side_dim(m.shape[0])
    n = m.shape[0]
    spectral = eig_full(m)
    eigs = spectral.eigenvalues

    if np.max(np.abs(eigs.imag)) > 1e-8:
        raise PreconditionViolated("spectrum is not real")
    lam = eigs.real
    if np.min(lam) <= 0:
        raise PreconditionViolated("spectrum is not strictly positive")
    gaps = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(gaps, np.inf)
    if np.min(gaps) < 1e-6:
        raise PreconditionViolated("eigenvalues are not well separated")
    if np.min(np.abs(lam - 1.0)) > 0.2:
        raise PreconditionViolated("no eigenvalue near one")

    me = max_entangled(d)
    overlap = np.abs(spectral.left_vectors @ me.omega)
    overlap /= np.linalg.norm(spectral.left_vectors, axis=1)
    zeroed = int(np.argmax(overlap))

    # Kept slots stay in descending-eigenvalue order; the zeroed one goes last.
    order = [j for j in range(n) if j != zeroed] + [zeroed]
    log_diag = np.log(lam[order])
    log_diag[-1] = 0.0

    w = spectral.right_vectors[:, order]
    # For a real eigenvalue of a hermiticity-preserving matrix, w and its
    # vec-adjoint span the same line, but the eigensolver's phase convention
    # may have rotated w so that its self-adjoint part (nearly) cancels.
    # Rotating by half the phase of <w, w-adjoint> maximizes that part.
    adj = vec_adjoint(w.T).T
    inner = np.sum(np.conj(w) * adj, axis=0)
    w = w * np.exp(0.5j * np.angle(inner))[None, :]
    tilde = 0.5 * (w + vec_adjoint(w.T).T)
    perp = np.eye(n) - np.outer(me.omega, me.omega.conj())
    basis = np.concatenate([perp @ tilde[:, :-1], tilde[:, -1:]], axis=1)
    try:
        basis_inv = np.linalg.inv(basis)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            "symmetrized eigenvector matrix is singular"
        ) from exc
    generator = (basis * log_diag) @ basis_inv

    compressed = herm(me.omega_perp @ gamma_involution(generator) @ me.omega_perp)
    lam_min = float(np.linalg.eigvalsh(compressed)[0])
    mu = d * max(0.0, -lam_min)
    epsilon = frobenius(m - expm(generator))
    return AnalyticalMu(generator=generator, mu=mu, epsilon=epsilon)
