"""Solver batch-scaling probe: P1 and P2 microseconds per problem against batch size.

Replays the branch targets a traced pass handed to P1.  Where the pass
produced none at a side dimension (qubit-fit has no d=4 problems, say),
the targets are the first branches of a fixed snapshot of that
dimension, built with the public ``linalg`` branch helpers.  Each P2
problem gets the radius 1.2 x its P1 distance, so every P2 problem
passes the feasibility screen and reaches the iterative solver.
"""

from __future__ import annotations

import time

import numpy as np

from lindbladfit import fitting, solver
from lindbladfit.channels import ChannelSpec, TomographyConfig, simulate_process_tomography
from lindbladfit.linalg import branch, eig_full, gamma_involution, matrix_log_principal

BATCHES = (1, 8, 64, 512)
#: Problems timed at batch size 1, one call each.
SINGLES = 8

_FALLBACK = {
    2: ChannelSpec("unital", {"gamma": [-200.0, 201.0, 200.5]}),
    4: ChannelSpec("depolarizing-cz"),
}


def probe_names() -> list:
    return [
        f"solver.{prog}.us_per_problem.d{d}.b{b}"
        for prog in ("p1", "p2") for d in (2, 4) for b in BATCHES
    ]


def _fallback_targets(d: int, count: int) -> np.ndarray:
    snap = simulate_process_tomography(_FALLBACK[d], TomographyConfig(shots=10**5, seed=1))
    spectral = eig_full(snap.mat)
    l0 = matrix_log_principal(spectral)
    policy = fitting.BranchPolicy(m_max=1, max_branches=count)
    return np.stack([
        gamma_involution(branch(l0, spectral, np.array(m)))
        for m in fitting.enumerate_branches(policy, d * d)
    ])


def _timed(solve, pool: np.ndarray, radii, b: int):
    """Microseconds per problem at batch size b, and the last call's reports."""
    calls = SINGLES if b == 1 else 1
    started = time.perf_counter()
    for k in range(calls):
        batch = slice(k * b, (k + 1) * b)
        reports = solve(pool[batch], None if radii is None else radii[batch])
    return (time.perf_counter() - started) / (calls * b) * 1e6, reports


def batch_scaling(captured: dict) -> dict:
    """The probe_names() metrics, in microseconds per problem."""
    out = {}
    size = max(BATCHES)
    for d in (2, 4):
        targets = np.asarray(captured.get(d) or _fallback_targets(d, size))
        pool = targets[np.arange(size) % len(targets)]
        for b in BATCHES:
            out[f"solver.p1.us_per_problem.d{d}.b{b}"], reports = _timed(
                lambda t, _: solver.closest_lindbladian_batch(t, d), pool, None, b
            )
        # the b=512 call solved the whole pool
        radii = 1.2 * np.array([rep.objective for rep in reports])
        for b in BATCHES:
            out[f"solver.p2.us_per_problem.d{d}.b{b}"], _ = _timed(
                lambda t, r: solver.min_mu_batch(t, d, r), pool, radii, b
            )
    return out
