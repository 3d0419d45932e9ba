"""The verdict on one snapshot at one epsilon: Markovian, NonMarkovian,
Identity or NoResult, as the fields of a report.

``fit`` (and its alias ``mu``) and every ``sweep-epsilon`` row make one
decision, `decide`, on one candidate table of the snapshot, `Candidates`,
which epsilon does not change: a sweep repairs its snapshot, and audits and
searches each candidate, once for all its rows.  The decision tries the
candidates as a cascade, cheapest first: the snapshot's own group (it and,
for a lone negative eigenvalue, its mirror); unless the own fit lands at
round-off, the unitary frame (one projection, no branch search; it settles
unitary-dominated snapshots such as the X gate and ISWAP); and only when
neither of those lands within epsilon, the repaired samples, which cost a
draw and a branch search each.  When the winner misses epsilon, the
audited logarithms of the own and samples candidates are asked in one
batch for the least white-noise rate mu; the unitary frame has no
logarithm of the snapshot and takes no part.  So mu is reported only when
no certified generator lands within epsilon, and a sweep row reads its mu
and distance from the fields `decide` writes.  Every name here takes plain
values, not parsed flags.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, NamedTuple, Optional

import numpy as np

from . import fitting, nonmarkov, preprocess
from .errors import NumericalFailure
from .linalg import side_dim

# Candidate tags besides a repaired sample's int id: the nudged snapshot,
# its mirrored lone negative eigenvalue (preprocess.Repair) and the
# unitary frame (fitting.unitary_frame).
RAW, MIRRORED, UNITARY = "raw", "mirrored", "unitary"


class Group(NamedTuple):
    """Candidates searched together: their tags, their ``fitting.checked_logs``
    entries (None for the unitary frame, which has no logarithm of the
    snapshot), each one's own P1 fit (None when no branch certifies or the
    audit failed) and the P1 call's MaxIters count."""

    tags: list
    logs: Optional[list]
    fits: list
    p1_maxiters: int


def best(fits: list) -> Optional[int]:
    """Position of the least ``fitting.ranked`` distance among ``fits``, the
    earlier one on a tie; None when none fits."""
    fitted = [k for k, fit in enumerate(fits) if fit is not None]
    if not fitted:
        return None
    distances = np.array([fits[k].distance for k in fitted])
    return fitted[int(np.argmin(fitting.ranked(distances)))]


def within(groups: list, radius: float) -> Optional[int]:
    """Position of the `best` fit among the fits of ``groups``, in order,
    when it lands strictly within ``radius``; None otherwise."""
    fits = sum((group.fits for group in groups), [])
    win = best(fits)
    return win if win is not None and fits[win].distance < radius else None


class Candidates:
    """The candidate table of one snapshot ``mat``: its `preprocess.Repair`
    at cluster precision ``precision``, its own group (RAW, then MIRRORED
    when the repair has one), its unitary group (UNITARY, the one
    ``fitting.unitary_frame`` fit of the snapshot) and its samples group
    (``samples`` repaired samples drawn from ``seed``, tagged by their ids).

    Each is built on first use and only once, and none depends on epsilon.
    The own and samples groups are audited by one ``fitting.checked_logs``
    call each, whose logarithms the mu fallback reuses, and searched by one
    ``fitting.best_fit_lindbladian`` call each (`search`).
    """

    def __init__(self, mat: np.ndarray, policy: fitting.BranchPolicy, precision: float,
                 samples: int, seed: int) -> None:
        self.mat, self.policy = mat, policy
        self.precision, self.sample_ids, self.seed = precision, range(samples), seed

    @cached_property
    def repair(self) -> preprocess.Repair | NumericalFailure:
        """The snapshot's `preprocess.Repair`, or the ``NumericalFailure``
        its nudge raised when no simple-spectrum neighbour lies within the
        budget (the exact X⊗X and I⊗X channels); either is kept, so a sweep
        tries the nudge once."""
        try:
            return preprocess.Repair(self.mat, self.precision)
        except NumericalFailure as exc:
            return exc

    @cached_property
    def own(self) -> Group:
        tags, stack = [RAW], [self.repair.snapshot]
        if self.repair.mirrored is not None:
            tags.append(MIRRORED)
            stack.append(self.repair.mirrored)
        return self.search(tags, stack, [self.repair.spectral])

    @cached_property
    def unitary(self) -> Group:
        fit, maxiters = fitting.unitary_frame(self.mat)
        return Group([UNITARY], None, [fit], maxiters)

    @cached_property
    def samples(self) -> Group:
        ids = list(self.sample_ids)
        return self.search(ids, [self.repair.sample(self.seed, k) for k in ids])

    def search(self, tags: list, stack: list, spectra=()) -> Group:
        """The group of the matrices ``stack``, tagged ``tags``: one audit and
        one branch search, each fit measured against the snapshot.
        ``spectra``: the spectral data of the first matrices, when known."""
        logs = fitting.checked_logs(np.stack(stack), spectra)
        fits, maxiters = {}, 0
        try:
            fits, maxiters = fitting.best_fit_lindbladian(self.mat, logs, self.policy)
        except NumericalFailure:  # every one failed: the others may decide
            pass
        return Group(tags, logs, [fits.get(k) for k in range(len(tags))], maxiters)


def named(tag) -> dict[str, Any]:
    """A tag's ``candidate`` name and ``basis_sample`` in a report: "raw",
    "mirrored" and "unitary" are no sample; sample k is candidate "sample"."""
    if isinstance(tag, int):
        return {"candidate": "sample", "basis_sample": tag}
    return {"candidate": tag, "basis_sample": None}


def decide(found: Candidates, epsilon: float, delta_step: float,
           trace: Optional[list] = None) -> dict[str, Any]:
    """The verdict on the snapshot of the table ``found`` at one positive
    epsilon, as its report fields: ``pipeline`` and ``verdict`` and, where
    they apply, ``detail``, ``samples_skipped``, ``p1_maxiters``,
    ``p2_maxiters`` and ``result``; ``trace`` gets [tag, best distance] of
    each candidate tried.  ``delta_step`` spaces the mu fallback's delta
    grid.

    The own group is always tried.  Unless the best own fit lands below
    min(``fitting.TIE_TOL``, epsilon), which no other candidate can beat
    under the tie rule, the unitary group follows it; in the ``samples``
    pipeline the samples group follows only when neither of those has a
    certified fit strictly within epsilon.  The chosen fits are ranked once
    (`best`), and the winner is Markovian when it lands strictly within
    epsilon; nothing else ranks the fits or applies epsilon to them.
    Otherwise the audited logarithms of the chosen own and samples
    candidates go through one ``nonmarkov.non_markovianity`` call, which
    picks the least mu, ties going to the earlier candidate; when every one
    of them failed its audit the verdict is NoResult, with the last failure
    as ``detail``.  The unitary frame has no logarithm of the snapshot, so
    the mu fallback never sees it.  A snapshot that the repair cannot nudge
    onto a simple spectrum (`preprocess.Repair` raises) has only its frame,
    which fits it unrepaired: Markovian, pipeline ``passthrough``, when that
    lands within epsilon, the repair's failure otherwise.

    The cascade changes which fit a Markovian report names, not whether it
    is Markovian: the samples are skipped only when an earlier candidate
    already lands within epsilon, and they come after it under the tie
    rule, so the winner of all the groups would land within epsilon too.
    A sample closer than the frame is then not drawn, and the report names
    the frame.  mu does not change, since the fallback runs only when every
    group missed epsilon, and then every group is searched.

    The groups a sweep row sees depend on its epsilon alone, not on what
    earlier rows searched, and no verdict or mu changes against rows that
    see every group searched so far: as epsilon rises the pipeline
    (`preprocess.Repair.kind`) only moves from passthrough to samples to
    identity, and a row whose own fit ties is won by that own candidate
    with or without the unitary and samples groups, since it ranks at zero
    and comes first.  A row's distance can step where a sample would beat
    the frame: below the frame's distance the sample wins, above it the
    frame does.  The mu fallback does not depend on the unitary group at
    all.
    """
    doc: dict[str, Any] = {}
    if isinstance(found.repair, NumericalFailure):
        # The snapshot passes through unrepaired: the unitary frame needs
        # no repair, and decides when its fit lands within epsilon.
        if within([found.unitary], epsilon) is None:
            raise found.repair
        kind, groups = preprocess.PASSTHROUGH, [found.unitary]
    else:
        kind = found.repair.kind(epsilon)
        if kind == preprocess.IDENTITY:
            return {"pipeline": kind, "verdict": "Identity",
                    "detail": "channel is consistent with the identity map"}
        groups = [found.own]
        if within(groups, min(fitting.TIE_TOL, epsilon)) is None:
            groups.append(found.unitary)
            if kind == preprocess.SAMPLES and within(groups, epsilon) is None:
                groups.append(found.samples)
                skipped = sum(isinstance(log, NumericalFailure) for log in found.samples.logs)
                if skipped:
                    doc["samples_skipped"] = skipped
    doc["pipeline"] = kind
    tags = sum((group.tags for group in groups), [])
    fits = sum((group.fits for group in groups), [])
    if trace is not None:
        trace.extend([tag, getattr(fit, "distance", None)] for tag, fit in zip(tags, fits))
    doc["p1_maxiters"] = sum(group.p1_maxiters for group in groups)
    win = within(groups, epsilon)
    if win is not None:
        doc.update(verdict="Markovian",
                   result={**markovian_result(fits[win], epsilon), **named(tags[win])})
        return doc
    # No candidate lands inside the epsilon ball; ask instead how much
    # white noise would reconcile the snapshot.
    logged = [group for group in groups if group.logs is not None]
    logs = sum((group.logs for group in logged), [])
    if all(isinstance(log, NumericalFailure) for log in logs):
        doc.update(verdict="NoResult", detail=(
            f"all {len(logs)} candidates failed the logarithm audit; last: {logs[-1]}"
        ))
        return doc
    mu, doc["p2_maxiters"] = nonmarkov.non_markovianity(
        found.mat, logs, epsilon, found.policy, delta_step=delta_step
    )
    if mu is None:
        doc["verdict"] = "NoResult"
        return doc
    doc.update(verdict="NonMarkovian", result={
        **nonmarkovian_result(mu, epsilon, delta_step, side_dim(len(found.mat))),
        **named(sum((group.tags for group in logged), [])[mu.basis_sample]),
    })
    return doc


def matrix_doc(mat: np.ndarray) -> dict[str, Any]:
    """A matrix as a matrix file holds it: its dim and its row-major
    entries as [re, im] pairs."""
    mat = np.asarray(mat, dtype=complex)
    return {
        "dim": int(mat.shape[0]),
        "data": [[float(v.real), float(v.imag)] for v in mat.reshape(-1)],
    }


def markovian_result(fit: fitting.FitResult, epsilon: float) -> dict[str, Any]:
    return {
        "lindbladian": matrix_doc(fit.lindbladian),
        "distance": fit.distance,
        "distance_tolerance": epsilon,
        "branch": None if fit.branch is None else list(fit.branch),
        "lindblad_check_tolerance": fitting.VERIFY_TOL,
    }


def nonmarkovian_result(
    mu: nonmarkov.MuResult, epsilon: float, delta_step: float, d: int
) -> dict[str, Any]:
    return {
        "mu_min": mu.mu_min,
        "generator": matrix_doc(mu.generator),
        "delta": mu.delta_used,
        "delta_step": delta_step,
        "score": nonmarkov.markovianity_score(mu.mu_min, d),
        "branch": list(mu.branch),
        "distance": mu.distance,
        "distance_tolerance": epsilon,
        "lindblad_check_tolerance": fitting.VERIFY_TOL,
    }
