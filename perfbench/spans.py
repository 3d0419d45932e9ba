"""Spans and counters recorded around the calls into each lindbladfit layer.

A traced round replaces public functions at the attribute where their
caller looks them up (``fitting.expm``, ``nonmarkov.enumerate_branches``,
``cli.best_fit_multi``, ``solver.min_mu_batch``...), so nothing in the
package changes and an untraced round calls the originals.  Each verdict
gets its own id; spans stay in memory until the benchmark writes them out.
Solver counts come from the returned ``SolveReport`` fields.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from lindbladfit import cli, fitting, multisnap, nonmarkov, preprocess, solver

#: Branch targets kept per side dimension for the batch-scaling probe.
CAPTURE = 512

COUNT, SECONDS = "count", "s"

#: Per-layer metrics of one traced pass over the panel, with their units.
LAYER_METRICS = {
    "solver.p1.problems": COUNT,
    "solver.p1.distinct": COUNT,
    "solver.p1.iters": COUNT,
    "solver.p1.iters_max": COUNT,
    "solver.p1.maxiters": COUNT,
    "solver.p1.s": SECONDS,
    "solver.p2.problems": COUNT,
    "solver.p2.screened": COUNT,
    "solver.p2.distinct": COUNT,
    "solver.p2.iters": COUNT,
    "solver.p2.maxiters": COUNT,
    "solver.p2.s": SECONDS,
    "solver.joint.calls": COUNT,
    "solver.joint.screened": COUNT,
    "solver.joint.iters": COUNT,
    "solver.joint.maxiters": COUNT,
    "solver.joint.s": SECONDS,
    "preprocess.s": SECONDS,
    "preprocess.samples": COUNT,
    "preprocess.skipped": COUNT,
    "fitting.calls": COUNT,
    "fitting.branches": COUNT,
    "fitting.self_s": SECONDS,
    "nonmarkov.calls": COUNT,
    "nonmarkov.grid_points": COUNT,
    "nonmarkov.self_s": SECONDS,
    "multisnap.calls": COUNT,
    "multisnap.self_s": SECONDS,
    "linalg.expm.matrices": COUNT,
    "linalg.expm.s": SECONDS,
    "channels.is_lindbladian.calls": COUNT,
    "channels.is_lindbladian.s": SECONDS,
    "cli.self_s": SECONDS,
}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    verdict: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _herm_keys(targets: np.ndarray, deltas=None) -> list:
    """Hash of each problem's herm(target) (and delta): the solvers see only these."""
    t = np.asarray(targets)
    h = np.round(0.5 * (t + np.conj(np.swapaxes(t, -1, -2))), 8) + 0.0
    extra = [b""] * len(h) if deltas is None else [
        np.float64(v).tobytes() for v in np.broadcast_to(deltas, (len(h),))
    ]
    return [hashlib.blake2b(x.tobytes() + e, digest_size=16).digest() for x, e in zip(h, extra)]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _solve_counts(span: Span, reports: list) -> None:
    iters = [rep.iterations for rep in reports]
    span.counts.update(
        problems=len(reports),
        screened=sum(rep.status == solver.INFEASIBLE for rep in reports),
        maxiters=sum(rep.status == solver.MAX_ITERS for rep in reports),
        iters=sum(iters),
        iters_max=max(iters, default=0),
    )


class Tracer:
    """Spans of one traced pass, plus the targets captured for the probe."""

    def __init__(self, first_verdict: int = 0):
        self.spans: list[Span] = []
        self.verdict = first_verdict
        self.captured: dict[int, list] = defaultdict(list)
        self._stack: list[Span] = []
        self._distinct: dict[tuple, set] = defaultdict(set)
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, self.verdict, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def verdict_span(self):
        """Root span of one CLI invocation, under a fresh verdict id."""
        self.verdict += 1
        return self.span("cli")

    # -- use-site wrappers ---------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, name, on_result=None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
            if on_result is not None:  # bookkeeping stays out of the span
                on_result(s, args, kwargs, result)
            return result

        self._patch(owner, attr, traced)

    def _count_len(self, owner, attr, key) -> None:
        """Count the items a call returns on the enclosing span (no span of its own)."""
        original = getattr(owner, attr)

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            if not isinstance(result, np.ndarray):
                result = list(result)
            top = self._stack[-1].counts
            top[key] = top.get(key, 0) + len(result)
            return result

        self._patch(owner, attr, counting)

    def _on_p1(self, span, args, kwargs, reports) -> None:
        _solve_counts(span, reports)
        targets = _arg(args, kwargs, 0, "targets")
        d = _arg(args, kwargs, 1, "d")
        self._distinct[("p1", self.verdict)].update(_herm_keys(targets))
        room = CAPTURE - len(self.captured[d])
        self.captured[d].extend(np.asarray(targets)[:room])

    def _on_p2(self, span, args, kwargs, reports) -> None:
        _solve_counts(span, reports)
        targets = _arg(args, kwargs, 0, "targets")
        deltas = _arg(args, kwargs, 2, "deltas")
        self._distinct[("p2", self.verdict)].update(_herm_keys(targets, deltas))

    def _on_joint(self, span, args, kwargs, report) -> None:
        _solve_counts(span, [report])

    def _on_expm(self, span, args, kwargs, result) -> None:
        span.counts["matrices"] = int(np.prod(np.shape(result)[:-2], dtype=int))

    def _on_sample(self, span, args, kwargs, result) -> None:
        span.counts["samples"] = 1

    def _install(self) -> None:
        for owner, attr in ((cli, "eig_full"), (preprocess, "perturb_to_nd2"),
                            (preprocess, "detect_clusters"),
                            (preprocess, "build_cluster_bases")):
            self._wrap(owner, attr, "preprocess")
        self._wrap(preprocess, "random_hp_basis", "preprocess", self._on_sample)
        self._wrap(fitting, "best_fit_lindbladian", "fitting")
        self._count_len(fitting, "enumerate_branches", "branches")
        self._wrap(nonmarkov, "non_markovianity", "nonmarkov")
        self._count_len(nonmarkov, "enumerate_branches", "branches")
        self._count_len(nonmarkov.DeltaSweep, "grid", "deltas")
        self._wrap(cli, "best_fit_multi", "multisnap")
        self._wrap(solver, "closest_lindbladian_batch", "solver.p1", self._on_p1)
        self._wrap(solver, "min_mu_batch", "solver.p2", self._on_p2)
        self._wrap(solver, "solve_joint_fit", "solver.joint", self._on_joint)
        for owner in (fitting, nonmarkov, multisnap):
            self._wrap(owner, "expm", "linalg.expm", self._on_expm)
            self._wrap(owner, "is_lindbladian", "channels.is_lindbladian")

    @contextlib.contextmanager
    def installed(self):
        """Trace inside the block; the original functions are back after it."""
        self._install()
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------

    def metrics(self, skipped: int) -> dict:
        """The LAYER_METRICS of this pass; ``skipped`` comes from the reports."""
        child = defaultdict(float)
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
            if s.parent is not None:
                child[s.parent] += s.duration

        def total(name):
            return sum(s.duration for s in by_name[name])

        def self_time(name):
            return sum(s.duration - child[s.id] for s in by_name[name])

        def count(name, key):
            return sum(s.counts.get(key, 0) for s in by_name[name])

        def distinct(program):
            return sum(len(v) for k, v in self._distinct.items() if k[0] == program)

        out = {}
        for prog, name in (("p1", "solver.p1"), ("p2", "solver.p2")):
            out[f"{name}.problems"] = count(name, "problems")
            out[f"{name}.distinct"] = distinct(prog)
            out[f"{name}.iters"] = count(name, "iters")
            out[f"{name}.maxiters"] = count(name, "maxiters")
            out[f"{name}.s"] = total(name)
        out["solver.p1.iters_max"] = max(
            (s.counts["iters_max"] for s in by_name["solver.p1"]), default=0
        )
        out["solver.p2.screened"] = count("solver.p2", "screened")
        out.update({
            "solver.joint.calls": len(by_name["solver.joint"]),
            "solver.joint.screened": count("solver.joint", "screened"),
            "solver.joint.iters": count("solver.joint", "iters"),
            "solver.joint.maxiters": count("solver.joint", "maxiters"),
            "solver.joint.s": total("solver.joint"),
            "preprocess.s": total("preprocess"),
            "preprocess.samples": count("preprocess", "samples"),
            "preprocess.skipped": skipped,
            "fitting.calls": len(by_name["fitting"]),
            "fitting.branches": count("fitting", "branches"),
            "fitting.self_s": self_time("fitting"),
            "nonmarkov.calls": len(by_name["nonmarkov"]),
            "nonmarkov.grid_points": sum(
                s.counts.get("branches", 0) * s.counts.get("deltas", 0)
                for s in by_name["nonmarkov"]
            ),
            "nonmarkov.self_s": self_time("nonmarkov"),
            "multisnap.calls": len(by_name["multisnap"]),
            "multisnap.self_s": self_time("multisnap"),
            "linalg.expm.matrices": count("linalg.expm", "matrices"),
            "linalg.expm.s": total("linalg.expm"),
            "channels.is_lindbladian.calls": len(by_name["channels.is_lindbladian"]),
            "channels.is_lindbladian.s": total("channels.is_lindbladian"),
            "cli.self_s": self_time("cli"),
        })
        return {name: out[name] for name in LAYER_METRICS}

    def dump(self) -> list:
        """The spans as JSON-ready dicts; ids are unique within this pass."""
        return [
            {"id": s.id, "parent": s.parent, "verdict": s.verdict, "name": s.name,
             "start": s.start, "end": s.end, "counts": s.counts}
            for s in self.spans
        ]
