"""Workload panels, ground-truth labels and the certificate check.

A panel is the fixed list of inputs one workload sends to the CLI.  Every
snapshot is simulated with ``channels.simulate_process_tomography`` from a
fixed tomography seed, so a panel is the same set of matrix files on every
run; the workload seed only orders the closed loop (see ``run.py``).

Labels: an input built from a channel that is Markovian by construction
(a unitary, a depolarizing channel, a unital channel with positive rates)
is labelled Markovian when the exact channel lies within epsilon of every
snapshot, and left unlabelled otherwise.  The negative-rate benchmark
unital channel is labelled NonMarkovian.  Depolarizing-CZ is unlabelled.
``multifit`` has no noise-rate fallback, so its NoResult is the answer
that agrees with a NonMarkovian label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np
import scipy.linalg

from lindbladfit import cli
from lindbladfit.channels import (
    ChannelSpec,
    TomographyConfig,
    is_lindbladian,
    simulate_process_tomography,
)
from lindbladfit.linalg import frobenius, max_entangled, side_dim

EPSILON = 0.05
#: Every panel snapshot is simulated from this tomography seed.
TOMOGRAPHY_SEED = 1
#: mu_sentinel convention of the CLI's sweep-epsilon table.
MU_SENTINEL = {"Markovian": 0.0, "Identity": 0.0, "NoResult": cli.MU_ABSENT_SENTINEL}

BENCH_GAMMA = [-200.0, 201.0, 200.5]
WEAK_GAMMA = [0.1, 0.2, 0.3]

# ROADMAP defect rows, named in the answer table next to the inputs they hit.
DEFECT_UNITAL = "unital NoResult"
DEFECT_XGATE = "X gate never fits"
DEFECT_TIE = "depolarizing tie"


@dataclass
class Input:
    """One CLI invocation of a panel: fit on one snapshot, multifit on several."""

    name: str
    command: str
    specs: list
    times: list
    shots: int
    flags: list
    truth: str  # "markovian", "nonmarkovian" or "unlabelled"
    tomo_seed: int = TOMOGRAPHY_SEED
    defect: str = ""
    mats: list = field(default_factory=list)
    exact: list = field(default_factory=list)
    paths: list = field(default_factory=list)
    label: Optional[str] = None

    def argv(self, report: str) -> list:
        if self.command == "fit":
            return ["fit", "--in", self.paths[0], *self.flags, "--report", report]
        times = ",".join(f"{t:g}" for t in self.times)
        return ["multifit", "--in", ",".join(self.paths), "--times", times,
                *self.flags, "--report", report]


def _fit(name, spec, shots, flags, truth, defect=""):
    return Input(name, "fit", [spec], [1.0], shots, flags, truth, defect=defect)


def _qubit_fit() -> list:
    flags = ["--epsilon", str(EPSILON), "--samples", "4"]
    channels = [
        ("xgate", ChannelSpec("xgate"), "markovian", DEFECT_XGATE),
        ("depol-0.1", ChannelSpec("depolarizing", {"p": 0.1}), "markovian", DEFECT_TIE),
        ("depol-0.2", ChannelSpec("depolarizing", {"p": 0.2}), "markovian", ""),
        ("unital-bench", ChannelSpec("unital", {"gamma": BENCH_GAMMA}), "nonmarkovian", ""),
        ("unital-weak-t1", ChannelSpec("unital", {"gamma": WEAK_GAMMA, "t": 1.0}),
         "markovian", DEFECT_UNITAL),
        ("unital-weak-t2", ChannelSpec("unital", {"gamma": WEAK_GAMMA, "t": 2.0}),
         "markovian", DEFECT_UNITAL),
        # Half of the other inputs need the P2 sweep and take seconds, half
        # stop after P1; the two instant Identity verdicts keep the median
        # inside the fast group instead of on the gap between the groups.
        ("identity", ChannelSpec("identity"), "markovian", ""),
    ]
    return [
        _fit(f"{name}@{shots:.0e}", spec, shots, flags, truth, defect)
        for shots in (10**4, 10**5)
        for name, spec, truth, defect in channels
    ]


def _ququart_branch() -> list:
    flags = ["--epsilon", str(EPSILON), "--max-branches", "256"]
    return [
        _fit("iswap@1e+05", ChannelSpec("iswap"), 10**5, flags, "markovian"),
        _fit("depol-cz@1e+05", ChannelSpec("depolarizing-cz"), 10**5, flags, "unlabelled"),
    ]


def _series(name, gamma, truth, tomo_seed):
    specs = [ChannelSpec("unital", {"gamma": gamma, "t": t}) for t in (1.0, 2.0)]
    return Input(name, "multifit", specs, [1.0, 2.0], 10**5,
                 ["--epsilon", str(EPSILON)], truth, tomo_seed=tomo_seed)


def _series_multifit() -> list:
    # Three weak series put the median verdict on the mean of two of them.
    # The benchmark series takes milliseconds; multifit must refuse it.
    return [
        *(_series(f"unital-weak-series-s{k}", WEAK_GAMMA, "markovian", k) for k in (1, 2, 3)),
        _series("unital-bench-series", BENCH_GAMMA, "nonmarkovian", 1),
    ]


WORKLOADS = {
    "qubit-fit": _qubit_fit,
    "ququart-branch": _ququart_branch,
    "series-multifit": _series_multifit,
}

#: The cheap verdict every set-up and warm-up runs: a d=2 fit that ends after P1.
WARMUP = _fit("warmup-depol-0.2@1e+05", ChannelSpec("depolarizing", {"p": 0.2}),
              10**5, ["--epsilon", str(EPSILON), "--samples", "4"], "markovian")


def materialize(inputs: list, workdir: Path) -> None:
    """Simulate every snapshot, write its matrix file and fix its label."""
    for inp in inputs:
        for c, spec in enumerate(inp.specs):
            snap = simulate_process_tomography(
                spec, TomographyConfig(shots=inp.shots, seed=inp.tomo_seed)
            )
            path = workdir / f"{inp.name}-{c}.json"
            cli.write_matrix_file(str(path), snap.mat)
            inp.mats.append(snap.mat)
            inp.exact.append(spec.transfer().mat)
            inp.paths.append(str(path))
        if inp.truth == "nonmarkovian":
            inp.label = "NonMarkovian"
        elif inp.truth == "markovian" and all(
            frobenius(m - e) < EPSILON for m, e in zip(inp.mats, inp.exact)
        ):
            inp.label = "Markovian"


def agrees(inp: Input, verdict: str) -> bool:
    if inp.label == "Markovian":
        return verdict in ("Markovian", "Identity")
    if inp.command == "multifit":
        return verdict == "NoResult"
    return verdict == "NonMarkovian"


def mu_sentinel(doc: dict) -> float:
    if doc["verdict"] == "NonMarkovian":
        return float(doc["result"]["mu_min"])
    return MU_SENTINEL[doc["verdict"]]


def _matrix(doc: dict) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in doc["data"]])
    return flat.reshape(doc["dim"], doc["dim"])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def certify(inp: Input, code: int, doc: Optional[dict]) -> list:
    """Reasons the report fails its certificate; empty when it holds.

    Recomputes ||M - exp(L)|| from the reported matrix, reruns the
    Lindblad test on the reported generator (on L - mu*omega_perp for a
    NonMarkovian report) at the report's own tolerance, and checks that
    the exit code agrees with the verdict (2 exactly for NoResult).
    """
    if doc is None:
        return [f"no report (exit {code})"]
    verdict = doc.get("verdict")
    if verdict not in ("Markovian", "NonMarkovian", "NoResult", "Identity"):
        return [f"unknown verdict {verdict!r}"]
    problems = []
    if code != (cli.EXIT_NO_RESULT if verdict == "NoResult" else cli.EXIT_OK):
        problems.append(f"exit {code} for verdict {verdict}")
    if verdict in ("NoResult", "Identity"):
        return problems
    res = doc["result"]
    eps = float(doc["settings"]["epsilon"])
    if verdict == "Markovian":
        gen = _matrix(res["lindbladian"])
        dists = [frobenius(m - scipy.linalg.expm(t * gen)) for m, t in zip(inp.mats, inp.times)]
        check = is_lindbladian(gen, tol=res["lindblad_check_tolerance"])
    else:
        gen = _matrix(res["generator"])
        dists = [frobenius(inp.mats[0] - scipy.linalg.expm(gen))]
        mu = float(res["mu_min"])
        if not mu >= 0.0:
            problems.append(f"negative mu {mu}")
        perp = max_entangled(side_dim(gen.shape[0])).omega_perp
        check = is_lindbladian(gen - mu * perp, tol=res["lindblad_check_tolerance"])
    if not _close(sum(dists), float(res["distance"])):
        problems.append(f"distance {res['distance']} but recomputed {sum(dists)}")
    if not max(dists) < eps:
        problems.append(f"snapshot distance {max(dists)} not below epsilon {eps}")
    if not check.ok:
        problems.append(f"Lindblad check fails: residuals {check.residuals}")
    return problems


def answer_row(inp: Input, doc: Optional[dict], seconds: float) -> dict[str, Any]:
    """One line of the answer table; ``seconds`` is the input's median verdict time."""
    res = (doc or {}).get("result", {})
    verdict = (doc or {}).get("verdict", "error")
    return {
        "input": inp.name,
        "verdict": verdict,
        "label": inp.label or "-",
        "agrees": None if inp.label is None or doc is None else agrees(inp, verdict),
        "mu_sentinel": None if doc is None else mu_sentinel(doc),
        "distance": res.get("distance"),
        "mu": res.get("mu_min"),
        "branch": res.get("branch"),
        "basis_sample": res.get("basis_sample"),
        "pipeline": (doc or {}).get("pipeline", "-"),
        "snapshot_error": max(frobenius(m - e) for m, e in zip(inp.mats, inp.exact)),
        "defect": inp.defect,
        "seconds": seconds,
    }


def format_table(rows: list) -> list:
    def num(v):
        return "-" if v is None else f"{v:.6g}"

    lines = [
        f"{'input':24s} {'verdict':12s} {'label':12s} {'agree':5s} {'mu_sent':>9s}"
        f" {'distance':>10s} {'snap_err':>8s} {'time_s':>7s} {'pipeline':11s} {'k':>2s}"
        " branch  defect"
    ]
    for r in rows:
        agree = "-" if r["agrees"] is None else ("yes" if r["agrees"] else "NO")
        k = "-" if r["basis_sample"] is None else str(r["basis_sample"])
        branch = "-" if r["branch"] is None else "".join(
            "+" if b > 0 else ("-" if b < 0 else "0") for b in r["branch"]
        )
        lines.append(
            f"{r['input']:24s} {r['verdict']:12s} {r['label']:12s} {agree:5s}"
            f" {num(r['mu_sentinel']):>9s} {num(r['distance']):>10s}"
            f" {r['snapshot_error']:8.4f} {r['seconds']:7.3f} {r['pipeline']:11s} {k:>2s}"
            f" {branch} {r['defect']}"
        )
    return lines


def answer_quality(inputs: list, docs: list) -> tuple[float, float]:
    """(truth_match, mu_sentinel_mean) over one pass of the panel."""
    labelled = [(inp, doc) for inp, doc in zip(inputs, docs) if inp.label]
    match = sum(doc is not None and agrees(inp, doc["verdict"]) for inp, doc in labelled)
    sentinels = [mu_sentinel(doc) if doc else cli.MU_ABSENT_SENTINEL for doc in docs]
    truth = match / len(labelled) if labelled else math.nan
    return truth, float(np.mean(sentinels))
