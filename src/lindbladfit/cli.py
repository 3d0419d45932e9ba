"""Command-line front end: simulate snapshots, fit generators, sweep budgets.

Snapshots travel as small JSON "matrix files": ``{"dim": n, "data": [...]}``
with ``data`` holding the row-major entries as ``[re, im]`` pairs.  Analysis
commands emit a JSON report carrying the input digest, the verdict
(Markovian / NonMarkovian / Identity / NoResult), every tolerance and
setting that went into it, and the wall time, so a report alone is enough
to reproduce the run.  ``sweep-epsilon`` writes a plot-ready CSV instead.

Exit codes: 0 when any verdict is produced, 2 for NoResult, 3 for bad
input, 4 for a numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Iterable, Optional

import numpy as np

from . import fitting, nonmarkov, preprocess
from .channels import ChannelSpec, TomographyConfig, simulate_process_tomography
from .errors import InputError, LindbladFitError, NumericalFailure, OutOfRange
# eig_full is not called here; the benchmark tracer (perfbench/spans.py)
# still looks it up on this module.
from .linalg import eig_full, frobenius, side_dim  # noqa: F401
from .multisnap import SnapshotSeries, best_fit_multi

EXIT_OK = 0
EXIT_NO_RESULT = 2
EXIT_INPUT_ERROR = 3
EXIT_NUMERICAL_FAILURE = 4

# CSV contract for sweep-epsilon.  ``mu`` stays empty when no noise rate was
# found; ``mu_sentinel`` repeats mu but substitutes 1000 for "absent" (and 0
# for a Markovian fit) so the column plots directly.
CSV_HEADER = "epsilon,mu,mu_sentinel,distance,samples,m_max"
MU_ABSENT_SENTINEL = 1000.0

# Refuse to materialize absurd branch grids; (2*m_max+1)^(d^2) explodes in
# d and the capped prefix is the documented way to search high dimensions.
MAX_UNCAPPED_BRANCHES = 1_000_000

_CHANNELS = {
    "xgate": "xgate",
    "iswap": "iswap",
    "identity": "identity",
    "depol": "depolarizing",
    "depolarizing": "depolarizing",
    "unital": "unital",
    "depolcz": "depolarizing-cz",
    "depolarizing-cz": "depolarizing-cz",
}


# ----------------------------------------------------------------------
# Matrix files and reports
# ----------------------------------------------------------------------

def write_matrix_file(path: str, mat: np.ndarray) -> None:
    mat = np.asarray(mat, dtype=complex)
    doc = {
        "dim": int(mat.shape[0]),
        "data": [[float(v.real), float(v.imag)] for v in mat.reshape(-1)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_matrix_file(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        dim = int(doc["dim"])
        data = doc["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: expected an object with dim and data") from exc
    if dim < 1 or not isinstance(data, list) or len(data) != dim * dim:
        raise InputError(
            f"{path}: data length {len(data) if isinstance(data, list) else '?'}"
            f" does not match dim {dim}"
        )
    try:
        flat = np.array([complex(re, im) for re, im in data])
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: entries must be [re, im] pairs") from exc
    if not np.all(np.isfinite(flat.real)) or not np.all(np.isfinite(flat.imag)):
        raise InputError(f"{path}: matrix entries must be finite")
    return flat.reshape(dim, dim)


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return "sha256:" + digest.hexdigest()


def _matrix_doc(mat: np.ndarray) -> dict[str, Any]:
    mat = np.asarray(mat, dtype=complex)
    return {
        "dim": int(mat.shape[0]),
        "data": [[float(v.real), float(v.imag)] for v in mat.reshape(-1)],
    }


def _emit_report(doc: dict[str, Any], path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _verdict_exit(verdict: str) -> int:
    return EXIT_NO_RESULT if verdict == "NoResult" else EXIT_OK


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputError(f"--{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise InputError(f"--{flag} must list at least one number")
    return values


# ----------------------------------------------------------------------
# Shared pipeline pieces
# ----------------------------------------------------------------------

def _policy(args: argparse.Namespace, dim: int) -> fitting.BranchPolicy:
    policy = fitting.BranchPolicy(
        m_max=args.m_max, max_branches=getattr(args, "max_branches", None)
    )
    policy.validate()
    if policy.max_branches is None:
        grid = (2 * policy.m_max + 1) ** dim
        if grid > MAX_UNCAPPED_BRANCHES:
            raise InputError(
                f"m_max={policy.m_max} enumerates {grid} logarithm branches at"
                f" dimension {dim}; pass --max-branches to cap the search"
            )
    return policy


_WORKER: dict[str, Any] = {}


def _fit_worker_init(mat, policy, settings) -> None:
    _WORKER["mat"] = mat
    _WORKER["policy"] = policy
    _WORKER["settings"] = settings


def _fit_worker(payload: tuple[int, np.ndarray]):
    k, repaired = payload
    try:
        result = fitting.best_fit_lindbladian(
            _WORKER["mat"],
            repaired,
            math.inf,
            _WORKER["policy"],
            _WORKER["settings"],
            basis_sample_id=k,
        )
    except NumericalFailure:
        # A random basis can come out ill-conditioned enough to fail the
        # logarithm audit; one bad draw must not abort the whole scan.
        return k, None, True
    return k, result, False


def _fit_over_samples(
    mat: np.ndarray,
    stream: Iterable[tuple[int, np.ndarray]],
    policy: fitting.BranchPolicy,
    jobs: int,
    trace: Optional[list],
) -> tuple[Optional[fitting.FitResult], int, int]:
    """Minimum-distance fit over repaired samples, reduced by (distance, id).

    Every sample is searched with an unbounded acceptance radius so the
    per-sample distance is known even when it later fails the epsilon
    test; the caller applies that test once to the winner, which is the
    same decision the per-sample test would have produced.  Returns the
    winner plus (samples seen, samples skipped for numerical reasons).
    """
    best: Optional[fitting.FitResult] = None
    seen = 0
    skipped = 0

    def consider(k: int, result: Optional[fitting.FitResult], failed: bool) -> None:
        nonlocal best, seen, skipped
        seen += 1
        skipped += failed
        if trace is not None:
            trace.append([k, None if result is None else result.distance])
        if result is None:
            return
        if best is None or (result.distance, k) < (best.distance, best.basis_sample_id):
            best = result

    if jobs <= 1:
        _fit_worker_init(mat, policy, None)
        for k, repaired in stream:
            consider(*_fit_worker((k, repaired)))
    else:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_fit_worker_init, initargs=(mat, policy, None)
        ) as pool:
            for k, result, failed in pool.map(_fit_worker, stream, chunksize=4):
                consider(k, result, failed)
    if seen and skipped == seen:
        raise NumericalFailure(
            f"all {seen} repaired samples failed the logarithm audit"
        )
    return best, seen, skipped


def _mu_over_samples(
    mat: np.ndarray,
    stream: Iterable[tuple[int, np.ndarray]],
    epsilon: float,
    policy: fitting.BranchPolicy,
    delta_step: float,
) -> tuple[Optional[nonmarkov.MuResult], Optional[int]]:
    """Noise-rate fallback: scan every repaired sample, keep the least mu."""
    best: Optional[nonmarkov.MuResult] = None
    best_k: Optional[int] = None
    for k, repaired in stream:
        try:
            result = nonmarkov.non_markovianity(
                mat, repaired, epsilon, policy, delta_step=delta_step
            )
        except NumericalFailure:
            continue
        if result is None:
            continue
        if best is None or (result.mu_min, k) < (best.mu_min, best_k):
            best = result
            best_k = k
    return best, best_k


def _markovian_result(fit: fitting.FitResult, epsilon: float) -> dict[str, Any]:
    return {
        "lindbladian": _matrix_doc(fit.lindbladian),
        "distance": fit.distance,
        "distance_tolerance": epsilon,
        "branch": list(fit.branch),
        "basis_sample": fit.basis_sample_id,
        "lindblad_check_tolerance": fitting.VERIFY_TOL,
    }


def _nonmarkovian_result(
    mu: nonmarkov.MuResult, epsilon: float, delta_step: float, d: int
) -> dict[str, Any]:
    return {
        "mu_min": mu.mu_min,
        "generator": _matrix_doc(mu.generator),
        "delta": mu.delta_used,
        "delta_step": delta_step,
        "score": nonmarkov.markovianity_score(mu.mu_min, d),
        "branch": list(mu.branch),
        "distance": mu.distance,
        "distance_tolerance": epsilon,
        "lindblad_check_tolerance": nonmarkov.VERIFY_TOL,
    }


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    kind = _CHANNELS.get(args.channel)
    if kind is None:
        raise InputError(
            f"unknown channel {args.channel!r}; choose from"
            f" {', '.join(sorted(set(_CHANNELS)))}"
        )
    params: dict[str, Any] = {}
    if args.gamma is not None:
        params["gamma"] = _float_list(args.gamma, "gamma")
    if args.t is not None:
        params["t"] = args.t
    if args.p is not None:
        probs = _float_list(args.p, "p")
        if kind == "depolarizing-cz":
            params["probs"] = probs
        elif len(probs) == 1:
            params["p"] = probs[0]
        else:
            raise InputError(f"channel {args.channel!r} takes a single --p value")
    spec = ChannelSpec(kind, params)
    snapshot = simulate_process_tomography(
        spec, TomographyConfig(shots=args.shots, seed=args.seed)
    )
    write_matrix_file(args.out, snapshot.mat)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    mat = read_matrix_file(args.infile)
    if args.epsilon <= 0:
        raise InputError(f"--epsilon must be positive, got {args.epsilon}")
    policy = _policy(args, mat.shape[0])
    cfg = preprocess.RandomBasisConfig(samples=args.samples, seed=args.seed)
    cfg.validate()
    d = side_dim(mat.shape[0])

    settings = {
        "command": "fit",
        "input": args.infile,
        "epsilon": args.epsilon,
        "m_max": args.m_max,
        "max_branches": args.max_branches,
        "samples": args.samples,
        "precision": args.precision,
        "seed": args.seed,
        "delta_step": args.delta_step,
        "jobs": args.jobs,
    }

    kind, stream = preprocess.repaired_samples(mat, args.precision, args.epsilon, cfg)
    doc: dict[str, Any] = {
        "input_digest": _file_digest(args.infile),
        "settings": settings,
        "pipeline": kind,
    }
    trace: Optional[list] = [] if args.trace else None
    if kind == preprocess.IDENTITY:
        doc["verdict"] = "Identity"
        doc["detail"] = "channel is consistent with the identity map"
    else:
        fit, _, skipped = _fit_over_samples(mat, stream, policy, args.jobs, trace)
        if skipped:
            doc["samples_skipped"] = skipped
        if fit is not None and fit.distance < args.epsilon:
            doc["verdict"] = "Markovian"
            doc["result"] = _markovian_result(fit, args.epsilon)
        else:
            # No branch of any sample lands inside the epsilon ball; ask
            # instead how much white noise would reconcile the snapshot.
            _, fallback = preprocess.repaired_samples(mat, args.precision, args.epsilon, cfg)
            mu, mu_sample = _mu_over_samples(
                mat, fallback, args.epsilon, policy, args.delta_step
            )
            if mu is not None:
                doc["verdict"] = "NonMarkovian"
                doc["result"] = _nonmarkovian_result(
                    mu, args.epsilon, args.delta_step, d
                )
                doc["result"]["basis_sample"] = mu_sample
            else:
                doc["verdict"] = "NoResult"
    if trace is not None:
        doc["trace"] = {"samples": trace}
    doc["wall_time_s"] = time.perf_counter() - started
    _emit_report(doc, args.report)
    return _verdict_exit(doc["verdict"])


def cmd_mu(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    mat = read_matrix_file(args.infile)
    if args.epsilon < 0:
        raise InputError(f"--epsilon must be nonnegative, got {args.epsilon}")
    policy = _policy(args, mat.shape[0])
    d = side_dim(mat.shape[0])
    settings = {
        "command": "mu",
        "input": args.infile,
        "epsilon": args.epsilon,
        "m_max": args.m_max,
        "max_branches": args.max_branches,
        "delta_step": args.delta_step,
    }
    doc: dict[str, Any] = {
        "input_digest": _file_digest(args.infile),
        "settings": settings,
    }
    if args.epsilon == 0:
        # The acceptance test is a strict inequality against epsilon, so a
        # zero budget can never admit a candidate; skip the scan entirely.
        doc["verdict"] = "NoResult"
        doc["detail"] = "epsilon is zero: no candidate can pass distance < 0"
    else:
        mu = nonmarkov.non_markovianity(
            mat, mat, args.epsilon, policy, delta_step=args.delta_step
        )
        if mu is None:
            doc["verdict"] = "NoResult"
        else:
            doc["verdict"] = "NonMarkovian"
            doc["result"] = _nonmarkovian_result(mu, args.epsilon, args.delta_step, d)
    doc["wall_time_s"] = time.perf_counter() - started
    _emit_report(doc, args.report)
    return _verdict_exit(doc["verdict"])


def _epsilon_grid(start: float, stop: float, step: float) -> np.ndarray:
    if step <= 0:
        raise InputError(f"--step must be positive, got {step}")
    if stop <= start:
        return np.empty(0)
    count = int(math.ceil((stop - start) / step - 1e-12))
    return start + step * np.arange(count)


def cmd_sweep_epsilon(args: argparse.Namespace) -> int:
    mat = read_matrix_file(args.infile)
    grid = _epsilon_grid(args.start, args.stop, args.step)
    policy = _policy(args, mat.shape[0])
    cfg = preprocess.RandomBasisConfig(samples=args.samples, seed=args.seed)
    cfg.validate()

    rows: list[tuple[str, str, str, str]] = []

    def add_row(eps: float, mu: Optional[float], dist: Optional[float]) -> None:
        sentinel = MU_ABSENT_SENTINEL if mu is None else mu
        rows.append(
            (
                f"{eps:.10g}",
                "" if mu is None else f"{mu:.10g}",
                f"{sentinel:.10g}",
                "" if dist is None else f"{dist:.10g}",
            )
        )

    kind, stream = preprocess.repaired_samples(mat, args.precision, 1.0, cfg)
    if kind == preprocess.IDENTITY:
        # Consistent with the identity map at every budget: no noise needed.
        distance = float(frobenius(mat - np.eye(mat.shape[0])))
        for eps in grid:
            add_row(float(eps), 0.0, distance)
    elif kind == preprocess.PASSTHROUGH:
        # The epsilon budget only gates acceptance, never the search, so a
        # single branch scan serves every grid point.
        fit = None
        repaired = mat
        _fit_worker_init(mat, policy, None)
        for k, repaired in stream:
            _, fit, _ = _fit_worker((k, repaired))
        for eps in grid:
            eps = float(eps)
            if eps <= 0:
                add_row(eps, None, None)
            elif fit is not None and fit.distance < eps:
                add_row(eps, 0.0, fit.distance)
            else:
                mu = nonmarkov.non_markovianity(
                    mat, repaired, eps, policy, delta_step=args.delta_step
                )
                if mu is None:
                    add_row(eps, None, None)
                else:
                    add_row(eps, mu.mu_min, mu.distance)
    else:
        # Clustered spectrum: the repaired samples depend on the residual
        # tolerance, so each grid point runs the full pipeline.
        for eps in grid:
            eps = float(eps)
            if eps <= 0:
                add_row(eps, None, None)
                continue
            _, per_eps = preprocess.repaired_samples(mat, args.precision, eps, cfg)
            fit, _, _ = _fit_over_samples(mat, per_eps, policy, args.jobs, None)
            if fit is not None and fit.distance < eps:
                add_row(eps, 0.0, fit.distance)
                continue
            _, per_eps = preprocess.repaired_samples(mat, args.precision, eps, cfg)
            mu, _ = _mu_over_samples(mat, per_eps, eps, policy, args.delta_step)
            if mu is None:
                add_row(eps, None, None)
            else:
                add_row(eps, mu.mu_min, mu.distance)

    lines = [CSV_HEADER]
    for eps_text, mu_text, sentinel_text, dist_text in rows:
        lines.append(
            f"{eps_text},{mu_text},{sentinel_text},{dist_text},"
            f"{args.samples},{args.m_max}"
        )
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_multifit(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    paths = [part for part in args.infile.split(",") if part.strip()]
    if not paths:
        raise InputError("--in must list at least one matrix file")
    times = _float_list(args.times, "times")
    if len(times) != len(paths):
        raise InputError(
            f"--times lists {len(times)} values for {len(paths)} snapshots"
        )
    if args.epsilon <= 0:
        raise InputError(f"--epsilon must be positive, got {args.epsilon}")
    mats = [read_matrix_file(path) for path in paths]
    policy = _policy(args, mats[0].shape[0])
    series = SnapshotSeries(snapshots=mats, times=tuple(times))

    doc: dict[str, Any] = {
        "input_digest": [_file_digest(path) for path in paths],
        "settings": {
            "command": "multifit",
            "input": paths,
            "times": times,
            "epsilon": args.epsilon,
            "m_max": args.m_max,
            "max_branches": args.max_branches,
            "delta_step": args.delta_step,
        },
    }
    fit = best_fit_multi(
        series, args.epsilon, policy, delta_step=args.delta_step
    )
    if fit is None:
        doc["verdict"] = "NoResult"
    else:
        doc["verdict"] = "Markovian"
        doc["result"] = _markovian_result(fit, len(paths) * args.epsilon)
        doc["result"]["distance_note"] = (
            "sum of per-snapshot distances; each is below epsilon"
        )
    doc["wall_time_s"] = time.perf_counter() - started
    _emit_report(doc, args.report)
    return _verdict_exit(doc["verdict"])


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindbladfit",
        description="Fit Lindbladian noise models to tomography snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a finite-shot tomography snapshot")
    sim.add_argument("--channel", required=True, help="channel kind (e.g. xgate, unital)")
    sim.add_argument("--gamma", help="comma-separated unital rates")
    sim.add_argument("--t", type=float, help="evolution time for the unital channel")
    sim.add_argument("--p", help="depolarizing probability (or four mixture weights)")
    sim.add_argument("--shots", type=int, default=10_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default="snapshot.json", help="matrix file to write")
    sim.set_defaults(func=cmd_simulate)

    def common_fit_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--in", dest="infile", required=True, help="snapshot matrix file")
        p.add_argument("--epsilon", type=float, required=True, help="acceptance radius")
        p.add_argument("--m-max", dest="m_max", type=int, default=1)
        p.add_argument(
            "--max-branches",
            dest="max_branches",
            type=int,
            default=None,
            help="cap the branch search to the first N of the canonical order",
        )
        p.add_argument("--delta-step", dest="delta_step", type=float, default=0.01)
        p.add_argument("--report", help="write the JSON report here instead of stdout")

    fit = sub.add_parser("fit", help="best-fit Lindbladian, with noise-rate fallback")
    common_fit_flags(fit)
    fit.add_argument("--samples", type=int, default=1, help="random repaired bases")
    fit.add_argument("--precision", type=float, default=preprocess.DEFAULT_PRECISION)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--jobs", type=int, default=1, help="parallel sample fits")
    fit.add_argument("--trace", action="store_true", help="record per-sample distances")
    fit.set_defaults(func=cmd_fit)

    mu = sub.add_parser("mu", help="least white-noise rate explaining the snapshot")
    common_fit_flags(mu)
    mu.set_defaults(func=cmd_mu)

    sweep = sub.add_parser("sweep-epsilon", help="scan the error budget, CSV out")
    sweep.add_argument("--in", dest="infile", required=True)
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--step", type=float, required=True)
    sweep.add_argument("--delta-step", dest="delta_step", type=float, default=0.01)
    sweep.add_argument("--m-max", dest="m_max", type=int, default=1)
    sweep.add_argument("--max-branches", dest="max_branches", type=int, default=None)
    sweep.add_argument("--samples", type=int, default=1)
    sweep.add_argument("--precision", type=float, default=preprocess.DEFAULT_PRECISION)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--csv", help="write the table here instead of stdout")
    sweep.set_defaults(func=cmd_sweep_epsilon)

    multi = sub.add_parser("multifit", help="joint fit across a snapshot time series")
    multi.add_argument("--in", dest="infile", required=True, help="comma-separated files")
    multi.add_argument("--times", required=True, help="comma-separated snapshot times")
    multi.add_argument("--epsilon", type=float, required=True)
    multi.add_argument("--m-max", dest="m_max", type=int, default=1)
    multi.add_argument("--max-branches", dest="max_branches", type=int, default=None)
    multi.add_argument("--delta-step", dest="delta_step", type=float, default=0.01)
    multi.add_argument("--report")
    multi.set_defaults(func=cmd_multifit)

    return parser


# Flags whose value can be a comma list with a leading minus sign; argparse
# only recognizes bare negative numbers, so glue these into --flag=value.
_NUMBER_LIST_FLAGS = {"--gamma", "--p", "--times"}


def _merge_number_lists(argv: list[str]) -> list[str]:
    merged: list[str] = []
    pending: Optional[str] = None
    for token in argv:
        if pending is not None:
            merged.append(f"{pending}={token}")
            pending = None
        elif token in _NUMBER_LIST_FLAGS:
            pending = token
        else:
            merged.append(token)
    if pending is not None:
        merged.append(pending)
    return merged


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_number_lists(list(argv)))
    except SystemExit as exc:
        # argparse exits with its own code 2 on bad flags; fold that into
        # the input-error code so 2 stays reserved for NoResult
        return 0 if not exc.code else EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except OutOfRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except LindbladFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
