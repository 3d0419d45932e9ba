"""Command-line front end: simulate snapshots, fit generators, sweep budgets.

Snapshots travel as small JSON "matrix files": ``{"dim": n, "data": [...]}``
with ``data`` holding the row-major entries as ``[re, im]`` pairs.  Analysis
commands emit a JSON report carrying the input digest, the verdict
(Markovian / NonMarkovian / Identity / NoResult), every tolerance and
setting that went into it, and the wall time, so a report alone is enough
to reproduce the run.  ``sweep-epsilon`` writes a plot-ready CSV instead.

``fit`` and every ``sweep-epsilon`` row make one decision, `_decide`: repair
the snapshot once, search the branches of all repaired samples in one
best-fit call, and when its winner misses epsilon ask the same samples, in
one batch, for the least white-noise rate mu.

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
from typing import Any, NamedTuple, Optional

import numpy as np

from . import fitting, nonmarkov, preprocess
from .channels import ChannelSpec, TomographyConfig, simulate_process_tomography
from .errors import (
    DimensionMismatch, InputError, LindbladFitError, NotPerfectSquareDim, NumericalFailure,
    OutOfRange,
)
# eig_full is not called here; the benchmark tracer (perfbench/spans.py)
# still looks it up on this module.
from .linalg import eig_full, frobenius, side_dim  # noqa: F401
from .multisnap import DELTA_GRID_SNAPSHOT, best_fit_multi

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

def _matrix_doc(mat: np.ndarray) -> dict[str, Any]:
    mat = np.asarray(mat, dtype=complex)
    return {
        "dim": int(mat.shape[0]),
        "data": [[float(v.real), float(v.imag)] for v in mat.reshape(-1)],
    }


def write_matrix_file(path: str, mat: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_matrix_doc(mat), fh)
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
        dim = doc["dim"]
        data = doc["data"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: expected an object with dim and data") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InputError(f"{path}: dim must be a JSON integer, got {dim!r}")
    if dim < 1 or not isinstance(data, list) or len(data) != dim * dim:
        raise InputError(
            f"{path}: data length {len(data) if isinstance(data, list) else '?'}"
            f" does not match dim {dim}"
        )
    try:
        # JSON numbers only: true and false are ints to Python
        if any(isinstance(v, bool) or not isinstance(v, (int, float))
               for pair in data for v in pair):
            raise TypeError("entries must be JSON numbers")
        flat = np.array([complex(re, im) for re, im in data])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: entries must be [re, im] pairs of JSON numbers") from exc
    if not np.all(np.isfinite(flat.real)) or not np.all(np.isfinite(flat.imag)):
        raise InputError(f"{path}: matrix entries must be finite")
    return flat.reshape(dim, dim)


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return "sha256:" + digest.hexdigest()


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
        values = [_finite(part) for part in text.split(",") if part.strip() != ""]
    except argparse.ArgumentTypeError as exc:
        raise InputError(
            f"--{flag} expects comma-separated finite numbers, got {text!r}"
        ) from exc
    if not values:
        raise InputError(f"--{flag} must list at least one number")
    return values


# ----------------------------------------------------------------------
# Shared pipeline pieces
# ----------------------------------------------------------------------

def _policy(args: argparse.Namespace, dim: int) -> fitting.BranchPolicy:
    policy = fitting.BranchPolicy(m_max=args.m_max, max_branches=args.max_branches)
    policy.validate()
    grid = (2 * policy.m_max + 1) ** dim
    if min(grid, policy.max_branches or grid) > MAX_UNCAPPED_BRANCHES:
        raise InputError(
            f"m_max={policy.m_max} enumerates {grid} logarithm branches at"
            f" dimension {dim}; pass --max-branches {MAX_UNCAPPED_BRANCHES} or"
            " less to cap the search"
        )
    return policy


def _sample_config(args: argparse.Namespace) -> preprocess.RandomBasisConfig:
    cfg = preprocess.RandomBasisConfig(samples=args.samples, seed=args.seed)
    cfg.validate()
    return cfg


class _Decision(NamedTuple):
    kind: str
    verdict: str
    fit: Optional[fitting.FitResult] = None
    mu: Optional[nonmarkov.MuResult] = None
    skipped: int = 0
    p1_maxiters: Optional[int] = None
    p2_maxiters: Optional[int] = None


def _decide(
    mat: np.ndarray,
    epsilon: float,
    policy: fitting.BranchPolicy,
    cfg: preprocess.RandomBasisConfig,
    precision: float,
    delta_step: float,
    trace: Optional[list] = None,
    memo: Optional[dict] = None,
) -> _Decision:
    """The verdict on one snapshot at one epsilon.

    Repairs the snapshot once and stacks its samples once; sample k sits at
    position k of the stack, so a winner's position is its sample id.  One
    ``fitting.best_fit_lindbladian`` call searches every sample's branches
    with an unbounded acceptance radius, so each sample's best distance is
    known for the trace; the least (distance, sample id) is Markovian when
    it lands within epsilon.  Otherwise the same stack goes through one
    ``nonmarkov.non_markovianity`` call, which solves every sample's
    (branch, delta) pairs in one batch and picks the least mu, ties going
    to the lower sample id.  The decision counts the samples skipped by the
    logarithm audit and the MaxIters solves of each solver stage it ran.

    Within one pipeline kind the samples do not depend on epsilon (it only
    decides whether the cluster bases are accepted, not what their vectors
    are), so ``memo`` keeps each kind's stack and best fit for the next
    call on the same snapshot: a sweep runs each branch search once.
    """
    kind, stream = preprocess.repaired_samples(mat, precision, epsilon, cfg)
    if kind == preprocess.IDENTITY:
        return _Decision(kind, "Identity")
    memo = {} if memo is None else memo
    if kind not in memo:
        stack = np.stack([r for _, r in stream])
        fits: dict = {}
        fit, p1_maxiters = fitting.best_fit_lindbladian(
            mat, stack, math.inf, policy, sample_fits=fits
        )
        if trace is not None:
            trace.extend([k, getattr(fits.get(k), "distance", None)] for k in range(len(stack)))
        memo[kind] = (stack, fit, len(stack) - len(fits), p1_maxiters)
    stack, fit, skipped, p1_maxiters = memo[kind]
    if fit is not None and fit.distance < epsilon:
        return _Decision(kind, "Markovian", fit=fit, skipped=skipped, p1_maxiters=p1_maxiters)
    # No branch of any sample lands inside the epsilon ball; ask instead
    # how much white noise would reconcile the snapshot.
    mu, p2_maxiters = nonmarkov.non_markovianity(
        mat, stack, epsilon, policy, delta_step=delta_step
    )
    verdict = "NoResult" if mu is None else "NonMarkovian"
    return _Decision(
        kind, verdict, mu=mu, skipped=skipped, p1_maxiters=p1_maxiters, p2_maxiters=p2_maxiters
    )


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
        "lindblad_check_tolerance": fitting.VERIFY_TOL,
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
    cfg = _sample_config(args)
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
    }
    trace: Optional[list] = [] if args.trace else None
    decision = _decide(mat, args.epsilon, policy, cfg, args.precision, args.delta_step, trace)
    doc: dict[str, Any] = {
        "input_digest": _file_digest(args.infile),
        "settings": settings,
        "pipeline": decision.kind,
        "verdict": decision.verdict,
    }
    if decision.verdict == "Identity":
        doc["detail"] = "channel is consistent with the identity map"
    if decision.skipped:
        doc["samples_skipped"] = decision.skipped
    if decision.p1_maxiters is not None:
        doc["p1_maxiters"] = decision.p1_maxiters
    if decision.p2_maxiters is not None:
        doc["p2_maxiters"] = decision.p2_maxiters
    if decision.fit is not None:
        doc["result"] = _markovian_result(decision.fit, args.epsilon)
    elif decision.mu is not None:
        doc["result"] = _nonmarkovian_result(
            decision.mu, args.epsilon, args.delta_step, d
        )
        doc["result"]["basis_sample"] = decision.mu.basis_sample
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
        mu, doc["p2_maxiters"] = nonmarkov.non_markovianity(
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


def _csv_number(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.10g}"


def cmd_sweep_epsilon(args: argparse.Namespace) -> int:
    mat = read_matrix_file(args.infile)
    grid = _epsilon_grid(args.start, args.stop, args.step)
    policy = _policy(args, mat.shape[0])
    cfg = _sample_config(args)

    # Each row is fit's verdict at its epsilon; the memo runs each pipeline
    # kind's branch search once for the whole grid.
    memo: dict = {}
    lines = [CSV_HEADER]
    for eps in grid.tolist():
        mu = distance = None
        # fit refuses epsilon <= 0: no candidate can pass distance < epsilon.
        if eps > 0:
            decision = _decide(
                mat, eps, policy, cfg, args.precision, args.delta_step, memo=memo
            )
            if decision.verdict == "Identity":
                # Consistent with the identity map: no noise needed.
                mu, distance = 0.0, float(frobenius(mat - np.eye(mat.shape[0])))
            elif decision.fit is not None:
                mu, distance = 0.0, decision.fit.distance
            elif decision.mu is not None:
                mu, distance = decision.mu.mu_min, decision.mu.distance
        sentinel = MU_ABSENT_SENTINEL if mu is None else mu
        cells = [_csv_number(v) for v in (eps, mu, sentinel, distance)]
        lines.append(",".join(cells + [str(args.samples), str(args.m_max)]))
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_multifit(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    paths = [part.strip() for part in args.infile.split(",") if part.strip()]
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
            "delta_grid_snapshot": DELTA_GRID_SNAPSHOT,
        },
    }
    fit, doc["joint_maxiters"] = best_fit_multi(
        mats, times, args.epsilon, policy, delta_step=args.delta_step
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

def _positive(convert):
    """argparse type: the flag's value through ``convert``, required above 0."""

    def parse(text: str):
        value = convert(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = convert.__name__  # names the type in argparse's messages
    return parse


def _finite(text: str) -> float:
    """argparse type: a float, refusing inf and nan."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


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

    def search_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m-max", dest="m_max", type=int, default=1)
        p.add_argument(
            "--max-branches",
            dest="max_branches",
            type=int,
            default=None,
            help="cap the branch search to the first N of the canonical order",
        )
        p.add_argument(
            "--delta-step", dest="delta_step", type=_positive(_finite), default=0.01
        )

    def sample_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--samples", type=int, default=1, help="random repaired bases")
        p.add_argument("--precision", type=_finite, default=preprocess.DEFAULT_PRECISION)
        p.add_argument("--seed", type=int, default=0)

    def common_fit_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--in", dest="infile", required=True, help="snapshot matrix file")
        p.add_argument("--epsilon", type=_finite, required=True, help="acceptance radius")
        search_flags(p)
        p.add_argument("--report", help="write the JSON report here instead of stdout")

    fit = sub.add_parser("fit", help="best-fit Lindbladian, with noise-rate fallback")
    common_fit_flags(fit)
    sample_flags(fit)
    fit.add_argument("--trace", action="store_true", help="record per-sample distances")
    fit.set_defaults(func=cmd_fit)

    mu = sub.add_parser("mu", help="least white-noise rate explaining the snapshot")
    common_fit_flags(mu)
    mu.set_defaults(func=cmd_mu)

    sweep = sub.add_parser("sweep-epsilon", help="scan the error budget, CSV out")
    sweep.add_argument("--in", dest="infile", required=True, help="snapshot matrix file")
    sweep.add_argument("--from", dest="start", type=_finite, required=True)
    sweep.add_argument("--to", dest="stop", type=_finite, required=True)
    sweep.add_argument("--step", type=_finite, required=True)
    search_flags(sweep)
    sample_flags(sweep)
    sweep.add_argument("--csv", help="write the table here instead of stdout")
    sweep.set_defaults(func=cmd_sweep_epsilon)

    multi = sub.add_parser("multifit", help="joint fit across a snapshot time series")
    multi.add_argument("--in", dest="infile", required=True, help="comma-separated files")
    multi.add_argument("--times", required=True, help="comma-separated snapshot times")
    multi.add_argument("--epsilon", type=_finite, required=True, help="acceptance radius")
    search_flags(multi)
    multi.add_argument("--report", help="write the JSON report here instead of stdout")
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
    except (InputError, DimensionMismatch, NotPerfectSquareDim, OutOfRange, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except LindbladFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
