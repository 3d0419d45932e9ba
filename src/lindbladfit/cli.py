"""Command-line front end: simulate snapshots, fit generators, sweep budgets.

Snapshots travel as small JSON "matrix files": ``{"dim": n, "data": [...]}``
with ``data`` holding the row-major entries as ``[re, im]`` pairs.  Analysis
commands emit a JSON report carrying the input digest, the verdict
(Markovian / NonMarkovian / Identity / NoResult), every tolerance and
setting that went into it, and the wall time, so a report alone is enough
to reproduce the run.  ``sweep-epsilon`` writes a plot-ready CSV instead.

Every report takes one path.  The verdict's fields come from
`decide.decide` for ``fit`` (``mu`` is its alias) and from
`best_fit_multi` for ``multifit``; one closing step, `_close`, adds the
digest, the settings (every parsed flag but the input and report paths and
``--trace``) and the wall time, writes the report and sets the exit code.
Each ``sweep-epsilon`` row is ``fit``'s decision at its epsilon, on one
`decide.Candidates` table for the whole sweep.

Each report's ``input_digest`` hashes the very bytes its matrices were
parsed from: every matrix file is read once.  `main` builds its parser on
its first call and reuses it for every later call in the process, so a
caller that runs many verdicts in one interpreter pays for it once;
`build_parser` still returns a fresh parser.

Exit codes: 0 when any verdict is produced, 2 for NoResult (also when
every candidate's logarithm fails its audit), 3 for bad input, 4 for a
numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from typing import Any, Optional

import numpy as np

from . import decide, fitting, nonmarkov, preprocess
from .channels import ChannelSpec, TomographyConfig, simulate_process_tomography
from .errors import (
    AuditFailure, DimensionMismatch, InputError, LindbladFitError, NotCompletelyPositive,
    NotPerfectSquareDim, NumericalFailure, OutOfRange,
)
# eig_full is not called here; the benchmark tracer (perfbench/spans.py)
# still looks it up on this module.
from .linalg import eig_full, frobenius  # noqa: F401
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

# Refuse sweep grids of more rows than this: each row is a fit verdict, and
# the grid is built whole first (a 1e-12 step over [0, 1] would need 8 TB).
MAX_SWEEP_ROWS = 1_000_000

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

# the simulate flags each channel kind reads; any other one is refused
_CHANNEL_FLAGS = {
    "xgate": (),
    "iswap": (),
    "identity": (),
    "depolarizing": ("p",),
    "unital": ("gamma", "t"),
    "depolarizing-cz": ("p",),
}


# ----------------------------------------------------------------------
# Matrix files and reports
# ----------------------------------------------------------------------

def write_matrix_file(path: str, mat: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(decide.matrix_doc(mat), fh)
        fh.write("\n")


def read_matrix_file(path: str) -> np.ndarray:
    return _read_input(path)[0]


def _read_input(path: str) -> tuple[np.ndarray, str]:
    """The matrix in a matrix file and the sha256 digest of the bytes it was
    parsed from: the file is read once, so a report's ``input_digest``
    names exactly what its verdict saw."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        dim = doc["dim"]
        data = doc["data"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: expected an object with dim and data") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InputError(f"{path}: dim must be a JSON integer, got {dim!r}")
    if dim < 4 or math.isqrt(dim) ** 2 != dim:
        raise InputError(f"{path}: dim must be d*d with d >= 2, got {dim}")
    if not isinstance(data, list) or len(data) != dim * dim:
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
    return flat.reshape(dim, dim), digest


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


def _candidates(args: argparse.Namespace, mat: np.ndarray) -> decide.Candidates:
    """The candidate table of ``mat`` under the search and sample flags."""
    return decide.Candidates(mat, _policy(args, mat.shape[0]), args.precision, args.samples,
                             args.seed)


# Parsed flags that shape no verdict: the input and report paths, the
# trace switch and the handler.  Every other flag is a report setting.
_NOT_SETTINGS = ("func", "infile", "report", "trace")


def _close(args: argparse.Namespace, started: float, digest, doc: dict, **settings) -> int:
    """The one closing step of every report: add the input digest, the
    settings and the wall time to the verdict's fields ``doc``, write the
    report to ``--report`` (stdout without it) and return its exit code.
    The settings are the parsed flags less `_NOT_SETTINGS`, with the input
    path as ``input``; ``settings`` overrides any of them."""
    flags = {k: v for k, v in vars(args).items() if k not in _NOT_SETTINGS}
    doc.update(
        input_digest=digest,
        settings={**flags, "input": args.infile, **settings},
        wall_time_s=time.perf_counter() - started,
    )
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_NO_RESULT if doc["verdict"] == "NoResult" else EXIT_OK


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
    for flag in ("gamma", "t", "p"):
        if getattr(args, flag) is not None and flag not in _CHANNEL_FLAGS[kind]:
            raise InputError(f"channel {args.channel!r} does not take --{flag}")
    params: dict[str, Any] = {}
    if args.gamma is not None:
        params["gamma"] = _float_list(args.gamma, "gamma")
    if args.t is not None:
        params["t"] = args.t
    if args.p is not None:
        probs = _float_list(args.p, "p")
        if kind == "depolarizing-cz" and len(probs) == 4:
            params["probs"] = probs
        elif kind == "depolarizing" and len(probs) == 1:
            params["p"] = probs[0]
        else:
            count = "four --p values" if kind == "depolarizing-cz" else "a single --p value"
            raise InputError(f"channel {args.channel!r} takes {count}, got {len(probs)}")
    elif kind == "depolarizing":
        raise InputError(f"channel {args.channel!r} requires --p")
    spec = ChannelSpec(kind, params)
    snapshot = simulate_process_tomography(
        spec, TomographyConfig(shots=args.shots, seed=args.seed)
    )
    write_matrix_file(args.out, snapshot.mat)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    mat, digest = _read_input(args.infile)
    trace: Optional[list] = [] if args.trace else None
    doc = decide.decide(_candidates(args, mat), args.epsilon, args.delta_step, trace)
    if trace is not None:
        doc["trace"] = {"samples": trace}
    return _close(args, started, digest, doc)


def _epsilon_grid(start: float, stop: float, step: float) -> np.ndarray:
    if step <= 0:
        raise InputError(f"--step must be positive, got {step}")
    if stop <= start:
        return np.empty(0)
    rows = (stop - start) / step - 1e-12
    if not rows <= MAX_SWEEP_ROWS:  # also refuses an overflow to inf
        raise InputError(f"the sweep grid has {rows:.3g} rows, above {MAX_SWEEP_ROWS}")
    return start + step * np.arange(int(math.ceil(rows)))


def _csv_number(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.10g}"


def cmd_sweep_epsilon(args: argparse.Namespace) -> int:
    mat = read_matrix_file(args.infile)
    grid = _epsilon_grid(args.start, args.stop, args.step)
    # Each row is fit's verdict at its epsilon.  One candidate table serves
    # every row; it repairs the snapshot at the first row fit would accept.
    found = _candidates(args, mat)
    lines = [CSV_HEADER]
    for eps in grid.tolist():
        mu = distance = None
        # fit refuses epsilon <= 0: no candidate can pass distance < epsilon.
        if eps > 0:
            doc = decide.decide(found, eps, args.delta_step)
            if doc["verdict"] == "Identity":
                # Consistent with the identity map: no noise needed.
                mu, distance = 0.0, float(frobenius(mat - np.eye(mat.shape[0])))
            elif "result" in doc:  # a Markovian fit needs no noise
                mu, distance = doc["result"].get("mu_min", 0.0), doc["result"]["distance"]
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
    mats, digests = zip(*(_read_input(path) for path in paths))
    policy = _policy(args, mats[0].shape[0])

    doc: dict[str, Any] = {"verdict": "NoResult", "joint_maxiters": 0}
    try:
        fit, doc["joint_maxiters"] = best_fit_multi(
            mats, times, args.epsilon, policy, delta_step=args.delta_step
        )
    except AuditFailure as exc:  # a snapshot with no logarithm: no generator fits
        fit, doc["detail"] = None, str(exc)
    if fit is not None:
        doc.update(verdict="Markovian", result={
            **decide.markovian_result(fit, len(paths) * args.epsilon),
            "basis_sample": None,
            "distance_note": "sum of per-snapshot distances; each is below epsilon",
        })
    return _close(
        args, started, list(digests), doc,
        input=paths, times=times, delta_grid_snapshot=DELTA_GRID_SNAPSHOT,
    )


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
    sim.add_argument("--t", type=_finite, help="evolution time for the unital channel")
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
        p.add_argument("--delta-step", type=_positive(_finite), default=nonmarkov.DELTA_STEP)

    def sample_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--samples", type=_positive(int), default=1, help="random repaired bases")
        p.add_argument(
            "--precision", type=_positive(_finite), default=preprocess.DEFAULT_PRECISION
        )
        p.add_argument("--seed", type=int, default=0)

    def verdict_flags(p: argparse.ArgumentParser, infile: str) -> None:
        p.add_argument("--in", dest="infile", required=True, help=infile)
        p.add_argument(
            "--epsilon", type=_positive(_finite), required=True, help="acceptance radius"
        )
        search_flags(p)
        p.add_argument("--report", help="write the JSON report here instead of stdout")

    # mu is fit under another name: the least white-noise rate is the
    # verdict exactly when no candidate fits within epsilon
    fit = sub.add_parser(
        "fit", aliases=["mu"], help="best-fit Lindbladian, or the least white-noise rate mu"
    )
    verdict_flags(fit, "snapshot matrix file")
    sample_flags(fit)
    fit.add_argument("--trace", action="store_true", help="record per-sample distances")
    fit.set_defaults(func=cmd_fit)

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
    verdict_flags(multi, "comma-separated files")
    multi.add_argument("--times", required=True, help="comma-separated snapshot times")
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


# Built by the first `main` call and reused by every later one in the
# process: parsing leaves no state in the parser, and building it costs
# more than a verdict settled by the raw fit.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
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
    except (InputError, DimensionMismatch, NotCompletelyPositive, NotPerfectSquareDim,
            OutOfRange, OSError) as exc:
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
