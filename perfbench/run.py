"""lindbladfit benchmark: closed-loop CLI verdicts on fixed input panels.

    python3 perfbench/run.py --workload qubit-fit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One client calls ``lindbladfit.cli.main`` in-process,
in a closed loop: the next verdict starts when the previous one returns.
The loop makes whole passes ("rounds") over the workload's panel, as many
as land nearest ``--seconds``, visiting the panel in an order drawn from
``--seed``.  Every report is checked (see ``panel.certify``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics of a traced
round, the tracing overhead and the solver batch-scaling probe.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("qubit-fit", "ququart-branch", "series-multifit")
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 9
#: verdict_s_p90 needs at least this many verdicts in a run.
P90_MIN_SAMPLES = 100

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import lindbladfit.cli
sys.exit(lindbladfit.cli.main(sys.argv[2:]))
"""


@dataclass
class Verdict:
    index: int
    seconds: float
    code: Optional[int]
    doc: Optional[dict]
    error: str = ""


def _invoke(cli, inp, report: Path, tracer=None) -> tuple:
    """One CLI call: (seconds, exit code or None if it raised, error text)."""
    report.unlink(missing_ok=True)
    argv = inp.argv(str(report))
    started = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.verdict_span():
                code = cli.main(argv)
    except Exception:  # a raising verdict is a failure to record, not to stop on
        return time.perf_counter() - started, None, traceback.format_exc()
    return time.perf_counter() - started, code, ""


def run_round(cli, inputs, order, report: Path, tracer=None) -> list:
    verdicts = []
    for i in order:
        seconds, code, error = _invoke(cli, inputs[i], report, tracer)
        try:
            doc = json.loads(report.read_text())
        except (OSError, ValueError):  # no report, or not JSON: certify() flags it
            doc = None
        verdicts.append(Verdict(i, seconds, code, doc, error))
    return verdicts


def measure_setup(warmup, report: Path) -> float:
    """Median wall time of a fresh interpreter that imports the CLI and runs one verdict."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *warmup.argv(str(report))],
            capture_output=True, text=True, timeout=30,
        )
        times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up verdict exited {proc.returncode}: {proc.stderr}")
    return statistics.median(times)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
    }


def check_answers(panel, inputs, verdicts) -> tuple:
    """(failed invocations, determinism problems, first-round docs, messages)."""
    failed = 0
    messages = []
    first: dict = {}
    unstable = 0
    for v in verdicts:
        inp = inputs[v.index]
        try:
            if v.error:
                problems = [v.error.strip().splitlines()[-1]]
            else:
                problems = panel.certify(inp, v.code, v.doc)
            answer = None if v.doc is None else (v.doc["verdict"], panel.mu_sentinel(v.doc))
        except (KeyError, TypeError, ValueError) as exc:
            problems, answer, v.doc = [f"malformed report: {exc!r}"], None, None
        if problems:
            failed += 1
            messages.append(f"FAILED {inp.name}: {'; '.join(problems)}")
        if v.index not in first:
            first[v.index] = (answer, v.doc)
        elif first[v.index][0] != answer:
            unstable += 1
            messages.append(f"NONDETERMINISTIC {inp.name}: {first[v.index][0]} then {answer}")
    docs = [first[i][1] for i in range(len(inputs))]
    return failed, unstable, docs, messages


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def repeat_for(seconds: float, step) -> float:
    """Call step() the whole number of times whose total lands nearest ``seconds``.

    Returns the elapsed wall time.  A round is a whole pass over the panel,
    so stopping at the nearest count keeps every input equally represented.
    """
    started = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / calls >= seconds:
            return elapsed


def run_untraced(cli, inputs, orders, report, seconds) -> tuple:
    verdicts = []

    def step():
        verdicts.extend(run_round(cli, inputs, next(orders), report))

    return verdicts, repeat_for(seconds, step)


def run_traced(cli, spans, inputs, orders, report, seconds) -> tuple:
    """Alternate untraced and traced rounds.

    Returns all verdicts, the tracers, the layer metrics of each traced
    round and the round wall times keyed by whether the round was traced.
    """
    verdicts, tracers, layers, walls = [], [], [], {False: [], True: []}

    def step():
        t0 = time.perf_counter()
        verdicts.extend(run_round(cli, inputs, next(orders), report))
        walls[False].append(time.perf_counter() - t0)

        tracer = spans.Tracer(first_verdict=len(verdicts))
        t0 = time.perf_counter()
        with tracer.installed():
            traced = run_round(cli, inputs, next(orders), report, tracer)
        walls[True].append(time.perf_counter() - t0)
        skipped = sum(v.doc.get("samples_skipped", 0) for v in traced if v.doc)
        layers.append(tracer.metrics(skipped))
        tracers.append(tracer)
        verdicts.extend(traced)

    repeat_for(seconds, step)
    return verdicts, tracers, layers, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lindbladfit" / "cli.py").is_file():
        print(f"error: no lindbladfit sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads; the set-up interpreters
    # inherit it.  The default two burn about half again as much CPU per
    # verdict on a 2-core machine without changing the wall time.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    import panel
    import probe
    import spans
    from lindbladfit import cli

    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    inputs = panel.WORKLOADS[args.workload]()
    started = time.perf_counter()
    panel.materialize(inputs, work)
    simulate_s = time.perf_counter() - started
    panel.materialize([panel.WARMUP], work)
    report = work / "report.json"

    # Fill lazy imports and per-dimension caches before anything is timed.
    warm = run_round(cli, [panel.WARMUP], [0], report)
    shuffle = random.Random(f"{args.workload}:{args.seed}")
    orders = iter(lambda: shuffle.sample(range(len(inputs)), len(inputs)), None)

    metrics: dict = {}
    if args.trace == 0:
        setup_s = measure_setup(panel.WARMUP, work / "setup-report.json")
        verdicts, wall = run_untraced(cli, inputs, orders, report, args.seconds)
    else:
        verdicts, tracers, layer, walls = run_traced(
            cli, spans, inputs, orders, report, args.seconds
        )

    failed, unstable, docs, messages = check_answers(panel, inputs, verdicts)
    warm_failed, _, _, warm_messages = check_answers(panel, [panel.WARMUP], warm)
    failed += warm_failed
    messages += warm_messages
    truth_match, mu_sentinel_mean = panel.answer_quality(inputs, docs)
    attempted = len(verdicts) + len(warm)
    correct = failed == 0 and unstable == 0

    rows = [
        panel.answer_row(inp, doc, statistics.median(v.seconds for v in verdicts if v.index == i))
        for i, (inp, doc) in enumerate(zip(inputs, docs))
    ]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"answers-{tag}.json").write_text(json.dumps(rows, indent=1) + "\n")
    print(f"answers ({args.workload}, one pass of {len(inputs)} inputs):")
    for line in panel.format_table(rows):
        print("  " + line)
    for line in messages:
        print(line)

    times = [v.seconds for v in verdicts]
    if args.trace == 0:
        p90 = (
            f"{statistics.quantiles(times, n=10)[-1]:.4f} s"
            if len(times) >= P90_MIN_SAMPLES
            else f"n/a ({len(times)} verdicts; needs {P90_MIN_SAMPLES})"
        )
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "verdict_s_p50": _metric(statistics.median(times), "s"),
            "verdicts_per_s": _metric(len(verdicts) / wall, "1/s"),
            "mu_sentinel_mean": _metric(mu_sentinel_mean, "mu"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
        print(f"end-to-end ({len(verdicts)} verdicts in {wall:.2f} s, closed loop, one client):")
        for name, m in metrics.items():
            print(f"  {name:18s} {m['value']:.6g} {m['unit']}")
        print(f"  {'verdict_s_p90':18s} {p90}")
        print(f"  {'fail_ratio':18s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
        print(f"  {'truth_match':18s} {truth_match:.6g} ratio")
    else:
        counts = [
            {k: v for k, v in m.items() if spans.LAYER_METRICS[k] == spans.COUNT}
            for m in layer
        ]
        if any(c != counts[0] for c in counts):
            correct = False
            print("NONDETERMINISTIC traced counts differ between traced rounds")
        for name, unit in spans.LAYER_METRICS.items():
            if unit == spans.SECONDS:
                metrics[name] = _metric(statistics.median(m[name] for m in layer), unit)
            else:
                metrics[name] = _metric(layer[0][name], unit)
        metrics["channels.simulate_s"] = _metric(simulate_s, "s")
        metrics["trace.overhead_ratio"] = _metric(
            statistics.median(walls[True]) / statistics.median(walls[False]), "ratio"
        )
        metrics["answers.truth_match"] = _metric(truth_match, "ratio")
        for name, value in probe.batch_scaling(tracers[0].captured).items():
            metrics[name] = _metric(value, "us")
        spans_doc = [dict(s, round=r) for r, t in enumerate(tracers) for s in t.dump()]
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans_doc) + "\n")
        print(
            f"per-layer (one traced pass of {len(inputs)} inputs,"
            f" {len(tracers)} traced rounds):"
        )
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
