"""The command-line front end: exit codes, the `fit` report, the mu
fallback's one P2 batch, the P1 and P2 MaxIters counts, `--trace`, samples
that fail the logarithm audit, and `sweep-epsilon` rows against `fit` at
the same epsilon.
"""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from lindbladfit import cli, fitting, preprocess, solver
from lindbladfit.channels import (
    ChannelSpec,
    TomographyConfig,
    is_lindbladian,
    simulate_process_tomography,
)
from lindbladfit.linalg import frobenius, max_entangled

EPSILON = 0.05
CHANNELS = {
    "depol": (ChannelSpec("depolarizing", {"p": 0.2}), 10**5),
    "identity": (ChannelSpec("identity"), 10**5),
    "unital": (ChannelSpec("unital", {"gamma": [-200.0, 201.0, 200.5]}), 10**4),
    "xgate": (ChannelSpec("xgate"), 10**4),
}


@pytest.fixture(scope="module")
def snap(tmp_path_factory):
    """Matrix file of each fast test channel, tomography seed 1."""
    root = tmp_path_factory.mktemp("snapshots")
    paths = {}
    for name, (spec, shots) in CHANNELS.items():
        mat = simulate_process_tomography(spec, TomographyConfig(shots=shots, seed=1)).mat
        paths[name] = str(root / f"{name}.json")
        cli.write_matrix_file(paths[name], mat)
    return paths


def run(tmp_path, *argv):
    """(exit code, report without its wall time, or None when none was written)."""
    report = tmp_path / "report.json"
    report.unlink(missing_ok=True)
    code = cli.main([*argv, "--report", str(report)])
    if not report.exists():
        return code, None
    doc = json.loads(report.read_text())
    doc.pop("wall_time_s")
    return code, doc


def fit(tmp_path, path, epsilon=EPSILON, *flags):
    return run(tmp_path, "fit", "--in", path, "--epsilon", str(epsilon), *flags)


def sweep(tmp_path, path, start, stop, step, *flags):
    csv = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep-epsilon", "--in", path, "--from", str(start), "--to", str(stop),
        "--step", str(step), *flags, "--csv", str(csv),
    ])
    assert code == cli.EXIT_OK
    return csv.read_text().splitlines()


def matrix(doc):
    flat = np.array([complex(re, im) for re, im in doc["data"]])
    return flat.reshape(doc["dim"], doc["dim"])


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------

def test_input_errors_exit_3(tmp_path, snap, monkeypatch):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert fit(tmp_path, str(tmp_path / "missing.json"))[0] == cli.EXIT_INPUT_ERROR
    assert fit(tmp_path, str(bad_json))[0] == cli.EXIT_INPUT_ERROR
    # dim must be a JSON integer: 4.9 and "4" used to be read as 4, true as 1
    with open(snap["unital"], encoding="utf-8") as fh:
        doc = json.load(fh)
    for dim in (4.9, "4", True):
        bad_dim = tmp_path / "bad_dim.json"
        bad_dim.write_text(json.dumps({**doc, "dim": dim}))
        assert fit(tmp_path, str(bad_dim)) == (cli.EXIT_INPUT_ERROR, None), dim
    # entries must be JSON numbers that fit a float: complex(True, False)
    # used to read as 1, and a 400-digit integer raised OverflowError
    for first in ([True, False], [10**400, 0]):
        data = [first] + [[float(i % 5 == 0), 0.0] for i in range(1, 16)]
        bad_entries = tmp_path / "bad_entries.json"
        bad_entries.write_text(json.dumps({"dim": 4, "data": data}))
        assert fit(tmp_path, str(bad_entries)) == (cli.EXIT_INPUT_ERROR, None), first
    # a series mixing a d=2 and a d=4 snapshot
    ququart = tmp_path / "ququart.json"
    cli.write_matrix_file(str(ququart), np.diag([1.0] + [0.9] * 15))
    assert run(
        tmp_path, "multifit", "--in", f"{snap['depol']},{ququart}", "--times", "1,2",
        "--epsilon", str(EPSILON),
    ) == (cli.EXIT_INPUT_ERROR, None)
    # a cap above the uncapped limit is no cap: 3^16 = 43,046,721 branches at
    # d=4 would be enumerated, so the input is refused before any of them
    def no_enumeration(*args):
        raise AssertionError("branches were enumerated")

    monkeypatch.setattr(fitting, "enumerate_branches", no_enumeration)
    assert fit(tmp_path, str(ququart), EPSILON, "--max-branches", "50000000") == (
        cli.EXIT_INPUT_ERROR, None
    )
    for epsilon in (0, -0.1):
        assert fit(tmp_path, snap["depol"], epsilon) == (cli.EXIT_INPUT_ERROR, None)
    out = tmp_path / "out.json"
    assert cli.main(["simulate", "--channel", "bogus", "--out", str(out)]) == cli.EXIT_INPUT_ERROR
    assert not out.exists()
    # unital rates and a time that give no completely positive channel
    for flags in (["--t", "-1"], ["--gamma", "1,1,-5", "--t", "1"]):
        argv = ["simulate", "--channel", "unital", *flags, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_INPUT_ERROR, flags
        assert not out.exists()
    # a sweep grid above MAX_SWEEP_ROWS is refused before it is built
    argv = ["sweep-epsilon", "--in", snap["depol"], "--from", "0", "--to", "1",
            "--step", "1e-300", "--csv", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert not out.exists()
    assert cli.main(["fit", "--in", snap["depol"], "--epsilon", "0.05", "--bogus"]) == (
        cli.EXIT_INPUT_ERROR
    )
    assert cli.main([]) == cli.EXIT_INPUT_ERROR


@pytest.mark.parametrize(
    "flag, value",
    [("--delta-step", "0"), ("--delta-step", "-1"), ("--jobs", "0"), ("--jobs", "-2")],
)
def test_bad_delta_step_or_jobs_exits_3_before_any_work(tmp_path, snap, monkeypatch, flag, value):
    """Rejected as the flags are parsed, whatever the verdict would be.
    `--jobs` is not a flag of any command: like any unknown flag, it exits 3."""

    def no_work(*args):
        raise AssertionError("the snapshot was processed")

    monkeypatch.setattr(cli, "read_matrix_file", no_work)
    out = tmp_path / "out"
    commands = [
        ["fit", "--in", snap["depol"], "--epsilon", "0.05", "--report", str(out)],  # Markovian
        ["fit", "--in", snap["unital"], "--epsilon", "0.05", "--report", str(out)],  # NonMarkovian
        ["sweep-epsilon", "--in", snap["depol"], "--from", "0.01", "--to", "0.05",
         "--step", "0.02", "--csv", str(out)],
    ]
    if flag == "--delta-step":
        commands += [
            ["mu", "--in", snap["unital"], "--epsilon", "0.05", "--report", str(out)],
            ["multifit", "--in", f"{snap['depol']},{snap['depol']}", "--times", "1,2",
             "--epsilon", "0.05", "--report", str(out)],
        ]
    for argv in commands:
        assert cli.main([*argv, f"{flag}={value}"]) == cli.EXIT_INPUT_ERROR, argv
        assert not out.exists()


# every float flag a fitting command reads, with the commands that take it
FLOAT_FLAGS = [
    ("fit", "--epsilon"), ("mu", "--epsilon"), ("multifit", "--epsilon"),
    ("sweep-epsilon", "--from"), ("sweep-epsilon", "--to"), ("sweep-epsilon", "--step"),
    ("fit", "--precision"), ("sweep-epsilon", "--precision"),
    ("fit", "--delta-step"), ("mu", "--delta-step"), ("multifit", "--delta-step"),
    ("sweep-epsilon", "--delta-step"),
]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
def test_non_finite_float_flags_exit_3_before_any_work(
    tmp_path, snap, monkeypatch, command, flag, value
):
    """Rejected as the flags are parsed: no verdict, report or traceback.
    Finite values keep their meaning (`mu --epsilon 0` is NoResult, sweep
    rows at epsilon <= 0 are absent; tests above and below)."""

    def no_work(*args):
        raise AssertionError("the snapshot was processed")

    monkeypatch.setattr(cli, "read_matrix_file", no_work)
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--in", snap["unital"], "--epsilon", "0.05", "--report", str(out)],
        "mu": ["mu", "--in", snap["unital"], "--epsilon", "0.05", "--report", str(out)],
        "multifit": ["multifit", "--in", f"{snap['depol']},{snap['depol']}", "--times", "1,2",
                     "--epsilon", "0.05", "--report", str(out)],
        "sweep-epsilon": ["sweep-epsilon", "--in", snap["depol"], "--from", "0.01", "--to",
                          "0.05", "--step", "0.02", "--csv", str(out)],
    }[command]
    assert cli.main([*argv, f"{flag}={value}"]) == cli.EXIT_INPUT_ERROR
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["multifit", "--in", "{depol},{depol}", "--times", "1,inf", "--epsilon", "0.05",
         "--report", "{out}"],
        ["simulate", "--channel", "unital", "--gamma", "0.1,0.2,nan", "--t", "1", "--out", "{out}"],
        ["simulate", "--channel", "depolarizing", "--p", "inf", "--out", "{out}"],
        ["simulate", "--channel", "unital", "--t", "nan", "--out", "{out}"],
        ["simulate", "--channel", "unital", "--t", "inf", "--out", "{out}"],
    ],
    ids=["times", "gamma", "p", "t-nan", "t-inf"],
)
def test_non_finite_list_elements_exit_3(tmp_path, snap, argv):
    """Every element of a number-list flag, and ``--t``, must be finite: no
    report, no matrix file, no traceback."""
    out = tmp_path / "out"
    argv = [arg.format(depol=snap["depol"], out=out) for arg in argv]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--in", "{one}", "--epsilon", "0.05", "--report", "{out}"],
        ["multifit", "--in", "{one}", "--times", "1", "--epsilon", "0.05", "--report", "{out}"],
        ["sweep-epsilon", "--in", "{one}", "--from", "0.01", "--to", "0.05", "--step", "0.02",
         "--csv", "{out}"],
        ["mu", "--in", "{one}", "--epsilon", "0.05", "--report", "{out}"],
    ],
    ids=["fit", "multifit", "sweep-epsilon", "mu"],
)
def test_one_by_one_matrix_file_exits_3(tmp_path, argv):
    """A transfer matrix is d²×d² with d >= 2: a 1×1 file used to crash
    three commands and get NoResult from `mu`.  Larger side dimensions
    than qubits are still read."""
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"dim": 1, "data": [[0.5, 0.0]]}))
    out = tmp_path / "out"
    assert cli.main([arg.format(one=one, out=out) for arg in argv]) == cli.EXIT_INPUT_ERROR
    assert not out.exists()
    nine = tmp_path / "nine.json"
    cli.write_matrix_file(str(nine), np.eye(9))
    assert np.array_equal(cli.read_matrix_file(str(nine)), np.eye(9))


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--channel", "depolarizing"], "--p"),
        (["--channel", "depolcz", "--p", "0.1,0.2"], "--p"),
        (["--channel", "xgate", "--t", "5"], "--t"),
        (["--channel", "iswap", "--gamma", "1,2,3"], "--gamma"),
        (["--channel", "identity", "--p", "0.1"], "--p"),
        (["--channel", "depolarizing", "--p", "0.1", "--gamma", "1,2,3"], "--gamma"),
        (["--channel", "depolarizing", "--p", "0.1,0.2"], "--p"),
        (["--channel", "unital", "--p", "0.1"], "--p"),
    ],
    ids=["depol-no-p", "depolcz-two-p", "xgate-t", "iswap-gamma", "identity-p",
         "depol-gamma", "depol-two-p", "unital-p"],
)
def test_simulate_takes_only_the_flags_its_channel_reads(tmp_path, capsys, flags, named):
    """Each channel kind takes only the flags it reads, and depolarizing
    needs its --p: anything else exits 3 naming the flag, with no file."""
    out = tmp_path / "out.json"
    assert cli.main(["simulate", *flags, "--out", str(out)]) == cli.EXIT_INPUT_ERROR
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_simulate_passes_the_flags_its_channel_reads(tmp_path):
    out = tmp_path / "out.json"
    probs = [0.1, 0.07, 0.08, 0.09]
    argv = ["simulate", "--channel", "depolcz", "--p", ",".join(map(str, probs)),
            "--shots", "100", "--seed", "3", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    spec = ChannelSpec("depolarizing-cz", {"probs": probs})
    want = simulate_process_tomography(spec, TomographyConfig(shots=100, seed=3)).mat
    assert np.array_equal(cli.read_matrix_file(str(out)), want)


def test_multifit_lists_may_have_spaces_after_the_commas(tmp_path, snap):
    """--in is split like --times: a space after a comma is not part of the
    next path."""
    paths = [snap["depol"], snap["depol"]]
    plain = run(tmp_path, "multifit", "--in", ",".join(paths), "--times", "1,2",
                "--epsilon", str(EPSILON))
    spaced = run(tmp_path, "multifit", "--in", ", ".join(paths), "--times", "1, 2",
                 "--epsilon", str(EPSILON))
    assert plain[0] != cli.EXIT_INPUT_ERROR
    assert spaced == plain


def test_help_exits_0(capsys):
    assert cli.main(["fit", "--help"]) == cli.EXIT_OK
    assert "--samples" in capsys.readouterr().out


def test_no_result_exits_2(tmp_path, snap):
    code, doc = run(tmp_path, "mu", "--in", snap["depol"], "--epsilon", "0")
    assert (code, doc["verdict"]) == (cli.EXIT_NO_RESULT, "NoResult")


def test_non_square_side_exits_3(tmp_path):
    path = tmp_path / "three.json"
    cli.write_matrix_file(str(path), np.eye(3))
    assert fit(tmp_path, str(path)) == (cli.EXIT_INPUT_ERROR, None)


def test_mu_on_a_singular_matrix_exits_4(tmp_path):
    path = tmp_path / "singular.json"
    cli.write_matrix_file(str(path), np.diag([0.0, 0.3, 0.6, 0.9]))
    code, doc = run(tmp_path, "mu", "--in", str(path), "--epsilon", "0.05")
    assert (code, doc) == (cli.EXIT_NUMERICAL_FAILURE, None)


# ----------------------------------------------------------------------
# the fit report
# ----------------------------------------------------------------------

def test_markovian_report(tmp_path, snap):
    code, doc = fit(tmp_path, snap["depol"], EPSILON, "--samples", "4")
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_OK, "Markovian", "samples")
    res = doc["result"]
    gen = matrix(res["lindbladian"])
    mat = cli.read_matrix_file(snap["depol"])
    assert frobenius(mat - expm(gen)) == pytest.approx(res["distance"], rel=1e-9)
    assert res["distance"] < doc["settings"]["epsilon"] == EPSILON
    assert is_lindbladian(gen, tol=res["lindblad_check_tolerance"]).ok
    assert res["basis_sample"] in range(4) and len(res["branch"]) == 4
    assert doc["p1_maxiters"] == 0
    assert "p2_maxiters" not in doc  # the mu fallback never ran


def test_nonmarkovian_report(tmp_path, snap):
    code, doc = fit(tmp_path, snap["unital"])
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_OK, "NonMarkovian", "passthrough")
    res = doc["result"]
    gen = matrix(res["generator"])
    mat = cli.read_matrix_file(snap["unital"])
    assert frobenius(mat - expm(gen)) == pytest.approx(res["distance"], rel=1e-9)
    assert res["distance"] < doc["settings"]["epsilon"]
    assert res["mu_min"] == pytest.approx(4.569177, abs=1e-6)
    perp = max_entangled(2).omega_perp
    assert is_lindbladian(gen - res["mu_min"] * perp, tol=res["lindblad_check_tolerance"]).ok
    assert res["basis_sample"] == 0
    assert (doc["p1_maxiters"], doc["p2_maxiters"]) == (0, 0)


def test_no_result_report(tmp_path, snap):
    code, doc = fit(tmp_path, snap["depol"], 0.001)
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_NO_RESULT, "NoResult", "samples")
    assert "result" not in doc
    assert doc["p2_maxiters"] == 0


def test_mu_fallback_is_one_p2_batch(tmp_path, snap, monkeypatch):
    """The X gate's four repaired samples all miss epsilon; their (branch,
    delta) pairs go to the P2 solver in one call."""
    batch = solver.min_mu_batch
    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return batch(*args)

    monkeypatch.setattr(solver, "min_mu_batch", counting)
    code, doc = fit(tmp_path, snap["xgate"], EPSILON, "--samples", "4")
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_OK, "NonMarkovian", "samples")
    assert len(calls) == 1
    res = doc["result"]
    assert res["basis_sample"] == 0
    assert res["mu_min"] == pytest.approx(4.911674, abs=1e-6)


@pytest.mark.parametrize("command", ["fit", "mu"])
def test_maxiters_solves_are_counted_in_the_report(tmp_path, snap, monkeypatch, command):
    """With the solvers cut at a few iterations, every solved P2 pair ends
    MaxIters and the report says how many."""
    batch = solver.min_mu_batch
    statuses = []

    def recording(targets, d, deltas):
        reports = batch(targets, d, deltas)
        statuses.extend(rep.status for rep in reports)
        return reports

    monkeypatch.setattr(solver, "ITER_LIMIT", 5)
    monkeypatch.setattr(solver, "min_mu_batch", recording)
    _, doc = run(tmp_path, command, "--in", snap["unital"], "--epsilon", str(EPSILON))
    assert doc["p2_maxiters"] == statuses.count(solver.MAX_ITERS) == len(statuses) > 0


def short_p1(monkeypatch, statuses):
    """Cut every solve at 2 steps (Newton steps for P1, Newton steps on mu
    for P2), recording the P1 statuses."""
    batch = solver.closest_lindbladian_batch

    def recording(targets, d):
        reports = batch(targets, d)
        statuses.extend(rep.status for rep in reports)
        return reports

    monkeypatch.setattr(solver, "ITER_LIMIT", 2)
    monkeypatch.setattr(solver, "closest_lindbladian_batch", recording)


def test_p1_maxiters_solves_are_counted_in_the_report(tmp_path, snap, monkeypatch):
    """With the P1 solver cut at a few iterations, most class solves end
    MaxIters and the report sums them over the samples."""
    statuses = []
    short_p1(monkeypatch, statuses)
    _, doc = fit(tmp_path, snap["depol"], EPSILON, "--samples", "4")
    assert doc["p1_maxiters"] == statuses.count(solver.MAX_ITERS) > len(statuses) // 2


@pytest.mark.parametrize("scale", [0.5, 0.0], ids=["half identity", "zero"])
def test_one_cluster_far_from_the_identity_is_not_identity(tmp_path, scale):
    """A spectrum that is one tight positive cluster is Identity only when
    the matrix lies within epsilon of I; otherwise it is repaired."""
    path = tmp_path / "cluster.json"
    cli.write_matrix_file(str(path), scale * np.eye(4))
    code, doc = fit(tmp_path, str(path))
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_NO_RESULT, "NoResult", "samples")


def test_identity_report(tmp_path, snap):
    code, doc = fit(tmp_path, snap["identity"], EPSILON, "--trace")
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_OK, "Identity", "identity")
    assert "result" not in doc and "p1_maxiters" not in doc  # P1 never ran
    assert doc["trace"] == {"samples": []}


def test_trace_lists_every_sample(tmp_path, snap):
    """One [sample id, best distance over its branches] entry per sample,
    and the report's winner is the least of them."""
    _, doc = fit(tmp_path, snap["depol"], EPSILON, "--samples", "4", "--trace")
    samples = doc["trace"]["samples"]
    assert [k for k, _ in samples] == [0, 1, 2, 3]
    k, distance = min(samples, key=lambda entry: (entry[1], entry[0]))
    assert (k, distance) == (doc["result"]["basis_sample"], doc["result"]["distance"])
    assert "samples_skipped" not in doc


def _ill_conditioned():
    """A 4x4 matrix whose exp(log R) round trip fails the logarithm audit:
    two of its eigenvectors are 1e-6 apart."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal((4, 4)) + 0j
    v[:, 1] = v[:, 0] + 1e-6 * rng.standard_normal(4)
    return (v * np.array([1.0, 0.5, 0.7, 0.9])) @ np.linalg.inv(v)


def fail_audit(monkeypatch, bad):
    """Swap the repaired samples at the positions in ``bad`` for a matrix
    that fails the logarithm audit; returns the list that records the
    original samples of the latest repair."""
    repair = preprocess.repaired_samples
    drawn = []

    def swapped(*args):
        kind, stream = repair(*args)
        drawn.clear()

        def samples():
            for k, r in stream:
                drawn.append(r)
                yield k, _ill_conditioned() if k in bad else r

        return kind, samples()

    monkeypatch.setattr(preprocess, "repaired_samples", swapped)
    return drawn


def test_a_sample_that_fails_the_log_audit_is_skipped(tmp_path, snap, monkeypatch):
    """Sample 3, the winner of the clean run, fails the audit; the other
    three decide."""
    flags = ("--samples", "4", "--trace")
    _, clean = fit(tmp_path, snap["depol"], EPSILON, *flags)
    assert clean["result"]["basis_sample"] == 3
    drawn = fail_audit(monkeypatch, {3})
    code, doc = fit(tmp_path, snap["depol"], EPSILON, *flags)
    assert (code, doc["verdict"], doc["samples_skipped"]) == (cli.EXIT_OK, "Markovian", 1)
    samples = doc["trace"]["samples"]
    assert samples[3] == [3, None]
    assert samples[:3] == clean["trace"]["samples"][:3]
    # the verdict is the one the three good samples give alone
    good = [0, 1, 2]
    want, _ = fitting.best_fit_lindbladian(
        cli.read_matrix_file(snap["depol"]), np.stack([drawn[k] for k in good]), math.inf
    )
    res = doc["result"]
    assert res["basis_sample"] == good[want.basis_sample_id]
    assert (res["distance"], res["branch"]) == (want.distance, list(want.branch))


def test_all_samples_failing_the_log_audit_exits_4(tmp_path, snap, monkeypatch):
    fail_audit(monkeypatch, {0, 1, 2, 3})
    assert fit(tmp_path, snap["depol"], EPSILON, "--samples", "4") == (
        cli.EXIT_NUMERICAL_FAILURE, None
    )


# ----------------------------------------------------------------------
# sweep-epsilon
# ----------------------------------------------------------------------

def fit_row(tmp_path, path, epsilon, *flags):
    """The (mu, mu_sentinel, distance) cells of `fit`'s verdict at epsilon."""
    code, doc = fit(tmp_path, path, epsilon, *flags)
    if code == cli.EXIT_INPUT_ERROR:  # fit refuses epsilon <= 0
        return "", "1000", ""
    verdict = doc["verdict"]
    if verdict == "Identity":
        mat = cli.read_matrix_file(path)
        mu, distance = 0.0, frobenius(mat - np.eye(mat.shape[0]))
    elif verdict == "NoResult":
        return "", "1000", ""
    else:
        mu = 0.0 if verdict == "Markovian" else doc["result"]["mu_min"]
        distance = doc["result"]["distance"]
    return f"{mu:.10g}", f"{mu:.10g}", f"{distance:.10g}"


@pytest.mark.parametrize(
    "name, grid, flags, count",
    [
        ("identity", (0, 0.1, 0.05), (), 2),
        ("depol", (0.005, 0.03, 0.01), ("--samples", "2"), 3),
        ("unital", (0.02, 0.06, 0.02), (), 2),
    ],
)
def test_sweep_rows_are_fit_verdicts(tmp_path, snap, name, grid, flags, count):
    lines = sweep(tmp_path, snap[name], *grid, *flags)
    assert lines[0] == cli.CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == count
    samples = flags[1] if flags else "1"
    for eps, mu, sentinel, distance, row_samples, m_max in rows:
        assert (row_samples, m_max) == (samples, "1")
        assert (mu, sentinel, distance) == fit_row(tmp_path, snap[name], eps, *flags), eps


def test_sweep_identity_rows_at_nonpositive_epsilon_are_absent(tmp_path, snap):
    lines = sweep(tmp_path, snap["identity"], -0.1, 0.1, 0.05)
    cells = [line.split(",")[:4] for line in lines[1:]]
    assert cells[:3] == [["-0.1", "", "1000", ""], ["-0.05", "", "1000", ""], ["0", "", "1000", ""]]
    assert cells[3][:3] == ["0.05", "0", "0"]


def test_samples_are_drawn_once(tmp_path, snap, monkeypatch):
    """The mu fallback reuses the fit's samples, and a sweep draws them once."""
    drawn = []
    draw = preprocess.random_hp_basis

    def counting(*args):
        drawn.append(args[-1])
        return draw(*args)

    monkeypatch.setattr(preprocess, "random_hp_basis", counting)
    code, doc = fit(tmp_path, snap["depol"], 0.001, "--samples", "2")
    assert (code, doc["pipeline"], drawn) == (cli.EXIT_NO_RESULT, "samples", [0, 1])
    drawn.clear()
    lines = sweep(tmp_path, snap["depol"], 0.005, 0.03, 0.01, "--samples", "2")
    assert (len(lines), drawn) == (4, [0, 1])
