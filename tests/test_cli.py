"""The command-line front end: exit codes, the `fit` report, `mu` as `fit`
under another name, the one ranking of the candidates' fits and its strict
epsilon test, the mu fallback's one P2 batch, the P1 and P2 MaxIters counts, `--trace`, samples
that fail the logarithm audit, `sweep-epsilon` rows against `fit` at the
same epsilon, and the fixed cost of a verdict: one read per matrix file,
one parser per process, one eigendecomposition per snapshot and one
logarithm audit per candidate.
"""

import collections
import dataclasses
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from lindbladfit import cli, decide, fitting, nonmarkov, preprocess, solver
from lindbladfit.channels import (
    ChannelSpec,
    TomographyConfig,
    is_lindbladian,
    lindblad_generator,
    random_lindblad_generator,
    simulate_process_tomography,
)
from lindbladfit.errors import NumericalFailure
from lindbladfit.linalg import eig_full, frobenius, max_entangled

EPSILON = 0.05
# Below the X gate's unitary-frame distance (0.0203 at 1e4 shots, seed 1):
# its raw snapshot, frame and repaired samples all miss, and the mu
# fallback decides.
LOW = 0.01
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
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    assert fit(tmp_path, str(not_utf8)) == (cli.EXIT_INPUT_ERROR, None)
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
    [("--delta-step", "0"), ("--delta-step", "-1"), ("--jobs", "0"), ("--jobs", "-2"),
     ("--samples", "0"), ("--samples", "-1"), ("--precision", "0"), ("--precision", "-0.1"),
     ("--epsilon", "0"), ("--epsilon", "-0.1")],
)
def test_bad_delta_step_or_jobs_exits_3_before_any_work(tmp_path, snap, monkeypatch, flag, value):
    """Rejected as the flags are parsed, whatever the verdict would be and
    whatever the grid: a sweep whose rows all have epsilon <= 0 repairs
    nothing (it exited 0 on `--precision 0`).  `--jobs` is not a flag of any
    command: like any unknown flag, it exits 3.  `--samples` and
    `--precision` are flags of `fit` (and so of `mu`) and `sweep-epsilon`;
    `--epsilon` is a flag of `fit`, `mu` and `multifit` (`fit` and
    `multifit` refused a value <= 0 only after reading their input, and
    `mu --epsilon 0` answered NoResult)."""

    def no_work(*args):
        raise AssertionError("the snapshot was processed")

    monkeypatch.setattr(cli, "_read_input", no_work)
    out = tmp_path / "out"
    commands = [
        ["fit", "--in", snap["depol"], "--epsilon", "0.05", "--report", str(out)],  # Markovian
        ["fit", "--in", snap["unital"], "--epsilon", "0.05", "--report", str(out)],  # NonMarkovian
        ["mu", "--in", snap["unital"], "--epsilon", "0.05", "--report", str(out)],
    ]
    if flag != "--epsilon":
        commands += [
            ["sweep-epsilon", "--in", snap["depol"], "--from", "0.01", "--to", "0.05",
             "--step", "0.02", "--csv", str(out)],
            ["sweep-epsilon", "--in", snap["depol"], "--from", "-0.1", "--to", "0",
             "--step", "0.05", "--csv", str(out)],
        ]
    if flag in ("--delta-step", "--epsilon"):
        commands.append(["multifit", "--in", f"{snap['depol']},{snap['depol']}", "--times",
                         "1,2", "--epsilon", "0.05", "--report", str(out)])
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
    Finite values keep their meaning (sweep rows at epsilon <= 0 are
    absent; tests above and below)."""

    def no_work(*args):
        raise AssertionError("the snapshot was processed")

    monkeypatch.setattr(cli, "_read_input", no_work)
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


def test_no_result_exits_2(tmp_path):
    code, doc = fit(tmp_path, half_identity(tmp_path))
    assert (code, doc["verdict"]) == (cli.EXIT_NO_RESULT, "NoResult")


def test_non_square_side_exits_3(tmp_path):
    path = tmp_path / "three.json"
    cli.write_matrix_file(str(path), np.eye(3))
    assert fit(tmp_path, str(path)) == (cli.EXIT_INPUT_ERROR, None)


def test_mu_on_a_singular_matrix_is_no_result(tmp_path):
    """A zero eigenvalue has no logarithm: the audit fails, and with no
    candidate left `mu` answers NoResult with the failure as its detail.
    It exited 4."""
    path = tmp_path / "singular.json"
    for diagonal in ((0.0, 0.3, 0.6, 0.9), (1.0, 0.5, 0.3, 0.0)):
        cli.write_matrix_file(str(path), np.diag(diagonal))
        code, doc = run(tmp_path, "mu", "--in", str(path), "--epsilon", "0.05")
        assert (code, doc["verdict"]) == (cli.EXIT_NO_RESULT, "NoResult")
        assert "zero eigenvalue" in doc["detail"] and "result" not in doc


def test_fit_and_sweep_on_a_singular_matrix_are_no_result(tmp_path):
    """diag(1, 0.5, 0.3, 0): the raw snapshot and its unitary frame both
    fail their logarithm audit, so `fit` and every sweep row answer
    NoResult, not exit 4."""
    path = str(tmp_path / "singular.json")
    cli.write_matrix_file(path, np.diag([1.0, 0.5, 0.3, 0.0]))
    code, doc = fit(tmp_path, path, EPSILON, "--trace")
    assert (code, doc["verdict"]) == (cli.EXIT_NO_RESULT, "NoResult")
    assert "zero eigenvalue" in doc["detail"]
    assert all(distance is None for _, distance in doc["trace"]["samples"])
    lines = sweep(tmp_path, path, 0.01, 0.04, 0.01)
    assert [line.split(",")[1:4] for line in lines[1:]] == [["", "1000", ""]] * 3


def test_multifit_on_a_singular_snapshot_is_no_result(tmp_path):
    """diag(1, 0.5, 0.3, 0) has no logarithm, so no generator fits a series
    that holds it: `multifit` answers NoResult with the audit failure as
    its detail, as `fit` does.  It exited 4."""
    path = str(tmp_path / "singular.json")
    cli.write_matrix_file(path, np.diag([1.0, 0.5, 0.3, 0.0]))
    code, doc = run(tmp_path, "multifit", "--in", path, "--times", "1", "--epsilon", "0.05")
    assert (code, doc["verdict"], doc["joint_maxiters"]) == (cli.EXIT_NO_RESULT, "NoResult", 0)
    assert doc["detail"] == (
        "snapshot 0 failed the logarithm audit: zero eigenvalue: matrix logarithm undefined"
    )
    assert "result" not in doc


@pytest.mark.parametrize("first", ["x", "identity"], ids=["XX", "IX"])
def test_an_exact_unitary_the_nudge_cannot_split_is_its_frame(tmp_path, first):
    """The exact X⊗X and I⊗X channels have no simple-spectrum neighbour
    within the nudge budget, so the snapshot cannot be repaired; their
    unitary frame needs no repair and fits them at round-off.  Within
    epsilon they are Markovian from the frame; below the frame's distance
    the repair's failure still exits 4.  Both exited 4 at any epsilon."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.kron({"x": x, "identity": np.eye(2)}[first], x)
    path = str(tmp_path / "exact.json")
    cli.write_matrix_file(path, np.kron(u, u.conj()))
    flags = ("--max-branches", "256", "--trace")
    code, doc = fit(tmp_path, path, EPSILON, *flags)
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_OK, "Markovian", "passthrough")
    res = doc["result"]
    assert (res["candidate"], res["basis_sample"], res["branch"]) == ("unitary", None, None)
    assert res["distance"] < 1e-7
    assert doc["trace"]["samples"] == [["unitary", res["distance"]]]
    assert fit(tmp_path, path, 1e-12, *flags) == (cli.EXIT_NUMERICAL_FAILURE, None)


def test_a_sweep_tries_the_failing_nudge_once(tmp_path, monkeypatch):
    """Four rows over exact X⊗X, each Markovian from the frame: the repair's
    nudge fails once for the sweep, not once a row."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.kron(x, x)
    path = str(tmp_path / "exact.json")
    cli.write_matrix_file(path, np.kron(u, u.conj()))
    calls = repair_calls(monkeypatch)
    lines = sweep(tmp_path, path, 0.01, 0.05, 0.01, "--max-branches", "256")
    assert len(lines) == 5 and all(line.split(",")[1] == "0" for line in lines[1:])
    assert calls == {"perturb_to_nd2": 1}


def test_every_command_refuses_a_side_that_is_not_a_square(tmp_path):
    """A 5x5 file is no transfer matrix.  `fit` and `mu` refused it when
    they took the side dimension; `sweep-epsilon` answered it, with Identity
    rows near the identity."""
    path = str(tmp_path / "five.json")
    cli.write_matrix_file(path, np.eye(5) + np.diag(np.arange(5)) / 1000)
    out = str(tmp_path / "out")
    for argv in (
        ["fit", "--in", path, "--epsilon", "0.05", "--report", out],
        ["mu", "--in", path, "--epsilon", "0.05", "--report", out],
        ["multifit", "--in", path, "--times", "1", "--epsilon", "0.05", "--report", out],
        ["sweep-epsilon", "--in", path, "--from", "0.01", "--to", "0.05", "--step", "0.02",
         "--csv", out],
    ):
        assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert not Path(out).exists()


# ----------------------------------------------------------------------
# degenerate snapshots: every command audits them nudged onto a simple
# spectrum (`preprocess.perturb_to_nd2`); each of these exited 4
# ----------------------------------------------------------------------

def dephasing_series(tmp_path):
    """Matrix files of the exact qubit dephasing series exp(t L), L with the
    one jump 0.3 Z, at t = 1 and 2; each has the spectrum {1, 1, q, q}."""
    gen = lindblad_generator(np.zeros((2, 2)), [0.3 * np.diag([1.0, -1.0])])
    paths = [str(tmp_path / f"dephasing-{t}.json") for t in (1, 2)]
    for t, path in zip((1, 2), paths):
        cli.write_matrix_file(path, expm(t * gen))
    return paths


def test_multifit_answers_an_exact_markovian_series(tmp_path):
    paths = dephasing_series(tmp_path)
    code, doc = run(tmp_path, "multifit", "--in", ",".join(paths), "--times", "1,2",
                    "--epsilon", str(EPSILON))
    assert (code, doc["verdict"]) == (cli.EXIT_OK, "Markovian")
    res = doc["result"]
    assert res["distance"] < 1e-6
    assert is_lindbladian(matrix(res["lindbladian"]), tol=res["lindblad_check_tolerance"]).ok


def test_mu_answers_an_exact_degenerate_snapshot(tmp_path):
    """`mu` is `fit`'s decision: a fit within epsilon is Markovian (it
    answered NonMarkovian with mu 0)."""
    path = dephasing_series(tmp_path)[0]
    code, doc = run(tmp_path, "mu", "--in", path, "--epsilon", str(EPSILON))
    assert (code, doc["verdict"]) == (cli.EXIT_OK, "Markovian")
    assert doc["result"]["distance"] < EPSILON and "mu_min" not in doc["result"]


def test_a_mirror_that_collides_with_an_eigenvalue_is_nudged(tmp_path):
    """The exact Pauli channel with Pauli eigenvalues (1, 0.4, -0.4, 0.1):
    the mirror of its lone negative eigenvalue doubles 0.4.  Both
    candidates are audited and fitted, and neither fits nor reaches a
    noise rate."""
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])]
    vecs = [np.asarray(p, dtype=complex).reshape(-1) for p in paulis]
    mat = sum(lam * np.outer(v, v.conj()) / 2 for lam, v in zip((1, 0.4, -0.4, 0.1), vecs))
    path = str(tmp_path / "pauli.json")
    cli.write_matrix_file(path, mat)
    code, doc = fit(tmp_path, path, EPSILON, "--trace")
    assert (code, doc["verdict"]) == (cli.EXIT_NO_RESULT, "NoResult")
    assert [k for k, d in doc["trace"]["samples"] if d is not None] == [
        "raw", "mirrored", "unitary"
    ]


# ----------------------------------------------------------------------
# the fit report
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "command, argv, keys",
    [
        ("fit", ["--trace"], {"samples", "precision", "seed"}),
        ("mu", ["--trace"], {"samples", "precision", "seed"}),
        ("multifit", ["--times", "1"], {"times", "delta_grid_snapshot"}),
    ],
)
def test_report_settings_are_the_flags_that_shape_the_verdict(
    tmp_path, snap, command, argv, keys
):
    """Settings are pinned: a new flag must be added here on purpose.  The
    report path and --trace shape no verdict and are never settings.  `mu`
    is `fit` under another name and has its settings."""
    code, doc = run(tmp_path, command, "--in", snap["depol"], "--epsilon", str(EPSILON), *argv)
    common = {"command", "input", "epsilon", "m_max", "max_branches", "delta_step"}
    assert set(doc["settings"]) == common | keys
    assert doc["settings"]["command"] == command


@pytest.mark.parametrize("name", ["depol", "unital", "xgate", "identity", "singular"])
def test_mu_is_fit_under_another_name(tmp_path, snap, name):
    """`mu` makes `fit`'s one decision: its report equals `fit`'s for the
    same flags but for the command it was called by.  On the X gate `mu`
    searched the raw snapshot alone (NonMarkovian at mu 10.39, where `fit`
    finds the unitary frame's fit), and it called a zero rate NonMarkovian."""
    path = snap.get(name)
    if path is None:
        path = str(tmp_path / "singular.json")
        cli.write_matrix_file(path, np.diag([1.0, 0.5, 0.3, 0.0]))
    flags = ["--in", path, "--epsilon", str(EPSILON), "--samples", "2", "--trace"]
    fit_code, fit_doc = run(tmp_path, "fit", *flags)
    mu_code, mu_doc = run(tmp_path, "mu", *flags)
    assert (mu_code, mu_doc["settings"].pop("command")) == (fit_code, "mu")
    assert fit_doc["settings"].pop("command") == "fit"
    assert mu_doc == fit_doc


def test_markovian_report(tmp_path, snap):
    code, doc = fit(tmp_path, snap["depol"], EPSILON, "--samples", "4")
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_OK, "Markovian", "samples")
    res = doc["result"]
    gen = matrix(res["lindbladian"])
    mat = cli.read_matrix_file(snap["depol"])
    assert frobenius(mat - expm(gen)) == pytest.approx(res["distance"], rel=1e-9)
    assert res["distance"] < doc["settings"]["epsilon"] == EPSILON
    assert is_lindbladian(gen, tol=res["lindblad_check_tolerance"]).ok
    # the nudged snapshot's own fit lands at round-off: no sample is drawn
    assert (res["candidate"], res["basis_sample"]) == ("raw", None)
    assert res["distance"] < fitting.TIE_TOL and len(res["branch"]) == 4
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
    assert (res["candidate"], res["basis_sample"]) == ("raw", None)
    assert (doc["p1_maxiters"], doc["p2_maxiters"]) == (0, 0)


@pytest.mark.parametrize("shots, mu", [(10**4, 4.569177), (10**5, 5.746707)])
def test_benchmark_unital_stays_nonmarkovian_past_its_unitary_frame(tmp_path, shots, mu):
    """Benchmark unital's unitary frame lands about 0.6 away, far outside
    epsilon, and the mu fallback never sees it: the verdict and mu are the
    raw candidate's."""
    spec = CHANNELS["unital"][0]
    path = str(tmp_path / "unital.json")
    cli.write_matrix_file(path, simulate_process_tomography(
        spec, TomographyConfig(shots=shots, seed=1)).mat)
    code, doc = fit(tmp_path, path, EPSILON, "--trace")
    assert (code, doc["verdict"]) == (cli.EXIT_OK, "NonMarkovian")
    res = doc["result"]
    assert (res["candidate"], res["mu_min"]) == ("raw", pytest.approx(mu, abs=1e-6))
    frame = dict(doc["trace"]["samples"])["unitary"]
    assert 0.5 < frame < 0.7


def half_identity(tmp_path):
    """Matrix file of 0.5 I at d=2: one tight positive cluster away from the
    identity, so it is repaired, and no candidate, raw included, fits or
    reaches a noise rate."""
    path = tmp_path / "half.json"
    cli.write_matrix_file(str(path), 0.5 * np.eye(4))
    return str(path)


def test_no_result_report(tmp_path):
    code, doc = fit(tmp_path, half_identity(tmp_path))
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_NO_RESULT, "NoResult", "samples")
    assert "result" not in doc
    assert doc["p2_maxiters"] == 0


def test_mu_fallback_is_one_p2_batch(tmp_path, snap, monkeypatch):
    """Below its unitary frame's distance the X gate's raw snapshot and its
    four repaired samples all miss epsilon; their (branch, delta) pairs go
    to the P2 solver in one call."""
    batch = solver.min_mu_batch
    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return batch(*args)

    monkeypatch.setattr(solver, "min_mu_batch", counting)
    code, doc = fit(tmp_path, snap["xgate"], LOW, "--samples", "4")
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_OK, "NonMarkovian", "samples")
    assert len(calls) == 1
    res = doc["result"]
    assert res["basis_sample"] == 1
    assert res["mu_min"] == pytest.approx(8.893983, abs=1e-6)


@pytest.mark.parametrize("command", ["fit", "mu"])
def test_maxiters_solves_are_counted_in_the_report(tmp_path, snap, monkeypatch, command):
    """With the solvers cut at one step (each P2 pair of this input needs
    two), every solved P2 pair ends MaxIters and the report says how many."""
    batch = solver.min_mu_batch
    statuses = []

    def recording(targets, d, deltas):
        reports = batch(targets, d, deltas)
        statuses.extend(rep.status for rep in reports)
        return reports

    monkeypatch.setattr(solver, "ITER_LIMIT", 1)
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
    MaxIters and the report sums them over the candidates.  Below its frame
    distance the X gate searches the branch classes of its raw snapshot and
    of every sample."""
    statuses = []
    short_p1(monkeypatch, statuses)
    _, doc = fit(tmp_path, snap["xgate"], LOW, "--samples", "4")
    assert doc["p1_maxiters"] == statuses.count(solver.MAX_ITERS) > len(statuses) // 2


@pytest.mark.parametrize("scale", [0.5, 0.0], ids=["half identity", "zero"])
def test_one_cluster_far_from_the_identity_is_not_identity(tmp_path, scale):
    """A spectrum that is one tight positive cluster is Identity only when
    the matrix lies within epsilon of I; otherwise it is repaired."""
    path = tmp_path / "cluster.json"
    cli.write_matrix_file(str(path), scale * np.eye(4))
    code, doc = fit(tmp_path, str(path))
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_NO_RESULT, "NoResult", "samples")


def test_identity_report(tmp_path, snap, monkeypatch):
    built = frames_built(monkeypatch)
    code, doc = fit(tmp_path, snap["identity"], EPSILON, "--trace")
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_OK, "Identity", "identity")
    assert "result" not in doc and "p1_maxiters" not in doc  # P1 never ran
    assert doc["trace"] == {"samples": []} and built == []


# The X gate's raw fit lies 1.74 away, its unitary frame's 0.0203 and its
# samples' 1.27 to 1.69: at this radius every fit is Markovian.
WIDE = 2.0
X_FRAME = 0.020259003493460482


def test_trace_lists_every_sample(tmp_path, snap):
    """One [candidate, best distance over its branches] entry per candidate
    tried, raw first, then the unitary frame and the samples.  Below the X
    gate's frame distance no candidate lands within epsilon, so the samples
    are drawn, and the mu fallback decides."""
    code, doc = fit(tmp_path, snap["xgate"], LOW, "--samples", "4", "--trace")
    samples = doc["trace"]["samples"]
    assert [k for k, _ in samples] == ["raw", "unitary", 0, 1, 2, 3]
    assert min(samples, key=lambda entry: entry[1]) == ["unitary", X_FRAME]
    assert (code, doc["verdict"], doc["result"]["basis_sample"]) == (
        cli.EXIT_OK, "NonMarkovian", 1
    )
    assert "samples_skipped" not in doc


def test_epsilon_is_a_strict_bound_on_the_winner(tmp_path, snap):
    """The least distance among the candidates is Markovian only strictly
    inside epsilon: at epsilon equal to it the mu fallback decides, at the
    next float above it the same fit is the verdict."""
    _, wide = fit(tmp_path, snap["xgate"], WIDE, "--samples", "4")
    least = wide["result"]["distance"]
    code, at = fit(tmp_path, snap["xgate"], repr(least), "--samples", "4")
    assert code == cli.EXIT_OK and at["verdict"] == "NonMarkovian"
    above_least = repr(float(np.nextafter(least, np.inf)))
    _, above = fit(tmp_path, snap["xgate"], above_least, "--samples", "4")
    assert above["verdict"] == "Markovian"
    keys = ("distance", "branch", "basis_sample", "candidate")
    assert [above["result"][k] for k in keys] == [wide["result"][k] for k in keys]


def test_candidates_rank_by_distance_with_ties_to_the_earlier():
    """`decide.best` is the one ranking of a candidate table's P1 fits: the
    least `fitting.ranked` distance, the earlier candidate on a tie.  Two
    copies of an exact exp(L) both land at round-off and tie; a far
    candidate listed first does not win."""
    m = expm(random_lindblad_generator(2, np.random.default_rng(0)))
    far = expm(random_lindblad_generator(2, np.random.default_rng(1)))
    found = decide.Candidates(m, fitting.BranchPolicy(), preprocess.DEFAULT_PRECISION, 1, 0)
    group = found.search(["far", "a", "b"], [far, m, m])
    assert not any(isinstance(log, NumericalFailure) for log in group.logs)
    far_fit, a, b = group.fits
    assert far_fit.distance > 0.01
    assert max(a.distance, b.distance) < fitting.TIE_TOL
    assert (decide.best(group.fits[:1]), decide.best(group.fits)) == (0, 1)


def frames_built(monkeypatch):
    """The snapshots `fitting.unitary_frame` is called on."""
    built = []
    frame = fitting.unitary_frame

    def counting(mat):
        built.append(mat)
        return frame(mat)

    monkeypatch.setattr(fitting, "unitary_frame", counting)
    return built


def samples_drawn(monkeypatch):
    """The ids of the repaired samples drawn (`preprocess.random_hp_basis`)."""
    drawn = []
    draw = preprocess.random_hp_basis

    def counting(*args):
        drawn.append(args[-1])
        return draw(*args)

    monkeypatch.setattr(preprocess, "random_hp_basis", counting)
    return drawn


def test_raw_fit_at_round_off_draws_no_sample(tmp_path, snap, monkeypatch):
    """A depolarizing snapshot's own fit lands at round-off: no sample and
    no unitary frame can beat it under the tie rule, so no sample is drawn,
    no frame is built and the trace lists raw alone."""
    drawn = samples_drawn(monkeypatch)
    built = frames_built(monkeypatch)
    code, doc = fit(tmp_path, snap["depol"], EPSILON, "--samples", "4", "--trace")
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_OK, "Markovian", "samples")
    assert drawn == [] and built == []
    [(k, distance)] = doc["trace"]["samples"]
    assert (k, distance) == ("raw", doc["result"]["distance"]) and distance < fitting.TIE_TOL


def test_a_frame_within_epsilon_draws_no_sample(tmp_path, snap, monkeypatch):
    """The X gate's unitary frame lands within epsilon: the samples are
    neither drawn nor searched, the trace lists raw and the frame, and the
    frame is the winner, the least of them."""
    drawn = samples_drawn(monkeypatch)
    search = fitting.best_fit_lindbladian
    stacks = []

    def counting(mat, logs, *args, **kwargs):
        stacks.append(len(logs))
        return search(mat, logs, *args, **kwargs)

    monkeypatch.setattr(fitting, "best_fit_lindbladian", counting)
    code, doc = fit(tmp_path, snap["xgate"], WIDE, "--samples", "4", "--trace")
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_OK, "Markovian", "samples")
    assert drawn == [] and stacks == [1]  # raw's search alone
    samples = doc["trace"]["samples"]
    assert [k for k, _ in samples] == ["raw", "unitary"]
    res = doc["result"]
    assert min(samples, key=lambda entry: entry[1]) == [res["candidate"], res["distance"]]
    assert (res["candidate"], res["basis_sample"], res["branch"]) == ("unitary", None, None)
    assert res["distance"] == X_FRAME and "samples_skipped" not in doc


def test_samples_are_tried_only_when_the_frame_misses_epsilon(tmp_path, snap, monkeypatch):
    """The cascade's rule, with the X gate's frame moved to 1.5, beyond its
    sample 0 (1.274) and inside its raw fit (1.745): at epsilon 1.6 the
    frame lands within it and wins although sample 0 is closer, which is
    never drawn; at 1.4 the frame misses, the samples are drawn and sample 0
    wins."""
    frame = fitting.unitary_frame

    def moved(mat):
        fit, maxiters = frame(mat)
        return dataclasses.replace(fit, distance=1.5), maxiters

    monkeypatch.setattr(fitting, "unitary_frame", moved)
    drawn = samples_drawn(monkeypatch)
    _, doc = fit(tmp_path, snap["xgate"], 1.6, "--samples", "4", "--trace")
    assert [k for k, _ in doc["trace"]["samples"]] == ["raw", "unitary"] and drawn == []
    assert (doc["verdict"], doc["result"]["candidate"], doc["result"]["distance"]) == (
        "Markovian", "unitary", 1.5
    )
    _, doc = fit(tmp_path, snap["xgate"], 1.4, "--samples", "4", "--trace")
    assert [k for k, _ in doc["trace"]["samples"]] == ["raw", "unitary", 0, 1, 2, 3]
    assert drawn == [0, 1, 2, 3]
    res = doc["result"]
    assert (doc["verdict"], res["candidate"], res["basis_sample"]) == ("Markovian", "sample", 0)
    assert res["distance"] == pytest.approx(1.274205134, abs=1e-8)


def test_lone_negative_eigenvalue_is_mirrored_to_a_noise_rate(tmp_path):
    """Benchmark unital at tomography seed 2 has one real negative
    eigenvalue, which no logarithm of the snapshot can take: every (P2)
    pair failed the screen and the verdict was NoResult.  The mirrored
    candidate gives a certified noise rate, measured against the raw
    snapshot."""
    spec, shots = CHANNELS["unital"]
    mat = simulate_process_tomography(spec, TomographyConfig(shots=shots, seed=2)).mat
    path = str(tmp_path / "unital-seed2.json")
    cli.write_matrix_file(path, mat)
    code, doc = fit(tmp_path, path, EPSILON, "--trace")
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_OK, "NonMarkovian", "passthrough")
    res = doc["result"]
    assert (res["candidate"], res["basis_sample"]) == ("mirrored", None)
    assert res["mu_min"] == pytest.approx(2.371331, abs=1e-6)
    gen = matrix(res["generator"])
    assert frobenius(mat - expm(gen)) == pytest.approx(res["distance"], rel=1e-9)
    assert res["distance"] < EPSILON
    perp = max_entangled(2).omega_perp
    assert is_lindbladian(gen - res["mu_min"] * perp, tol=res["lindblad_check_tolerance"]).ok
    assert [k for k, _ in doc["trace"]["samples"]] == ["raw", "mirrored", "unitary"]


def test_noiseless_markovian_channels_are_markovian(tmp_path):
    """exp(L) of random Lindbladians: 30 at d=2, and a d=3 one whose
    clustered spectrum takes the samples pipeline at the default flags.
    Before the raw candidate, 2 of the 30 answered NonMarkovian and 2, and
    the qutrit, NoResult."""
    path = str(tmp_path / "exact.json")
    runs = [(2, 0.3, seed, ("--samples", "8")) for seed in range(1000, 1030)]
    runs.append((3, 0.15, 1003, ()))
    missed = []
    for d, scale, seed, flags in runs:
        gen = random_lindblad_generator(d, np.random.default_rng(seed), scale=scale)
        cli.write_matrix_file(path, expm(gen))
        _, doc = fit(tmp_path, path, EPSILON, *flags)
        if doc["verdict"] != "Markovian":
            missed.append((d, seed, doc["verdict"]))
    assert missed == []
    assert (doc["pipeline"], doc["result"]["candidate"]) == ("samples", "raw")


def _ill_conditioned():
    """A 4x4 matrix whose exp(log R) round trip fails the logarithm audit:
    two of its eigenvectors are 1e-6 apart."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal((4, 4)) + 0j
    v[:, 1] = v[:, 0] + 1e-6 * rng.standard_normal(4)
    return (v * np.array([1.0, 0.5, 0.7, 0.9])) @ np.linalg.inv(v)


def fail_audit(monkeypatch, bad):
    """Swap the candidates in ``bad`` (sample ids, and "raw" for the nudged
    snapshot) for a matrix that fails the logarithm audit; returns the list
    that records the original samples of the latest repair.  The samples
    are still drawn from the snapshot's own plan."""
    make = preprocess.Repair
    drawn = []

    def swapped(*args):
        repair = make(*args)
        drawn.clear()

        def sample(seed, k):
            drawn.append(repair.sample(seed, k))
            return _ill_conditioned() if k in bad else drawn[-1]

        swap = SimpleNamespace(kind=repair.kind, snapshot=repair.snapshot,
                               spectral=repair.spectral, mirrored=repair.mirrored,
                               plan=repair.plan, sample=sample)
        if "raw" in bad:
            swap.snapshot = _ill_conditioned()
            swap.spectral = eig_full(swap.snapshot)
        return swap

    monkeypatch.setattr(preprocess, "Repair", swapped)
    return drawn


def test_a_sample_that_fails_the_log_audit_is_skipped(tmp_path, snap, monkeypatch):
    """Sample 1, the winner of the clean run's mu fallback, fails the
    audit; raw and the other three decide, and raw wins."""
    flags = ("--samples", "4", "--trace")
    _, clean = fit(tmp_path, snap["xgate"], LOW, *flags)
    assert clean["result"]["basis_sample"] == 1
    drawn = fail_audit(monkeypatch, {1})
    code, doc = fit(tmp_path, snap["xgate"], LOW, *flags)
    assert (code, doc["verdict"], doc["samples_skipped"]) == (cli.EXIT_OK, "NonMarkovian", 1)
    samples = doc["trace"]["samples"]
    assert samples.pop(3) == [1, None]
    assert samples == [entry for entry in clean["trace"]["samples"] if entry[0] != 1]
    # the verdict is the one raw and the three good samples give alone
    mat = cli.read_matrix_file(snap["xgate"])
    good = ["raw", 0, 2, 3]
    mu, _ = nonmarkov.non_markovianity(
        mat, fitting.checked_logs(np.stack([mat] + [drawn[k] for k in good[1:]])), LOW
    )
    res = doc["result"]
    assert good[mu.basis_sample] == "raw"
    assert (res["candidate"], res["basis_sample"]) == ("raw", None)
    assert (res["mu_min"], res["branch"]) == (mu.mu_min, list(mu.branch))


def test_all_candidates_failing_the_log_audit_are_no_result(tmp_path, snap, monkeypatch):
    """With every sample failing the audit raw decides alone; when raw fails
    too, no logarithm is left for the mu fallback, and the verdict is
    NoResult with the last failure as its detail (it exited 4)."""
    fail_audit(monkeypatch, {0, 1, 2, 3})
    code, doc = fit(tmp_path, snap["xgate"], LOW, "--samples", "4")
    assert (code, doc["verdict"], doc["result"]["candidate"], doc["samples_skipped"]) == (
        cli.EXIT_OK, "NonMarkovian", "raw", 4
    )
    fail_audit(monkeypatch, {"raw", 0, 1, 2, 3})
    code, doc = fit(tmp_path, snap["xgate"], LOW, "--samples", "4")
    assert (code, doc["verdict"], doc["samples_skipped"]) == (cli.EXIT_NO_RESULT, "NoResult", 4)
    assert doc["detail"].startswith("all 5 candidates failed the logarithm audit; last: exp(log R)")


def test_a_raw_snapshot_that_fails_the_log_audit_is_not_a_skipped_sample(
    tmp_path, snap, monkeypatch
):
    """samples_skipped counts repaired samples only; raw's failure shows in
    the trace."""
    fail_audit(monkeypatch, {"raw"})
    code, doc = fit(tmp_path, snap["xgate"], LOW, "--samples", "4", "--trace")
    assert (code, doc["verdict"], doc["result"]["basis_sample"]) == (
        cli.EXIT_OK, "NonMarkovian", 1
    )
    assert doc["trace"]["samples"][0] == ["raw", None]
    assert "samples_skipped" not in doc


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
        # the mu fallback below the unitary frame's distance, the frame above
        ("xgate", (0.01, 0.04, 0.01), ("--samples", "4"), 3),
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


def test_a_sweep_across_the_unitary_frame_distance(tmp_path, snap):
    """X gate rows at 0.01 and 0.02 lie below its frame's 0.0203 and are
    NonMarkovian, the row at 0.03 is the frame's Markovian fit (mu 0).
    `test_sweep_rows_are_fit_verdicts` holds each row against `fit`."""
    lines = sweep(tmp_path, snap["xgate"], 0.01, 0.04, 0.01, "--samples", "4")
    rows = [line.split(",") for line in lines[1:]]
    verdicts = [fit(tmp_path, snap["xgate"], eps, "--samples", "4")[1] for eps, *_ in rows]
    assert [doc["verdict"] for doc in verdicts] == ["NonMarkovian", "NonMarkovian", "Markovian"]
    assert verdicts[-1]["result"]["candidate"] == "unitary"
    assert [float(row[1]) > 0 for row in rows] == [True, True, False]
    assert float(rows[-1][3]) == pytest.approx(0.020259003493, abs=1e-9)


def test_sweep_identity_rows_at_nonpositive_epsilon_are_absent(tmp_path, snap):
    lines = sweep(tmp_path, snap["identity"], -0.1, 0.1, 0.05)
    cells = [line.split(",")[:4] for line in lines[1:]]
    assert cells[:3] == [["-0.1", "", "1000", ""], ["-0.05", "", "1000", ""], ["0", "", "1000", ""]]
    assert cells[3][:3] == ["0.05", "0", "0"]


def test_samples_are_drawn_once(tmp_path, monkeypatch):
    """The mu fallback reuses the fit's samples, and a sweep draws them once."""
    drawn = samples_drawn(monkeypatch)
    code, doc = fit(tmp_path, half_identity(tmp_path), EPSILON, "--samples", "2")
    assert (code, doc["pipeline"], drawn) == (cli.EXIT_NO_RESULT, "samples", [0, 1])
    drawn.clear()
    lines = sweep(tmp_path, half_identity(tmp_path), 0.005, 0.03, 0.01, "--samples", "2")
    assert (len(lines), drawn) == (4, [0, 1])


@pytest.mark.parametrize("name, calls", [("xgate", 2), ("depol", 1)])
def test_a_sweep_searches_each_candidate_once(tmp_path, snap, monkeypatch, name, calls):
    """Three rows, one P1 search of raw, and one of the samples unless raw
    decides alone."""
    search = fitting.best_fit_lindbladian
    stacks = []

    def counting(mat, logs, *args, **kwargs):
        stacks.append(len(logs))
        return search(mat, logs, *args, **kwargs)

    monkeypatch.setattr(fitting, "best_fit_lindbladian", counting)
    lines = sweep(tmp_path, snap[name], 0.005, 0.03, 0.01, "--samples", "2")
    assert len(lines) == 4
    assert stacks == [1, 2][:calls]


def test_a_sweep_audits_each_candidate_once(tmp_path, snap, monkeypatch):
    """Ten X-gate rows, the first two decided by the mu fallback and the
    rest by the unitary frame: the frame is built once, and raw, the frame's
    residual and the four samples have their logarithms audited once for
    the whole sweep; the fallback reuses those audits."""
    audit = fitting.checked_logs
    audited = []

    def counting(stack, *args, **kwargs):
        audited.append(len(stack))
        return audit(stack, *args, **kwargs)

    monkeypatch.setattr(fitting, "checked_logs", counting)
    built = frames_built(monkeypatch)
    lines = sweep(tmp_path, snap["xgate"], 0.01, 0.11, 0.01, "--samples", "4")
    assert len(lines) == 11
    assert all(line.split(",")[1] for line in lines[1:])  # every row has a mu
    assert [line.split(",")[1] == "0" for line in lines[1:]] == [False] * 2 + [True] * 8
    assert (sum(audited), len(built)) == (6, 1)


REPAIR_STEPS = ("perturb_to_nd2", "detect_clusters", "kernel_residual", "build_cluster_bases")


def repair_calls(monkeypatch):
    """Counts the calls of each step of the repair in `REPAIR_STEPS`."""
    calls = collections.Counter()
    for name in REPAIR_STEPS:
        step = getattr(preprocess, name)

        def counting(*args, _name=name, _step=step):
            calls[_name] += 1
            return _step(*args)

        monkeypatch.setattr(preprocess, name, counting)
    return calls


def test_a_sweep_repairs_its_snapshot_once(tmp_path, snap, monkeypatch):
    """Ten X-gate rows across its unitary frame's distance: one nudge, one
    cluster detection and one draw plan for the whole sweep."""
    calls = repair_calls(monkeypatch)
    lines = sweep(tmp_path, snap["xgate"], 0.01, 0.11, 0.01, "--samples", "4")
    assert len(lines) == 11
    assert calls == dict.fromkeys(REPAIR_STEPS, 1)


def test_an_identity_verdict_builds_no_plan(tmp_path, snap, monkeypatch):
    calls = repair_calls(monkeypatch)
    code, doc = fit(tmp_path, snap["identity"], EPSILON)
    assert (code, doc["verdict"]) == (cli.EXIT_OK, "Identity")
    assert calls == {"perturb_to_nd2": 1, "detect_clusters": 1}


def test_a_settled_verdict_builds_no_plan(tmp_path, snap, monkeypatch):
    """Depolarizing p = 0.2 settles at its raw principal fit: its kind reads
    the kernel residual, and no draw plan is built."""
    calls = repair_calls(monkeypatch)
    code, doc = fit(tmp_path, snap["depol"], EPSILON, "--samples", "4")
    assert (code, doc["verdict"], doc["pipeline"]) == (cli.EXIT_OK, "Markovian", "samples")
    assert doc["result"]["candidate"] == "raw"
    assert calls == {"perturb_to_nd2": 1, "detect_clusters": 1, "kernel_residual": 1}


def test_pools_that_fail_after_the_residual_draw_nothing(tmp_path, snap, monkeypatch):
    """With every draw plan failing (`build_cluster_bases` gives (None,
    inf)) after the kernel residual passed: a verdict that never draws is
    unchanged and reads samples, and one that would draw (the X gate below
    its frame) is the passthrough verdict, the one a failing residual
    gives, and reads passthrough."""
    flags = ("--samples", "4")
    settled = fit(tmp_path, snap["depol"], EPSILON, *flags)
    drawn = fit(tmp_path, snap["xgate"], LOW, *flags)
    assert (settled[1]["pipeline"], drawn[1]["pipeline"]) == ("samples", "samples")
    assert drawn[1]["result"]["candidate"] == "sample"
    monkeypatch.setattr(preprocess, "build_cluster_bases", lambda *args: (None, np.inf))
    assert fit(tmp_path, snap["depol"], EPSILON, *flags) == settled
    code, doc = fit(tmp_path, snap["xgate"], LOW, *flags)
    assert (code, doc["pipeline"], doc["result"]["candidate"]) == (cli.EXIT_OK, "passthrough", "raw")
    monkeypatch.setattr(preprocess, "kernel_residual", lambda *args: np.inf)
    assert fit(tmp_path, snap["xgate"], LOW, *flags) == (code, doc)


def test_a_sweep_across_the_kernel_tolerance_matches_fit(tmp_path):
    """Depolarizing p = 0.1 with 1e-4 of complex noise, which leaves a
    kernel residual of 1.9e-3: its rows run passthrough up to that epsilon
    and samples above it.  Every row is `fit`'s verdict at its epsilon."""
    spec, shots = ChannelSpec("depolarizing", {"p": 0.1}), 10**4
    mat = simulate_process_tomography(spec, TomographyConfig(shots=shots, seed=1)).mat
    rng = np.random.default_rng(7)
    mat = mat + 1e-4 * (rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape))
    path = str(tmp_path / "bumped.json")
    cli.write_matrix_file(path, mat)
    lines = sweep(tmp_path, path, 0.0002, 0.0042, 0.0005, "--samples", "4")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8
    for eps, mu, sentinel, distance, _, _ in rows:
        assert (mu, sentinel, distance) == fit_row(tmp_path, path, eps, "--samples", "4"), eps
    pipelines = [fit(tmp_path, path, eps, "--samples", "4")[1]["pipeline"] for eps, *_ in rows[3:5]]
    assert pipelines == ["passthrough", "samples"]
    # below the raw fit's distance no noise rate is found; above it raw fits
    assert (rows[0][1:3], rows[1][1]) == (["", "1000"], "0")


# ----------------------------------------------------------------------
# the fixed cost of a verdict
# ----------------------------------------------------------------------

@pytest.mark.parametrize("command", ["fit", "mu", "multifit"])
def test_the_digest_hashes_the_bytes_that_were_parsed(tmp_path, snap, monkeypatch, command):
    """The input file is rewritten while the verdict is being made: the
    report still carries the digest of the bytes its verdict was made on."""
    path = tmp_path / "input.json"
    original = Path(snap["depol"]).read_bytes()
    path.write_bytes(original)
    owner, attr = {
        "fit": (decide, "decide"),
        "mu": (decide, "decide"),
        "multifit": (cli, "best_fit_multi"),
    }[command]
    solve = getattr(owner, attr)

    def rewriting(*args, **kwargs):
        path.write_bytes(Path(snap["unital"]).read_bytes())
        return solve(*args, **kwargs)

    monkeypatch.setattr(owner, attr, rewriting)
    inputs = {"multifit": ["--in", f"{path},{snap['depol']}", "--times", "1,2"]}
    code, doc = run(tmp_path, command, *inputs.get(command, ["--in", str(path)]),
                    "--epsilon", str(EPSILON))
    assert path.read_bytes() != original
    digest = "sha256:" + hashlib.sha256(original).hexdigest()
    assert doc["input_digest"] == ([digest, digest] if command == "multifit" else digest)


def test_one_parser_serves_a_whole_process(tmp_path, snap, monkeypatch, capsys):
    """`main` builds its parser on its first call only, and a call leaves
    nothing in it for the next: every report equals the one a freshly
    built parser gives, and `fit` without --trace has no trace."""
    calls = [
        ["fit", "--in", snap["depol"], "--epsilon", str(EPSILON), "--trace"],
        ["fit", "--in", snap["depol"], "--epsilon", str(EPSILON), "--bogus"],
        ["--help"],
        ["mu", "--in", snap["unital"], "--epsilon", str(EPSILON)],
        ["multifit", "--in", f"{snap['depol']},{snap['depol']}", "--times", "1,2",
         "--epsilon", str(EPSILON)],
        ["fit", "--in", snap["depol"], "--epsilon", str(EPSILON)],
    ]

    def outcome(argv):
        if "--help" in argv:
            return cli.main(argv), "--samples" in capsys.readouterr().out
        return run(tmp_path, *argv)

    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(outcome(argv))
    build = cli.build_parser
    built = []

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    shared = [outcome(argv) for argv in calls]
    assert len(built) == 1
    assert shared == fresh
    assert [code for code, _ in shared] == [
        cli.EXIT_OK, cli.EXIT_INPUT_ERROR, cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_NO_RESULT, cli.EXIT_OK
    ]
    assert "trace" in shared[0][1] and "trace" not in shared[-1][1]


def eig_calls(monkeypatch):
    """Every `eig_full` call, as (use site, stage): the stage is "fallback"
    once the mu fallback has started, "search" before.  The repair and the
    logarithm audit (through `preprocess.perturb_to_nd2`) both call it in
    `preprocess`."""
    calls = []
    stage = ["search"]
    eig = preprocess.eig_full

    def spy(m, *args):
        calls.append(("preprocess", stage[0]))
        return eig(m, *args)

    monkeypatch.setattr(preprocess, "eig_full", spy)
    fallback = nonmarkov.non_markovianity

    def marking(*args, **kwargs):
        stage[0] = "fallback"
        return fallback(*args, **kwargs)

    monkeypatch.setattr(nonmarkov, "non_markovianity", marking)
    return calls


def test_a_raw_decided_verdict_eigendecomposes_its_snapshot_once(tmp_path, snap, monkeypatch):
    """The repair's eigendecomposition serves the raw candidate's log audit,
    and a simple spectrum is never nudged."""
    calls = eig_calls(monkeypatch)
    code, doc = fit(tmp_path, snap["depol"], EPSILON, "--samples", "4")
    assert (code, doc["result"]["candidate"]) == (cli.EXIT_OK, "raw")
    assert calls == [("preprocess", "search")]


def test_each_candidate_is_eigendecomposed_once_in_the_search(tmp_path, snap, monkeypatch):
    """X gate, four samples: the snapshot once in the repair, the unitary
    frame's residual once and each sample once in their logarithm audits,
    and none in the mu fallback, which reuses the logarithms the search
    audited."""
    calls = eig_calls(monkeypatch)
    code, doc = fit(tmp_path, snap["xgate"], LOW, "--samples", "4")
    assert (code, doc["verdict"]) == (cli.EXIT_OK, "NonMarkovian")
    assert collections.Counter(calls) == {("preprocess", "search"): 6}


# ----------------------------------------------------------------------
# report text
# ----------------------------------------------------------------------

_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
                 | st.floats(allow_nan=True, allow_infinity=True))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)
                   | st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                                       min_size=2, max_size=2), max_size=5)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_report_text_is_json_dumps_bit_for_bit(value):
    """Any JSON value, inside a report dict and on its own: the rows of
    [re, im] pairs every matrix is written as, with NaN and infinities
    among them, empty containers, tuples, and strings that need escapes."""
    for doc in ({"result": value, "verdict": "Markovian"}, value):
        assert cli.report_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_report_text_leaves_what_it_does_not_cover_to_json_dumps():
    """numpy's float64, non-str keys and nesting deeper than its table of
    indents give json.dumps's text; a value json.dumps refuses is refused."""
    deep = [1.5]
    for _ in range(70):
        deep = [deep]
    matrix = [[np.float64(0.1), -0.0], [1e-300, 2.0]]
    for doc in ({"a": np.float64(0.1), "m": matrix}, {1: "x", 2: 3}, {"deep": deep},
                {"m": [[1.0, 2.0], [3.0]], "n": [[], []], "i": [[1, 2], [3, 4]]}):
        assert cli.report_text(doc) == json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli.report_text({"x": np.int64(1)})
