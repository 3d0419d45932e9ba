"""Golden answers: every benchmark panel input through ``cli.main``, pinned.

The inputs are the 20 of ``perfbench/panel.py`` (14 ``qubit-fit``, 2
``ququart-branch``, 4 ``series-multifit``), built from that module so
specs, shots, flags and tomography seeds stay the benchmark's own.  Each
report is pinned: verdict, exit code, pipeline, winning candidate, branch
and basis sample exactly, delta, mu and distance within 1e-9, and its certificate
(recomputed distance, Lindblad check, exit code) must hold.

The ground-truth rows ask whether the verdict agrees with the input's
label.  Rows of a known defect are strict xfails named after it; the
change that fixes a defect turns its row into a plain test, and re-pins
the golden values it changes.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from lindbladfit import cli

pytestmark = pytest.mark.slow

_PANEL_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "panel.py"


def _load_panel():
    spec = importlib.util.spec_from_file_location("perfbench_panel", _PANEL_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


panel = _load_panel()

# name: (verdict, exit code, pipeline, candidate, branch, basis sample, delta,
#        mu, distance)
GOLDEN = {
    "xgate@1e+04": ("Markovian", 0, "samples", "unitary", None, None,
                    None, None, 0.020259003493460482),
    "depol-0.1@1e+04": ("Markovian", 0, "samples", "raw", [0, 0, 0, 0], None,
                        None, None, 1.1424824313914204e-15),
    "depol-0.2@1e+04": ("Markovian", 0, "samples", "raw", [0, 0, 0, 0], None,
                        None, None, 6.48736591897582e-16),
    "unital-bench@1e+04": ("NonMarkovian", 0, "passthrough", "raw", [0, 0, 0, 0], None,
                           0.07790307842411665, 4.569176793368797, 0.031280200145080705),
    "unital-weak-t1@1e+04": ("Markovian", 0, "samples", "raw", [0, 0, 0, 0], None,
                             None, None, 5.568973853619114e-16),
    "unital-weak-t2@1e+04": ("Markovian", 0, "samples", "raw", [0, 0, 0, 0], None,
                             None, None, 4.861462800857275e-16),
    "identity@1e+04": ("Identity", 0, "identity", None, None, None, None, None, None),
    "xgate@1e+05": ("Markovian", 0, "samples", "unitary", None, None,
                    None, None, 0.00644348831967714),
    "depol-0.1@1e+05": ("Markovian", 0, "samples", "raw", [0, 0, 0, 0], None,
                        None, None, 1.5692660731617238e-15),
    "depol-0.2@1e+05": ("Markovian", 0, "samples", "raw", [0, 0, 0, 0], None,
                        None, None, 1.6327771283188252e-15),
    "unital-bench@1e+05": ("NonMarkovian", 0, "passthrough", "raw", [0, 0, 0, 0], None,
                           0.06667759669106713, 5.746707391960351, 0.02680759056218518),
    "unital-weak-t1@1e+05": ("Markovian", 0, "samples", "raw", [0, 0, 0, 0], None,
                             None, None, 9.098133367390006e-16),
    "unital-weak-t2@1e+05": ("Markovian", 0, "samples", "raw", [0, 0, 0, 0], None,
                             None, None, 6.19987751763208e-16),
    "identity@1e+05": ("Identity", 0, "identity", None, None, None, None, None, None),
    "iswap@1e+05": ("Markovian", 0, "samples", "unitary", None, None,
                    None, None, 0.03647639468953497),
    "depol-cz@1e+05": ("Markovian", 0, "samples", "raw", [0] * 16, None,
                       None, None, 0.03998814810013773),
    "unital-weak-series-s1": ("Markovian", 0, None, None, [0] * 8, None,
                              None, None, 0.0021156120097405597),
    "unital-weak-series-s2": ("Markovian", 0, None, None, [0] * 8, None,
                              None, None, 0.002610434026653802),
    "unital-weak-series-s3": ("Markovian", 0, None, None, [0] * 8, None,
                              None, None, 0.002352034438160954),
    "unital-bench-series": ("NoResult", 2, None, None, None, None, None, None, None),
}

# Inputs whose verdict contradicts their label today, with the defect.
# None at present: the X gate and ISWAP rows fit by their unitary frame.
DEFECTS: dict = {}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """name -> (input, exit code, report) for every panel input."""
    work = tmp_path_factory.mktemp("panel")
    out = {}
    for make in panel.WORKLOADS.values():
        inputs = make()
        panel.materialize(inputs, work)
        for inp in inputs:
            report = work / "report.json"
            code = cli.main(inp.argv(str(report)))
            out[inp.name] = (inp, code, json.loads(report.read_text()))
    return out


def test_golden_covers_the_panel(reports):
    assert sorted(reports) == sorted(GOLDEN)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_report(reports, name):
    inp, code, doc = reports[name]
    verdict, exit_code, pipeline, candidate, branch, sample, delta, mu, distance = GOLDEN[name]
    res = doc.get("result", {})
    assert (doc["verdict"], code, doc.get("pipeline")) == (verdict, exit_code, pipeline)
    assert (res.get("candidate"), res.get("branch"), res.get("basis_sample")) == (
        candidate, branch, sample
    )
    for key, want in (("delta", delta), ("mu_min", mu), ("distance", distance)):
        if want is None:
            assert res.get(key) is None, key
        else:
            assert res[key] == pytest.approx(want, abs=1e-9), key
    assert panel.certify(inp, code, doc) == []


def _truth_rows():
    for name in GOLDEN:
        marks = ()
        if name in DEFECTS:
            marks = pytest.mark.xfail(strict=True, reason=DEFECTS[name])
        yield pytest.param(name, marks=marks, id=name)


@pytest.mark.parametrize("name", _truth_rows())
def test_verdict_agrees_with_ground_truth(reports, name):
    inp, _, doc = reports[name]
    if inp.label is None:
        pytest.skip("unlabelled input")
    assert panel.agrees(inp, doc["verdict"])
