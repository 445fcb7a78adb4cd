"""Recorded documents of the builtins, checked by one rule: the same keys
and verdicts, and every finite float within 1e-12 relative.

golden_reports_512.json holds every battery builtin's `run_verify`
document at 512 paths. It holds a change that leaves the random streams
alone to the reports of the code before it; a change that moves a stream
on purpose re-records it and says so. Each recorder below keeps every
recorded entry that still matches, and writes only new or changed ones:

    PYTHONPATH=src python tests/test_golden_reports.py verify

golden_documents.json holds every builtin's `run_check_kernel` document
and every h1/h2 builtin's `run_construct` document. Neither draws a random
number, so only a change to what they compute re-records it:

    PYTHONPATH=src python tests/test_golden_reports.py documents

golden_simulate.json holds every file `run_simulate` writes at
SIMULATE_PATHS paths for the models of _SIMULATED, the CSVs as numbers. It
is re-recorded as the verify reports are:

    PYTHONPATH=src python tests/test_golden_reports.py simulate
"""

import csv
import json
import os
import pathlib
import re
import sys
import tempfile

import pytest

from levyemm import pipeline

N_PATHS = 512
RTOL = 1e-12
GOLDEN = pathlib.Path(__file__).with_name("golden_reports_512.json")
DOCUMENTS = pathlib.Path(__file__).with_name("golden_documents.json")
SIMULATE = pathlib.Path(__file__).with_name("golden_simulate.json")
SIMULATE_PATHS = 300
# the simulated models: builtins, and gaussian-baseline under a power
# kernel, whose moving average takes the FFT correlation
_SIMULATED = ["h2-two-atom", "h1-two-atom", "q-two-atom-zeta05",
              "gaussian-baseline", "gaussian-baseline-power"]


def _battery_builtins() -> list:
    return [name for name in pipeline.builtin_names()
            if pipeline.builtin_scenario(name).emm["hypothesis"] != "none"]


def _kernel_builtins() -> list:
    return [name for name in pipeline.builtin_names()
            if pipeline.builtin_scenario(name).emm["hypothesis"] in ("h1", "h2")]


def _strict(doc):
    """doc as strict JSON reads it back (non-finite floats as null)."""
    return json.loads(json.dumps(pipeline._finite_or_null(doc), allow_nan=False))


def _report(name: str):
    """The verify document at the pinned seed."""
    return _strict(pipeline.run_verify(pipeline.builtin_scenario(name),
                                       n_paths=N_PATHS))


_RUNS = {"check-kernel": pipeline.run_check_kernel,
         "construct": pipeline.run_construct}


def _document_cases() -> list:
    """(command, builtin) of every recorded check-kernel and construct
    document."""
    return [*(("check-kernel", n) for n in pipeline.builtin_names()),
            *(("construct", n) for n in _kernel_builtins())]


def _document(command: str, name: str):
    return _strict(_RUNS[command](pipeline.builtin_scenario(name)))


def _simulate_model(name: str):
    if not name.endswith("-power"):
        return pipeline.builtin_scenario(name)
    d = pipeline.builtin_scenario(name[:-len("-power")]).to_dict()
    d["name"], d["kernel"] = name, {"type": "power", "gamma": 2.5}
    return pipeline.model_from_dict(d)


def _simulated(name: str, out_dir) -> dict:
    """Every file run_simulate writes for name at the pinned seed, by file
    name: simulate.json as read back, and each CSV as its header and then
    its rows, as numbers (path ids as integers)."""
    pipeline.run_simulate(_simulate_model(name), str(out_dir), n_paths=SIMULATE_PATHS)
    out = {}
    for f in sorted(os.listdir(out_dir)):
        text = pathlib.Path(out_dir, f).read_text()
        if f.endswith(".json"):
            out[f] = json.loads(text)
            continue
        header, *rows = csv.reader(text.splitlines())
        first = int if f == "jumps.csv" else float
        out[f] = [header, *([first(r[0]), *map(float, r[1:])] for r in rows)]
    return out


def _dumps(doc) -> str:
    """doc as JSON, indented, with each innermost list on one line."""
    text = json.dumps(doc, indent=1, allow_nan=False)
    return re.sub(r"\[\n\s*([^\[\]{}]*?)\n\s*\]",
                  lambda m: "[" + re.sub(r",\n\s*", ", ", m.group(1)) + "]",
                  text) + "\n"


def _assert_matches(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for k in want:
            _assert_matches(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= RTOL * abs(want), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


def _kept(recorded: dict, key: str, got, where: str):
    """recorded[key] where got still matches it, else got: a re-recording
    leaves alone what no change moved."""
    try:
        _assert_matches(got, recorded.get(key), where)
    except AssertionError:
        return got
    return recorded[key]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def documents() -> dict:
    return json.loads(DOCUMENTS.read_text())


@pytest.fixture(scope="module")
def simulated() -> dict:
    return json.loads(SIMULATE.read_text())


@pytest.mark.parametrize("name", _battery_builtins())
def test_report_matches_the_recorded_one(name, golden):
    assert name in golden, f"no recorded report of {name}; re-record {GOLDEN.name}"
    got = _report(name)
    assert [r["verdict"] for r in got["reports"]] == \
        [r["verdict"] for r in golden[name]["reports"]]
    _assert_matches(got, golden[name], name)


@pytest.mark.parametrize("command, name", _document_cases())
def test_document_matches_the_recorded_one(command, name, documents):
    want = documents[command].get(name)
    assert want is not None, \
        f"no recorded {command} document of {name}; re-record {DOCUMENTS.name}"
    _assert_matches(_document(command, name), want, f"{command} {name}")


@pytest.mark.parametrize("name", _SIMULATED)
def test_simulate_files_match_the_recorded_ones(name, simulated, tmp_path):
    assert name in simulated, \
        f"no recorded simulate files of {name}; re-record {SIMULATE.name}"
    _assert_matches(_simulated(name, tmp_path), simulated[name], f"simulate {name}")


if __name__ == "__main__":
    which = sys.argv[1:] or ["verify"]
    if "verify" in which:
        old = json.loads(GOLDEN.read_text())
        GOLDEN.write_text(json.dumps({name: _kept(old, name, _report(name), name)
                                      for name in _battery_builtins()},
                                     indent=1, allow_nan=False) + "\n")
    if "documents" in which:
        old = json.loads(DOCUMENTS.read_text())
        docs = {command: {} for command in _RUNS}
        for command, name in _document_cases():
            docs[command][name] = _kept(old.get(command, {}), name,
                                        _document(command, name), f"{command} {name}")
        DOCUMENTS.write_text(json.dumps(docs, indent=1, allow_nan=False) + "\n")
    if "simulate" in which:
        old = json.loads(SIMULATE.read_text())
        files = {}
        for name in _SIMULATED:
            with tempfile.TemporaryDirectory() as out_dir:
                files[name] = _kept(old, name, _simulated(name, out_dir),
                                    f"simulate {name}")
        SIMULATE.write_text(_dumps(files))
