"""Recorded documents of the builtins, checked by one rule: the same keys
and verdicts, and every finite float within 1e-12 relative.

golden_reports_512.json holds every battery builtin's `run_verify`
document at 512 paths. It holds a change that leaves the random streams
alone to the reports of the code before it; a change that moves a stream
on purpose re-records it and says so:

    PYTHONPATH=src python tests/test_golden_reports.py verify

golden_documents.json holds every builtin's `run_check_kernel` document
and every h1/h2 builtin's `run_construct` document. Neither draws a random
number, so only a change to what they compute re-records it:

    PYTHONPATH=src python tests/test_golden_reports.py documents
"""

import json
import pathlib
import sys

import pytest

from levyemm import pipeline

N_PATHS = 512
RTOL = 1e-12
GOLDEN = pathlib.Path(__file__).with_name("golden_reports_512.json")
DOCUMENTS = pathlib.Path(__file__).with_name("golden_documents.json")


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


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def documents() -> dict:
    return json.loads(DOCUMENTS.read_text())


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


if __name__ == "__main__":
    which = sys.argv[1:] or ["verify"]
    if "verify" in which:
        GOLDEN.write_text(json.dumps({name: _report(name) for name in _battery_builtins()},
                                     indent=1, allow_nan=False) + "\n")
    if "documents" in which:
        docs = {command: {} for command in _RUNS}
        for command, name in _document_cases():
            docs[command][name] = _document(command, name)
        DOCUMENTS.write_text(json.dumps(docs, indent=1, allow_nan=False) + "\n")
