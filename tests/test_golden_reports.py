"""Every battery builtin's `run_verify` document at 512 paths, against the
one recorded in golden_reports_512.json: the same keys and verdicts, and
every finite float within 1e-12 relative. This holds a change that leaves
the random streams alone to the reports of the code before it. A change
that moves a stream on purpose re-records the file and says so:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import pathlib

import pytest

from levyemm import pipeline

N_PATHS = 512
RTOL = 1e-12
GOLDEN = pathlib.Path(__file__).with_name("golden_reports_512.json")


def _battery_builtins() -> list:
    return [name for name in pipeline.builtin_names()
            if pipeline.builtin_scenario(name).emm["hypothesis"] != "none"]


def _report(name: str):
    """The document at the pinned seed, as strict JSON reads it back
    (non-finite floats as null)."""
    doc = pipeline.run_verify(pipeline.builtin_scenario(name), n_paths=N_PATHS)
    return json.loads(json.dumps(pipeline._finite_or_null(doc), allow_nan=False))


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


@pytest.mark.parametrize("name", _battery_builtins())
def test_report_matches_the_recorded_one(name, golden):
    assert name in golden, f"no recorded report of {name}; re-record {GOLDEN.name}"
    got = _report(name)
    assert [r["verdict"] for r in got["reports"]] == \
        [r["verdict"] for r in golden[name]["reports"]]
    _assert_matches(got, golden[name], name)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _report(name) for name in _battery_builtins()},
                                 indent=1, allow_nan=False) + "\n")
