"""Correctness checks on `run_verify` report documents.

Three checks, all on the report document the program returns:

* `against_expected`: at a workload's pinned seed and size, every report's
  name and verdict and the document's `overall` must equal the values
  recorded in expected.json. Estimates are kept next to the recorded ones
  so that drift shows, but they are not gated.
* `defects`: at any seed, each report's statistic must lie within a
  defect bound (|z| <= DEFECT_Z standard errors, chi-square p-value >=
  DEFECT_P). The program's own rules (3 s.e., Bonferroni, chi-square at
  1 %) pass a correct program with probability about 98 % per seed, so at
  a seed with no recorded verdicts a program `fail` alone is a chance
  event, counted but not a failed operation; a statistic beyond the defect
  bound is, since a correct program crosses it with probability below
  about 1e-6 per check.
* the caller compares repeated calls at one seed, which must give the same
  document to the bit.
"""

from __future__ import annotations

import math

DEFECT_Z = 6.0
DEFECT_P = 1e-6


def summary(doc: dict) -> dict:
    """Verdicts and the estimate/stderr of each report, JSON-safe."""
    return {
        "seed": doc["seed"],
        "n_paths": doc["n_paths"],
        "overall": doc["overall"],
        "reports": [
            {"name": r["name"], "verdict": r["verdict"],
             "estimate": _finite_or_none(r["estimate"]),
             "stderr": _finite_or_none(r["stderr"])}
            for r in doc["reports"]
        ],
    }


def _finite_or_none(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def nonfinite_fields(doc: dict) -> int:
    """Number of report `estimate`/`stderr` fields that are NaN or inf."""
    return sum(
        1 for r in doc["reports"] for key in ("estimate", "stderr")
        if not math.isfinite(float(r[key]))
    )


def fail_verdicts(doc: dict) -> int:
    return sum(1 for r in doc["reports"] if r["verdict"] != "pass")


def against_expected(doc: dict, expected: dict) -> list[str]:
    got = [(r["name"], r["verdict"]) for r in doc["reports"]]
    want = [(r["name"], r["verdict"]) for r in expected["reports"]]
    problems = [f"{key} {doc[key]} != expected {expected[key]}"
                for key in ("seed", "n_paths") if doc[key] != expected[key]]
    if got != want:
        problems.append(f"verdicts {got} != expected {want}")
    if doc["overall"] != expected["overall"]:
        problems.append(f"overall {doc['overall']} != expected {expected['overall']}")
    return problems


def _z(estimate, target, stderr):
    if stderr > 0.0:
        return (estimate - target) / stderr
    return 0.0 if abs(estimate - target) <= 1e-12 else math.inf


_BOUNDED = ("mean_density", "q_martingale", "jump_intensity",
            "conditional_jump_law", "brownian_invariance")


def _statistics(report: dict):
    """(label, kind, value) for each statistic a report carries."""
    name, d = report["name"], report["details"]
    if name == "mean_density":
        yield "mean", "z", _z(report["estimate"], 1.0, report["stderr"])
    elif name == "q_martingale":
        for p in d["probes"]:
            yield f"t={p['t']}", "z", _z(p["estimate"], 0.0, p["stderr"])
    elif name == "jump_intensity":
        yield "mean", "z", _z(report["estimate"], d["target"], report["stderr"])
        yield "chi2", "p", d["p_value"]
    elif name == "conditional_jump_law":
        for b in d["bins"]:
            if not b.get("skipped"):
                yield f"bin {b['bin']}", "p", b["p_value"]
    elif name == "brownian_invariance":
        for p in d["probes"]:
            span = f"[{p['t0']}, {p['t1']}]"
            yield f"mean {span}", "z", _z(p["mean"], 0.0, p["mean_se"])
            yield f"second moment {span}", "z", _z(
                p["second_moment"], p["target"], p["second_moment_se"])


def defects(doc: dict) -> list[str]:
    problems = []
    for report in doc["reports"]:
        if report["name"] not in _BOUNDED:
            problems.append(f"no defect bound for report {report['name']!r}")
        for label, kind, value in _statistics(report):
            bad = (not math.isfinite(value) or abs(value) > DEFECT_Z) if kind == "z" \
                else not value >= DEFECT_P
            if bad:
                problems.append(f"{report['name']} {label}: {kind} = {value}")
    return problems
