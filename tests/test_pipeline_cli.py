import collections
import concurrent.futures
import dataclasses
import json
import math
import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest
import yaml

from levyemm import cli, emm_construct, path_sim, pipeline, verify
from levyemm.errors import ConfigError
from levyemm.levy_model import LevyTriplet
from levyemm.path_sim import PathSimulator, SimConfig
from levyemm.pipeline import (
    SCENARIO_DIR,
    builtin_names,
    builtin_scenario,
    load_scenario,
    model_from_dict,
    run_check_kernel,
    run_construct,
    run_simulate,
    run_verify,
    save_scenario,
)


def _builtin(name):
    """Builder of a fresh scenario dict of the builtin `name`."""
    return lambda: builtin_scenario(name).to_dict()


def _two_atom_dict(**emm_extra):
    d = builtin_scenario("h2-two-atom").to_dict()
    d["sim"].update(n_paths=500, seed=12)
    d["emm"].update(emm_extra)
    return d


_h1_dict = _builtin("h1-two-atom")
_q_dict = _builtin("q-two-atom-zeta05")


def _with(base, section, **changes):
    d = base()
    d[section].update(changes)
    return d


def _without(base, section, key):
    d = base()
    del d[section][key]
    return d


def _renamed(base, section, key, new):
    d = base()
    d[section][new] = d[section].pop(key)
    return d


def _no_paths(*args):
    raise AssertionError("paths drawn")


def _eps_past_a(base):
    """base on atoms at +-0.6 and +-1 with truncation radius 1.5, so that
    eps_jump may exceed emm.a = 0.5 without passing the radius."""
    return lambda: _with(base, "triplet", truncation={"kind": "inside", "a": 1.5},
                         measure={"type": "discrete", "atoms": [
                             [-0.6, 2.0], [0.6, 2.0], [-1.0, 1.0], [1.0, 1.0]]})


# (scenario builder, what the refusal message names); each combination ran
# before with a wrong verdict, an empty battery or a mid-run AttributeError
REFUSED = {
    "h2-misspelt-test": (lambda: _with(_two_atom_dict, "verify",
                                       tests=["mean_densty"]), "mean_densty"),
    "h2-empty-tests": (lambda: _with(_two_atom_dict, "verify", tests=[]),
                       "at least one test"),
    "h2-weighted-jump-law": (lambda: _with(
        _two_atom_dict, "verify", tests=["conditional_jump_law"]),
        "conditional_jump_law"),
    "h2-unknown-mode": (lambda: _with(_two_atom_dict, "verify",
                                      mode="direct_q"), "direct_q"),
    "direct-q-no-tests": (lambda: _without(_q_dict, "verify", "tests"),
                          "at least one test"),
    "direct-q-mean-density": (lambda: _with(_q_dict, "verify",
                                            tests=["mean_density"]),
                              "mean_density"),
    "gaussian-q-martingale": (lambda: _with(
        _builtin("gaussian-baseline"), "verify",
        tests=["q_martingale"]), "q_martingale"),
    "gaussian-direct-q": (lambda: _with(_builtin("gaussian-baseline"),
                                        "verify", mode="direct-q"), "direct-q"),
    "h1-jump-intensity": (lambda: _with(_h1_dict, "verify",
                                        tests=["jump_intensity"]),
                          "jump_intensity"),
    "h1-jump-law": (lambda: _with(_h1_dict, "verify",
                                  tests=["conditional_jump_law"]),
                    "conditional_jump_law"),
    "h1-direct-q": (lambda: _with(_h1_dict, "verify", mode="direct-q"),
                    "direct-q"),
    "h1-frozen-zeta": (lambda: _with(_h1_dict, "emm", frozen_zeta=0.5),
                       "frozen_zeta"),
    "h2-declared-phi0": (lambda: _with(_two_atom_dict, "emm",
                                       declared_phi0=1.2), "declared_phi0"),
    "lm-q-martingale": (lambda: _with(_builtin("bremaud"), "verify",
                                      tests=["q_martingale"]), "q_martingale"),
    # lmrelax computes no Lepingle-Memin certificate
    "lmrelax-lm-criterion": (lambda: _with(_builtin("lmrelax"), "verify",
                                           tests=["lm_criterion"]),
                             "lm_criterion"),
    "lm-unknown-style": (lambda: _with(_builtin("bremaud"), "emm",
                                       style="bremaud2"), "bremaud2"),
    # each key the lm style reads (a KeyError mid-run before)
    **{f"bremaud-no-{key}": (
        lambda key=key: _without(_builtin("bremaud"), "emm", key), f"'{key}'")
       for key in ("K1", "K2", "gamma", "eps")},
    "lmrelax-no-eps": (lambda: _without(_builtin("lmrelax"), "emm", "eps"),
                       "'eps'"),
    # the mark-law test has no state bins, so an old file is not reread
    "state-bins": (lambda: _with(_q_dict, "verify", state_bins=4),
                   "state_bins"),
    # direct-Q marks come from the Q law, not from evaluate
    "direct-q-break-positive-factor": (lambda: _with(
        _q_dict, "emm", break_positive_factor=1.2), "break_positive_factor"),
    # probe times lie on the dt lattice in (0, T] and increase; 0 is always
    # the first probe (an IndexError mid-run, a verdict on unsimulated jumps,
    # a silently moved probe and a degenerate probe before)
    "gaussian-probe-past-T": (lambda: _with(
        _builtin("gaussian-baseline"), "verify", probe_times=[0.0, 0.75]),
        "probe_times"),
    "h2-probe-past-T": (lambda: _with(_two_atom_dict, "verify",
                                      probe_times=[0.5, 3.0]), "probe_times"),
    "gaussian-probe-off-lattice": (lambda: _with(
        _builtin("gaussian-baseline"), "verify", probe_times=[0.1]),
        "probe_times"),
    "h2-probe-at-zero": (lambda: _with(_two_atom_dict, "verify",
                                       probe_times=[0.0, 0.5]), "probe_times"),
    "h2-probes-decreasing": (lambda: _with(
        _two_atom_dict, "verify", probe_times=[0.5, 0.25]), "probe_times"),
    "h2-no-probes": (lambda: _with(_two_atom_dict, "verify", probe_times=[]),
                     "probe_times"),
    "h2-probe-word": (lambda: _with(_two_atom_dict, "verify",
                                    probe_times=["half"]), "probe_times"),
    # values are type-checked at load (a ValueError mid-run, exit 1, before)
    "h2-eps-jump-word": (lambda: _with(_two_atom_dict, "sim",
                                       eps_jump="quarter"), "eps_jump"),
    "h2-tolerance-bool": (lambda: _with(_two_atom_dict, "emm", tolerance=True),
                          "tolerance"),
    "h2-fractional-n-paths": (lambda: _with(_two_atom_dict, "sim",
                                            n_paths=2.5), "n_paths"),
    # an IndexError (no chunks) and a SeedSequence ValueError, exit 1, before
    "h2-zero-paths": (lambda: _with(_two_atom_dict, "sim", n_paths=0),
                      "n_paths"),
    "h2-negative-paths": (lambda: _with(_two_atom_dict, "sim", n_paths=-3),
                          "n_paths"),
    "h2-negative-seed": (lambda: _with(_two_atom_dict, "sim", seed=-1), "seed"),
    # _run_chunked's float edges cannot hold every path index past 2**53 (an
    # IndexError at 2**63 and a UFuncTypeError from 2**64 on, exit 1, before)
    **{f"h2-{label}-paths": (lambda n=n: _with(_two_atom_dict, "sim", n_paths=n),
                             "n_paths must be at most 2**53")
       for label, n in (("2**53+1", 2**53 + 1), ("2**63", 2**63),
                        ("2**64", 2**64), ("10**400", 10**400))},
    # Z_T reads every increment as Brownian: with jumps mean_density passed
    # at E[Z_T] = 19.6, and c = 0 divided by zero
    "gaussian-with-jumps": (lambda: _with(
        _builtin("gaussian-baseline"), "triplet",
        measure={"type": "discrete", "atoms": [[-1.0, 1.0], [1.0, 1.0]]}),
        "pure Brownian"),
    "gaussian-no-diffusion": (lambda: _with(_builtin("gaussian-baseline"),
                                            "triplet", c=0.0), "pure Brownian"),
    # theta divides by phi(0) (a divide-by-zero and exit 1 before)
    "gaussian-zero-start": (lambda: {
        **_builtin("gaussian-baseline")(),
        "kernel": {"type": "zero-start", "kappa": 1.0}}, "needs phi"),
    "gaussian-zero-amplitude": (lambda: _with(
        _builtin("gaussian-baseline"), "kernel", amplitude=0.0), "needs phi"),
    # with phi(0) = 0, dX = Y dt: X is continuous and of finite variation,
    # so no EMM exists (before, h1's verdict followed the path count, q's
    # passed, and h2 was refused by its reach check, naming zeta)
    **{case: (lambda base=base, kernel=kernel: {**base(), "kernel": kernel},
              "has phi(0) = 0")
       for case, base, kernel in (
           ("h1-zero-start", _h1_dict, {"type": "zero-start", "kappa": 1.0}),
           ("h1-zero-amplitude", _h1_dict,
            {"type": "exponential", "kappa": 0.05, "amplitude": 0.0}),
           ("h1-power-density-phi0-0", _h1_dict,
            {"type": "power-density", "q": 0.4, "phi0": 0.0}),
           ("h2-zero-start", _two_atom_dict, {"type": "zero-start", "kappa": 0.05}),
           ("q-zero-start", _q_dict, {"type": "zero-start", "kappa": 1.0}))},
    # refused only when the simulator was built (exit 2) before
    "h2-eps-jump-past-radius": (lambda: _with(_two_atom_dict, "sim",
                                              eps_jump=1.0), "identity radius"),
    # jumps in a < |x| < eps_jump are simulated as Gaussian, out of the
    # density's reach: h2's jump_intensity and h1's mean_density failed at
    # 4000 paths, and direct Q stopped with UnsupportedModel, exit 2, before
    **{f"{case}-eps-jump-past-a": (lambda base=base: _with(_eps_past_a(base), "sim",
                                                           eps_jump=0.75),
                                   "sim.eps_jump = 0.75 exceeds emm.a = 0.5")
       for case, base in (("h1", _h1_dict), ("h2", _two_atom_dict),
                          ("direct-q", _q_dict))},
    # the battery counts the jumps of F at its total mass (an
    # AttributeError before, and an InvalidRegion once it read the mass)
    **{f"bremaud-{m['type']}": (lambda m=m: _with(_builtin("bremaud"), "triplet",
                                                  measure=m),
                                "triplet: the bremaud battery needs a measure "
                                "of finite mass")
       for m in ({"type": "tempered-stable", "eta": 1.0, "lam": 1.0, "alpha": 0.5},
                 {"type": "symmetric-alpha-stable", "alpha": 1.5})},
    # a misleading TruncationViolated, exit 2, before
    "band-negative-height": (lambda: _with(_q_dict, "triplet", measure={
        "type": "uniform-band", "a": 0.25, "b": 2.0, "height": -1.0}),
        "height"),
    # a key that no table lists, passed over in silence before: a misspelt
    # knob let negative-wrong-intensity pass
    "h2-kernel-kapa": (lambda: _with(_two_atom_dict, "kernel", kapa=0.05),
                       "kernel.kapa"),
    "h2-frozen-zetta": (lambda: _with(_two_atom_dict, "emm", frozen_zetta=0.5),
                        "emm.frozen_zetta"),
    "wrong-intensity-factr": (lambda: _renamed(
        _builtin("negative-wrong-intensity"), "emm",
        "declared_intensity_factor", "declared_intensity_factr"),
        "emm.declared_intensity_factr"),
    "top-level-verfy": (lambda: {**_two_atom_dict(), "verfy": {}}, "verfy"),
    "sim-small-jump-mode": (lambda: _with(_two_atom_dict, "sim",
                                          small_jump_mode="gaussian-approx"),
                            "sim.small_jump_mode"),
    # a constructor's refusal or a missing argument (a traceback, exit 1,
    # before)
    "h2-negative-kappa": (lambda: _with(_two_atom_dict, "kernel", kappa=-1),
                          "kappa"),
    "h2-no-kappa": (lambda: _without(_two_atom_dict, "kernel", "kappa"),
                    "'kappa'"),
    "sas-no-alpha": (lambda: _with(_two_atom_dict, "triplet", measure={
        "type": "symmetric-alpha-stable"}), "'alpha'"),
    "sas-alpha-2.5": (lambda: _with(_two_atom_dict, "triplet", measure={
        "type": "symmetric-alpha-stable", "alpha": 2.5}), "alpha"),
    "negative-c": (lambda: _with(_two_atom_dict, "triplet", c=-0.1),
                   "triplet.c"),
    "h1-a-above-b": (lambda: _with(_h1_dict, "emm", a=2.0, b=1.0), "a < b"),
    # construct checked the atoms against the tolerance as given, so at 0
    # rounding alone failed a correct h2 kernel (ok false, exit 1, before)
    **{f"{case}-tolerance-{label}": (
        lambda base=base, value=value: _with(base, "emm", tolerance=value),
        "emm.tolerance")
       for case, base in (("h1", _h1_dict), ("h2", _two_atom_dict))
       for label, value in (("zero", 0.0), ("negative", -1e-6))},
    "h2-zero-a": (lambda: _with(_two_atom_dict, "emm", a=0.0), "0 < a"),
    "outside-band-not-integrable": (lambda: _with(
        _two_atom_dict, "triplet", integrable=False,
        truncation={"kind": "outside-band", "a": 0.5, "b": 2.0}), "integrable"),
    "unknown-tail-regime": (lambda: _with(_two_atom_dict, "verify",
                                          tail_regime="heavy"), "tail_regime"),
    "h2-infinite-T": (lambda: _with(_two_atom_dict, "sim", T=float("inf")),
                      "sim.T"),
    # an integer too large for a float (an OverflowError traceback before,
    # or a load that failed mid-run)
    **{f"{section}-{key}-past-float": (
        lambda section=section, key=key, v=v: _with(_two_atom_dict, section, **{key: v}),
        f"{section}.{key}")
       for section, key, v in (("sim", "T", 10**400), ("triplet", "b_h", 10**400),
                               ("triplet", "c", 10**400), ("kernel", "kappa", 10**400),
                               ("emm", "a", 10**400), ("verify", "probe_times", [10**400]))},
    "atom-weight-past-float": (lambda: _with(_two_atom_dict, "triplet", measure={
        "type": "discrete", "atoms": [[-1.0, 10**400], [1.0, 1.0]]}), "triplet.measure"),
    # non-finite atoms (RuntimeWarnings and then UnsupportedModel or NumPy's
    # ValueError mid-run, before)
    "atom-nan-weight": (lambda: _with(_two_atom_dict, "triplet", measure={
        "type": "discrete", "atoms": [[-1.0, math.nan], [1.0, 1.0]]}), "finite"),
    "atom-inf-position": (lambda: _with(_two_atom_dict, "triplet", measure={
        "type": "discrete", "atoms": [[-math.inf, 1.0], [1.0, 1.0]]}), "finite"),
    # verify keys that the hypothesis runs nothing to read
    "none-tests": (lambda: _with(_builtin("classify-sas-1.5"), "verify",
                                 tests=["mean_density"]), "verify.tests"),
    "lm-probe-times": (lambda: _with(_builtin("bremaud"), "verify",
                                     probe_times=[0.5]), "verify.probe_times"),
}


# the builtins whose battery runs on weighted paths (h1, h2 and Gaussian)
WEIGHTED_BUILTINS = [
    n for n, m in ((n, builtin_scenario(n)) for n in builtin_names())
    if m.emm["hypothesis"] in ("h1", "h2", "gaussian")
    and m.verify.get("mode", "weighted") == "weighted"]


class TestScenarioSchema:
    @pytest.mark.parametrize("name", builtin_names())
    def test_yaml_round_trip_identity(self, name, tmp_path):
        scn = builtin_scenario(name)
        assert scn.name == name
        path = tmp_path / "scn.yaml"
        save_scenario(scn, str(path))
        back = load_scenario(str(path))
        assert back.to_dict() == scn.to_dict()

    def test_missing_required_key(self):
        d = _two_atom_dict()
        del d["sim"]["eps_jump"]
        with pytest.raises(ConfigError, match="eps_jump"):
            model_from_dict(d)

    def test_missing_tolerance(self):
        d = _two_atom_dict()
        del d["emm"]["tolerance"]
        with pytest.raises(ConfigError, match="tolerance"):
            model_from_dict(d)

    def test_unknown_measure_type(self):
        d = _two_atom_dict()
        d["triplet"]["measure"]["type"] = "cauchy"
        with pytest.raises(ConfigError, match="measure"):
            model_from_dict(d)

    def test_unknown_hypothesis(self):
        d = _two_atom_dict()
        d["emm"]["hypothesis"] = "h3"
        with pytest.raises(ConfigError, match="hypothesis"):
            model_from_dict(d)

    def test_h2_on_zero_measure_rejected(self):
        d = _two_atom_dict()
        d["triplet"]["measure"] = {"type": "zero"}
        with pytest.raises(ConfigError, match="two-sided"):
            model_from_dict(d)

    def test_non_mapping_file(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError):
            load_scenario(str(p))

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError, match="unknown builtin"):
            builtin_scenario("nope")

    @pytest.mark.parametrize("name", [
        "../scenarios/h2-two-atom", "../levyemm/scenarios/h2-two-atom",
        "./h2-two-atom", "h2-two-atom/..", "..", "/h2-two-atom"])
    def test_path_as_name_refused(self, name):
        with pytest.raises(ConfigError, match="unknown builtin"):
            builtin_scenario(name)

    # each ran its command and then wrote outside --out or stopped with
    # FileNotFoundError (exit 1) before
    @pytest.mark.parametrize("name", ["sub/dir", "../escaped", "/abs",
                                      "nul\0byte", f"a{os.sep}b"],
                             ids=["sub-dir", "parent", "absolute", "nul", "sep"])
    def test_name_that_is_no_single_path_component_refused(self, name):
        with pytest.raises(ConfigError, match="scenario.name"):
            model_from_dict({**_two_atom_dict(), "name": name})

    def test_shipped_scenarios_load(self):
        files = [f for f in os.listdir(SCENARIO_DIR) if f.endswith(".yaml")]
        assert len(files) >= 10
        for f in files:
            load_scenario(os.path.join(SCENARIO_DIR, f))

    def test_sim_takes_exactly_the_sim_config_fields(self):
        assert [f.name for f in dataclasses.fields(SimConfig)] == [
            "T", "M", "dt", "eps_jump", "n_paths", "seed"]
        assert list(pipeline._SECTIONS["sim"][0]) == [
            f.name for f in dataclasses.fields(SimConfig)]

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_battery_without_correct_implementation_refused(self, case):
        build, named = REFUSED[case]
        with pytest.raises(ConfigError, match=re.escape(named)):
            model_from_dict(build())

    @pytest.mark.parametrize("base", [_h1_dict, _two_atom_dict, _q_dict],
                             ids=["h1", "h2", "direct-q"])
    def test_eps_jump_at_a_loads(self, base):
        d = _with(_eps_past_a(base), "sim", eps_jump=0.5)
        assert d["emm"]["a"] == 0.5
        assert model_from_dict(d).sim["eps_jump"] == 0.5

    @pytest.mark.parametrize("tests", [["lm_criterion"], ["finite_expect"],
                                       ["lm_criterion", "finite_expect"]])
    def test_lm_battery_accepts_its_tests(self, tests):
        scn = model_from_dict(_with(_builtin("bremaud"), "verify",
                                       tests=tests))
        assert scn.verify["tests"] == tests


@pytest.fixture
def inline_pool(monkeypatch):
    """ProcessPoolExecutor run in this process, task by task, on 2 CPUs: it
    starts no process, and records each pool's (max_workers, initargs) and
    each task's (fn, args)."""
    pools, tasks = [], []

    class InProcess:
        def __init__(self, max_workers, initializer, initargs):
            pools.append((max_workers, initargs))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            tasks.append((fn, args))
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(pipeline, "_worker_model", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return pools, tasks


class TestPipelines:
    def test_check_kernel_admissible(self):
        doc = run_check_kernel(builtin_scenario("classify-sas-1.5"))
        assert doc["classification"]["status"] == "admissible"
        assert doc["schema_version"] == pipeline.REPORT_SCHEMA_VERSION

    def test_construct_two_atom_ok(self):
        doc = run_construct(builtin_scenario("h2-two-atom"))
        v = doc["validation"]
        assert v["ok"]
        assert v["max_drift_violation"] < 1e-9

    def test_construct_broken_alpha_flagged(self):
        doc = run_construct(model_from_dict(
            _two_atom_dict(break_positive_factor=1.2)
        ))
        assert not doc["validation"]["ok"]

    @pytest.mark.parametrize("name", ["h2-two-atom", "negative-broken-alpha",
                                      "negative-wrong-intensity",
                                      "q-two-atom-zeta05"])
    def test_h2_builtins_reach_nine_sd_and_run(self, name):
        # kappa = 0.05: sd(Y) = sqrt(kappa (1 - exp(-2 kappa (M + T)))) on
        # two unit atoms, whose zeta(y) = -y/2 stays in (-1, 1) for |y| < 2
        scn = builtin_scenario(name)
        assert run_construct(scn)["reach_sd"] == pytest.approx(9.0, abs=0.05)
        assert run_verify(scn, n_paths=200)["n_paths"] == 200

    @pytest.mark.parametrize("amplitude", [-2.0, -1.0, 0.5, 2.0])
    def test_h2_reach_does_not_move_with_the_kernel_amplitude(self, amplitude):
        # Y and phi(0) both scale with the amplitude, so zeta(y) =
        # -(y/phi0 + b_h)/lam reads the same u = Y/phi(0); a negative phi(0)
        # swaps the edges of the y-interval
        d = builtin_scenario("h2-two-atom").to_dict()
        d["kernel"]["amplitude"] = amplitude
        want = builtin_scenario("h2-two-atom").reach_sd
        assert model_from_dict(d).reach_sd == pytest.approx(want, rel=1e-12)

    def test_h2_reach_below_six_refused_before_any_path(self, monkeypatch):
        # at kappa = 0.2 this ran at 2000 paths and stopped with
        # ZetaOutOfRange at 1e5; 0.25 stopped already at 2000
        d = builtin_scenario("h2-two-atom").to_dict()
        d["kernel"]["kappa"] = 0.25
        scn = model_from_dict(d)
        assert run_construct(scn)["reach_sd"] == pytest.approx(4.13, abs=0.01)

        monkeypatch.setattr(pipeline, "_run_chunked", _no_paths)
        with pytest.raises(ConfigError, match="4.13 s.d."):
            run_verify(scn, n_paths=200)

    def test_h2_frozen_zeta_is_not_refused_for_reach(self):
        # a frozen zeta does not follow Y, so Y's reach does not limit it
        d = builtin_scenario("q-two-atom-zeta05").to_dict()
        d["kernel"]["kappa"] = 0.25
        assert run_verify(model_from_dict(d), n_paths=200)["n_paths"] == 200

    # each zeta on or past an atom: the run stopped with ZetaOutOfRange at
    # its first block (exit 2) before
    @pytest.mark.parametrize("name, zeta", [
        ("h2-two-atom", 5.0), ("h2-two-atom", 1.0),
        ("q-two-atom-zeta05", -1.0), ("q-two-atom-zeta05", 2.0)])
    def test_frozen_zeta_outside_range_refused_before_any_path(
            self, name, zeta, monkeypatch):
        d = builtin_scenario(name).to_dict()
        d["emm"]["frozen_zeta"] = zeta
        scn = model_from_dict(d)

        monkeypatch.setattr(pipeline, "_run_chunked", _no_paths)
        with pytest.raises(ConfigError, match="emm.frozen_zeta"):
            run_verify(scn, n_paths=200)

    @pytest.mark.parametrize("name", ["h2-two-atom", "q-two-atom-zeta05"])
    def test_frozen_zeta_inside_range_runs(self, name):
        d = builtin_scenario(name).to_dict()
        d["emm"]["frozen_zeta"] = 0.5
        assert run_verify(model_from_dict(d), n_paths=200)["n_paths"] == 200

    # the tuple-returning worker model and the Girsanov kernel of each test
    # built the kernel 3 times and the triplet 6 times per call before, and
    # a run with n_paths or seed rebuilt the whole model; now it shares the
    # loaded triplet and simulator, the h2 kernel builds its own triplet,
    # and no battery builds a simulator of its own
    @pytest.mark.parametrize("name, want", [
        ("h2-two-atom", (1, 1, 0)), ("q-two-atom-zeta05", (1, 1, 0)),
        ("gaussian-baseline", (0, 0, 0))])
    def test_run_builds_its_model_once(self, name, want, monkeypatch):
        scn = builtin_scenario(name)
        built = collections.Counter()
        for what, owner, attr in (("make_h2_kernel", emm_construct, "make_h2_kernel"),
                                  ("LevyTriplet", LevyTriplet, "__post_init__"),
                                  ("PathSimulator", PathSimulator, "__init__")):
            def counted(*args, fn=getattr(owner, attr), what=what, **kwargs):
                built[what] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)
        run_verify(scn, n_paths=300, seed=5)
        got = tuple(built[k] for k in ("make_h2_kernel", "LevyTriplet",
                                       "PathSimulator"))
        assert got == want

    def test_construct_reports_no_reach_without_second_moment(self):
        d = builtin_scenario("h2-two-atom").to_dict()
        d["triplet"]["measure"] = {"type": "symmetric-alpha-stable", "alpha": 1.5}
        assert run_construct(model_from_dict(d))["reach_sd"] is None

    def test_verify_smoke_h2(self):
        doc = run_verify(builtin_scenario("h2-two-atom"), n_paths=2000)
        assert doc["overall"] == "pass"
        names = [r["name"] for r in doc["reports"]]
        assert "mean_density" in names and "q_martingale" in names
        assert "plot" in doc and len(doc["plot"][0]) == 4

    def test_verify_seed_override_changes_estimates(self):
        scn = builtin_scenario("h2-two-atom")
        a = run_verify(scn, n_paths=500, seed=1)
        b = run_verify(scn, n_paths=500, seed=2)
        c = run_verify(scn, n_paths=500, seed=1)
        assert a["reports"][0]["estimate"] != b["reports"][0]["estimate"]
        assert a["reports"][0]["estimate"] == c["reports"][0]["estimate"]

    # an override that is no integer is refused as the scenario key would
    # be, never rounded to one
    @pytest.mark.parametrize("key, value", [
        ("n_paths", 2.5), ("n_paths", True), ("n_paths", "64"), ("seed", 3.7),
        ("seed", "7")], ids=["n_paths-2.5", "n_paths-True", "n_paths-str",
                             "seed-3.7", "seed-str"])
    @pytest.mark.parametrize("run", ["verify", "simulate"])
    def test_override_that_is_no_integer_refused(self, key, value, run,
                                                 tmp_path):
        scn = builtin_scenario("h2-two-atom")
        with pytest.raises(ConfigError, match=f"sim.{key}"):
            if run == "verify":
                run_verify(scn, **{key: value})
            else:
                run_simulate(scn, str(tmp_path), **{key: value})
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n_paths", [2**53 + 1, 2**63, 2**64, 10**400],
                             ids=["2**53+1", "2**63", "2**64", "10**400"])
    @pytest.mark.parametrize("run", ["verify", "simulate"])
    def test_n_paths_past_2_53_refused(self, n_paths, run, tmp_path):
        scn = builtin_scenario("h2-two-atom")
        with pytest.raises(ConfigError, match=r"sim: n_paths must be at most 2\*\*53"):
            if run == "verify":
                run_verify(scn, n_paths=n_paths)
            else:
                run_simulate(scn, str(tmp_path), n_paths=n_paths)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("tests", [["finite_expect"],
                                       ["finite_expect", "lm_criterion"]])
    def test_verify_bremaud_reports_its_tests(self, tests):
        scn = model_from_dict(_with(_builtin("bremaud"), "verify",
                                       tests=tests))
        doc = run_verify(scn, n_paths=1024)
        assert sorted(r["name"] for r in doc["reports"]) == sorted(tests)

    def test_reports_in_battery_order(self):
        scn = model_from_dict(_with(
            _two_atom_dict, "verify",
            tests=["jump_intensity", "q_martingale", "mean_density"]))
        doc = run_verify(scn, n_paths=200)
        assert [r["name"] for r in doc["reports"]] == [
            "mean_density", "q_martingale", "jump_intensity"]

    # a finite measure without atoms stopped with AttributeError before
    def test_verify_bremaud_on_a_density_of_the_same_mass(self):
        d = _with(_builtin("bremaud"), "triplet",
                  measure={"type": "uniform-band", "a": 0.5, "b": 1.0})
        band = run_verify(model_from_dict(d), n_paths=2000)
        atom = run_verify(builtin_scenario("bremaud"), n_paths=2000)
        (got,), (want,) = band["reports"], atom["reports"]
        assert got["verdict"] == want["verdict"] == "pass"
        assert got["estimate"] == pytest.approx(want["estimate"], rel=1e-12)

    def test_verify_bremaud_on_the_zero_measure_runs(self):
        d = _with(_builtin("bremaud"), "triplet", measure={"type": "zero"})
        doc = run_verify(model_from_dict(d), n_paths=256)
        assert [r["name"] for r in doc["reports"]] == ["lm_criterion"]

    def test_verify_bremaud_has_one_report(self):
        doc = run_verify(builtin_scenario("bremaud"), n_paths=1024)
        assert [r["name"] for r in doc["reports"]] == ["lm_criterion"]

    def test_verify_direct_q_below_mark_floor_inconclusive(self):
        doc = run_verify(builtin_scenario("q-two-atom-zeta05"), n_paths=20)
        law = {r["name"]: r for r in doc["reports"]}["conditional_jump_law"]
        assert law["verdict"] == "inconclusive"
        assert law["n_samples"] < 50
        assert law["details"]["bins"] == [
            {"bin": 0, "n": law["n_samples"], "skipped": True}]
        assert doc["overall"] != "pass"

    def test_verify_direct_q_one_path_inconclusive(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doc = run_verify(builtin_scenario("q-two-atom-zeta05"), n_paths=1)
        verdicts = {r["name"]: r["verdict"] for r in doc["reports"]}
        assert verdicts["jump_intensity"] == "inconclusive"
        assert doc["overall"] != "pass"

    # one path has no standard error: mean_density and q_martingale failed
    # on stderr 0.0, and brownian_invariance likewise, before
    @pytest.mark.parametrize("name", WEIGHTED_BUILTINS)
    def test_verify_one_path_inconclusive(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doc = run_verify(builtin_scenario(name), n_paths=1)
        assert {r["verdict"] for r in doc["reports"]} == {"inconclusive"}
        assert doc["overall"] == "fail"
        # q_martingale reports its largest probe, not 0.0 and an infinite s.e.
        for r in doc["reports"]:
            if r["name"] == "q_martingale":
                probes = r["details"]["probes"]
                assert r["estimate"] != 0.0 and math.isnan(r["stderr"])
                assert abs(r["estimate"]) == max(abs(p["estimate"]) for p in probes)

    def test_run_takes_paths_and_seed_and_leaves_the_model(self, tmp_path,
                                                           inline_pool):
        """A run at other n_paths and seed leaves the loaded model and its
        run invariants as they are and gives the documents and files of a
        model loaded with those values in its sim section. Pool workers
        build the loaded model, and the run's seed reaches every task."""
        model = builtin_scenario("h2-two-atom")
        loaded, cfg, gk = model.to_dict(), model.cfg, model.gk
        pool = model.simulator.pool
        pools, tasks = inline_pool
        doc = run_verify(model, n_paths=300, seed=5)
        pooled = run_verify(model, n_paths=300, seed=5, workers=2)
        run_simulate(model, str(tmp_path / "run"), n_paths=3, seed=4)
        assert model.to_dict() == loaded and model.cfg is cfg
        assert model.gk is gk and model.simulator.pool is pool
        assert pools == [(2, (loaded,))]
        # one span per block of 256 paths
        assert len(tasks) == 2
        assert all(fn is pipeline._pool_task and args[1] == 5 for fn, args in tasks)

        def fresh(n_paths, seed):
            d = model.to_dict()
            d["sim"].update(n_paths=n_paths, seed=seed)
            return model_from_dict(d)

        want = json.dumps(run_verify(fresh(300, 5)))
        assert json.dumps(doc) == want and json.dumps(pooled) == want
        run_simulate(fresh(3, 4), str(tmp_path / "fresh"))
        files = sorted(os.listdir(tmp_path / "fresh"))
        assert sorted(os.listdir(tmp_path / "run")) == files
        for f in files:
            assert ((tmp_path / "run" / f).read_bytes()
                    == (tmp_path / "fresh" / f).read_bytes()), f

    # what n_paths and seed cannot change is built once per loaded model,
    # not once per run; each document is the one a fresh model gives
    @pytest.mark.parametrize("name, builders", [
        ("gaussian-baseline", [(PathSimulator, "prehistory")]),
        ("h2-two-atom", [(pipeline, "make_girsanov_kernel"),
                         (pipeline, "h2_reach_sd")])])
    def test_run_invariants_built_once(self, name, builders, monkeypatch):
        fresh = [json.dumps(run_verify(builtin_scenario(name), n_paths=n, seed=s))
                 for n, s in ((300, 5), (200, 6))]
        built = collections.Counter()
        for owner, attr in builders:
            def counted(*args, fn=getattr(owner, attr), attr=attr):
                built[attr] += 1
                return fn(*args)
            monkeypatch.setattr(owner, attr, counted)
        model = builtin_scenario(name)
        got = [json.dumps(run_verify(model, n_paths=n, seed=s))
               for n, s in ((300, 5), (200, 6))]
        if model.emm["hypothesis"] == "h2":
            run_construct(model)
        assert got == fresh
        assert built == {attr: 1 for _, attr in builders}

    def test_simulate_builds_no_girsanov_kernel(self, tmp_path, monkeypatch):
        model = builtin_scenario("h2-two-atom")
        monkeypatch.setattr(pipeline, "make_girsanov_kernel", None)
        run_simulate(model, str(tmp_path), n_paths=3, seed=4)
        assert "gk" not in vars(model)

    @pytest.mark.parametrize("name", ["classify-power-density",
                                      "classify-zero-start"])
    def test_simulate_power_density_kernel_takes_the_fft(self, tmp_path, name):
        doc = run_simulate(builtin_scenario(name), str(tmp_path), n_paths=2)
        assert doc["correlation"] == "fft"

    def test_verify_lmrelax_diverges(self):
        doc = run_verify(builtin_scenario("lmrelax"))
        assert doc["reports"][0]["verdict"] == "diverging"
        assert doc["overall"] == "fail"

    @pytest.mark.parametrize("name", ["h2-two-atom", "h1-two-atom",
                                      "q-two-atom-zeta05", "gaussian-baseline",
                                      "negative-broken-alpha"])
    def test_verify_json_independent_of_workers(self, name):
        scn = builtin_scenario(name)
        one = run_verify(scn, n_paths=2000, workers=1)
        two = run_verify(scn, n_paths=2000, workers=2)
        assert json.dumps(one) == json.dumps(two)

    # a pool of workers processes, each started at the first submit, and
    # 4 * workers + 1 float edges, whatever the path count, before
    @pytest.mark.parametrize("n_paths, n_spans", [(300, 2), (3000, 8)])
    def test_pool_is_bounded_by_cpus_and_blocks(self, n_paths, n_spans,
                                                inline_pool):
        """workers = 10**9 on 2 CPUs: 2 processes, at most four spans each
        and no more spans than blocks, every span starting on a block; the
        document is the one of workers = 1."""
        model = builtin_scenario("h2-two-atom")
        pools, tasks = inline_pool
        pooled = run_verify(model, n_paths=n_paths, workers=10**9)
        assert json.dumps(pooled) == json.dumps(run_verify(model, n_paths=n_paths))
        assert [size for size, _ in pools] == [2]
        edges = [args[2] for _, args in tasks] + [n_paths]
        assert [args[2:] for _, args in tasks] == list(zip(edges[:-1], edges[1:]))
        assert len(tasks) == n_spans
        assert all(a % path_sim._BLOCK == 0 for a in edges[:-1])

    def test_pool_worker_builds_its_model_once(self, monkeypatch):
        model = builtin_scenario("q-two-atom-zeta05")
        seed = model.cfg.seed
        built = []
        build = pipeline.model_from_dict
        monkeypatch.setattr(pipeline, "model_from_dict",
                            lambda d: built.append(d) or build(d))
        monkeypatch.setattr(pipeline, "_worker_model", None)
        pipeline._init_worker(model.to_dict())
        parts = [pipeline._pool_task(model.battery, seed, a, b)
                 for a, b in ((0, 150), (150, 300))]
        assert len(built) == 1
        whole = pipeline._span(model.battery, model, seed, 0, 300)
        for key, arr in whole.items():
            assert np.array_equal(arr, np.concatenate([p[key] for p in parts])), key

    # the buffer pool of a loaded model's simulator outlives its runs: runs
    # on other paths and back again give the documents fresh models give
    @pytest.mark.parametrize("name", ["h2-two-atom", "h1-two-atom",
                                      "q-two-atom-zeta05"])
    def test_runs_on_one_model_share_its_buffer_pool(self, name):
        calls = ((300, 5), (1000, None), (300, 5))
        fresh = [json.dumps(run_verify(builtin_scenario(name), n_paths=n, seed=s))
                 for n, s in calls]
        model = builtin_scenario(name)
        got = [json.dumps(run_verify(model, n_paths=n, seed=s)) for n, s in calls]
        assert got == fresh
        assert model.simulator.pool._buffers

    @pytest.mark.parametrize("name", ["h2-two-atom", "q-two-atom-zeta05",
                                      "gaussian-baseline"])
    def test_threads_on_one_model_give_their_own_documents(self, name):
        """Threads running one loaded model: each draws into buffers of its
        own in the simulator's buffer pool, from a reseated generator of
        its own, and every document is the one a fresh model gives."""
        seeds = range(1, 9)
        want = [json.dumps(run_verify(builtin_scenario(name),
                                      n_paths=1000, seed=s)) for s in seeds]
        model = builtin_scenario(name)
        seats = {}

        def run(seed):
            doc = run_verify(model, n_paths=1000, seed=seed)
            seats.setdefault(threading.get_ident(), path_sim._seat())
            return doc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
                futs = [ex.submit(run, s) for s in seeds]
                got = [json.dumps(f.result(timeout=120)) for f in futs]
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        generators = {id(seat.generator) for seat in seats.values()}
        assert len(generators) == len(seats)
        assert id(path_sim._seat().generator) not in generators


def _direct_q_on(measure):
    """q-two-atom-zeta05 with the live kernel on another measure."""
    d = _q_dict()
    d["triplet"]["measure"] = measure
    del d["emm"]["frozen_zeta"]
    d["sim"].update(n_paths=2000, seed=7)
    return model_from_dict(d)


class TestDirectQ:
    """Direct-Q marks are drawn from, and tested against, one Q mark law
    for atoms and densities alike."""

    MEASURES = {
        "sas-1.5": {"type": "symmetric-alpha-stable", "alpha": 1.5},
        "uniform-band": {"type": "uniform-band", "a": 0.25, "b": 2.0},
    }

    @pytest.mark.parametrize("measure", sorted(MEASURES))
    def test_density_measure_passes(self, measure):
        scn = _direct_q_on(self.MEASURES[measure])
        one = run_verify(scn, workers=1)
        verdicts = {r["name"]: r["verdict"] for r in one["reports"]}
        assert verdicts == {"jump_intensity": "pass",
                            "conditional_jump_law": "pass"}
        two = run_verify(scn, workers=2)
        assert json.dumps(one) == json.dumps(two)

    def test_frozen_zeta_marks_fail_the_live_law(self):
        scn = builtin_scenario("q-two-atom-zeta05")
        data = pipeline._run_chunked(scn.battery, scn, 500, scn.cfg.seed, 1)
        frozen = scn.gk
        live = emm_construct.make_h2_kernel(scn.levy, scn.emm["a"], scn.kern.phi0)
        law = verify.conditional_jump_law_test
        assert law(data["y_pre"], data["marks"], frozen, seed=1).verdict == "pass"
        assert law(data["y_pre"], data["marks"], live, seed=1).verdict == "fail"


class TestH1TwoAtom:
    """The band kernel does not preserve mass, so Z_T needs the compensator
    exp(-int int (alpha - 1) dF ds); without it E[Z_T] is about 1.2."""

    def test_battery_passes_at_pinned_seed(self):
        doc = run_verify(builtin_scenario("h1-two-atom"))
        assert doc["n_paths"] == 4000 and doc["seed"] == 20261017
        verdicts = {r["name"]: r["verdict"] for r in doc["reports"]}
        assert verdicts == {"mean_density": "pass", "q_martingale": "pass"}

    def test_broken_alpha_fails_mean_density(self):
        d = _with(_h1_dict, "emm", break_positive_factor=1.2)
        doc = run_verify(model_from_dict(d))
        md = {r["name"]: r for r in doc["reports"]}["mean_density"]
        assert md["verdict"] == "fail"
        assert md["estimate"] > 1.0

    def test_kernel_of_half_amplitude_passes_q_martingale(self):
        """alpha reads y/phi(0): with phi(0) = 0.5 the band absorbs twice
        the drift Y. Reading y in its place, this seed fails q_martingale
        (-0.051, s.e. 0.009)."""
        d = _with(_h1_dict, "kernel", kappa=1.0, amplitude=0.5)
        doc = run_verify(model_from_dict(d), n_paths=20000, seed=2)
        verdicts = {r["name"]: r["verdict"] for r in doc["reports"]}
        assert verdicts == {"mean_density": "pass", "q_martingale": "pass"}


class TestCli:
    def _run(self, argv, capsys):
        code = cli.main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_check_kernel_exit_codes(self, tmp_path, capsys):
        code, _ = self._run(
            ["check-kernel", "--builtin", "classify-sas-1.5",
             "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        code, _ = self._run(
            ["check-kernel", "--builtin", "classify-zero-start",
             "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_NOT_ADMISSIBLE
        code, _ = self._run(
            ["check-kernel", "--builtin", "classify-sas-1.5",
             "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK

    def test_check_kernel_report_named_by_builtin(self, tmp_path, capsys):
        code, out = self._run(
            ["check-kernel", "--builtin", "classify-sas-1.5",
             "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["scenario"] == "classify-sas-1.5"
        assert (tmp_path / "classify-sas-1.5_check_kernel.json").exists()

    def test_check_kernel_indeterminate(self, tmp_path, capsys):
        d = builtin_scenario("classify-sas-1.5").to_dict()
        d["verify"]["tail_regime"] = "other"
        p = tmp_path / "scn.yaml"
        p.write_text(yaml.safe_dump(d))
        code, _ = self._run(
            ["check-kernel", "--scenario", str(p), "--out", str(tmp_path)],
            capsys)
        assert code == cli.EXIT_INDETERMINATE

    def test_construct_ok_and_out_of_range(self, tmp_path, capsys):
        code, _ = self._run(
            ["construct", "--builtin", "h2-two-atom", "--out", str(tmp_path)],
            capsys)
        assert code == cli.EXIT_OK
        # widen the probed y range beyond what the compact tail can absorb
        d = _two_atom_dict(y_span=5.0)
        p = tmp_path / "wide.yaml"
        p.write_text(yaml.safe_dump(d))
        code, _ = self._run(
            ["construct", "--scenario", str(p), "--out", str(tmp_path)],
            capsys)
        assert code == cli.EXIT_NOT_ADMISSIBLE

    def test_verify_writes_report_and_plot(self, tmp_path, capsys):
        code, out = self._run(
            ["verify", "--builtin", "h2-two-atom", "--profile", "smoke",
             "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["n_paths"] == 2000  # smoke profile cap
        assert (tmp_path / "h2-two-atom_verify.json").exists()
        assert (tmp_path / "h2-two-atom_verify_plot.csv").exists()

    def test_verify_output_is_strict_json(self, tmp_path, capsys):
        # brownian_invariance has a NaN estimate in memory
        code, out = self._run(
            ["verify", "--builtin", "gaussian-baseline", "--n-paths", "512",
             "--out", str(tmp_path)], capsys)
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL)

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        saved = (tmp_path / "gaussian-baseline_verify.json").read_text()
        for text in (out, saved):
            doc = json.loads(text, parse_constant=refuse)
            est = {r["name"]: r["estimate"] for r in doc["reports"]}
            assert est["brownian_invariance"] is None

    def test_verify_negative_control_fails(self, tmp_path, capsys):
        code, out = self._run(
            ["verify", "--builtin", "negative-broken-alpha",
             "--profile", "smoke", "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_FAIL
        assert json.loads(out)["overall"] == "fail"

    def test_simulate_writes_csvs(self, tmp_path, capsys):
        code, out = self._run(
            ["simulate", "--builtin", "h2-two-atom", "--n-paths", "3",
             "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        assert (tmp_path / "path_0.csv").exists()
        assert (tmp_path / "jumps.csv").exists()
        assert (tmp_path / "simulate.json").exists()
        summary = json.loads((tmp_path / "simulate.json").read_text())
        assert summary["correlation"] == "recursion"  # exponential kernel
        header = (tmp_path / "path_0.csv").read_text().splitlines()[0]
        assert header == "time,L,X,Y"
        jheader = (tmp_path / "jumps.csv").read_text().splitlines()[0]
        assert jheader == "path_id,jump_time,jump_size"

    def test_report_summarizes(self, tmp_path, capsys):
        self._run(["verify", "--builtin", "h2-two-atom", "--profile", "smoke",
                   "--out", str(tmp_path)], capsys)
        code, out = self._run(["report", "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        assert "h2-two-atom" in out

    def test_report_empty_dir_is_config_error(self, tmp_path, capsys):
        code, _ = self._run(["report", "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_CONFIG

    # a JSONDecodeError, KeyError or TypeError traceback before
    @pytest.mark.parametrize("text", [
        "{not json", '{"scenario": "x"}', '{"overall": "pass"}', "[1, 2]",
        '{"scenario": "x", "overall": "pass", "reports": 5}',
        '{"scenario": ["x"], "overall": "pass", "reports": []}'],
        ids=["not-json", "no-overall", "no-scenario", "list", "reports-int",
             "scenario-list"])
    def test_malformed_report_is_config_error(self, text, tmp_path, capsys):
        p = tmp_path / "x_verify.json"
        p.write_text(text)
        code = cli.main(["report", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {p}: ")

    # integrable (the default) on alpha <= 1 loaded, and check-kernel
    # exited 2 with NonIntegrable, before
    @pytest.mark.parametrize("integrable, want", [
        (True, cli.EXIT_CONFIG), (None, cli.EXIT_CONFIG),
        (False, cli.EXIT_NOT_ADMISSIBLE)])
    def test_integrable_needs_a_finite_first_moment(self, integrable, want,
                                                     tmp_path, capsys):
        d = builtin_scenario("classify-sas-1.2").to_dict()
        d["triplet"]["measure"]["alpha"] = 0.8
        d["triplet"].pop("integrable")
        if integrable is not None:
            d["triplet"]["integrable"] = integrable
        p = tmp_path / "sas-0.8.yaml"
        p.write_text(yaml.safe_dump(d))
        code = cli.main(["check-kernel", "--scenario", str(p),
                         "--out", str(tmp_path)])
        assert code == want
        if want == cli.EXIT_CONFIG:
            assert "config error: triplet: " in capsys.readouterr().err

    def test_construct_keeps_its_report_for_frozen_zeta_outside_range(
            self, tmp_path, capsys):
        d = builtin_scenario("q-two-atom-zeta05").to_dict()
        d["emm"]["frozen_zeta"] = 2.0
        p = tmp_path / "zeta-2.yaml"
        p.write_text(yaml.safe_dump(d))
        code, out = self._run(["construct", "--scenario", str(p),
                               "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_NOT_ADMISSIBLE
        validation = json.loads(out)["validation"]
        assert not validation["ok"] and validation["failures"]

    # a KeyError traceback, exit 1, before
    @pytest.mark.parametrize("name", [n for n in builtin_names()
                                      if n.startswith("classify-")])
    def test_verify_of_hypothesis_none_is_config_error(self, name, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "blocks", _no_paths)
        code = cli.main(["verify", "--builtin", name, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "hypothesis none has no battery" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["h1-two-atom", "h2-two-atom"])
    def test_one_sided_tail(self, name, tmp_path, capsys, monkeypatch):
        """Atoms at -0.3 and 1 leave no mass below -a, so no Girsanov kernel
        exists. verify refuses the battery before any path, under either
        workers (TruncationViolated, exit 2, before, raised in a pool
        process for h1); construct writes its error document, exit 2."""
        d = builtin_scenario(name).to_dict()
        d["triplet"]["measure"]["atoms"] = [[-0.3, 1.0], [1.0, 1.0]]
        p = tmp_path / "one-sided.yaml"
        p.write_text(yaml.safe_dump(d))
        monkeypatch.setattr(pipeline, "blocks", _no_paths)
        for workers in ("1", "2"):
            code = cli.main(["verify", "--scenario", str(p), "--n-paths", "600",
                             "--workers", workers, "--out", str(tmp_path)])
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"the {d['emm']['hypothesis']} Girsanov kernel" in err
        code, out = self._run(["construct", "--scenario", str(p),
                               "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_NOT_ADMISSIBLE
        doc = json.loads(out)
        assert doc["error"] == "TruncationViolated" and doc["scenario"] == name
        assert json.loads((tmp_path / f"{name}_construct.json").read_text()) == doc

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = cli.main(["verify", "--scenario", str(tmp_path / "nope.yaml"),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_unparsable_scenario_file(self, tmp_path, capsys):
        p = tmp_path / "broken.yaml"
        p.write_text("name: [h2-two-atom\n")
        code = cli.main(["verify", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "broken.yaml" in capsys.readouterr().err

    def test_scenario_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "dir.yaml").mkdir()
        code = cli.main(["verify", "--scenario", str(tmp_path / "dir.yaml"),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "dir.yaml" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "h1-jump-intensity", "gaussian-with-jumps", "gaussian-no-diffusion",
        "h2-kernel-kapa", "h2-frozen-zetta", "wrong-intensity-factr",
        "top-level-verfy", "sim-small-jump-mode", "h2-negative-kappa",
        "h2-no-kappa", "sas-no-alpha", "sas-alpha-2.5", "negative-c",
        "gaussian-zero-start", "h2-eps-jump-past-radius",
        "h1-eps-jump-past-a", "h2-eps-jump-past-a", "direct-q-eps-jump-past-a",
        "bremaud-tempered-stable", "bremaud-symmetric-alpha-stable",
        "band-negative-height", "h2-tolerance-zero", "h1-zero-start",
        "h1-zero-amplitude", "h1-power-density-phi0-0", "h2-zero-start",
        "q-zero-start", "sim-T-past-float", "triplet-b_h-past-float",
        "triplet-c-past-float", "kernel-kappa-past-float", "emm-a-past-float",
        "verify-probe_times-past-float", "atom-weight-past-float",
        "atom-nan-weight", "atom-inf-position", "h2-2**63-paths",
        "h2-10**400-paths"])
    def test_refused_battery_is_config_error(self, case, tmp_path, capsys):
        build, named = REFUSED[case]
        p = tmp_path / "refused.yaml"
        p.write_text(yaml.safe_dump(build()))
        code = cli.main(["verify", "--scenario", str(p),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err

    def test_h2_short_reach_is_config_error(self, tmp_path, capsys):
        d = builtin_scenario("h2-two-atom").to_dict()
        d["kernel"]["kappa"] = 0.25
        p = tmp_path / "short-reach.yaml"
        p.write_text(yaml.safe_dump(d))
        code = cli.main(["verify", "--scenario", str(p), "--profile", "smoke",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG == 64
        assert "s.d." in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--n-paths", "0"], ["--n-paths", "-3"], ["--seed", "-1"],
        *(["--n-paths", str(n)] for n in (2**53 + 1, 2**63, 2**64, 10**400))])
    def test_out_of_range_sim_flags_are_config_errors(self, flags, tmp_path,
                                                       capsys):
        code = cli.main(["verify", "--builtin", "h2-two-atom",
                         "--out", str(tmp_path)] + flags)
        assert code == cli.EXIT_CONFIG
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err

    # each was accepted and ignored before
    @pytest.mark.parametrize("argv", [
        ["check-kernel", "--builtin", "classify-sas-1.5", "--seed", "3"],
        ["construct", "--builtin", "h2-two-atom", "--n-paths", "5"],
        ["report", "--workers", "2"],
        ["simulate", "--builtin", "h2-two-atom", "--workers", "2"]])
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(
            self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bad_env_integer_is_a_usage_error(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("LEVYEMM_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--builtin", "h2-two-atom",
                      "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["env", "flag"])
    def test_bad_profile_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                          source):
        argv = ["verify", "--builtin", "h2-two-atom", "--out", str(tmp_path)]
        if source == "env":
            monkeypatch.setenv("LEVYEMM_PROFILE", "bogus")
        else:
            argv += ["--profile", "bogus"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    # each ran silently before
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("source", ["env", "flag"])
    def test_workers_below_one_is_a_usage_error(self, value, source, tmp_path,
                                                capsys, monkeypatch):
        argv = ["verify", "--builtin", "h2-two-atom", "--out", str(tmp_path)]
        if source == "env":
            monkeypatch.setenv("LEVYEMM_WORKERS", value)
        else:
            argv += ["--workers", value]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"must be at least 1, not {value}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    # the CLI built a model to check the scenario and dropped it, and the
    # run built a second one
    @pytest.mark.parametrize("argv", [
        ["check-kernel"], ["construct"], ["simulate", "--n-paths", "3"],
        ["verify", "--n-paths", "200", "--seed", "5"]], ids=lambda a: a[0])
    def test_command_builds_its_model_once(self, argv, tmp_path, capsys,
                                           monkeypatch):
        built = []
        build = pipeline.build_triplet
        monkeypatch.setattr(pipeline, "build_triplet",
                            lambda spec: built.append(spec) or build(spec))
        code = cli.main([argv[0], "--builtin", "h2-two-atom",
                         "--out", str(tmp_path), *argv[1:]])
        assert code == cli.EXIT_OK
        assert len(built) == 1

    # check-kernel wrote beside --out and exited 0, and verify ran the
    # battery and stopped with FileNotFoundError (exit 1), before
    @pytest.mark.parametrize("command, name", [("check-kernel", "../escaped"),
                                               ("verify", "sub/dir")])
    def test_name_escaping_out_is_config_error(self, command, name, tmp_path,
                                               capsys):
        d = builtin_scenario("h2-two-atom").to_dict()
        p = tmp_path / "scn.yaml"
        p.write_text(yaml.safe_dump({**d, "name": name}))
        code = cli.main([command, "--scenario", str(p), "--out",
                         str(tmp_path / "o"), *(["--n-paths", "50"]
                                                if command == "verify" else [])])
        assert code == cli.EXIT_CONFIG
        assert "scenario.name" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["scn.yaml"]

    # each ran and then stopped with FileExistsError or NotADirectoryError
    # (exit 1) before
    @pytest.mark.parametrize("argv, out", [
        (["verify", "--n-paths", "50"], "afile"),
        (["simulate", "--n-paths", "2"], "afile/x")], ids=["verify", "simulate"])
    def test_unusable_out_is_config_error(self, argv, out, tmp_path, capsys,
                                          monkeypatch):
        (tmp_path / "afile").write_text("kept")

        monkeypatch.setattr(pipeline, "blocks", _no_paths)
        code = cli.main([argv[0], "--builtin", "h2-two-atom",
                         "--out", str(tmp_path / out), *argv[1:]])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --out ")
        assert os.listdir(tmp_path) == ["afile"]
        assert (tmp_path / "afile").read_text() == "kept"

    def test_bad_scenario_schema(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump({"name": "x"}))
        code = cli.main(["verify", "--scenario", str(p),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_env_var_defaults(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LEVYEMM_N_PATHS", "64")
        monkeypatch.setenv("LEVYEMM_OUT", str(tmp_path))
        code, out = self._run(["verify", "--builtin", "h2-two-atom"], capsys)
        assert json.loads(out)["n_paths"] == 64
        assert (tmp_path / "h2-two-atom_verify.json").exists()
