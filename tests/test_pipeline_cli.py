import json
import os
import warnings

import pytest
import yaml

from levyemm import cli, emm_construct, pipeline, verify
from levyemm.errors import ConfigError
from levyemm.pipeline import (
    Scenario,
    SCENARIO_DIR,
    builtin_names,
    builtin_scenario,
    load_scenario,
    run_check_kernel,
    run_construct,
    run_simulate,
    run_verify,
    save_scenario,
    scenario_from_dict,
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
}


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
            scenario_from_dict(d)

    def test_missing_tolerance(self):
        d = _two_atom_dict()
        del d["emm"]["tolerance"]
        with pytest.raises(ConfigError, match="tolerance"):
            scenario_from_dict(d)

    def test_unknown_measure_type(self):
        d = _two_atom_dict()
        d["triplet"]["measure"]["type"] = "cauchy"
        with pytest.raises(ConfigError, match="measure"):
            scenario_from_dict(d)

    def test_unknown_hypothesis(self):
        d = _two_atom_dict()
        d["emm"]["hypothesis"] = "h3"
        with pytest.raises(ConfigError, match="hypothesis"):
            scenario_from_dict(d)

    def test_h2_on_zero_measure_rejected(self):
        d = _two_atom_dict()
        d["triplet"]["measure"] = {"type": "zero"}
        with pytest.raises(ConfigError, match="two-sided"):
            scenario_from_dict(d)

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

    def test_shipped_scenarios_load(self):
        files = [f for f in os.listdir(SCENARIO_DIR) if f.endswith(".yaml")]
        assert len(files) >= 10
        for f in files:
            load_scenario(os.path.join(SCENARIO_DIR, f))

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_battery_without_correct_implementation_refused(self, case):
        build, named = REFUSED[case]
        with pytest.raises(ConfigError, match=named):
            scenario_from_dict(build())

    @pytest.mark.parametrize("tests", [["lm_criterion"], ["finite_expect"],
                                       ["lm_criterion", "finite_expect"]])
    def test_lm_battery_accepts_its_tests(self, tests):
        scn = scenario_from_dict(_with(_builtin("bremaud"), "verify",
                                       tests=tests))
        assert scn.verify["tests"] == tests


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
        doc = run_construct(scenario_from_dict(
            _two_atom_dict(break_positive_factor=1.2)
        ))
        assert not doc["validation"]["ok"]

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

    @pytest.mark.parametrize("tests", [["finite_expect"],
                                       ["finite_expect", "lm_criterion"]])
    def test_verify_bremaud_reports_its_tests(self, tests):
        scn = scenario_from_dict(_with(_builtin("bremaud"), "verify",
                                       tests=tests))
        doc = run_verify(scn, n_paths=1024)
        assert sorted(r["name"] for r in doc["reports"]) == sorted(tests)

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

    def test_simulate_power_density_kernel_takes_the_fft(self, tmp_path):
        doc = run_simulate(builtin_scenario("classify-power-density"),
                           str(tmp_path), n_paths=2)
        assert doc["correlation"] == "fft"

    def test_verify_lmrelax_diverges(self):
        doc = run_verify(builtin_scenario("lmrelax"))
        assert doc["reports"][0]["verdict"] == "diverging"
        assert doc["overall"] == "fail"

    @pytest.mark.parametrize("name", ["h2-two-atom", "h1-two-atom",
                                      "q-two-atom-zeta05"])
    def test_verify_json_independent_of_workers(self, name):
        scn = builtin_scenario(name)
        one = run_verify(scn, n_paths=2000, workers=1)
        two = run_verify(scn, n_paths=2000, workers=2)
        assert json.dumps(one) == json.dumps(two)


def _direct_q_on(measure):
    """q-two-atom-zeta05 with the live kernel on another measure."""
    d = _q_dict()
    d["triplet"]["measure"] = measure
    del d["emm"]["frozen_zeta"]
    d["sim"].update(n_paths=2000, seed=7)
    return scenario_from_dict(d)


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
        data = pipeline._run_chunked(pipeline._q_chunk, scn, 500, 1)
        triplet = pipeline.build_triplet(scn.triplet)
        frozen = pipeline.make_girsanov_kernel(scn, triplet)
        live = emm_construct.make_h2_kernel(triplet, scn.emm["a"])
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
        doc = run_verify(scenario_from_dict(d))
        md = {r["name"]: r for r in doc["reports"]}["mean_density"]
        assert md["verdict"] == "fail"
        assert md["estimate"] > 1.0


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

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = cli.main(["verify", "--scenario", str(tmp_path / "nope.yaml"),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_refused_battery_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "refused.yaml"
        p.write_text(yaml.safe_dump(REFUSED["h1-jump-intensity"][0]()))
        code = cli.main(["verify", "--scenario", str(p),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "jump_intensity" in capsys.readouterr().err

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
