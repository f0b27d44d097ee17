import csv
import json
import re
import time

import pytest

import varhardy
from varhardy import harness
from varhardy.cli import _print_cases, main
from varhardy.harness import (
    ExperimentConfig,
    SuiteReport,
    _seed_dictionaries,
    list_presets,
    run_suite,
)
from varhardy.presets import PresetError
from varhardy.report import Report


class TestConfig:
    def test_presets_must_resolve(self):
        with pytest.raises(PresetError, match="power:x"):
            ExperimentConfig(w="power:x")

    def test_m_range(self):
        with pytest.raises(PresetError):
            ExperimentConfig(m=4)
        with pytest.raises(PresetError):
            ExperimentConfig(m=13)

    def test_dictionary_size_floor(self):
        with pytest.raises(PresetError, match="dictionary size must be at least 8, got 7"):
            ExperimentConfig(dict_size=7)

    def test_unknown_suite(self):
        cfg = ExperimentConfig(suite="E10")
        with pytest.raises(PresetError, match="E10"):
            run_suite(cfg)


class TestRunSuite:
    def test_e1_passes_quickly(self, tmp_path):
        t0 = time.perf_counter()
        rep = run_suite(ExperimentConfig(suite="E1", out=str(tmp_path / "r")))
        assert time.perf_counter() - t0 < 10.0
        assert rep.all_passed
        assert (tmp_path / "r.json").exists()
        assert (tmp_path / "r.csv").exists()
        header = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert header == "suite,case,quantity,value_m,value_m1,ratio,pass,status"

    def test_json_cases_match_csv_rows(self, tmp_path):
        run_suite(ExperimentConfig(suite="E5", out=str(tmp_path / "r")))
        cases = json.loads((tmp_path / "r.json").read_text())["cases"]
        with open(tmp_path / "r.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(cases)
        for case, row in zip(cases, rows):
            assert row["suite"] == "E5"
            assert row["case"] == case["case"] and row["quantity"] == case["quantity"]
            for key in ("value_m", "value_m1", "ratio"):
                assert (float(row[key]) if row[key] else None) == case[key], (case, key)
            assert row["pass"] == str(case["passed"]) and row["status"] == case["status"]

    def test_environment_metadata(self, tmp_path):
        rep = run_suite(ExperimentConfig(suite="E1", seed=3))
        env = rep.environment
        assert env["seed"] == 3
        assert env["m"] == 9
        assert "dict" in env

    def test_version_is_the_package_version(self):
        env = run_suite(ExperimentConfig(suite="E2")).environment
        assert env["version"] == varhardy.__version__ != "unknown"


class TestStatus:
    @pytest.mark.parametrize(
        "passed, gap, status, ok",
        [
            (True, None, "pass", True),
            (False, None, "fail", False),
            (False, "known", "xfail", True),
            (True, "known", "xpass", False),
        ],
    )
    def test_status_and_all_passed(self, passed, gap, status, ok):
        case = Report("c", passed, {"x": 1.0}, gap=gap)
        assert case.status == status
        assert SuiteReport("E0", [Report("ok", True, {"x": 0.0}), case], {}, 0.0).all_passed == ok

    def test_row_headline_is_first_quantity(self):
        row = Report("c", True, {"head": 2, "other": 3.0}, 4.0, 2.0).row()
        assert row == {
            "case": "c", "quantity": "head", "value_m": 2.0, "value_m1": 4.0,
            "ratio": 2.0, "passed": True, "status": "pass",
        }


class TestDictSeed:
    def test_seed_stability_compares_different_dictionaries(self):
        cfg = ExperimentConfig()
        ours, other = _seed_dictionaries(cfg, cfg.domain())
        assert len(ours.members) == len(other.members)
        # by a member of the others' size, not one shrunk by a kink at the origin
        top = max(m.sup() for m in ours.members)
        assert max((a - b).sup() for a, b in zip(ours.members, other.members)) >= 0.1 * top


class TestListPresets:
    def test_contains_required_keys(self):
        text = list_presets()
        assert "paper91" in text
        assert "power:<mu>" in text

    def test_stable_ordering(self):
        assert list_presets() == list_presets()


class TestCLI:
    def test_unknown_preset_exit_code(self, capsys):
        code = main(["suite", "--suite", "E1", "--w", "power:x"])
        assert code == 2
        assert "power:x" in capsys.readouterr().err

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "paper91" in out

    def test_norm_command(self, capsys):
        assert main(["norm", "--f", "bump:0,1", "--p", "const:2", "--w", "const:1"]) == 0
        out = capsys.readouterr().out
        assert "luxemburg_norm" in out

    def test_print_cases_without_ratio(self, capsys):
        # a row with a level-(m + 1) value but no ratio prints the value and
        # skips the ratio
        rep = SuiteReport("E4", [Report("tilde_cofinite[mu=1]", True, {"tilde": 2.0}, 3.0)], {}, 0.0)
        _print_cases(rep)
        out = capsys.readouterr().out
        assert out == "[pass] E4/tilde_cofinite[mu=1] tilde=2 value_m1=3\n"

    def test_known_gap_is_expected_failure(self, capsys):
        # E5's growth detector for |x|^{3/2} does not fire: a declared gap
        assert main(["suite", "--suite", "E5"]) == 0
        out = capsys.readouterr().out
        assert "[xfail] E5/mloc_ratio[absp:1.5] operator_norm=" in out
        assert "\n    known gap: the grid A_2 constant of the clamped |x|^{3/2}" in out
        assert "suite E5: all passed" in out

    def test_unexpected_pass_fails_the_run(self, capsys, monkeypatch):
        def gap_passes(cfg, rng):
            return [Report("stable", True, {"x": 1.0}), Report("gap", True, {"x": 2.0}, gap="known")]

        monkeypatch.setitem(harness.SUITES, "E1", gap_passes)
        assert main(["suite", "--suite", "E1"]) == 1
        out = capsys.readouterr().out
        assert "[pass] E1/stable x=1\n[XPASS] E1/gap x=2\n    known gap: known\n" in out
        assert "FAILURES" in out

    def test_maximal_command_writes_profile(self, tmp_path, capsys):
        code = main(
            ["maximal", "--f", "bump:0,1", "--operator", "Mloc",
             "--out", str(tmp_path / "prof.csv")]
        )
        assert code == 0
        # the operator's own wall time, without the preset inputs or the file
        assert re.search(r"^operator Mloc: sup = \S+, wall \d+\.\d\d ms, profile -> ", capsys.readouterr().out)
        lines = (tmp_path / "prof.csv").read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) > 100

    @pytest.mark.parametrize("op", ["M", "MlocR:2", "Mgrid:1", "Mwpow:2", "KB:16", "Ek:4", "Mdleq:0.5", "Mdgeq:1"])
    def test_operator_flags(self, tmp_path, op):
        assert main(
            ["maximal", "--f", "bump:0,1", "--operator", op, "--out", str(tmp_path / "p.csv")]
        ) == 0

    @pytest.mark.parametrize("op", ["MlocR:x", "Mgrid:1;x", "Ek:x", "KB:x", "Mwpow:x", "Mdleq:x"])
    def test_malformed_operator_argument_is_usage_error(self, tmp_path, capsys, op):
        assert main(["maximal", "--operator", op, "--out", str(tmp_path / "p.csv")]) == 2
        assert repr(op) in capsys.readouterr().err

    def test_operator_error_is_not_usage_error(self, tmp_path, capsys):
        # a well-formed argument that the operator rejects fails the run
        assert main(["maximal", "--operator", "Mdleq:100", "--out", str(tmp_path / "p.csv")]) == 1
        assert "r0 out of range" in capsys.readouterr().err

    def test_malformed_function_argument_is_usage_error(self, capsys):
        assert main(["norm", "--f", "bump:x"]) == 2
        assert "'bump:x'" in capsys.readouterr().err

    def test_malformed_hardy_dict_is_usage_error(self, capsys):
        assert main(["atoms", "--f", "bump:0,0.8", "--hardy-dict", "size=x"]) == 2
        assert "'size=x'" in capsys.readouterr().err

    def test_awconst_command(self, capsys):
        assert main(["awconst", "--w", "power:-0.5", "--p", "lhdecay:1", "--m", "8"]) == 0
        out = capsys.readouterr().out
        assert "q_w estimate" in out
        for name in ("A_p(.)^loc", "tilde A"):
            assert re.search(rf"^{re.escape(name)} += \S+  \(solved \d+ of \d+ cubes, \d+ bounds refined, wall \d+\.\d\d ms\)$", out, re.M), name

    def test_atoms_command_serializes(self, tmp_path, capsys):
        code = main(
            ["atoms", "--f", "bump:0,0.8", "--out", str(tmp_path / "dec.json"),
             "--hardy-dict", "size=8,seed=42,rD=4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "invalid_atoms=0\n" in out
        assert re.search(r"^wall_s decompose=\S+ synthesize=\S+ validate=\S+$", out, re.M)
        doc = json.loads((tmp_path / "dec.json").read_text())
        assert doc["atoms"]
        first = doc["atoms"][0]
        assert set(first) >= {"lambda", "cube", "q", "L", "values_ref"}
        assert (tmp_path / "dec.bin").exists()

    def test_atoms_command_on_zero(self, tmp_path, capsys):
        assert main(["atoms", "--f", "bump:0,1,0", "--out", str(tmp_path / "dec.json")]) == 0
        out = capsys.readouterr().out
        assert "atoms=0 " in out and "sequence_norm=0\n" in out
        doc = json.loads((tmp_path / "dec.json").read_text())
        assert doc["atoms"] == []

    def test_small_dictionary_is_usage_error(self, capsys):
        assert main(["atoms", "--f", "bump:0,0.8", "--hardy-dict", "size=6"]) == 2
        assert "dictionary size must be at least 8, got 6" in capsys.readouterr().err

    def test_lp_command(self, capsys):
        assert main(["lp", "--f", "bump:0,1", "--L", "2"]) == 0
        out = capsys.readouterr().out
        assert "telescope_error" in out

    def test_wavelet_command(self, tmp_path, capsys):
        code = main(
            ["wavelet", "--f", "bump:0,1", "--N", "2", "--J", "0",
             "--out", str(tmp_path / "wav.json")]
        )
        assert code == 0
        doc = json.loads((tmp_path / "wav.json").read_text())
        assert {"l", "j", "k"} <= set(doc["entries"][0])
        assert (tmp_path / "wav.bin").exists()

    def test_config_file_mirrors_flags(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"suite": "E1", "seed": 11, "m": 8}))
        assert main(["suite", "--config", str(cfgfile)]) == 0

    @pytest.mark.parametrize(
        "text, needle",
        [('{"m": "9"}', None), ("[1]", None), ('{"m": 9,}', None), ('{"n": 3}', "dim must be 1 or 2")],
        ids=["wrong_type", "not_object", "bad_json", "bad_dim"],
    )
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, text, needle):
        # the file is named, unless the error names the offending setting
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        assert main(["norm", "--config", str(cfgfile)]) == 2
        assert (needle or str(cfgfile)) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, needle",
        [(["--m", "30"], "m must lie"), (["--T", "3"], "half_width"), (["--n", "3"], "dim must be 1 or 2")],
        ids=["m", "T", "n"],
    )
    def test_out_of_range_domain_is_usage_error(self, capsys, flags, needle):
        assert main(["norm", *flags]) == 2
        assert needle in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"bogus": 1}))
        assert main(["norm", "--config", str(cfgfile)]) == 2
        assert "'bogus'" in capsys.readouterr().err

    def test_stability_factor_key_is_unknown(self, tmp_path, capsys):
        # the two-resolution cut is the library's STABILITY_FACTOR, not a setting
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"stability_factor": 2.0}))
        assert main(["norm", "--config", str(cfgfile)]) == 2
        assert "'stability_factor'" in capsys.readouterr().err
