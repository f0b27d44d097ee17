import json
import time

import pytest

from varhardy.cli import _print_cases, main
from varhardy.harness import Case, ExperimentConfig, SuiteReport, list_presets, run_suite
from varhardy.presets import PresetError


class TestConfig:
    def test_presets_must_resolve(self):
        with pytest.raises(PresetError, match="power:x"):
            ExperimentConfig(w="power:x")

    def test_m_range(self):
        with pytest.raises(PresetError):
            ExperimentConfig(m=4)
        with pytest.raises(PresetError):
            ExperimentConfig(m=13)

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
        assert header == "suite,case,quantity,value_m,value_m1,ratio,pass"

    def test_deterministic_modulo_timestamp(self, tmp_path):
        for name in ("a", "b"):
            run_suite(ExperimentConfig(suite="E2", seed=7, out=str(tmp_path / name)))
        docs = []
        for name in ("a", "b"):
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            doc.pop("timestamp")
            doc.pop("wall_time_s")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_environment_metadata(self, tmp_path):
        rep = run_suite(ExperimentConfig(suite="E1", seed=3))
        env = rep.environment
        assert env["seed"] == 3
        assert env["m"] == 9
        assert "dict" in env


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
        # E4's tilde_cofinite cases carry both values but no ratio
        rep = SuiteReport(
            "E4", [Case("tilde_cofinite[mu=1]", "tilde", 2.0, 3.0, None, True)], {}, 0.0
        )
        _print_cases(rep)
        out = capsys.readouterr().out
        assert out == "[pass] E4/tilde_cofinite[mu=1] tilde=2 value_m1=3\n"

    def test_maximal_command_writes_profile(self, tmp_path, capsys):
        code = main(
            ["maximal", "--f", "bump:0,1", "--operator", "Mloc",
             "--out", str(tmp_path / "prof.csv")]
        )
        assert code == 0
        lines = (tmp_path / "prof.csv").read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) > 100

    @pytest.mark.parametrize("op", ["M", "MlocR:2", "Mgrid:1", "Mwpow:2", "KB:16", "Ek:4", "Mdleq:0.5", "Mdgeq:1"])
    def test_operator_flags(self, tmp_path, op):
        assert main(
            ["maximal", "--f", "bump:0,1", "--operator", op, "--out", str(tmp_path / "p.csv")]
        ) == 0

    def test_awconst_command(self, capsys):
        assert main(["awconst", "--w", "power:-0.5", "--p", "lhdecay:1", "--m", "8"]) == 0
        out = capsys.readouterr().out
        assert "q_w estimate" in out

    def test_atoms_command_serializes(self, tmp_path, capsys):
        code = main(
            ["atoms", "--f", "bump:0,0.8", "--out", str(tmp_path / "dec.json"),
             "--hardy-dict", "size=8,seed=42,rD=4"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "dec.json").read_text())
        assert doc["atoms"]
        first = doc["atoms"][0]
        assert set(first) >= {"lambda", "cube", "q", "L", "values_ref"}
        assert (tmp_path / "dec.bin").exists()

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

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"bogus": 1}))
        assert main(["norm", "--config", str(cfgfile)]) == 2
        assert "'bogus'" in capsys.readouterr().err
