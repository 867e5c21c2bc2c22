import csv
import hashlib
import json
from pathlib import Path

import pytest

from smallball.bounds import (
    FittedConstant,
    load_constants,
    read_bound_reports,
    save_constants,
)
from smallball.cli import ExperimentConfig, load_config, main, run
from smallball.errors import ConfigError

CHAIN_DOC = ('{"n_states": 2, "transition": [[0.35, 0.65], [0.65, 0.35]], '
             '"stationary": [0.5, 0.5]}')


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(CHAIN_DOC)
    return str(path)


@pytest.fixture
def weights_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text("[1, 1, 1, 1]")
    return str(path)


class TestSubcommands:
    def test_spectral_gap(self, chain_file, capsys):
        assert main(["spectral-gap", "--chain", chain_file]) == 0
        assert abs(float(capsys.readouterr().out) - 0.3) < 1e-12

    def test_exact_dist_csv(self, chain_file, weights_file, tmp_path, capsys):
        out = str(tmp_path / "dist.csv")
        assert main(["exact-dist", "--chain", chain_file, "--weights",
                     weights_file, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        law = {int(r["sum"]): float(r["probability"]) for r in rows}
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        assert law[4] == pytest.approx(law[-4], abs=1e-15)

    def test_smallball_exact_and_mc_agree(self, chain_file, weights_file, capsys):
        assert main(["smallball", "--chain", chain_file, "--weights",
                     weights_file, "--x0", "0", "--radius", "1"]) == 0
        exact = float(capsys.readouterr().out.rsplit("=", 1)[1].strip())
        assert main(["smallball", "--chain", chain_file, "--weights",
                     weights_file, "--x0", "0", "--radius", "1", "--mode", "mc",
                     "--samples", "30000", "--seed", "5"]) == 0
        line = capsys.readouterr().out
        est = float(line.split()[1])
        assert abs(est - exact) < 0.02

    def test_esseen_bound_holds(self, chain_file, weights_file):
        assert main(["esseen", "--chain", chain_file, "--weights", weights_file,
                     "--radius", "1"]) == 0

    def test_zp_average(self, chain_file, capsys):
        assert main(["zp-average", "--chain", chain_file, "--generator",
                     "arange", "--n", "5", "--x0", "1"]) == 0
        out = capsys.readouterr().out
        assert "average" in out

    def test_prg_build_and_test(self, tmp_path, capsys):
        graph = str(tmp_path / "g.json")
        assert main(["prg-build", "--k", "4", "--out", graph]) == 0
        capsys.readouterr()
        assert main(["prg-test", "--k", "4", "--graph", graph, "--n", "8",
                     "--x0", "0", "--radius", "1"]) == 0
        assert "|D| = 128" in capsys.readouterr().out

    def test_prg_pad_to_multiple(self, tmp_path, capsys):
        w = tmp_path / "w6.json"
        w.write_text("[1, 1, 1, 1, 1, 1]")
        assert main(["prg-test", "--k", "4", "--weights", str(w),
                     "--pad-to-multiple"]) == 0
        assert "padded with 2" in capsys.readouterr().out

    def test_prg_test_generator(self, capsys):
        assert main(["prg-test", "--k", "4", "--n", "8", "--generator", "arange"]) == 0
        assert float(capsys.readouterr().out.split("] = ")[1].split()[0]) == 0.0625

    def test_tightness_csv(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert main(["tightness", "--n-list", "64,128,256", "--lambdas",
                     "0,0.3", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert {"lambda", "n", "prob_zero", "normalized", "slope"} <= set(rows[0])
        slopes = {r["lambda"]: float(r["slope"]) for r in rows}
        assert all(-0.6 < s < -0.4 for s in slopes.values())

    def test_verify_claims_schema(self, tmp_path):
        out = str(tmp_path / "claims.json")
        assert main(["verify-claims", "--seed", "3", "--out", out]) == 0
        doc = json.loads(Path(out).read_text())
        for claim in ("splitting-inequality", "averaging-sandwich", "l1-product",
                      "diagonal-contraction", "switching-domination",
                      "norm-chain"):
            assert {"instances", "max_violation", "pass"} <= set(doc[claim])
            assert doc[claim]["pass"] is True


class TestConfigs:
    def test_missing_chain_file_is_config_error(self, tmp_path):
        code = main(["smallball", "--chain", str(tmp_path / "nope.json"),
                     "--generator", "all-ones", "--n", "4"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["spectral-gap", "--chain", "{missing}"],
        ["zp-average", "--chain", "{missing}", "--generator", "arange", "--n", "5"],
        ["esseen", "--chain", "{chain}", "--weights", "{missing}"],
        ["run", "--config", "{missing}"],
        ["esseen", "--chain", "{chain}", "--weights", "{weights}", "--constants",
         "{missing}"],
        ["prg-test", "--k", "4", "--graph", "{missing}"],
        ["smallball", "--chain", "{chain}", "--weights", "{weights}", "--mode", "mc",
         "--samples", "0"],
        ["prg-test", "--k", "4", "--n", "8", "--mode", "sampled", "--samples", "0"],
        ["tightness", "--n-list", "64", "--lambdas", "0", "--out", "{out}"],
        ["run", "--config", "{one_n}"],
        ["run", "--config", "{no_chain}"],
    ])
    def test_bad_input_exits_2_without_traceback(self, argv, tmp_path, chain_file,
                                                 weights_file, capsys):
        paths = {"missing": str(tmp_path / "nope.json"), "chain": chain_file,
                 "weights": weights_file, "out": str(tmp_path / "out.csv")}
        for name, doc in (
                ("one_n", {"kind": "diff-scaling", "n_list": [16], "lambda_list": [0.0],
                           "out": paths["out"]}),
                ("no_chain", {"kind": "smallball-exact", "chain": paths["missing"],
                              "generator": "all-ones", "n": 4})):
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(("config error: ", "error: "))
        assert "Traceback" not in err

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"kind": "nonsense"}')
        with pytest.raises(ConfigError, match="kind"):
            load_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        for field, value in (("bogus", 1), ("eps", 0.5), ("d_list", [1, 2])):
            path.write_text(json.dumps({"kind": "tightness", field: value}))
            with pytest.raises(ConfigError, match=field):
                load_config(path)
            assert main(["run", "--config", str(path)]) == 2

    def test_kind_mismatch_with_subcommand(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"kind": "tightness"}')
        code = main(["smallball", "--config", str(path)])
        assert code == 2

    def test_run_diff_scaling_exit_and_report(self, tmp_path):
        out = str(tmp_path / "diff.csv")
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"kind": "diff-scaling", "n_list": [9, 16],
                                   "lambda_list": [0.0], "out": out}))
        assert main(["run", "--config", str(cfg)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["pass"] == "true" for r in rows)

    def test_flags_override_config(self, tmp_path, chain_file, weights_file,
                                   capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"kind": "smallball-exact",
                                   "chain": chain_file, "weights": weights_file,
                                   "radius": 0.0}))
        assert main(["smallball", "--config", str(cfg), "--radius", "1"]) == 0
        assert "<= 1.0" in capsys.readouterr().out


class TestDeterminismAndCorruption:
    def test_reports_are_seed_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (out1, out2):
            cfg = ExperimentConfig(kind="diff-scaling", n_list=[9, 16],
                                   lambda_list=[0.3], out=out)
            assert run(cfg) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_halved_constant_fails_bounds(self, tmp_path):
        constants = dict(load_constants())
        weak = constants["C_diff"]
        constants["C_diff"] = FittedConstant(
            name=weak.name, value=weak.value / 2, family=weak.family,
            grid=weak.grid)
        path = tmp_path / "bad.json"
        save_constants(constants, path)
        cfg = ExperimentConfig(kind="diff-scaling", n_list=[9, 16, 25],
                               lambda_list=[0.0], constants=str(path),
                               out=str(tmp_path / "d.csv"))
        assert run(cfg) == 1
        rows = read_bound_reports(tmp_path / "d.csv")
        assert any(not r.passed for r in rows)


class TestPinnedReports:
    """sha256 of sweep reports, recorded before the sweeps were shared with
    the acceptance criteria; any change to a byte of them fails here."""

    def _digest(self, path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def test_tightness(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert main(["tightness", "--n-list", "64,128,256", "--lambdas", "0,0.3",
                     "--out", out]) == 0
        assert self._digest(out) == (
            "d5e39e57be0964f3753295e52b1e55dfa2fda3f8f96188645df2b42f5978a55d")

    def test_diff_scaling(self, tmp_path):
        out = str(tmp_path / "d.csv")
        assert run(ExperimentConfig(kind="diff-scaling", n_list=[9, 16],
                                    lambda_list=[0.0, 0.3], out=out)) == 0
        assert self._digest(out) == (
            "a6d136abd21226f025aa609b5e9bda8d4c049d7434c5ea31621e7776347d7b43")

    def test_prg(self, tmp_path):
        out = str(tmp_path / "p.csv")
        assert run(ExperimentConfig(kind="prg", k=4, out=out)) == 0
        assert self._digest(out) == (
            "ac239f131c5e42c5978b3e9a3ab0851c1797b1086ebd1d61ac6621addd5de1e7")

    def test_verify_claims(self, tmp_path):
        out = str(tmp_path / "c.json")
        assert main(["verify-claims", "--seed", "3", "--budget", "100",
                     "--out", out]) == 0
        assert self._digest(out) == (
            "35ff16535a9df44bb855c11291514d87dcbc1eb106c2fc7766b0c0f51ab398f3")
