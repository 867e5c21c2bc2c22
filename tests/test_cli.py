import csv
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import read_bound_reports
from smallball.bounds import (
    FittedConstant,
    load_constants,
    save_constants,
)
from smallball.cli import (
    COMMANDS,
    CONFIG_FIELDS,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    build_parser,
    load_config,
    main,
    run,
)
from smallball.errors import ConfigError
from smallball.prg import build_mgg_expander, save_graph

ROOT = Path(__file__).resolve().parent.parent
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

    def test_distribution_csvs_hold_only_positive_masses(self, chain_file, tmp_path,
                                                         capsys):
        # a +-1 sum lives on every other integer; the empty classes are not rows
        for argv in (["exact-dist"], ["smallball", "--radius", "1"]):
            out = str(tmp_path / "dist.csv")
            assert main(argv + ["--chain", chain_file, "--generator", "all-ones",
                                "--n", "6", "--out", out]) == 0
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            assert [int(r["sum"]) for r in rows] == list(range(-6, 7, 2))
            masses = [float(r["probability"]) for r in rows]
            assert min(masses) > 0
            assert sum(masses) == pytest.approx(1.0, abs=1e-12)
        assert "7 support points" in capsys.readouterr().out

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

    def test_zp_average_refuses_a_large_weight_at_once(self, chain_file, tmp_path):
        # in a subprocess, so a prime search near 2e20 hits the timeout
        # instead of hanging the suite
        weights = tmp_path / "w.json"
        weights.write_text("[1e20, 1, 1, 1]")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "smallball.cli", "zp-average",
                              "--chain", chain_file, "--weights", str(weights),
                              "--x0", "0"],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 2
        assert "beyond the budget" in run.stderr

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
        ["exact-dist", "--chain", "{chain}", "--n", "-3"],
        ["esseen", "--chain", "{chain}", "--n", "-3"],
        ["run", "--config", "{n_negative}"],
        ["run", "--config", "{n_string}"],
        ["run", "--config", "{n_fraction}"],
        ["run", "--config", "{samples_float}"],
        ["run", "--config", "{samples_string}"],
        ["run", "--config", "{samples_bool}"],
        ["run", "--config", "{samples_zero}"],
        ["run", "--config", "{seed_float}"],
        ["run", "--config", "{seed_null}"],
        ["run", "--config", "{seed_bool}"],
        ["smallball", "--chain", "{chain}", "--weights", "{weights}", "--radius", "nan"],
        ["smallball", "--chain", "{chain}", "--weights", "{weights}", "--x0", "nan"],
        ["smallball", "--chain", "{chain}", "--weights", "{weights}", "--radius", "inf"],
        ["smallball", "--chain", "{chain}", "--weights", "{weights}", "--mode", "mc",
         "--radius", "nan"],
        ["esseen", "--chain", "{chain}", "--weights", "{weights}", "--radius", "nan"],
        ["prg-test", "--k", "2", "--n", "8", "--radius", "nan"],
        ["prg-test", "--k", "2", "--n", "8", "--x0", "inf"],
        ["prg-test", "--k", "2", "--weights", "{nan_weights}"],
        ["smallball", "--chain", "{chain}", "--weights", "{inf_weights}"],
        ["run", "--config", "{dim_string}"],
        ["run", "--config", "{n_list_string}"],
        ["run", "--config", "{n_list_zero}"],
        ["run", "--config", "{k_string}"],
        ["run", "--config", "{radius_string}"],
        ["run", "--config", "{constants_int}"],
        ["run", "--config", "{seed_negative}"],
        ["tightness", "--n-list", "0,64"],
        ["prg-test", "--k", "4", "--n", "0"],
        ["zp-average", "--chain", "{chain}", "--weights", "{weights}", "--x0", "nan"],
        ["zp-average", "--chain", "{chain}", "--weights", "{weights}", "--x0", "1.7"],
        ["prg-build", "--k", "40", "--out", "{out}"],
        # P(sum = 0) is 0 at odd n, which has no logarithm
        ["tightness", "--n-list", "3,5", "--lambdas", "0"],
        *(["prg-test", "--k", "2", "--graph", f"{{{name}}}", "--n", "4"]
          for name in ("graph_degree_zero", "graph_k_string", "graph_k_negative",
                       "graph_k_bool", "graph_k_too_large", "graph_ragged",
                       "graph_float_vertex", "graph_vertex_out_of_range",
                       "graph_not_object")),
        *(["spectral-gap", "--chain", f"{{{name}}}"]
          for name in ("chain_n_states_bool", "chain_stationary_nan", "chain_signs_bool",
                       "chain_stationary_strings", "chain_transition_nan")),
        ["smallball", "--chain", "{chain}", "--weights", "{huge_weights}"],
        *(["esseen", "--chain", "{chain}", "--weights", "{weights}", "--constants",
           f"{{{name}}}"]
          for name in ("constants_empty_entry", "constants_int_entry", "constants_list",
                       "constants_string_value", "constants_missing",
                       "constants_full_empty_entry", "constants_full_int_entry")),
        ["prg-test", "--k", "2", "--graph", "{graph_lambda_string}", "--n", "4"],
        ["prg-test", "--k", "2", "--graph", "{graph_lambda_above_one}", "--n", "4"],
        # each of these four once printed a value as np.float64(...)
        ["spectral-gap", "--chain", "{chain_negative_entry}"],
        ["spectral-gap", "--chain", "{chain_row_sum}"],
        ["exact-dist", "--chain", "{chain}", "--weights", "{half_weights}"],
        ["prg-test", "--k", "2", "--weights", "{short_weights}"],
        # S mod p is not defined for a sum that is not an integer
        ["zp-average", "--chain", "{chain}", "--weights", "{half_weights}", "--x0", "0"],
        ["zp-average", "--chain", "{chain}", "--weights", "{mixed_weights}", "--x0", "0"],
        # finite weights whose absolute sum overflows: a wrapped cell count
        # and an estimate of 0.0 with exit 0, each after numpy warnings
        ["exact-dist", "--chain", "{chain}", "--weights", "{overflow_weights}"],
        ["smallball", "--chain", "{chain}", "--weights", "{overflow_weights}", "--mode", "mc",
         "--samples", "100"],
    ])
    def test_bad_input_exits_2_without_traceback(self, argv, tmp_path, chain_file,
                                                 weights_file, capsys):
        paths = {"missing": str(tmp_path / "nope.json"), "chain": chain_file,
                 "weights": weights_file, "out": str(tmp_path / "out.csv")}
        committed = {name: c.to_doc() for name, c in load_constants().items()}
        for name, doc in (
                ("one_n", {"kind": "diff-scaling", "n_list": [16], "lambda_list": [0.0],
                           "out": paths["out"]}),
                ("no_chain", {"kind": "smallball-exact", "chain": paths["missing"],
                              "generator": "all-ones", "n": 4}),
                *((name, {"kind": "smallball-exact", "chain": chain_file,
                          "generator": "all-ones", "n": n})
                  for name, n in (("n_negative", -2), ("n_string", "7"),
                                  ("n_fraction", 2.5))),
                *((name, {"kind": "smallball-mc", "chain": chain_file,
                          "generator": "all-ones", "n": 4, field: value})
                  for name, field, value in (
                      ("samples_float", "samples", 1e3),
                      ("samples_string", "samples", "1000"),
                      ("samples_bool", "samples", True),
                      ("samples_zero", "samples", 0),
                      ("seed_float", "seed", 3.0),
                      ("seed_null", "seed", None),
                      ("seed_bool", "seed", False))),
                ("dim_string", {"kind": "tightness", "dim": "x"}),
                ("n_list_string", {"kind": "tightness", "n_list": ["a", 2]}),
                ("n_list_zero", {"kind": "tightness", "n_list": [0, 2]}),
                ("k_string", {"kind": "prg", "k": "4"}),
                ("radius_string", {"kind": "smallball-exact", "chain": chain_file,
                                   "weights": weights_file, "radius": "1"}),
                ("constants_int", {"kind": "fit-constants", "constants": 5}),
                ("seed_negative", {"kind": "tightness", "seed": -1}),
                *((f"graph_{name}", {"k": 2, "degree": 1,
                                     "neighbors": [[1], [0], [3], [2]], **fix})
                  for name, fix in (
                      ("degree_zero", {"degree": 0, "neighbors": [[], [], [], []]}),
                      ("k_string", {"k": "a"}),
                      ("k_negative", {"k": -1}),
                      ("k_bool", {"k": True}),
                      ("k_too_large", {"k": 21}),
                      ("ragged", {"neighbors": [[1], [0, 2], [3], [2]]}),
                      ("float_vertex", {"neighbors": [[1.5], [0], [3], [2]]}),
                      ("vertex_out_of_range", {"neighbors": [[1], [0], [3], [4]]}),
                      ("lambda_string", {"certified_lambda": "abc"}),
                      ("lambda_above_one", {"certified_lambda": 7.5}))),
                ("graph_not_object", [[1], [0], [3], [2]]),
                *((f"chain_{name}", {"n_states": 2, "transition": [[0.5, 0.5], [0.5, 0.5]],
                                     **fix})
                  for name, fix in (
                      ("n_states_bool", {"n_states": True, "transition": [[1.0]]}),
                      ("stationary_nan", {"stationary": [float("nan"), 0.5]}),
                      ("signs_bool", {"signs": [[True, 1]]}),
                      ("stationary_strings", {"stationary": ["a", "b"]}),
                      ("transition_nan", {"transition": [[0.5, 0.5], [0.5, float("nan")]]}),
                      ("negative_entry", {"transition": [[1.2, -0.2], [0.5, 0.5]]}),
                      ("row_sum", {"transition": [[0.5, 0.6], [0.5, 0.5]]}))),
                *((f"constants_{name}", doc) for name, doc in (
                    ("empty_entry", {"C_equal": {}}),
                    ("int_entry", {"C_equal": 5}),
                    ("list", [1]),
                    ("string_value", {**committed,
                                      "C_equal": {**committed["C_equal"], "value": "x"}}),
                    ("missing", {name: doc for name, doc in committed.items()
                                 if name not in ("C_esseen", "C_diff")}),
                    ("full_empty_entry", {**committed, "C_equal": {}}),
                    ("full_int_entry", {**committed, "C_equal": 5})))):
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        for name, text in (("nan_weights", "[1, NaN, 1, 1]"),
                           ("inf_weights", "[1, 1, Infinity, 1]"),
                           ("huge_weights", f"[1{'0' * 400}, 1, 1, 1]"),
                           ("half_weights", "[1.5]"),
                           ("short_weights", "[0.5, 1, 1, 1]"),
                           ("mixed_weights", "[1.5, 2.5, 1.25, 3.75]"),
                           ("overflow_weights", "[1e308, 1e308, 1e308, 1]")):
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(text)
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(("config error: ", "error: "))
        assert "Traceback" not in err and "np." not in err

    @pytest.mark.parametrize("argv", [
        ["exact-dist"],
        ["smallball", "--mode", "mc", "--samples", "100"],
    ])
    def test_overflowing_weights_refused_without_warning(self, argv, tmp_path, chain_file,
                                                         capsys):
        weights = tmp_path / "w.json"
        weights.write_text("[1e308, 1e308, 1e308, 1]")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--chain", chain_file, "--weights", str(weights),
                                "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert "sum past the largest float" in capsys.readouterr().err

    def test_prg_test_k_must_match_graph_file(self, tmp_path, capsys):
        graph = str(tmp_path / "g4.json")
        save_graph(build_mgg_expander(4), graph)
        assert main(["prg-test", "--k", "2", "--graph", graph, "--n", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "--k 2" in err and "k = 4" in err

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

    @pytest.mark.parametrize("argv", [["verify-claims"], ["verify-all", "--budget", "100"]])
    def test_removed_subcommand_and_flag_exit_2(self, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2

    @pytest.mark.parametrize("doc", [{"kind": "verify-claims"},
                                     {"kind": "tightness", "budget": 100}])
    def test_removed_kind_and_field_are_config_errors(self, doc, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_kind_mismatch_with_subcommand(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"kind": "tightness"}')
        code = main(["smallball", "--config", str(path)])
        assert code == 2

    def test_config_kind_picks_smallball_mode(self, tmp_path, chain_file,
                                              weights_file, capsys):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"kind": "smallball-mc", "chain": chain_file,
                                   "weights": weights_file, "samples": 1000}))
        assert main(["smallball", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("estimate ")
        assert main(["smallball", "--config", str(cfg), "--mode", "exact"]) == 0
        assert capsys.readouterr().out.startswith("P[|sum - 0.0| <= 1.0] = ")

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


def test_readme_cli_block_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```bash\n(.*?)^```", readme, re.S | re.M).group(1)
    parser = build_parser()
    named = set()
    for line in block.splitlines():
        argv = shlex.split(line.replace("[", "").replace("]", ""))
        assert argv[0] == "smallball"
        parser.parse_args(argv[1:])
        named.add(argv[1])
    assert named == {name for name, row in COMMANDS.items() if row.help}


def test_readme_config_kinds_and_fields():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("- **Experiment config JSON**", 1)[1].split("\n## ", 1)[0]
    kinds = re.search(r'\{"kind": (.*?),\s+\.\.\.\}', section, re.S).group(1)
    assert re.findall(r'"([a-z-]+)"', kinds) == list(EXPERIMENT_KINDS)
    table = section.split("| field |", 1)[1]
    listed = [name for row in re.findall(r"^ *\| (`.*?) \|", table, re.M)
              for name in re.findall(r"`(\w+)`", row)]
    assert sorted(["kind", *listed]) == sorted(CONFIG_FIELDS)


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
