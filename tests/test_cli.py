"""End-to-end checks of the command-line interface.

Commands run in-process through ags.cli.main so exit codes and file
outputs are observable without a subprocess. Byte-identical reruns are
the backbone: every deterministic command is executed twice and the
output files compared raw.
"""

import contextlib
import io
import json
import os

import numpy as np
import pytest

from ags import cli, demo, sampling
from ags.graph import load_edge_list, load_rank_table
from ags.similarity import new_siamese, save_similarity_model
from oracles import edge_list_text_loop

C = 4
N = 240


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Features, labels, a generated graph, and both rank tables."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(5)
    y = rng.integers(0, C, size=N)
    x = np.eye(C)[y] + 0.4 * rng.normal(size=(N, C))
    np.savetxt(root / "x.txt", x, fmt="%.8f", delimiter=",")
    np.savetxt(root / "y.txt", y, fmt="%d")
    (root / "seeds.txt").write_text("\n".join(str(v) for v in range(0, 24, 3)) + "\n")

    base = [
        "--features", str(root / "x.txt"),
        "--labels", str(root / "y.txt"),
    ]
    assert cli.main(["synth", *base, "--hn", "0.3", "--degree", "8",
                     "--seed", "7", "--out", str(root / "g.edges")]) == 0
    graph = ["--graph", str(root / "g.edges")]
    assert cli.main(["rank", *graph, "--features", str(root / "x.txt"),
                     "--mode", "similar", "--out", str(root / "sim.agsr")]) == 0
    assert cli.main(["rank", *graph, "--features", str(root / "x.txt"),
                     "--mode", "diverse", "--fn", "facility",
                     "--out", str(root / "div.agsr")]) == 0
    return root


def p(workdir, name):
    return str(workdir / name)


def graph_flags(workdir):
    return ["--graph", p(workdir, "g.edges")]


def data_flags(workdir):
    return [
        "--features", p(workdir, "x.txt"),
        "--labels", p(workdir, "y.txt"),
    ]


class TestDispatch:
    def test_analyze_reports_h_node(self, workdir):
        out = p(workdir, "report.json")
        code = cli.main(["analyze", *graph_flags(workdir),
                         "--labels", p(workdir, "y.txt"),
                         "--features", p(workdir, "x.txt"), "--out", out])
        assert code == 0
        report = json.loads(open(out).read())
        for key in ("h_node", "h_edge", "h_adjusted", "histogram", "n", "m"):
            assert key in report
        assert 0.0 <= report["h_node"] <= 1.0
        assert sum(report["histogram"]) <= report["n"]
        assert "feature_label_r" in report

    def test_analyze_label_count_mismatch_exits_1(self, workdir, tmp_path, capsys):
        short = tmp_path / "y_short.txt"
        short.write_text("0\n1\n0\n")
        code = cli.main(["analyze", *graph_flags(workdir), "--labels", str(short),
                         "--out", str(tmp_path / "report.json")])
        assert code == 1
        assert "labels length 3 does not match graph nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, rows", [("--features", 3), ("--features", 5), ("--labels", 3)])
    def test_analyze_row_count_not_n_exits_1(self, tmp_path, capsys, flag, rows):
        """A 4-node cycle with a feature or label file of the wrong length."""
        files = {"--graph": "0 1\n1 2\n2 3\n3 0\n", "--labels": "0\n1\n0\n1\n",
                 "--features": "1.0,0.0\n0.0,1.0\n1.0,0.0\n0.0,1.0\n"}
        files[flag] = "".join(["1\n", "0.5,0.5\n"][flag == "--features"] for _ in range(rows))
        args = ["analyze"]
        for name, text in files.items():
            path = tmp_path / name.strip("-")
            path.write_text(text)
            args += [name, str(path)]
        code = cli.main([*args, "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert not (tmp_path / "report.json").exists()
        assert f"{flag.strip('-')} length {rows} does not match graph nodes (4)" in err
        assert str(tmp_path / flag.strip("-")) in err and str(tmp_path / "graph") in err

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["rank", "verify-lemmas"])
    def test_non_finite_lam_exits_1(self, workdir, tmp_path, capsys, command, lam):
        args = [command, *graph_flags(workdir), *data_flags(workdir),
                "--fn", "graphcut", f"--lam={lam}", "--out", str(tmp_path / "out")]
        if command == "rank":
            args += ["--mode", "diverse"]
        assert cli.main(args) == 1
        assert not (tmp_path / "out").exists()
        assert "lam must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("lambdas, match", [
        ("inf,2,1", "lambdas must be finite"),
        ("1e300,1e299,1e-300", "every PMF mass must be finite and positive"),
    ])
    def test_unusable_lambdas_exit_1_without_a_table(self, workdir, tmp_path, capsys,
                                                      lambdas, match):
        out = tmp_path / "t.agsr"
        assert cli.main(["rank", *graph_flags(workdir), "--features", p(workdir, "x.txt"),
                         "--mode", "similar", "--lambdas", lambdas, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert match in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_exits_1(self, workdir, tmp_path, capsys, lr):
        out = tmp_path / "run.json"
        assert cli.main(["train-demo", *graph_flags(workdir), *data_flags(workdir),
                         "--table-sim", p(workdir, "sim.agsr"), "--epochs", "1",
                         f"--lr={lr}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "lr and threshold must be positive and finite" in err and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_flag_exits_2(self, workdir):
        assert cli.main(["analyze", *graph_flags(workdir),
                         "--labels", p(workdir, "y.txt"), "--bogus"]) == 2

    def test_missing_subcommand_exits_2(self):
        assert cli.main([]) == 2

    def test_missing_required_flag_exits_2(self, workdir):
        assert cli.main(["analyze", "--labels", p(workdir, "y.txt")]) == 2

    def test_runtime_error_exits_1_and_writes_manifest(self, workdir, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["analyze", "--graph", "no-such-file.edges",
                         "--labels", p(workdir, "y.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "ags-analyze.manifest.json").read_text())
        assert "error" in manifest and manifest["command"] == "analyze"

    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "ags" in capsys.readouterr().out


class TestManifests:
    def test_manifest_written_alongside_output(self, workdir):
        out = p(workdir, "m-report.json")
        assert cli.main(["analyze", *graph_flags(workdir),
                         "--labels", p(workdir, "y.txt"), "--out", out]) == 0
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["command"] == "analyze"
        assert manifest["seed"] == 0
        assert manifest["tool_version"]
        assert manifest["wall_time_s"] >= 0.0
        digests = list(manifest["inputs"].values())
        assert digests and all(len(d) == 64 for d in digests)

    def test_manifest_records_resolved_config(self, workdir):
        out = p(workdir, "m-batch.json")
        assert cli.main(["sample", "node", *graph_flags(workdir),
                         "--table", p(workdir, "sim.agsr"),
                         "--seeds", p(workdir, "seeds.txt"),
                         "--fanouts", "3,2", "--seed", "11", "--out", out]) == 0
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["config"]["fanouts"] == [3, 2]
        assert manifest["seed"] == 11


class TestDeterminism:
    def test_rank_rerun_byte_identical(self, workdir):
        a, b = p(workdir, "rer-a.agsr"), p(workdir, "rer-b.agsr")
        args = ["rank", *graph_flags(workdir),
                "--features", p(workdir, "x.txt"), "--mode", "similar", "--seed", "4"]
        assert cli.main([*args, "--out", a]) == 0
        assert cli.main([*args, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_rank_then_sample_rerun_byte_identical(self, workdir):
        outs = []
        for tag in ("s1", "s2"):
            table = p(workdir, f"{tag}.agsr")
            batch = p(workdir, f"{tag}-batch.json")
            assert cli.main(["rank", *graph_flags(workdir),
                             "--features", p(workdir, "x.txt"),
                             "--mode", "similar", "--out", table]) == 0
            assert cli.main(["sample", "node", *graph_flags(workdir),
                             "--table", table,
                             "--seeds", p(workdir, "seeds.txt"),
                             "--fanouts", "4,2", "--seed", "3",
                             "--out", batch]) == 0
            outs.append((open(table, "rb").read(), open(batch, "rb").read()))
        assert outs[0] == outs[1]

    def test_synth_rerun_byte_identical(self, workdir):
        a, b = p(workdir, "syn-a.edges"), p(workdir, "syn-b.edges")
        args = ["synth", *data_flags(workdir), "--hn", "0.4",
                "--degree", "6", "--seed", "9"]
        assert cli.main([*args, "--out", a]) == 0
        assert cli.main([*args, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        g = load_edge_list(a)
        assert g.n == N

    def test_train_demo_rerun_byte_identical(self, workdir):
        a, b = p(workdir, "run-a.json"), p(workdir, "run-b.json")
        args = ["train-demo", *graph_flags(workdir), *data_flags(workdir),
                "--table-sim", p(workdir, "sim.agsr"), "--epochs", "2", "--seed", "1"]
        assert cli.main([*args, "--out", a]) == 0
        assert cli.main([*args, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        assert json.loads(open(a).read())["channels"] == 1


class TestSeedPrecedence:
    def run_batch(self, workdir, out, extra, env=None, monkeypatch=None):
        if env:
            for k, v in env.items():
                monkeypatch.setenv(k, v)
        code = cli.main(["sample", "node", *graph_flags(workdir),
                         "--table", p(workdir, "sim.agsr"),
                         "--seeds", p(workdir, "seeds.txt"),
                         "--out", out, *extra])
        assert code == 0
        return open(out, "rb").read()

    def test_flag_config_env_default_order(self, workdir, monkeypatch):
        monkeypatch.delenv("AGS_SEED", raising=False)
        cfg = workdir / "seed3.cfg"
        cfg.write_text("seed=3\n")
        fan = ["--fanouts", "4,2"]
        flag = self.run_batch(workdir, p(workdir, "sp-flag.json"),
                              [*fan, "--seed", "3"])
        conf = self.run_batch(workdir, p(workdir, "sp-conf.json"),
                              [*fan, "--config", str(cfg)])
        env = self.run_batch(workdir, p(workdir, "sp-env.json"), fan,
                             env={"AGS_SEED": "3"}, monkeypatch=monkeypatch)
        assert flag == conf == env
        monkeypatch.delenv("AGS_SEED", raising=False)
        other = self.run_batch(workdir, p(workdir, "sp-five.json"),
                               [*fan, "--seed", "5"])
        assert other != flag
        # flag beats both the config file and the environment
        beats = self.run_batch(workdir, p(workdir, "sp-beats.json"),
                               [*fan, "--seed", "3", "--config", str(cfg)],
                               env={"AGS_SEED": "9"}, monkeypatch=monkeypatch)
        assert beats == flag

    def test_config_flag_overrides_file_value(self, workdir, monkeypatch):
        monkeypatch.delenv("AGS_SEED", raising=False)
        cfg = workdir / "fan.cfg"
        cfg.write_text("fanouts=2,1\nseed=3\n")
        via_file = self.run_batch(workdir, p(workdir, "cf-file.json"),
                                  ["--config", str(cfg)])
        overridden = self.run_batch(workdir, p(workdir, "cf-flag.json"),
                                    ["--config", str(cfg), "--fanouts", "4,2"])
        plain = self.run_batch(workdir, p(workdir, "cf-plain.json"),
                               ["--fanouts", "4,2", "--seed", "3"])
        assert overridden == plain
        assert via_file != plain

    def test_bad_config_line_exits_1(self, workdir):
        cfg = workdir / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        assert cli.main(["sample", "node", *graph_flags(workdir),
                         "--table", p(workdir, "sim.agsr"),
                         "--seeds", p(workdir, "seeds.txt"),
                         "--config", str(cfg),
                         "--out", p(workdir, "never.json")]) == 1

    @pytest.mark.parametrize("line", ["replacement=true", "fanout=3,2"])
    def test_unknown_config_key_exits_1(self, workdir, tmp_path, capsys, line):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"epochs=1\n{line}\n")
        out = tmp_path / "train.json"
        code = cli.main(["train-demo", *graph_flags(workdir), *data_flags(workdir),
                         "--table-sim", p(workdir, "sim.agsr"),
                         "--table-div", p(workdir, "div.agsr"),
                         "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr()
        assert line.split("=")[0] in err.err and err.out == ""
        assert not out.exists()
        manifest = json.loads((tmp_path / "train.json.manifest.json").read_text())
        assert "config key" in manifest["error"] and manifest["config"] == {}

    def test_dashed_config_keys_accepted(self, workdir, tmp_path):
        cfg = tmp_path / "disjoint.cfg"
        cfg.write_text("residual-frac=0.1\nK=1\n")
        out = tmp_path / "parts.json"
        assert cli.main(["sample", "disjoint", *graph_flags(workdir),
                         "--table", p(workdir, "sim.agsr"),
                         "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "parts.json.manifest.json").read_text())
        assert manifest["config"]["residual-frac"] == 0.1
        assert manifest["config"]["K"] == 1


# Non-default values for every value-taking flag of five commands.
# "{w}" is the module's work directory and "{o}" the run's output path.
# A command may need several cases to give every flag a value that counts.
CONFIG_CASES = {
    "sample-node": (["sample", "node"], {
        "graph": "{w}/g.edges", "table": "{w}/sim.agsr", "table2": "{w}/div.agsr",
        "seeds": "{w}/seeds.txt", "fanouts": "3,2", "seed": "5", "out": "{o}",
    }),
    "sample-walk-seeds": (["sample", "walk"], {
        "graph": "{w}/g.edges", "table": "{w}/div.agsr", "seeds": "{w}/seeds.txt",
        "steps": "3", "seed": "5", "out": "{o}",
    }),
    "sample-walk-batch": (["sample", "walk"], {
        "graph": "{w}/g.edges", "table": "{w}/sim.agsr", "batch": "6", "steps": "4",
        "seed": "6", "out": "{o}",
    }),
    "sample-disjoint": (["sample", "disjoint"], {
        "graph": "{w}/g.edges", "table": "{w}/sim.agsr", "K": "3", "k": "2",
        "residual-frac": "0.2", "seed": "5", "out": "{o}",
    }),
    "rank-learned": (["rank"], {
        "graph": "{w}/g.edges", "features": "{w}/x.txt", "labels": "{w}/y.txt",
        "mode": "similar", "sim": "learned", "sim-epochs": "2", "pmf": "exp",
        "rate": "0.3", "k1": "0.3", "seed": "5", "out": "{o}",
    }),
    "rank-diverse": (["rank"], {
        "graph": "{w}/g.edges", "features": "{w}/x.txt", "mode": "diverse",
        "sim": "euclidean", "fn": "graphcut", "lam": "1.5", "pmf": "step",
        "lambdas": "5,3,1", "k1": "0.3", "k2": "0.3", "out": "{o}",
    }),
    "train-demo": (["train-demo"], {
        "graph": "{w}/g.edges", "features": "{w}/x.txt", "labels": "{w}/y.txt",
        "table-sim": "{w}/sim.agsr", "table-div": "{w}/div.agsr",
        "combiner": "skip", "epochs": "1", "hidden": "8", "lr": "0.01",
        "batch-size": "64", "fanouts": "3,2", "mc-samples": "2", "seed": "5",
        "out": "{o}",
    }),
}


def value_flags(words):
    """The subcommand's flags that take a value, ``--config`` aside."""
    flags = cli.command_flags(cli.build_parser(), words)
    return {k for k, a in flags.items() if a.nargs != 0 and k != "config"}


class TestConfigMeansFlag:
    """A value in a --config file gives the run the same bytes as the flag."""

    @pytest.fixture(scope="class")
    def runs(self, workdir):
        """Runs by (case, key put in the file), made once each."""
        cache = {}

        def run(case, in_file):
            if (case, in_file) not in cache:
                words, values = CONFIG_CASES[case]
                out = workdir / f"cfg-{case}.out"
                values = {k: v.format(w=workdir, o=out) for k, v in values.items()}
                args = list(words)
                for key, value in values.items():
                    if key != in_file:
                        args += [f"--{key}", value]
                if in_file:
                    cfg = workdir / f"cfg-{case}.cfg"
                    cfg.write_text(f"{in_file}={values[in_file]}\n")
                    args += ["--config", str(cfg)]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    assert cli.main(args) == 0, args
                manifest = json.loads((workdir / f"cfg-{case}.out.manifest.json").read_text())
                manifest["config"].pop("config")
                cache[case, in_file] = (out.read_bytes(), stdout.getvalue(), manifest["config"])
            return cache[case, in_file]

        return run

    @pytest.mark.parametrize("case, key", [
        (case, key) for case, (_, values) in CONFIG_CASES.items() for key in values
    ])
    def test_file_value_gives_flag_bytes(self, runs, case, key):
        assert runs(case, key) == runs(case, None)

    @pytest.mark.parametrize("words", sorted({tuple(w) for w, _ in CONFIG_CASES.values()}))
    def test_cases_cover_every_value_flag(self, words):
        given = set().union(*(v for w, v in CONFIG_CASES.values() if tuple(w) == words))
        assert given == value_flags(words)

    @pytest.mark.parametrize("line, flag", [("replace=true", ["--replace"]),
                                            ("replace=TRUE", ["--replace"]),
                                            ("replace=false", [])])
    def test_replace_takes_true_or_false(self, workdir, tmp_path, line, flag):
        base = ["sample", "node", *graph_flags(workdir), "--table", p(workdir, "sim.agsr"),
                "--seeds", p(workdir, "seeds.txt"), "--fanouts", "2,2", "--seed", "4"]
        cfg = tmp_path / "r.cfg"
        cfg.write_text(line + "\n")
        assert cli.main([*base, "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert cli.main([*base, *flag, "--out", str(tmp_path / "b")]) == 0
        a = json.loads((tmp_path / "a").read_text())
        assert a == json.loads((tmp_path / "b").read_text())
        assert a["replace"] is bool(flag)


# Config file lines that must be refused, with the command given each.
REJECTED = [
    ("sample-node", "replace=yes"),
    ("sample-node", "command=rank"),
    ("sample-node", "sample_kind=walk"),
    ("sample-node", "fanout=3,2"),
    ("sample-node", "help=true"),
    ("sample-disjoint", "K=2.5"),
    ("rank", "sim=banana"),
    ("rank", "sim-epochs=0"),
    ("rank", "config=other.cfg"),
    ("rank", "workers=1"),  # flags that no longer exist
    ("train-demo", "channels=2"),
]


def words_of(command):
    return ["sample", command[7:]] if command.startswith("sample-") else [command]


def parse_ready(workdir, command):
    """Flags with which each command parses and runs."""
    graph, table = ["--graph", p(workdir, "g.edges")], ["--table", p(workdir, "sim.agsr")]
    data = ["--features", p(workdir, "x.txt"), "--labels", p(workdir, "y.txt")]
    seeds = ["--seeds", p(workdir, "seeds.txt")]
    return {
        "analyze": [*graph, "--labels", p(workdir, "y.txt")],
        "rank": [*graph, "--features", p(workdir, "x.txt"), "--mode", "similar"],
        "sample-node": [*graph, *table, *seeds],
        "sample-walk": [*graph, *table, *seeds],
        "sample-disjoint": [*graph, *table],
        "synth": data,
        "verify-lemmas": [*graph, *data],
        "train-demo": [*graph, *data, "--table-sim", p(workdir, "sim.agsr"),
                       "--epochs", "1"],
        "bench": ["--sizes", "0"],
    }[command]


class TestConfigRejections:
    @pytest.mark.parametrize("command, line", REJECTED)
    def test_rejected_entry_exits_1(self, workdir, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        code = cli.main([*words_of(command), *parse_ready(workdir, command),
                         "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert not out.exists()
        key = line.split("=")[0]
        assert key in json.loads((tmp_path / "out.manifest.json").read_text())["error"]

    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_zero_workers_flag_exits_2(self, workdir, tmp_path, capsys, command):
        """A flag value that fails its type, and the removed --workers flag,
        are usage errors on every command: exit 2, nothing written."""
        args = [*words_of(command), *parse_ready(workdir, command), "--out", str(tmp_path / "o")]
        assert cli.main([*args, "--seed", "notanint"]) == 2
        assert "argument --seed: invalid int value: 'notanint'" in capsys.readouterr().err
        assert cli.main([*args, "--workers", "0"]) == 2
        assert "unrecognized arguments: --workers 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert cli.main(args) == 0

    def test_required_flag_may_come_from_the_file(self, workdir, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("K=2\n")
        args = ["sample", "disjoint", "--table", p(workdir, "sim.agsr"),
                "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert cli.main(args) == 1  # --graph is in neither
        cfg.write_text(f"graph={p(workdir, 'g.edges')}\n")
        assert cli.main(args) == 0

    def test_non_integer_env_seed_exits_1(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("AGS_SEED", "three")
        args = ["sample", "node", *graph_flags(workdir), "--table", p(workdir, "sim.agsr"),
                "--seeds", p(workdir, "seeds.txt"), "--out", str(tmp_path / "o")]
        assert cli.main(args) == 1
        assert "AGS_SEED" in json.loads((tmp_path / "o.manifest.json").read_text())["error"]
        # the environment is read only when no flag or file gives the seed
        assert cli.main([*args, "--seed", "3"]) == 0


class TestSynthEdgeList:
    @pytest.mark.parametrize("hn, degree, seed", [("0.3", "8", "7"), ("0.1,0.6", "3", "2")])
    def test_matches_per_edge_writer(self, workdir, tmp_path, hn, degree, seed):
        out = tmp_path / "g.edges"
        assert cli.main(["synth", *data_flags(workdir), "--hn", hn, "--degree", degree,
                         "--seed", seed, "--out", str(out)]) == 0
        assert out.read_text() == edge_list_text_loop(load_edge_list(str(out)))

    def test_negative_seed_exits_1(self, workdir, tmp_path, capsys):
        code = cli.main(["synth", *data_flags(workdir), "--hn", "0.3", "--degree", "8",
                         "--seed", "-1", "--out", str(tmp_path / "g.edges")])
        assert code == 1
        assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("degree, message", [
        ("inf", "average degree must be finite, got inf"),
        ("1e300", "same-label partners cannot be drawn"),
    ])
    def test_undrawable_degree_exits_1(self, workdir, tmp_path, capsys, degree, message):
        code = cli.main(["synth", *data_flags(workdir), "--degree", degree,
                         "--out", str(tmp_path / "g.edges")])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1


class TestSampleCommands:
    def test_dual_channel_schema(self, workdir):
        out = p(workdir, "dual.json")
        assert cli.main(["sample", "node", *graph_flags(workdir),
                         "--table", p(workdir, "sim.agsr"),
                         "--table2", p(workdir, "div.agsr"),
                         "--seeds", p(workdir, "seeds.txt"),
                         "--fanouts", "4,2", "--seed", "3", "--out", out]) == 0
        batch = json.loads(open(out).read())
        assert len(batch["channels"]) == 2
        g = load_edge_list(p(workdir, "g.edges"))
        present = {(int(u), int(v)) for u, v in
                   zip(g.edge_array()[:, 0], g.edge_array()[:, 1])}
        present |= {(v, u) for u, v in present}
        seeds = [int(s) for s in
                 open(p(workdir, "seeds.txt")).read().split()]
        for channel in batch["channels"]:
            assert channel["seeds"] == seeds
            assert len(channel["layers"]) == 2
            assert set(map(tuple, channel["edges"])) <= present
            flat = [e for layer in channel["layers"] for e in layer]
            assert sorted(map(tuple, flat)) == sorted(map(tuple, channel["edges"]))

    def test_zero_fanout_exits_1(self, workdir, tmp_path, capsys):
        out = tmp_path / "zero.json"
        assert cli.main(["sample", "node", *graph_flags(workdir),
                         "--table", p(workdir, "sim.agsr"),
                         "--seeds", p(workdir, "seeds.txt"),
                         "--fanouts", "0,2", "--out", str(out)]) == 1
        assert "fanouts must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_walk_batch_draws_seed_nodes(self, workdir):
        out = p(workdir, "walkb.json")
        assert cli.main(["sample", "walk", *graph_flags(workdir),
                         "--table", p(workdir, "sim.agsr"),
                         "--steps", "2", "--batch", "20", "--seed", "3",
                         "--out", out]) == 0
        walk = json.loads(open(out).read())
        assert walk["walks"] == 20
        assert len(walk["seeds"]) == 20
        assert walk["command"] == "sample-walk"

    def test_walk_batch_exceeding_nodes_exits_1(self, workdir):
        assert cli.main(["sample", "walk", *graph_flags(workdir),
                         "--table", p(workdir, "sim.agsr"),
                         "--batch", str(N + 1),
                         "--out", p(workdir, "never2.json")]) == 1

    def test_disjoint_parts_partition_the_graph(self, workdir):
        out = p(workdir, "dis.json")
        assert cli.main(["sample", "disjoint", *graph_flags(workdir),
                         "--table", p(workdir, "sim.agsr"),
                         "--K", "3", "--k", "2", "--residual-frac", "0.1",
                         "--seed", "3", "--out", out]) == 0
        report = json.loads(open(out).read())
        g = load_edge_list(p(workdir, "g.edges"))
        arr = g.edge_array()
        canonical = {(min(int(u), int(v)), max(int(u), int(v)))
                     for u, v in zip(arr[:, 0], arr[:, 1])}
        seen: set[tuple[int, int]] = set()
        for part in report["parts"]:
            part_edges = {(min(u, v), max(u, v)) for u, v in part["edges"]}
            assert not (part_edges & seen)
            seen |= part_edges
        assert seen == canonical
        assert report["parts"][-1]["is_residual"]
        assert "sample" in report

    def test_disjoint_negative_k_exits_1(self, workdir, capsys):
        assert cli.main(["sample", "disjoint", *graph_flags(workdir),
                         "--table", p(workdir, "sim.agsr"), "--K", "3", "--k", "-1",
                         "--out", p(workdir, "never3.json")]) == 1
        assert capsys.readouterr().err == "error: k=-1 is negative\n"


class TestTableOfAnotherGraph:
    """A table ranked on another graph with the same n exits 1."""

    @pytest.fixture(scope="class")
    def other_table(self, workdir):
        base = ["--features", p(workdir, "x.txt"), "--labels", p(workdir, "y.txt")]
        assert cli.main(["synth", *base, "--hn", "0.3", "--degree", "8",
                         "--seed", "8", "--out", p(workdir, "other.edges")]) == 0
        assert cli.main(["rank", "--graph", p(workdir, "other.edges"),
                         "--features", p(workdir, "x.txt"), "--mode", "similar",
                         "--out", p(workdir, "other.agsr")]) == 0
        assert load_rank_table(p(workdir, "other.agsr")).n == N
        return p(workdir, "other.agsr")

    def test_sample_node_exits_1(self, workdir, other_table, capsys):
        assert cli.main(["sample", "node", *graph_flags(workdir),
                         "--table", other_table, "--seeds", p(workdir, "seeds.txt"),
                         "--fanouts", "4,2", "--out", p(workdir, "never5.json")]) == 1
        assert "do not match" in capsys.readouterr().err

    def test_sample_walk_exits_1(self, workdir, other_table, capsys):
        assert cli.main(["sample", "walk", *graph_flags(workdir),
                         "--table", other_table, "--seeds", p(workdir, "seeds.txt"),
                         "--out", p(workdir, "never6.json")]) == 1
        assert "do not match" in capsys.readouterr().err

    def test_train_demo_exits_1(self, workdir, other_table, capsys):
        assert cli.main(["train-demo", *graph_flags(workdir), *data_flags(workdir),
                         "--table-sim", p(workdir, "sim.agsr"),
                         "--table-div", other_table, "--epochs", "1",
                         "--out", p(workdir, "never7.json")]) == 1
        assert "do not match" in capsys.readouterr().err


class TestLearnedRank:
    def test_learned_similarity_saves_model_sidecar(self, workdir):
        out = p(workdir, "learned.agsr")
        assert cli.main(["rank", *graph_flags(workdir),
                         "--features", p(workdir, "x.txt"),
                         "--labels", p(workdir, "y.txt"),
                         "--mode", "similar", "--sim", "learned",
                         "--sim-epochs", "3", "--seed", "2", "--out", out]) == 0
        rt = load_rank_table(out)
        assert rt.mode == "similar"
        with open(out + ".model", "rb") as fh:
            assert fh.read(4) == b"AGSM"

    def learned_args(self, workdir, out):
        return ["rank", *graph_flags(workdir), "--features", p(workdir, "x.txt"),
                "--labels", p(workdir, "y.txt"), "--mode", "similar",
                "--sim", "learned", "--out", str(out)]

    def test_zero_sim_epochs_flag_exits_2(self, workdir, tmp_path, capsys):
        out = tmp_path / "t.agsr"
        assert cli.main([*self.learned_args(workdir, out), "--sim-epochs", "0"]) == 2
        assert "argument --sim-epochs: expected a positive integer" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_zero_sim_epochs_config_key_exits_1(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("sim-epochs=0\n")
        out = tmp_path / "t.agsr"
        assert cli.main([*self.learned_args(workdir, out), "--config", str(cfg)]) == 1
        assert "--sim-epochs" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "t.agsr.model").exists()

    def test_unwritable_table_leaves_no_model(self, workdir, tmp_path):
        out = tmp_path / "t.agsr"
        args = [*self.learned_args(workdir, out), "--sim-epochs", "1",
                "--lambdas", "1e300,1e299,1e-300"]
        assert cli.main(args) == 1
        assert not out.exists() and not (tmp_path / "t.agsr.model").exists()

    def test_learned_without_labels_exits_1(self, workdir):
        assert cli.main(["rank", *graph_flags(workdir),
                         "--features", p(workdir, "x.txt"),
                         "--mode", "similar", "--sim", "learned",
                         "--out", p(workdir, "never3.agsr")]) == 1


class TestVerifyAndTrain:
    def test_verify_lemmas_fields(self, workdir):
        out = p(workdir, "lem.json")
        assert cli.main(["verify-lemmas", *graph_flags(workdir),
                         *data_flags(workdir), "--sim", "cosine",
                         "--out", out]) == 0
        rep = json.loads(open(out).read())
        for key in ("mean_uniform", "mean_similar", "mean_diverse",
                    "lemma1_violations", "lemma2_violations"):
            assert key in rep
        assert rep["lemma1_violations"] == 0
        assert rep["lemma2_violations"] == 0

    def test_verify_lemmas_model_width_mismatch_exits_1(self, workdir, capsys):
        model_path = p(workdir, "wide4.model")
        save_similarity_model(model_path, new_siamese(C, 5, 3, np.random.default_rng(0)))
        x3 = np.loadtxt(p(workdir, "x.txt"), delimiter=",")[:, :3]
        np.savetxt(p(workdir, "x3.txt"), x3, fmt="%.8f", delimiter=",")
        assert cli.main(["verify-lemmas", *graph_flags(workdir),
                         "--features", p(workdir, "x3.txt"),
                         "--labels", p(workdir, "y.txt"),
                         "--sim", "learned", "--model", model_path,
                         "--out", p(workdir, "never8.json")]) == 1
        err = capsys.readouterr().err
        assert f"model {model_path} takes 4-wide features" in err
        assert "--features has width 3" in err

    def test_train_demo_without_tables_exits_1(self, workdir, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert cli.main(["train-demo", *graph_flags(workdir), *data_flags(workdir),
                         "--epochs", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--table-sim" in err and "--table-div" in err
        assert not out.exists()

    def test_removed_channels_flag_exits_2(self, workdir, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert cli.main(["train-demo", *graph_flags(workdir), *data_flags(workdir),
                         "--table-sim", p(workdir, "sim.agsr"), "--channels", "2",
                         "--epochs", "1", "--out", str(out)]) == 2
        assert "unrecognized arguments: --channels 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_train_demo_dual_reports_metrics(self, workdir):
        out = p(workdir, "run-dual.json")
        assert cli.main(["train-demo", *graph_flags(workdir),
                         *data_flags(workdir),
                         "--table-sim", p(workdir, "sim.agsr"),
                         "--table-div", p(workdir, "div.agsr"), "--combiner", "concat",
                         "--epochs", "2", "--seed", "1", "--out", out]) == 0
        run = json.loads(open(out).read())
        assert run["channels"] == 2
        assert run["epochs_run"] == 2
        assert 0.0 <= run["test_micro_f1"] <= 1.0
        assert len(run["loss"]) == 2

    def test_train_demo_replace_matches_api(self, workdir, tmp_path):
        # the flag trains with replacement, as TrainConfig(replace=True)
        # does; the final test evaluation keeps its default draws
        base = ["train-demo", *graph_flags(workdir), *data_flags(workdir),
                "--table-sim", p(workdir, "sim.agsr"),
                "--epochs", "3", "--fanouts", "6,3", "--seed", "2"]
        cfg = tmp_path / "r.cfg"
        cfg.write_text("replace=true\n")
        runs = {}
        for name, extra in [("flag", ["--replace"]), ("config", ["--config", str(cfg)]),
                            ("plain", [])]:
            out = tmp_path / f"{name}.json"
            assert cli.main([*base, *extra, "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{name}.json.manifest.json").read_text())
            runs[name] = out.read_bytes(), manifest["config"]["replace"]
        assert runs["flag"] == runs["config"]
        assert runs["flag"][1] is True and runs["plain"][1] is False
        assert runs["flag"][0] != runs["plain"][0]

        g = load_edge_list(p(workdir, "g.edges"))
        x = np.loadtxt(p(workdir, "x.txt"), delimiter=",")
        y = np.loadtxt(p(workdir, "y.txt"), dtype=np.int64)
        tables = [load_rank_table(p(workdir, "sim.agsr"))]
        cfg = demo.TrainConfig(hidden=64, fanouts=(6, 3), epochs=3, combiner="concat_mlp",
                               seed=2, replace=True)
        split = demo.make_split(g.n, sampling.rng_for(2, cli._STREAM_SPLIT))
        model, history = demo.train(g, x, y, tables, cfg, split=split)
        f1 = demo.evaluate(model, g, x, y, tables, split[2], fanouts=(6, 3),
                           rng=sampling.rng_for(2, cli._STREAM_EVAL))
        run = json.loads(runs["flag"][0])
        assert run["loss"] == [round(v, 10) for v in history["loss"]]
        assert run["val_f1"] == [round(v, 10) for v in history["val_f1"]]
        assert run["test_micro_f1"] == f1


class TestBench:
    def test_zero_size_row_reports_zero_work(self, workdir):
        out = p(workdir, "bench0.json")
        assert cli.main(["bench", "--sizes", "0", "--seed", "2", "--out", out]) == 0
        rows = json.loads(open(out).read())["sizes"]
        assert rows[0]["n"] == 0 and rows[0]["m"] == 0
        assert rows[0]["t_sample_batch_s"] == 0.0

    def test_similarity_ranking_scales_linearly_in_m(self, workdir):
        out = p(workdir, "benchm.json")
        assert cli.main(["bench", "--sizes", "2000,4000,8000",
                         "--degree", "16", "--seed", "2", "--out", out]) == 0
        slope = json.loads(open(out).read())["slope_similar_vs_m"]
        assert 0.7 <= slope <= 1.3
