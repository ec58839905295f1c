"""End-to-end checks of the command-line interface.

Commands run in-process through ags.cli.main so exit codes and file
outputs are observable without a subprocess. Byte-identical reruns are
the backbone: every deterministic command is executed twice and the
output files compared raw.
"""

import json
import os

import numpy as np
import pytest

from ags import cli
from ags.graph import load_edge_list, load_rank_table
from ags.similarity import new_siamese, save_similarity_model

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
                     "--mode", "similar", "--workers", "1",
                     "--out", str(root / "sim.agsr")]) == 0
    assert cli.main(["rank", *graph, "--features", str(root / "x.txt"),
                     "--mode", "diverse", "--fn", "facility", "--workers", "1",
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
        assert manifest["config"]["fanouts"] == "3,2"
        assert manifest["seed"] == 11


class TestDeterminism:
    def test_rank_rerun_byte_identical(self, workdir):
        a, b = p(workdir, "rer-a.agsr"), p(workdir, "rer-b.agsr")
        args = ["rank", *graph_flags(workdir),
                "--features", p(workdir, "x.txt"), "--mode", "similar",
                "--workers", "1", "--seed", "4"]
        assert cli.main([*args, "--out", a]) == 0
        assert cli.main([*args, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_rank_worker_count_invariant(self, workdir):
        one, four = p(workdir, "w1.agsr"), p(workdir, "w4.agsr")
        args = ["rank", *graph_flags(workdir),
                "--features", p(workdir, "x.txt"), "--mode", "diverse"]
        assert cli.main([*args, "--workers", "1", "--out", one]) == 0
        assert cli.main([*args, "--workers", "4", "--out", four]) == 0
        assert open(one, "rb").read() == open(four, "rb").read()

    def test_rank_then_sample_rerun_byte_identical(self, workdir):
        outs = []
        for tag in ("s1", "s2"):
            table = p(workdir, f"{tag}.agsr")
            batch = p(workdir, f"{tag}-batch.json")
            assert cli.main(["rank", *graph_flags(workdir),
                             "--features", p(workdir, "x.txt"),
                             "--mode", "similar", "--workers", "2",
                             "--out", table]) == 0
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
                "--table-sim", p(workdir, "sim.agsr"),
                "--channels", "1", "--epochs", "2", "--seed", "1"]
        assert cli.main([*args, "--out", a]) == 0
        assert cli.main([*args, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


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

    @pytest.mark.parametrize("line", ["replace=true", "fanout=3,2"])
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


class TestTableOfAnotherGraph:
    """A table ranked on another graph with the same n exits 1."""

    @pytest.fixture(scope="class")
    def other_table(self, workdir):
        base = ["--features", p(workdir, "x.txt"), "--labels", p(workdir, "y.txt")]
        assert cli.main(["synth", *base, "--hn", "0.3", "--degree", "8",
                         "--seed", "8", "--out", p(workdir, "other.edges")]) == 0
        assert cli.main(["rank", "--graph", p(workdir, "other.edges"),
                         "--features", p(workdir, "x.txt"), "--mode", "similar",
                         "--workers", "1", "--out", p(workdir, "other.agsr")]) == 0
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
                         "--table-div", other_table,
                         "--channels", "2", "--epochs", "1",
                         "--out", p(workdir, "never7.json")]) == 1
        assert "do not match" in capsys.readouterr().err


class TestLearnedRank:
    def test_learned_similarity_saves_model_sidecar(self, workdir):
        out = p(workdir, "learned.agsr")
        assert cli.main(["rank", *graph_flags(workdir),
                         "--features", p(workdir, "x.txt"),
                         "--labels", p(workdir, "y.txt"),
                         "--mode", "similar", "--sim", "learned",
                         "--sim-epochs", "3", "--seed", "2",
                         "--workers", "1", "--out", out]) == 0
        rt = load_rank_table(out)
        assert rt.mode == "similar"
        with open(out + ".model", "rb") as fh:
            assert fh.read(4) == b"AGSM"

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

    def test_train_demo_channel_table_mismatch_exits_1(self, workdir):
        assert cli.main(["train-demo", *graph_flags(workdir),
                         *data_flags(workdir),
                         "--table-sim", p(workdir, "sim.agsr"),
                         "--channels", "2", "--epochs", "1",
                         "--out", p(workdir, "never4.json")]) == 1

    def test_train_demo_dual_reports_metrics(self, workdir):
        out = p(workdir, "run-dual.json")
        assert cli.main(["train-demo", *graph_flags(workdir),
                         *data_flags(workdir),
                         "--table-sim", p(workdir, "sim.agsr"),
                         "--table-div", p(workdir, "div.agsr"),
                         "--channels", "2", "--combiner", "concat",
                         "--epochs", "2", "--seed", "1", "--out", out]) == 0
        run = json.loads(open(out).read())
        assert run["epochs_run"] == 2
        assert 0.0 <= run["test_micro_f1"] <= 1.0
        assert len(run["loss"]) == 2


class TestBench:
    def test_zero_size_row_reports_zero_work(self, workdir):
        out = p(workdir, "bench0.json")
        assert cli.main(["bench", "--sizes", "0", "--seed", "2",
                         "--workers-list", "1", "--out", out]) == 0
        rows = json.loads(open(out).read())["sizes"]
        assert rows[0]["n"] == 0 and rows[0]["m"] == 0
        assert rows[0]["t_sample_batch_s"] == 0.0

    def test_workers_sweep_identical_and_timed(self, workdir):
        out = p(workdir, "benchw.json")
        assert cli.main(["bench", "--sizes", "400", "--degree", "8",
                         "--seed", "2", "--workers-list", "1,2,4",
                         "--out", out]) == 0
        sweep = json.loads(open(out).read())["sizes"][-1]["similar_workers"]
        assert set(sweep) == {"1", "2", "4"}
        assert all(entry["identical"] for entry in sweep.values())
        assert all(entry["t_s"] >= 0.0 for entry in sweep.values())

    def test_similarity_ranking_scales_linearly_in_m(self, workdir):
        out = p(workdir, "benchm.json")
        assert cli.main(["bench", "--sizes", "2000,4000,8000",
                         "--degree", "16", "--seed", "2",
                         "--workers-list", "1", "--out", out]) == 0
        slope = json.loads(open(out).read())["slope_similar_vs_m"]
        assert 0.7 <= slope <= 1.3
