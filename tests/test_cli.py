"""Command line flows via main(), plus one real-process smoke test."""

import csv
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import tada
import tada.shards
import tada.training
from tada.cli import main
from tada.data import load_dataset, read_data_manifest
from tada.model import TadaModel
from tada.shards import padded_steps, split_chunks
from test_model_io import rewrite_header
from test_uci import write_fixture

# small dims so the train commands finish in seconds
TINY = ("te_feature_dim=3", "embed_dim=5", "n_queries=4", "n_heads=2",
        "attn_dim=4", "patch_channels=6", "patch_size=2", "merge_factor=2",
        "n_layers=1", "max_epochs=3", "batch_size=16", "patience=0")


def set_args(pairs):
    out = []
    for p in pairs:
        out += ["--set", p]
    return out


def n_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for _ in fh)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--out", str(out), "--counts", "24,8,8", "--features", "2",
               "--rates", "3,6", "--noise", "0.05", "--seed", "1"])
    assert rc == 0
    return str(out)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--data", data_dir, "--out", str(out)] + set_args(TINY))
    assert rc == 0
    return str(out)


def test_synth_writes_dataset(data_dir, capsys):
    for name, want in (("train", 24), ("val", 8), ("test", 8)):
        assert n_lines(os.path.join(data_dir, f"{name}.jsonl")) == want
    assert read_data_manifest(data_dir) == {"D": 2, "task": "sequence", "n_classes": 2}
    meta = json.load(open(os.path.join(data_dir, "gen_meta.json")))
    assert meta["freqs"] == [3.0, 5.0]
    assert meta["config"]["rates"] == [3.0, 6.0] and meta["config"]["noise"] == 0.05


def test_synth_ratio_split(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path), "--n", "40", "--features", "2",
               "--rates", "3,6", "--ratios", "0.8,0.1,0.1", "--seed", "0"])
    assert rc == 0
    assert "synth: wrote 32/4/4" in capsys.readouterr().out


def test_synth_same_seed_is_byte_identical(tmp_path):
    args = ["--counts", "12,4,4", "--features", "2", "--rates", "3,6", "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a)] + args) == 0
    assert main(["synth", "--out", str(b)] + args) == 0
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "gen_meta.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_rejects_mismatched_rates(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path), "--features", "3",
               "--rates", "1,2", "--counts", "4,2,2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--rates", "0,0"], ["--rates=-1,2"], ["--rates", "nan,1"],
                                  ["--noise=-1"], ["--noise", "nan"], ["--freqs", "3,inf"],
                                  ["--offset-scale", "nan"]])
def test_synth_rejects_generator_settings_that_crash(tmp_path, capsys, args):
    # tracebacks or silently accepted before; none of these can loop
    rc = main(["synth", "--out", str(tmp_path), "--features", "2", "--rates", "3,6",
               "--counts", "4,2,2"] + args)
    assert rc == 2
    assert "error: synth:" in capsys.readouterr().err


def test_synth_many_features_without_rates_exits_2(tmp_path, capsys):
    # the default rates 2 * 2^d overflowed a float at 1024 features
    rc = main(["synth", "--out", str(tmp_path), "--features", "1100", "--counts", "4,2,2"])
    assert rc == 2
    assert "give --rates" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_synth_refuses_no_samples(tmp_path, capsys, n):
    rc = main(["synth", "--out", str(tmp_path), "--n", n, "--features", "2", "--rates", "3,6"])
    assert rc == 2
    assert "error: synth: need n_samples >= 1" in capsys.readouterr().err


def run_cli(args, timeout=120):
    """``python -m tada.cli`` in a child process importing this tada."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tada.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-m", "tada.cli"] + args, capture_output=True,
                          text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("args", [["--features", "0"], ["--features", "2", "--rates", "1,inf"],
                                  ["--features", "2", "--rates", "1e-300,1e-300"]])
def test_synth_settings_that_hang_exit_2(tmp_path, args):
    # these used to loop forever, so they run in a child with a timeout
    proc = run_cli(["synth", "--out", str(tmp_path), "--counts", "4,2,2"] + args, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: synth:")


def _unwritable_args(command, tmp_path, data_dir, run_dir):
    afile = tmp_path / "afile"
    afile.write_text("a regular file\n")
    nodir = tmp_path / "nodir"
    model = os.path.join(run_dir, "model.bin")
    if command == "convert":
        csv_path = tmp_path / "activity.csv"
        write_fixture(csv_path, n_steps=200)
        return ["convert", "--csv", str(csv_path), "--out", str(afile / "d")], afile / "d"
    return {
        "synth": (["synth", "--out", str(afile / "d"), "--counts", "4,2,2", "--features", "2",
                   "--rates", "3,6"], afile / "d"),
        "train": (["train", "--data", data_dir, "--out", str(afile / "run")] + set_args(TINY),
                  afile / "run"),
        "eval": (["eval", "--model", model, "--data", data_dir, "--out",
                  str(nodir / "m.csv")], nodir / "m.csv"),
        "export-attention": (["export-attention", "--model", model, "--data", data_dir,
                              "--out", str(nodir / "x.csv")], nodir / "x.csv"),
    }[command]


@pytest.mark.parametrize("command", ["synth", "convert", "train", "eval", "export-attention"])
def test_unwritable_out_exits_2(command, tmp_path, data_dir, run_dir, capsys):
    args, target = _unwritable_args(command, tmp_path, data_dir, run_dir)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


def test_convert_splits_windows(tmp_path, capsys):
    csv_path = tmp_path / "activity.csv"
    write_fixture(csv_path, n_steps=500)
    out = tmp_path / "data"
    rc = main(["convert", "--csv", str(csv_path), "--out", str(out),
               "--window", "50", "--seed", "0"])
    assert rc == 0
    assert "convert: 10 windows -> 8/1/1" in capsys.readouterr().out
    assert read_data_manifest(str(out)) == {"D": 12, "task": "step", "n_classes": 7}
    info = json.load(open(out / "convert_info.json"))
    assert info["n_samples"] == 10 and info["window_steps"] == 50


def test_train_writes_artifacts(run_dir, data_dir, capsys):
    for name in ("model.bin", "manifest.json", "metrics.csv"):
        assert os.path.exists(os.path.join(run_dir, name))
    man = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert man["config"]["n_queries"] == 4
    assert man["dataset"]["n_train"] == 24 and man["dataset"]["n_test"] == 8
    assert len(man["history"]) == man["epochs_run"] == 3
    assert set(man["metrics"]) == {"auroc", "auprc", "accuracy"}


def test_train_validation_overflow_exits_3(tmp_path, data_dir, monkeypatch, capsys):
    from test_training import overflowing_logits
    monkeypatch.setattr(TadaModel, "batch_logits", overflowing_logits)
    with np.errstate(invalid="ignore"):
        rc = main(["train", "--data", data_dir, "--out", str(tmp_path)] + set_args(TINY))
    assert rc == 3
    assert "validation at epoch 0" in capsys.readouterr().err


@pytest.mark.parametrize("batch_size, failure", [
    (1, "non-finite loss"), (2, "non-finite gradient for parameter 'te.embed'")])
def test_diverging_train_prints_no_numpy_warnings(tmp_path, batch_size, failure, monkeypatch,
                                                  capfd):
    # beta2 = 0 makes Adam's step m/|g|: the run diverges within epoch 0.
    # Batches of one never reach the shard worker; batches of two do.
    import tada.shards
    monkeypatch.setattr(tada.shards, "shard_processes", lambda: 2)
    for var in tada.shards.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n", "96"]) == 0
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run")]
              + set_args(("beta2=0", "keyvalue_variant=setting2", f"batch_size={batch_size}",
                          "n_layers=3", "max_epochs=3")))
    err = capfd.readouterr().err
    assert rc == 3
    assert err == f"error: {failure} at epoch 0\n"


def test_train_rerun_is_byte_identical(tmp_path, data_dir):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["train", "--data", data_dir] + set_args(TINY)
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("model.bin", "manifest.json", "metrics.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_rerun_with_partial_chunks_is_byte_identical(tmp_path, data_dir):
    # batches of 5: training, validation (8) and test (8) all end on a
    # partial batch
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["train", "--data", data_dir] + set_args(TINY + ("batch_size=5",))
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("model.bin", "manifest.json", "metrics.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_multi_seed_aggregates(tmp_path, data_dir, capsys):
    rc = main(["train", "--data", data_dir, "--out", str(tmp_path),
               "--seeds", "0,1"] + set_args(TINY))
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed 0:" in out and "seed 1:" in out and "auroc:" in out and "+/-" in out
    for seed in (0, 1):
        assert (tmp_path / f"seed{seed}" / "model.bin").exists()
    agg = json.load(open(tmp_path / "aggregate.json"))
    assert agg["seeds"] == [0, 1] and set(agg["per_seed"]) == {"0", "1"}
    seen = [agg["per_seed"][s]["auroc"] for s in ("0", "1")]
    assert np.isclose(agg["auroc"]["mean"], np.mean(seen))


@pytest.mark.parametrize("keep", ["one-class", "empty"])
def test_train_keeps_the_model_when_the_test_split_cannot_be_scored(tmp_path, data_dir,
                                                                   run_dir, keep, capsys):
    import shutil
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    lines = (data / "test.jsonl").read_text().splitlines()
    kept = [ln for ln in lines if json.loads(ln)["label"] == 0] if keep == "one-class" else []
    (data / "test.jsonl").write_text("".join(ln + "\n" for ln in kept))
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data), "--out", str(out)] + set_args(TINY))
    assert rc == 2
    assert "test split" in capsys.readouterr().err
    # the trained model is saved, and it is the one a scorable run saves
    with open(os.path.join(run_dir, "model.bin"), "rb") as fh:
        assert (out / "model.bin").read_bytes() == fh.read()


def test_train_unknown_override(tmp_path, data_dir, capsys):
    rc = main(["train", "--data", data_dir, "--out", str(tmp_path),
               "--set", "nonsense=1"])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["summary_dim", "fusion_tokens"])
def test_train_rejects_removed_config_keys(tmp_path, data_dir, key, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 8}))
    rc = main(["train", "--data", data_dir, "--out", str(tmp_path / "out"),
               "--config", str(config)])
    assert rc == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err


def test_train_missing_split_file(tmp_path, data_dir, capsys):
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(data_dir, broken)
    (broken / "val.jsonl").unlink()
    rc = main(["train", "--data", str(broken), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "missing split file" in capsys.readouterr().err


def test_eval_matches_training_metrics(run_dir, data_dir, tmp_path, capsys):
    out_csv = tmp_path / "eval.csv"
    rc = main(["eval", "--model", os.path.join(run_dir, "model.bin"),
               "--data", data_dir, "--split", "test", "--out", str(out_csv)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    trained = open(os.path.join(run_dir, "metrics.csv")).read().strip()
    assert line == trained
    assert out_csv.read_text().strip() == trained
    # plain parseable floats, no stray scalar reprs
    assert len([float(x) for x in line.split(",")]) == 3


def test_eval_rejects_mismatched_dataset(run_dir, tmp_path, capsys):
    other = tmp_path / "d3"
    assert main(["synth", "--out", str(other), "--counts", "8,4,4",
                 "--features", "3", "--rates", "2,4,8", "--seed", "0"]) == 0
    rc = main(["eval", "--model", os.path.join(run_dir, "model.bin"),
               "--data", str(other)])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def test_eval_rejects_corrupt_model(data_dir, tmp_path, capsys):
    bad = tmp_path / "model.bin"
    bad.write_bytes(b"not a model at all")
    rc = main(["eval", "--model", str(bad), "--data", data_dir])
    assert rc == 2
    assert "magic" in capsys.readouterr().err


def test_eval_rejects_invalid_model_header(run_dir, data_dir, tmp_path, capsys):
    path = tmp_path / "model.bin"
    path.write_bytes(open(os.path.join(run_dir, "model.bin"), "rb").read())
    rewrite_header(str(path), lambda h: h["config"].update(n_heads="2"))
    rc = main(["eval", "--model", str(path), "--data", data_dir])
    assert rc == 2
    assert "invalid model header" in capsys.readouterr().err


def _with_step_summary(header):
    """The layout of a model file from before the step summary was removed."""
    header["config"]["summary_dim"] = 6
    at = [name for name, _ in header["params"]].index("te.key.w")
    header["params"][at:at] = [["te.fit.w1", [4, 6]], ["te.fit.b1", [6]],
                               ["te.fit.w2", [6, 6]], ["te.fit.b2", [6]]]


@pytest.mark.parametrize("edit, message", [
    (_with_step_summary, "unknown key 'summary_dim'"),
    (lambda h: h["params"].insert(1, ["te.fit.w1", [4, 6]]),
     "unexpected parameter te.fit.w1"),
], ids=["old-layout", "te-fit-param"])
def test_eval_rejects_model_with_step_summary(run_dir, data_dir, tmp_path, edit,
                                              message, capsys):
    path = tmp_path / "model.bin"
    path.write_bytes(open(os.path.join(run_dir, "model.bin"), "rb").read())
    rewrite_header(str(path), edit)
    rc = main(["eval", "--model", str(path), "--data", data_dir])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_eval_empty_split(run_dir, data_dir, tmp_path, capsys):
    import shutil
    empty = tmp_path / "empty"
    shutil.copytree(data_dir, empty)
    (empty / "test.jsonl").write_text("")
    rc = main(["eval", "--model", os.path.join(run_dir, "model.bin"),
               "--data", str(empty), "--split", "test"])
    assert rc == 2
    assert "empty" in capsys.readouterr().err


# a tada eval whose chunks cross the worker rule once CHUNK_STEPS is lowered
# to argv[1]; prints "worker" to stderr for each step that forked one
EVAL_PAST_THE_RULE = """
import sys
import tada.shards, tada.training
tada.training.CHUNK_STEPS = int(sys.argv[1])
enter = tada.shards.ShardedStep.__enter__
def counted(self):
    step = enter(self)
    if step._proc is not None:
        print("worker", file=sys.stderr)
    return step
tada.shards.ShardedStep.__enter__ = counted
from tada.cli import main
sys.exit(main(sys.argv[2:]))
"""


def rule_crossing_chunk_steps(run_dir, data_dir):
    """A CHUNK_STEPS that puts a full chunk in the worker's share of the test split."""
    model = TadaModel.load(os.path.join(run_dir, "model.bin"))
    preps = [model.prepare(s) for s in load_dataset(os.path.join(data_dir, "test.jsonl"), 2)]
    steps = 2 * max(len(p.times) for p in preps)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tada.training, "CHUNK_STEPS", steps)
        sizes = padded_steps(tada.training._chunks(preps, model.cfg.batch_size))
    assert sum(sizes[i] for i in split_chunks(sizes)[1]) >= steps
    return steps


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods()
                    or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs fork, two CPUs and an affinity call")
def test_eval_past_the_rule_prints_the_same_bytes_on_one_or_two_cpus(run_dir, data_dir):
    steps = rule_crossing_chunk_steps(run_dir, data_dir)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tada.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    args = [sys.executable, "-c", EVAL_PAST_THE_RULE, str(steps), "eval",
            "--model", os.path.join(run_dir, "model.bin"), "--data", data_dir, "--split", "test"]
    one_cpu = min(os.sched_getaffinity(0))
    runs = [subprocess.run(args, capture_output=True, env=env, timeout=120, preexec_fn=pin)
            for pin in (None, lambda: os.sched_setaffinity(0, {one_cpu}))]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    two, one = runs
    assert two.stderr == b"worker\n" and one.stderr == b""
    assert two.stdout == one.stdout
    with open(os.path.join(run_dir, "metrics.csv"), encoding="utf-8") as fh:
        assert two.stdout.decode().strip() == fh.read().strip()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_eval_worker_death_exits_3(run_dir, data_dir, monkeypatch, capsys):
    monkeypatch.setattr(tada.training, "CHUNK_STEPS", rule_crossing_chunk_steps(run_dir, data_dir))
    monkeypatch.setattr(tada.shards, "shard_processes", lambda: 2)
    parent, batch_logits = os.getpid(), TadaModel.batch_logits

    def dying(self, preps):
        if os.getpid() != parent:
            os._exit(9)
        return batch_logits(self, preps)

    monkeypatch.setattr(TadaModel, "batch_logits", dying)
    rc = main(["eval", "--model", os.path.join(run_dir, "model.bin"),
               "--data", data_dir, "--split", "test"])
    assert rc == 3
    assert capsys.readouterr().err == "error: shard worker died (exit code 9)\n"
    assert multiprocessing.active_children() == []


def test_gradcheck_passes_and_reports_modules(capsys):
    rc = main(["gradcheck"])
    out = capsys.readouterr().out
    assert rc == 0
    for label in ("temporal-embedding", "local-attention", "mixer", "fusion-classifier"):
        assert f"{label}: max rel err" in out
    assert "end-to-end: max rel err" in out and "gradcheck OK" in out


def test_gradcheck_passes_in_hard_window_mode(capsys):
    # window edges drawn off the anchor lattice stay clear of the step times
    assert main(["gradcheck", "--set", "window_mode=hard"]) == 0
    assert "gradcheck OK" in capsys.readouterr().out


def test_gradcheck_threshold_failure(capsys):
    small = ["--set=" + s for s in ("embed_dim=4", "n_queries=4", "attn_dim=4",
                                    "patch_channels=4", "n_layers=1")]
    # a coarse step leaves truncation error far above the threshold
    rc = main(["gradcheck", "--threshold", "1e-12", "--eps", "1e-2"] + small)
    assert rc == 3
    assert "gradcheck FAILED" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--eps=0", "--eps=nan", "--eps=-1e-5", "--eps=inf",
                                  "--threshold=nan", "--threshold=-1", "--threshold=inf"])
def test_gradcheck_rejects_a_step_or_threshold_that_checks_nothing(flag, capsys):
    assert main(["gradcheck", flag]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag.split('=')[0]} ")


def test_gradcheck_set_seed_overrides_seed_flag(capsys):
    small = ["--set=" + s for s in ("embed_dim=4", "n_queries=4", "attn_dim=4",
                                    "patch_channels=4", "n_layers=1")]
    outs = []
    for extra in (["--seed", "5", "--set", "seed=0"], [], ["--seed", "5"]):
        assert main(["gradcheck", "--threshold", "1"] + extra + small) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != outs[2]


def read_attention_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def test_export_attention_dump(tmp_path, data_dir, capsys):
    run = tmp_path / "run1q"
    one_query = TINY[:3] + ("n_queries=1", "patch_size=1", "merge_factor=1",
                            "n_layers=1", "n_heads=2", "attn_dim=4",
                            "patch_channels=6", "max_epochs=1", "batch_size=16")
    assert main(["train", "--data", data_dir, "--out", str(run)]
                + set_args(one_query)) == 0
    out_csv = tmp_path / "attn.csv"
    rc = main(["export-attention", "--model", str(run / "model.bin"),
               "--data", data_dir, "--split", "test", "--out", str(out_csv)])
    assert rc == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == ("head,query_index,anchor_time,time_index,time,"
                      "feature,weight,window_radius")
    rows = read_attention_csv(out_csv)
    heads = {r["head"] for r in rows}
    feats = {r["feature"] for r in rows}
    times = {int(r["time_index"]) for r in rows}
    assert heads == {"0", "1"} and feats == {"0", "1"}
    assert all(r["query_index"] == "0" for r in rows)
    assert len(rows) == 2 * 1 * len(times) * 2
    # radius is a per-feature quantity, constant across the dump
    for d in feats:
        assert len({r["window_radius"] for r in rows if r["feature"] == d}) == 1
    # soft-window weights normalize per (head, query, feature), or vanish
    for h in heads:
        for d in feats:
            s = sum(float(r["weight"]) for r in rows
                    if r["head"] == h and r["feature"] == d)
            assert min(abs(s - 1.0), abs(s)) < 1e-9
    # hard override still produces a normalized-or-empty dump
    rc = main(["export-attention", "--model", str(run / "model.bin"),
               "--data", data_dir, "--split", "test", "--out", str(out_csv),
               "--window-mode", "hard"])
    assert rc == 0
    for r in read_attention_csv(out_csv):
        assert float(r["weight"]) >= 0.0


def test_export_attention_needs_local_attention(tmp_path, data_dir, capsys):
    run = tmp_path / "nodla"
    cfg = TINY + ("no_dla=true", "max_epochs=1")
    assert main(["train", "--data", data_dir, "--out", str(run)]
                + set_args(cfg)) == 0
    rc = main(["export-attention", "--model", str(run / "model.bin"),
               "--data", data_dir, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "without local attention" in capsys.readouterr().err


def test_export_attention_unknown_sample(run_dir, data_dir, tmp_path, capsys):
    rc = main(["export-attention", "--model", os.path.join(run_dir, "model.bin"),
               "--data", data_dir, "--sample", "no-such-id",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "not in split" in capsys.readouterr().err


def test_real_process_invocation(tmp_path):
    # the child imports tada from where this process found it
    out = tmp_path / "synth"
    proc = run_cli(["synth", "--out", str(out), "--counts", "12,4,4", "--features", "2",
                    "--rates", "3,6", "--seed", "0"])
    assert proc.returncode == 0, proc.stderr
    assert "synth: wrote 12/4/4" in proc.stdout
