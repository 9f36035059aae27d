"""Tests of the benchmark itself: its output checks, its tracer and its contract.

Run with `python -m pytest -q perfbench/tests` from the repository root.
"""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from checks import bitwise_problems, pretrain_log_problems, repeat_problems, report_problems  # noqa: E402
from fsml.evaluate import EvalReport, ci95  # noqa: E402

N_WAY, Q_QUERY = 5, 4


def _report(accs, n_episodes=None, ci_shift=0.0):
    mean, halfwidth = ci95(np.asarray(accs, dtype=np.float64))
    return EvalReport(n_episodes=len(accs) if n_episodes is None else n_episodes, mean_acc=mean,
                      ci95=halfwidth + ci_shift, seed=0, config_hash="", per_episode_acc=tuple(accs))


def _accs(n=40):
    # k / 20 for k cycling through 12..19: a learned, varied, on-grid set
    return [(12 + i % 8) / 20 for i in range(n)]


def test_report_check_accepts_a_consistent_report():
    assert report_problems(_report(_accs()), 40, N_WAY, Q_QUERY, "ok") == []


def test_report_check_rejects_accuracy_off_the_grid():
    accs = _accs()
    accs[7] = 0.123
    problems = report_problems(_report(accs), 40, N_WAY, Q_QUERY, "tampered")
    assert any("not k/20" in p for p in problems)


def test_report_check_rejects_ci95_changed_by_1e_minus_6():
    problems = report_problems(_report(_accs(), ci_shift=1e-6), 40, N_WAY, Q_QUERY, "tampered")
    assert any("ci95" in p for p in problems)


def test_report_check_rejects_wrong_episode_count_and_chance_level():
    assert any("requested" in p for p in report_problems(_report(_accs()), 41, N_WAY, Q_QUERY, "short"))
    chance = [(2 + i % 3) / 20 for i in range(40)]
    assert any("above chance" in p for p in report_problems(_report(chance), 40, N_WAY, Q_QUERY, "chance"))


def test_pretrain_log_check():
    assert pretrain_log_problems([{"meta_loss": 4.0}, {"meta_loss": 1.0}], 64, "ok") == []
    assert pretrain_log_problems([{"meta_loss": 4.0}, {"meta_loss": math.nan}], 64, "nan")
    assert pretrain_log_problems([{"meta_loss": 4.0}, {"meta_loss": 4.1}], 64, "rising")
    assert pretrain_log_problems([{"meta_loss": 5.0}, {"meta_loss": 4.5}], 64, "above ln 64")


def test_bitwise_and_repeat_checks():
    a = {"w": np.array([1.0, 2.0], dtype=np.float32)}
    assert bitwise_problems(a, {"w": a["w"].copy()}, "same") == []
    assert bitwise_problems(a, {"w": a["w"].astype(np.float64)}, "dtype")
    assert bitwise_problems(a, {"w": np.nextafter(a["w"], 3).astype(np.float32)}, "one ulp")
    assert repeat_problems([b"x", b"x"], "same") == []
    assert repeat_problems([b"x", b"y"], "differs")


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    import workloads

    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


_TRACED_TINY = textwrap.dedent("""
    import json, sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import fsml, tracing
    from fsml import DropoutSpec, MetaTestConfig, Rng, SplitSpec, SyntheticSpec, TrainConfig, EpisodeSpec

    def run_once():
        ds = fsml.gen_synthetic(SyntheticSpec(12, 8, image_extent=16, seed=3))
        base, _, novel = fsml.split_classes(ds, SplitSpec.from_counts(12, 6, 0, 6))
        net = fsml.build_conv4((2, 2, 2, 2), (1, 16, 16), 6, "cosine", Rng(0))
        spec = DropoutSpec("standard", 0.9, frozenset({"conv4"}), "meta_training")
        cfg = TrainConfig(meta_lr=0.1, meta_epochs=2, batch_size=16, meta_dropout=spec)
        state = fsml.meta_train_pretrain(base, net, fsml.partition_params(net, ["conv1", "conv2", "conv3", "conv4"]), cfg)
        report = fsml.evaluate_fewshot(state, novel, EpisodeSpec(3, 1, 2),
                                       MetaTestConfig(finetune_steps=2, finetune_lr=0.5), n_episodes=3)
        return fsml.dump_params(state.network.values()).hex(), report.to_json()

    plain = run_once()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    tracer.phase = "round"
    traced = run_once()
    tracer.enabled = False
    metrics = {name: value for name, (value, _) in tracing.per_layer(tracer, 1, 1).items()}
    print(json.dumps({"same": plain == traced, "metrics": metrics}))
""")


def test_tracing_changes_no_byte_and_fills_every_layer_metric():
    out = subprocess.run([sys.executable, "-c", _TRACED_TINY, str(BENCH), str(ROOT / "src")],
                         capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["same"]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in tracing.PER_LAYER]
    assert metrics["ops.conv2d.calls"] > 0 and metrics["tensor.backward.calls"] > 0
    assert metrics["meta.meta_test.calls"] == 3
    assert 0.5 < metrics["nn.make_dropout_mask.kept_fraction"] < 1.0
    # pretrain updates every parameter; frozen meta-test reads only the head's gradient
    assert 0.0 < metrics["tensor.backward.grads_used_ratio"] < 1.0
    assert all(v >= 0 for v in metrics.values())


def test_benchmark_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "metatest-frozen", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


_TINY_GRID = {
    "regime": "pretrain_finetune",
    "dataset": {"synthetic": {"n_classes": 12, "samples_per_class": 8, "image_extent": 16, "seed": 3}},
    "split": {"base": 6, "val": 0, "novel": 6},
    "network": {"widths": [2, 2, 2, 2], "head": "cosine"},
    "partition": {"meta_tags": ["conv1", "conv2", "conv3", "conv4"]},
    "episode": {"C": 3, "K": 1, "Q_query": 2},
    "train": {"meta_lr": 0.1, "meta_epochs": 1, "batch_size": 16,
              "meta_dropout": {"kind": "standard", "keep_prob": 0.9, "placements": ["conv4"],
                               "stage": "meta_training"}},
    "meta_test": {"finetune_steps": 1, "finetune_lr": 0.5,
                  "task_dropout": {"kind": "standard", "keep_prob": 0.9, "placements": ["conv4"],
                                   "stage": "meta_testing"}},
    "n_eval_episodes": 4,
    "seeds": [0, 1],
    "ablation": {"arms": ["none", "M", "D", "M&D"]},
}


def test_ablate_with_two_jobs_writes_the_serial_csv_byte_for_byte(tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(_TINY_GRID))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    tables = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        subprocess.run([sys.executable, "-m", "fsml.cli", "ablate", "--config", str(config), "--out", str(out),
                        "--jobs", str(jobs)], env=env, check=True, capture_output=True, timeout=240)
        tables[jobs] = (out / "ablation.csv").read_bytes()
    assert tables[2] == tables[1]
    rows = list(csv.DictReader(io.StringIO(tables[1].decode())))
    seed_rows = {(r["arm"], r["seed"]) for r in rows if not r["seed"].startswith("mean")}
    assert seed_rows == {(arm, seed) for arm in ("none", "M", "D", "M&D") for seed in ("0", "1")}
    assert sorted(r["arm"] for r in rows if r["seed"] == "mean(2)") == sorted(["none", "M", "D", "M&D"])
    assert all(r["error"] == "" for r in rows)
