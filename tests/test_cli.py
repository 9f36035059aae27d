"""Config schema validation and the end-to-end command-line workflow."""

import csv
import inspect
import json
import logging
import os
import re
import subprocess
import sys

from dataclasses import fields

import numpy as np
import pytest

from fsml import cli, ops
from fsml.checkpoint import dump_params
from fsml.cli import main
from fsml.config import DatasetSource, config_hash, load_config, parse_config
from fsml.data import EpisodeSpec, SplitSpec, SyntheticSpec
from fsml.errors import CheckpointError, ConfigurationError
from fsml.evaluate import AblationGrid
from fsml.meta import MetaTestConfig, TrainConfig
from fsml.nn import Conv4Spec, DropoutSpec, build_conv4


def base_config(out=None, **overrides):
    cfg = {
        "regime": "pretrain_finetune",
        "dataset": {"synthetic": {
            "n_classes": 10, "samples_per_class": 8, "image_extent": 16,
            "cluster_std": 0.05, "class_separation": 2.0, "seed": 3}},
        "split": {"base": 6, "val": 0, "novel": 4},
        "network": {"widths": [2, 2, 2, 2], "head": "cosine", "cosine_scale": 10},
        "partition": {"meta_tags": ["conv1", "conv2", "conv3", "conv4"]},
        "episode": {"C": 2, "K": 1, "Q_query": 2},
        "train": {
            "meta_lr": 0.05, "meta_epochs": 1, "batch_size": 8,
            "meta_dropout": {"kind": "standard", "keep_prob": 0.9,
                             "placements": ["conv3", "conv4"], "stage": "meta_training"}},
        "meta_test": {
            "finetune_steps": 1, "finetune_lr": 0.1,
            "task_dropout": {"kind": "standard", "keep_prob": 0.9,
                             "placements": ["conv4"], "stage": "meta_testing"}},
        "n_eval_episodes": 6,
        "seeds": [0],
    }
    if out is not None:
        cfg["out"] = str(out)
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_config():
    cfg = parse_config(base_config())
    assert cfg.regime == "pretrain_finetune"
    assert cfg.network.widths == (2, 2, 2, 2)
    assert cfg.episode.C == 2
    assert cfg.seeds == (0,)
    assert cfg.meta_test.Q == 6
    assert len(cfg.config_hash) == 64


def test_parse_rejects_unknown_top_key():
    with pytest.raises(ConfigurationError, match="unknown keys"):
        parse_config(base_config(extra_knob=1))


def test_parse_rejects_unknown_nested_key():
    raw = base_config()
    raw["train"]["finetune_stpes"] = 3
    with pytest.raises(ConfigurationError, match="finetune_stpes"):
        parse_config(raw)


def test_parse_rejects_missing_required():
    raw = base_config()
    del raw["episode"]
    with pytest.raises(ConfigurationError, match="missing required"):
        parse_config(raw)


def test_parse_rejects_bool_for_int():
    raw = base_config()
    raw["episode"]["C"] = True
    with pytest.raises(ConfigurationError):
        parse_config(raw)


def test_parse_rejects_both_path_and_synthetic():
    raw = base_config()
    raw["dataset"]["path"] = "x.fsds"
    with pytest.raises(ConfigurationError, match="exactly one"):
        parse_config(raw)


def test_parse_rejects_mixed_split():
    raw = base_config()
    raw["split"] = {"base": 6, "val": [1], "novel": 3}
    with pytest.raises(ConfigurationError):
        parse_config(raw)


def test_parse_explicit_class_split():
    raw = base_config()
    raw["split"] = {"base": [0, 1, 2], "val": [], "novel": [3, 4]}
    cfg = parse_config(raw)
    assert cfg.resolve_split(None).base == frozenset({0, 1, 2})


def test_parse_rejects_cosine_scale_on_linear_head():
    raw = base_config()
    raw["network"] = {"widths": [2, 2, 2, 2], "head": "linear", "cosine_scale": 5}
    with pytest.raises(ConfigurationError, match="cosine_scale"):
        parse_config(raw)


def test_a_cosine_head_without_a_scale_takes_build_conv4s_default():
    raw = base_config()
    del raw["network"]["cosine_scale"]
    network = parse_config(raw).network
    assert network == Conv4Spec((2, 2, 2, 2), "cosine")
    assert network.cosine_scale == inspect.signature(build_conv4).parameters["cosine_scale"].default


def test_n_eval_episodes_below_one_is_named_as_that_key():
    with pytest.raises(ConfigurationError) as exc:
        parse_config(base_config(n_eval_episodes=0))
    assert str(exc.value) == "config.n_eval_episodes must be >= 1, got 0"


def test_parse_rejects_unknown_regime():
    with pytest.raises(ConfigurationError, match="regime"):
        parse_config(base_config(regime="transductive"))


def test_parse_accepts_recommended_dropblock():
    # keep_prob 0.9 with an odd block of 7 on meta placements parses cleanly
    raw = base_config()
    raw["train"]["meta_dropout"] = {"kind": "dropblock", "keep_prob": 0.9,
                                    "placements": ["conv1"], "stage": "meta_training",
                                    "block_size": 7}
    cfg = parse_config(raw)
    assert cfg.train.meta_dropout.block_size == 7


def test_parse_rejects_dropblock_without_block_size():
    raw = base_config()
    raw["train"]["meta_dropout"] = {"kind": "dropblock", "keep_prob": 0.9,
                                    "placements": ["conv1"], "stage": "meta_training"}
    with pytest.raises(ConfigurationError, match="block_size"):
        parse_config(raw)


def test_config_hash_ignores_out_but_not_params():
    a = base_config()
    b = base_config(out="/somewhere/else")
    assert config_hash(a) == config_hash(b)
    c = base_config()
    c["episode"]["C"] = 3
    assert config_hash(a) != config_hash(c)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_config(path)


def test_ablation_section_parses():
    raw = base_config()
    raw["ablation"] = {"arms": ["none", "M"], "kinds": ["standard"],
                       "placements": [["conv3", "conv4"]], "batch_sizes": [8]}
    cfg = parse_config(raw)
    assert len(cfg.ablation.cells()) == 2


def test_ablation_rejects_unknown_arm():
    raw = base_config()
    raw["ablation"] = {"arms": ["none", "Z"]}
    with pytest.raises(ConfigurationError, match="arms"):
        parse_config(raw)


def test_a_config_of_only_required_keys_takes_the_dataclass_defaults():
    cfg = parse_config({
        "regime": "pretrain_finetune",
        "dataset": {"synthetic": {"n_classes": 6, "samples_per_class": 4}},
        "split": {"base": 4, "val": 0, "novel": 2},
        "network": {"widths": [2, 2, 2, 2], "head": "linear"},
        "partition": {"meta_tags": ["conv1", "conv2", "conv3", "conv4"]},
        "episode": {"C": 2, "K": 1},
    })
    assert cfg.train == TrainConfig()
    assert cfg.meta_test == MetaTestConfig()
    assert cfg.meta_test.Q == MetaTestConfig().Q
    assert cfg.episode == EpisodeSpec(2, 1)
    assert cfg.source.synthetic == SyntheticSpec(6, 4)
    # a grid's batch sizes and regimes are the config's own
    assert cfg.ablation == AblationGrid(batch_sizes=(cfg.train.batch_size,), regimes=(cfg.regime,))


# config path -> the dataclass the section is read into, and its fields that are not keys
_SECTIONS = {
    "dataset": (DatasetSource, ()),
    "dataset.synthetic": (SyntheticSpec, ()),
    "split": (SplitSpec, ()),
    "network": (Conv4Spec, ()),
    "episode": (EpisodeSpec, ()),
    "train": (TrainConfig, ("seed",)),
    "train.meta_dropout": (DropoutSpec, ()),
    "meta_test": (MetaTestConfig, ("Q",)),
    "meta_test.task_dropout": (DropoutSpec, ()),
    "ablation": (AblationGrid, ()),
}


def _section(raw: dict, path: str) -> dict:
    for key in path.split("."):
        raw = raw.setdefault(key, {})
    return raw


@pytest.mark.parametrize("path", list(_SECTIONS))
def test_each_section_takes_exactly_its_dataclass_fields(path):
    cls, not_keys = _SECTIONS[path]
    for name in [f.name for f in fields(cls)] + ["not_a_field"]:
        raw = base_config()
        raw["split"] = {"base": [0, 1, 2, 3, 4, 5], "val": [], "novel": [6, 7, 8, 9]}
        # a value no field takes: a key's own error names it
        _section(raw, path)[name] = [[[]]]
        with pytest.raises(ConfigurationError) as exc:
            parse_config(raw)
        message = str(exc.value)
        if name in not_keys or name == "not_a_field":
            assert message == f"config.{path}: unknown keys ['{name}']"
        else:
            assert message.startswith(f"config.{path}.{name}"), message


# (config path, key, a value its dataclass rejects, the error)
_VALUE_ERRORS = [
    ("dataset.synthetic", "n_classes", 1, "config.dataset.synthetic: need n_classes >= 2"),
    ("split", "val", [0], "config.split: split class sets must be disjoint"),
    ("network", "widths", [0, 2, 2, 2], "config.network: widths must be four positive ints, got (0, 2, 2, 2)"),
    ("network", "head", "softmax", "config.network: unknown head kind 'softmax'"),
    ("episode", "C", 1, "config.episode: episodes need C >= 2 ways, got 1"),
    ("train", "M", 0, "config.train: M must be >= 1, got 0"),
    ("train.meta_dropout", "keep_prob", 0, "config.train.meta_dropout: keep_prob must be in (0, 1], got 0.0"),
    ("meta_test", "finetune_lr", 0, "config.meta_test: finetune_lr must be positive, got 0.0"),
    # a valid spec at the wrong stage: the meta-test config rejects it
    ("meta_test.task_dropout", "stage", "meta_training", "config.meta_test: task_dropout must carry stage"),
    ("ablation", "batch_sizes", [0], "config.ablation: ablation batch_sizes must be >= 1, got [0]"),
]


@pytest.mark.parametrize("path, key, value, error", _VALUE_ERRORS, ids=[f"{p}.{k}" for p, k, *_ in _VALUE_ERRORS])
def test_a_value_error_names_its_section(path, key, value, error):
    raw = base_config()
    raw["split"] = {"base": [0, 1, 2, 3, 4, 5], "val": [], "novel": [6, 7, 8, 9]}
    _section(raw, path)[key] = value
    with pytest.raises(ConfigurationError) as exc:
        parse_config(raw)
    assert str(exc.value).startswith(error), str(exc.value)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_a_seed_outside_64_bits_is_rejected_in_the_config_and_on_the_command_line(tmp_path, capsys, seed):
    # an Rng keeps the low 64 bits: seed 2^64 + 5 would train seed 5's bytes under another name
    with pytest.raises(ConfigurationError, match=rf"config.seeds\[1\] must fit in 64 bits, got {seed}"):
        parse_config(base_config(seeds=[0, seed]))
    raw = base_config()
    raw["dataset"]["synthetic"]["seed"] = seed
    with pytest.raises(ConfigurationError, match=rf"config.dataset.synthetic: seed must fit in 64 bits, got {seed}"):
        parse_config(raw)
    with pytest.raises(SystemExit):
        main(["train", "--config", write_config(tmp_path, base_config(out=tmp_path / "o")), "--seed", str(seed)])
    assert f"seed must fit in 64 bits, got {seed}" in capsys.readouterr().err
    assert parse_config(base_config(seeds=[0, 2**64 - 1])).seeds == (0, 2**64 - 1)


@pytest.mark.parametrize("ablation, message", [
    ({"batch_sizes": [0]}, "batch_sizes must be >= 1"),
    ({"placements": [[]]}, "placement must name at least one layer tag"),
    ({"arms": []}, r"axes \['arms'\] are empty"),
    ({"kinds": []}, r"axes \['kinds'\] are empty"),
    ({"placements": []}, r"axes \['placements'\] are empty"),
    ({"batch_sizes": []}, r"axes \['batch_sizes'\] are empty"),
    ({"regimes": []}, r"axes \['regimes'\] are empty"),
    ({"kinds": ["gaussian"]}, "unknown ablation kinds"),
    ({"regimes": ["transductive"]}, "unknown ablation regimes"),
])
def test_ablate_rejects_a_grid_that_cannot_run(tmp_path, capsys, ablation, message):
    raw = base_config(out=tmp_path / "o")
    raw["ablation"] = ablation
    assert main(["ablate", "--config", write_config(tmp_path, raw)]) == 2
    assert re.search(f"error: config.ablation: .*{message}", capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# CLI workflow


def test_gen_data_writes_deterministic_file(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(out=tmp_path / "a"))
    assert main(["gen-data", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "10 classes, 80 samples" in out
    first = (tmp_path / "a" / "dataset.fsds").read_bytes()

    cfg_path2 = write_config(tmp_path, base_config(out=tmp_path / "b"), name="c2.json")
    assert main(["gen-data", "--config", cfg_path2]) == 0
    assert (tmp_path / "b" / "dataset.fsds").read_bytes() == first


@pytest.mark.parametrize("command", ["gen-data", "ablate"])
def test_failed_write_leaves_no_partial_or_temp_file(tmp_path, capsys, monkeypatch, command):
    def failing_write(_, path):
        with open(path, "wb") as fh:
            fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_dataset", failing_write)
    monkeypatch.setattr(cli, "write_ablation_csv", failing_write)
    raw = base_config(out=tmp_path / "o")
    raw["ablation"] = {"arms": ["none"]}
    cfg_path = write_config(tmp_path, raw)
    assert main([command, "--config", cfg_path]) == 2
    assert "disk full" in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


def test_gen_data_requires_synthetic_source(tmp_path, capsys):
    raw = base_config(out=tmp_path)
    raw["dataset"] = {"path": str(tmp_path / "missing.fsds")}
    cfg_path = write_config(tmp_path, raw)
    assert main(["gen-data", "--config", cfg_path]) == 2
    assert "synthetic" in capsys.readouterr().err


def test_train_twice_byte_identical(tmp_path, capsys):
    cfg_a = write_config(tmp_path, base_config(out=tmp_path / "a"), name="a.json")
    cfg_b = write_config(tmp_path, base_config(out=tmp_path / "b"), name="b.json")
    assert main(["train", "--config", cfg_a]) == 0
    assert main(["train", "--config", cfg_b]) == 0
    out = capsys.readouterr().out
    assert re.search(r"seed 0: final meta-loss \d+\.\d{6}", out)
    assert (tmp_path / "a" / "ckpt_seed0.fsml").read_bytes() == \
        (tmp_path / "b" / "ckpt_seed0.fsml").read_bytes()
    sidecar = json.loads((tmp_path / "a" / "ckpt_seed0.meta.json").read_text())
    assert set(sidecar) == {"arch_hash", "config_hash", "regime", "seed",
                            "numpy_version", "openblas_config", "openblas_corename"}
    assert sidecar["numpy_version"] == np.__version__
    log_lines = (tmp_path / "a" / "train_seed0.jsonl").read_text().strip().splitlines()
    assert len(log_lines) == 1
    entry = json.loads(log_lines[0])
    assert entry["epoch"] == 0 and np.isfinite(entry["meta_loss"])


def test_train_seed_flag_overrides_config(tmp_path):
    cfg_path = write_config(tmp_path, base_config(out=tmp_path / "o"))
    assert main(["train", "--config", cfg_path, "--seed", "7"]) == 0
    assert (tmp_path / "o" / "ckpt_seed7.fsml").exists()
    assert not (tmp_path / "o" / "ckpt_seed0.fsml").exists()


def test_train_requires_out(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    assert main(["train", "--config", cfg_path]) == 2
    assert "output directory" in capsys.readouterr().err


def test_eval_reports_and_repeats_bitwise(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(out=tmp_path / "o"))
    assert main(["train", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path]) == 0
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(r"\d+\.\d{2} ± \d+\.\d{2}", line)
    report_path = tmp_path / "o" / "eval_seed0.json"
    first = report_path.read_bytes()
    report = json.loads(first)
    assert report["n_episodes"] == 6
    assert len(report["per_episode_acc"]) == 6
    assert main(["eval", "--config", cfg_path]) == 0
    assert report_path.read_bytes() == first


def test_eval_warns_when_the_openblas_kernel_differs_from_training(tmp_path, capsys, caplog):
    cfg_path = write_config(tmp_path, base_config(out=tmp_path / "o"))
    assert main(["train", "--config", cfg_path]) == 0
    meta_path = tmp_path / "o" / "ckpt_seed0.meta.json"
    sidecar = json.loads(meta_path.read_text())
    assert sidecar["openblas_corename"] == ops.blas_build()["openblas_corename"]
    caplog.set_level(logging.WARNING, logger="fsml")
    assert main(["eval", "--config", cfg_path]) == 0
    assert not [r for r in caplog.records if "kernel" in r.getMessage()]
    report = (tmp_path / "o" / "eval_seed0.json").read_bytes()
    meta_path.write_text(json.dumps({**sidecar, "openblas_corename": "NoSuchCore"}))
    assert main(["eval", "--config", cfg_path]) == 0
    warned = [r.getMessage() for r in caplog.records if "kernel" in r.getMessage()]
    assert len(warned) == 1 and "NoSuchCore" in warned[0] and "ckpt_seed0.fsml" in warned[0]
    # a warning only: the report keeps its bytes
    assert (tmp_path / "o" / "eval_seed0.json").read_bytes() == report


def test_eval_refuses_arch_mismatch_without_force(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(out=tmp_path / "o"))
    assert main(["train", "--config", cfg_path]) == 0
    capsys.readouterr()
    wider = base_config(out=tmp_path / "o")
    wider["network"]["widths"] = [3, 3, 3, 3]
    wider_path = write_config(tmp_path, wider, name="wider.json")
    assert main(["eval", "--config", wider_path]) == 2
    assert "--force" in capsys.readouterr().err


def test_eval_force_overrides_guard_but_shapes_still_checked(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(out=tmp_path / "o"))
    assert main(["train", "--config", cfg_path]) == 0
    wider = base_config(out=tmp_path / "o")
    wider["network"]["widths"] = [3, 3, 3, 3]
    wider_path = write_config(tmp_path, wider, name="wider.json")
    # the hash guard yields to --force; the shape mismatch still fails the load
    assert main(["eval", "--config", wider_path, "--force"]) == 2
    err = capsys.readouterr().err
    assert "--force" not in err


def test_eval_missing_checkpoint(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(out=tmp_path / "empty"))
    assert main(["eval", "--config", cfg_path]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_without_sidecar_needs_force(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(out=tmp_path / "o"))
    assert main(["train", "--config", cfg_path]) == 0
    (tmp_path / "o" / "ckpt_seed0.meta.json").unlink()
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "ckpt_seed0.meta.json" in err and "--force" in err
    assert not (tmp_path / "o" / "eval_seed0.json").exists()
    assert main(["eval", "--config", cfg_path, "--force"]) == 0
    assert (tmp_path / "o" / "eval_seed0.json").exists()


def test_ablate_writes_csv(tmp_path, capsys):
    raw = base_config(out=tmp_path / "o")
    raw["ablation"] = {"arms": ["none", "M", "D", "M&D"], "kinds": ["standard"],
                       "placements": [["conv3", "conv4"]], "batch_sizes": [8]}
    cfg_path = write_config(tmp_path, raw)
    assert main(["ablate", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "ablation: 4 runs, 0 failed" in out
    with open(tmp_path / "o" / "ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "regime"
    # 4 per-seed rows + 4 aggregates
    assert len(rows) == 9
    arms = {r[1] for r in rows[1:]}
    assert arms == {"none", "M", "D", "M&D"}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ablate_logs_progress_and_writes_the_same_csv(tmp_path, caplog, monkeypatch, jobs):
    if int(jobs) > (os.cpu_count() or 1):
        pytest.skip("needs two CPUs")
    csvs = {}
    for level in ("info", "error"):
        raw = base_config(out=tmp_path / level)
        raw["ablation"] = {"arms": ["none", "M"], "kinds": ["standard"], "batch_sizes": [8]}
        monkeypatch.setenv("FSML_LOG", level)
        caplog.clear()
        caplog.set_level(getattr(logging, level.upper()), logger="fsml")
        assert main(["ablate", "--config", write_config(tmp_path, raw), "--jobs", jobs]) == 0
        csvs[level] = (tmp_path / level / "ablation.csv").read_bytes()
        progress = [r.getMessage() for r in caplog.records if r.getMessage().startswith("cell ")]
        if level == "info":
            assert len(progress) == 2
            for i, (arm, line) in enumerate(zip(("none", "M"), progress), 1):
                assert re.fullmatch(rf"cell {i}/2 \(pretrain_finetune, {re.escape(arm)}, standard, seed 0\), "
                                    rf"elapsed \d+\.\ds, ETA \d+\.\ds", line), line
        else:
            assert progress == []
    assert csvs["info"] == csvs["error"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ablate_counts_cells_over_every_regime(tmp_path, caplog, monkeypatch, jobs):
    if int(jobs) > (os.cpu_count() or 1):
        pytest.skip("needs two CPUs")
    raw = base_config(out=tmp_path / "o")
    raw["ablation"] = {"arms": ["none", "M"], "kinds": ["standard"], "batch_sizes": [8],
                       "regimes": ["pretrain_finetune", "episodic"]}
    monkeypatch.setenv("FSML_LOG", "info")
    caplog.set_level(logging.INFO, logger="fsml")
    assert main(["ablate", "--config", write_config(tmp_path, raw), "--jobs", jobs]) == 0
    progress = [r.getMessage() for r in caplog.records if r.getMessage().startswith("cell ")]
    cells = [("pretrain_finetune", "none"), ("pretrain_finetune", "M"), ("episodic", "none"), ("episodic", "M")]
    assert [line.split(", elapsed")[0] for line in progress] == [
        f"cell {i}/4 ({regime}, {arm}, standard, seed 0)" for i, (regime, arm) in enumerate(cells, 1)]


@pytest.mark.parametrize("top_regime", ["pretrain_finetune", "episodic"])
def test_ablate_sizes_each_head_from_the_cell_regime(tmp_path, capsys, monkeypatch, top_regime):
    from fsml import evaluate

    heads = []
    run_cell = evaluate.run_cell

    def recording_run_cell(cell, assets, seed):
        heads.append((cell.regime, assets.build_net(cell.regime, seed)[0].n_classes))
        return run_cell(cell, assets, seed)

    monkeypatch.setattr(evaluate, "run_cell", recording_run_cell)
    raw = base_config(out=tmp_path / "o", regime=top_regime)
    raw["ablation"] = {"arms": ["none"], "kinds": ["standard"], "batch_sizes": [8],
                       "regimes": ["pretrain_finetune", "episodic"]}
    assert main(["ablate", "--config", write_config(tmp_path, raw)]) == 0
    assert "ablation: 2 runs, 0 failed" in capsys.readouterr().out
    # 6 base classes for pretraining, C = 2 ways for episodic training
    assert heads == [("pretrain_finetune", 6), ("episodic", 2)]
    with open(tmp_path / "o" / "ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["pretrain_finetune"] * 2 + ["episodic"] * 2
    assert all(r[-1] == "" for r in rows[1:])


@pytest.mark.parametrize("jobs", ["0", "-1", "cpu_count + 1"])
def test_jobs_outside_one_to_cpu_count_rejected(tmp_path, capsys, jobs):
    limit = os.cpu_count() or 1
    value = str(limit + 1) if jobs == "cpu_count + 1" else jobs
    cfg_path = write_config(tmp_path, base_config(out=tmp_path / "o"))
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", cfg_path, "--jobs", value])
    assert exc.value.code == 2
    assert f"jobs must lie in 1..{limit} (the CPU count), got {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# (subcommand, a flag it does not read, with a value where the flag takes one)
_UNREAD_FLAGS = [
    ("train", ["--jobs", "1"]), ("train", ["--force"]),
    ("gen-data", ["--seed", "1"]), ("gen-data", ["--jobs", "1"]), ("gen-data", ["--force"]),
    ("ablate", ["--force"]),
    ("oracle-check", ["--config", "c.json"]), ("oracle-check", ["--seed", "1"]), ("oracle-check", ["--out", "o"]),
    ("oracle-check", ["--jobs", "1"]), ("oracle-check", ["--force"]),
]


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS, ids=[f"{c} {f[0]}" for c, f in _UNREAD_FLAGS])
def test_a_subcommand_refuses_flags_it_does_not_read(tmp_path, capsys, command, flag):
    cfg_path = write_config(tmp_path, base_config(out=tmp_path / "o"))
    config = ["--config", cfg_path] if command != "oracle-check" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *config, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_ablate_requires_templates(tmp_path, capsys):
    for arm, section, template in (("M", "train", "meta_dropout"), ("D", "meta_test", "task_dropout")):
        raw = base_config(out=tmp_path / "o")
        del raw[section][template]
        raw["ablation"] = {"arms": [arm]}
        cfg_path = write_config(tmp_path, raw)
        assert main(["ablate", "--config", cfg_path]) == 2
        assert template in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_partition_head_tag_rejected_at_startup(tmp_path, capsys):
    raw = base_config(out=tmp_path / "o")
    raw["partition"]["meta_tags"] = ["conv1", "head"]
    cfg_path = write_config(tmp_path, raw)
    assert main(["train", "--config", cfg_path]) == 2
    assert "head" in capsys.readouterr().err
    # nothing was written
    assert not (tmp_path / "o").exists() or not list((tmp_path / "o").iterdir())


def test_invalid_log_level_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FSML_LOG", "chatty")
    cfg_path = write_config(tmp_path, base_config(out=tmp_path / "o"))
    assert main(["train", "--config", cfg_path]) == 2
    assert "FSML_LOG" in capsys.readouterr().err


@pytest.mark.parametrize("level", [None, "error"])
def test_plateau_warning_shows_at_the_default_log_level(tmp_path, level):
    raw = base_config(out=tmp_path / "o")
    raw["train"]["meta_lr"] = 1e-12  # nothing is learned: the loss stays above ln(6)
    env = {k: v for k, v in os.environ.items() if k != "FSML_LOG"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    if level is not None:
        env["FSML_LOG"] = level
    result = subprocess.run([sys.executable, "-m", "fsml.cli", "train", "--config", write_config(tmp_path, raw)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    shown = "WARNING fsml: seed 0: last epoch's meta_loss" in result.stderr
    assert shown == (level is None), result.stderr


def test_checkpoint_refuses_non_float32():
    params = {"conv1.weight": np.zeros((2, 1, 3, 3), dtype=np.float32),
              "head.weight": np.zeros((4, 2), dtype=np.float64)}
    with pytest.raises(CheckpointError, match=r"'head.weight' is float64"):
        dump_params(params)
    params["head.weight"] = params["head.weight"].astype(np.float32)
    assert dump_params(params)


def test_dataset_file_roundtrip_through_cli(tmp_path, capsys):
    gen_cfg = write_config(tmp_path, base_config(out=tmp_path / "data"), name="gen.json")
    assert main(["gen-data", "--config", gen_cfg]) == 0
    raw = base_config(out=tmp_path / "o")
    raw["dataset"] = {"path": str(tmp_path / "data" / "dataset.fsds")}
    cfg_path = write_config(tmp_path, raw, name="file.json")
    assert main(["train", "--config", cfg_path]) == 0
    assert (tmp_path / "o" / "ckpt_seed0.fsml").exists()


def test_oracle_check_passes(capsys):
    assert main(["oracle-check"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("[ok]") for line in lines)
    assert any("bilevel" in line for line in lines)
