"""SHA-256 digests of results that must keep their bytes, for tests/test_golden.py.

The digests cover `EvalReport.to_json()` of small evaluates (frozen; standard,
spatial and dropblock task dropout on conv4; conv4 as task knowledge;
unfrozen; 2 and 12 episodes; serial and with jobs=2), the checkpoint bytes
and per-epoch losses of short trainings (pretrains with no, standard,
spatial and dropblock meta-dropout, and an episodic training with inner
steps), the `ablation.csv` of a small `fsml ablate` grid (serial and with
--jobs 2), and the stdout of `fsml oracle-check`.  A result's
bits depend on the numpy version, the OpenBLAS build and kernel, and the SIMD
targets numpy dispatches to, so each entry of tests/golden_digests.json is
keyed by those (`environment()`).

    PYTHONPATH=src python tests/make_golden_digests.py

adds or replaces the entry of the environment it runs in, and with
OPENBLAS_CORETYPE set (Haswell, Sandybridge, Prescott) that of a forced
kernel.  A change that keeps every byte leaves the file as it is; one that
moves bytes on purpose regenerates it and says which digests moved, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile
from dataclasses import replace

from numpy._core import _multiarray_umath

from fsml import ops
from fsml.checkpoint import dump_params
from fsml.cli import main
from fsml.data import EpisodeSpec, SplitSpec, SyntheticSpec, gen_synthetic, split_classes
from fsml.evaluate import evaluate_fewshot
from fsml.meta import KnowledgeState, MetaTestConfig, TrainConfig, meta_train, meta_train_pretrain
from fsml.nn import STAGE_META_TESTING, STAGE_META_TRAINING, DropoutSpec, build_conv4, partition_params
from fsml.rng import Rng

MANIFEST = pathlib.Path(__file__).with_name("golden_digests.json")

CONV_TAGS = frozenset({"conv1", "conv2", "conv3", "conv4"})
_FROZEN = MetaTestConfig(Q=12, finetune_steps=3, finetune_lr=1.0)


def _on_conv4(kind: str, block: int = 1) -> MetaTestConfig:
    return replace(_FROZEN, task_dropout=DropoutSpec(kind, 0.7, frozenset({"conv4"}), STAGE_META_TESTING, block))


# case -> (meta tags, meta-test config)
EVALUATE_CASES = {
    "frozen": (CONV_TAGS, _FROZEN),
    "task dropout on conv4": (CONV_TAGS, _on_conv4("standard")),
    "spatial task dropout on conv4": (CONV_TAGS, _on_conv4("spatial")),
    "dropblock task dropout on conv4": (CONV_TAGS, _on_conv4("dropblock", 3)),
    "conv4 is task knowledge": (CONV_TAGS - {"conv4"}, _FROZEN),
    "unfrozen": (CONV_TAGS, replace(_FROZEN, freeze_meta=False, finetune_lr=0.1)),
}
# 5-way 1-shot with 4 queries over a novel view of 63 images: 2 episodes read
# fewer query images than the view holds, 12 read more
ESPEC = EpisodeSpec(C=5, K=1, Q_query=4)
EPISODE_COUNTS = (2, 12)


def environment() -> dict:
    """What a result's bits depend on besides the code: numpy, its OpenBLAS, and its SIMD targets on this CPU."""
    features = _multiarray_umath.__cpu_features__
    return {**ops.blas_build(),
            "numpy_cpu_dispatch": [f for f in _multiarray_umath.__cpu_dispatch__ if features.get(f)]}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _meta_dropout(kind: str, keep_prob: float, block: int = 1) -> DropoutSpec:
    return DropoutSpec(kind, keep_prob, frozenset({"conv3", "conv4"}), STAGE_META_TRAINING, block)


# case -> (regime, head classes, training config); the pretrains run 3 epochs
# of the base view at batch 16, the episodic training 2 meta-epochs of 4
# 5-way 1-shot episodes with 2 inner steps each
TRAINING_CASES = {
    "pretrain, no meta-dropout": ("pretrain_finetune", 8, TrainConfig(
        meta_lr=0.2, meta_epochs=3, batch_size=16, seed=7)),
    **{f"pretrain, {spec.kind} meta-dropout": ("pretrain_finetune", 8, TrainConfig(
        meta_lr=0.2, meta_epochs=3, batch_size=16, meta_dropout=spec, seed=7)) for spec in (
        _meta_dropout("standard", 0.8), _meta_dropout("spatial", 0.8), _meta_dropout("dropblock", 0.9, 3))},
    "episodic, inner steps": ("episodic", ESPEC.C, TrainConfig(
        M=4, inner_steps=2, inner_lr=0.5, meta_lr=0.05, meta_epochs=2, meta_dropout=_meta_dropout("standard", 0.8),
        seed=7)),
}


def views():
    """(base, novel) views of 15 synthetic classes of 9 32x32 images: 8 x 9 = 72 base and 7 x 9 = 63 novel images."""
    ds = gen_synthetic(SyntheticSpec(
        n_classes=15, samples_per_class=9, image_extent=32, cluster_std=0.1, class_separation=5.0, seed=7))
    base, _, novel = split_classes(ds, SplitSpec.from_counts(15, 8, 0, 7))
    return base, novel


def trained_state():
    """A Conv-4 pretrained past the uniform-guess loss on 32x32 images, and a novel view of 7 x 9 = 63 images."""
    base, novel = views()
    net = build_conv4((4, 8, 8, 8), (1, 32, 32), 8, "cosine", Rng(7))
    state = meta_train_pretrain(base, net, partition_params(net, CONV_TAGS),
                                TrainConfig(meta_lr=0.2, meta_epochs=30, batch_size=16, seed=7))
    return state, novel


def evaluate_digests() -> dict[str, str]:
    trained, novel = trained_state()
    out = {}
    for case, (tags, mcfg) in EVALUATE_CASES.items():
        state = KnowledgeState(trained.network, partition_params(trained.network, tags), seed=7)
        for n in EPISODE_COUNTS:
            for jobs in (1, 2):
                report = evaluate_fewshot(state, novel, ESPEC, mcfg, n_episodes=n, seed=3, jobs=jobs)
                out[f"evaluate[{case}, n={n}, jobs={jobs}]"] = _sha256(report.to_json())
    return out


def training_digests() -> dict[str, str]:
    """Each training's checkpoint bytes and its per-epoch meta and task losses."""
    base, _ = views()
    out = {}
    for case, (regime, n_classes, cfg) in TRAINING_CASES.items():
        net = build_conv4((4, 8, 8, 8), (1, 32, 32), n_classes, "cosine", Rng(7))
        state = meta_train(regime, base, ESPEC, net, partition_params(net, CONV_TAGS), cfg)
        losses = [(entry["meta_loss"], entry["task_loss"]) for entry in state.log]
        out[f"training[{case}]: checkpoint"] = hashlib.sha256(dump_params(state.network.values())).hexdigest()
        out[f"training[{case}]: losses"] = _sha256(json.dumps([[m.hex(), t.hex()] for m, t in losses]))
    return out


# 4 arms x 2 seeds of 20-epoch pretrains on 16x16 images, through the config
# parser and the CLI; `batch_sizes` and `regimes` take the config's own
ABLATE_CONFIG = {
    "regime": "pretrain_finetune",
    "dataset": {"synthetic": {"n_classes": 12, "samples_per_class": 8, "image_extent": 16, "channels": 1,
                              "cluster_std": 0.1, "class_separation": 4.0, "seed": 5}},
    "split": {"base": 6, "val": 1, "novel": 5},
    "network": {"widths": [4, 8, 8, 8], "head": "cosine", "cosine_scale": 10},
    "partition": {"meta_tags": ["conv1", "conv2", "conv3", "conv4"]},
    "episode": {"C": 3, "K": 2, "Q_query": 3},
    "train": {"meta_lr": 0.1, "momentum": 0.5, "meta_epochs": 20, "batch_size": 12,
              "meta_dropout": {"kind": "dropblock", "keep_prob": 0.9, "placements": ["conv3", "conv4"],
                               "stage": "meta_training", "block_size": 3}},
    "meta_test": {"freeze_meta": True, "finetune_steps": 3, "finetune_lr": 1.0,
                  "task_dropout": {"kind": "spatial", "keep_prob": 0.8, "placements": ["conv4"],
                                   "stage": "meta_testing"}},
    "n_eval_episodes": 10,
    "seeds": [1, 3],
    "ablation": {"arms": ["none", "M", "D", "M&D"], "kinds": ["dropblock"], "placements": [["conv2", "conv3"]]},
}


def ablate_digests() -> dict[str, str]:
    """The `ablation.csv` bytes of `fsml ablate` on ABLATE_CONFIG, serial and, given two CPUs, with --jobs 2."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "config.json"
        config.write_text(json.dumps(ABLATE_CONFIG))
        for jobs in (1, 2) if (os.cpu_count() or 1) >= 2 else (1,):
            run_dir = pathlib.Path(tmp) / f"jobs{jobs}"
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(["ablate", "--config", str(config), "--out", str(run_dir), "--jobs", str(jobs)])
            assert status == 0, f"fsml ablate --jobs {jobs} exited {status}"
            out[f"ablate[jobs={jobs}]"] = hashlib.sha256((run_dir / "ablation.csv").read_bytes()).hexdigest()
    return out


# the slow tier: the C8 set-up of tests/test_acceptance.py (100 synthetic
# classes of 20 32x32 images split 64/16/20, widths 4/8/8/8, a cosine head,
# 12 epochs at lr 0.2) at batch 32, with dropblock meta-dropout (keep 0.9,
# block 3) on conv3 and conv4; seeds 2105 and 2109 end on the loss plateau
BENCH_PRETRAIN_SEEDS = (7, 2401, 2105, 2109)


def bench_pretrain_digests() -> dict[str, str]:
    """Each slow-tier pretrain's checkpoint bytes and the `json.dumps` of its per-epoch meta losses."""
    out = {}
    for seed in BENCH_PRETRAIN_SEEDS:
        ds = gen_synthetic(SyntheticSpec(n_classes=100, samples_per_class=20, image_extent=32, cluster_std=0.1,
                                         class_separation=5.0, seed=seed))
        base, _, _ = split_classes(ds, SplitSpec.from_counts(100, 64, 16, 20))
        net = build_conv4((4, 8, 8, 8), (1, 32, 32), base.n_classes, "cosine", Rng(seed).derive("net-init"))
        cfg = TrainConfig(meta_lr=0.2, meta_epochs=12, batch_size=32, meta_dropout=_meta_dropout("dropblock", 0.9, 3),
                          seed=seed)
        state = meta_train_pretrain(base, net, partition_params(net, CONV_TAGS), cfg)
        checkpoint = dump_params(state.network.values())
        out[f"bench pretrain[seed={seed}]: checkpoint"] = hashlib.sha256(checkpoint).hexdigest()
        out[f"bench pretrain[seed={seed}]: losses"] = _sha256(json.dumps([entry["meta_loss"] for entry in state.log]))
    return out


def oracle_check_digest() -> dict[str, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main(["oracle-check"])
    return {"oracle-check": _sha256(stdout.getvalue())}


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text()) if MANIFEST.exists() else []


def entry_for(env: dict) -> dict | None:
    """The digests recorded for `env`, or None."""
    return next((entry["digests"] for entry in load() if entry["environment"] == env), None)


if __name__ == "__main__":
    env = environment()
    entries = [entry for entry in load() if entry["environment"] != env]
    digests = {**evaluate_digests(), **training_digests(), **ablate_digests(), **oracle_check_digest(),
               **bench_pretrain_digests()}
    entries.append({"environment": env, "digests": digests})
    MANIFEST.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(entries[-1]['digests'])} digests for {json.dumps(env)} to {MANIFEST}")
