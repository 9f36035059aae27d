"""The benchmark's workloads: inputs made from a seed, a timed round, output checks.

Every input comes from `gen_synthetic` with the seed the benchmark is given,
and the same seed also seeds network initialisation, batch order, dropout
masks and episode sampling.  The set-up follows the desk-scale criterion-8
configuration of tests/test_acceptance.py (C8): 100 synthetic classes of 20
images at 32x32 split 64/16/20, Conv-4 widths 4/8/8/8 with a cosine head, 12
epochs of SGD at lr 0.2, dropblock meta-dropout (keep 0.9, block 3) on conv3
and conv4 (left out of the meta-test set-up), and 5-way 1-shot episodes with
4 queries per class.  Only the batch differs from C8: 32 instead of 64 (see
BATCH).

A workload is set up with `setup(seed)`, then runs `round()` again and again;
a round is a fixed amount of work and returns (operations, output).  After
the timed part, `check(outputs)` returns the problems found (empty when every
output passes) and the accuracies and losses worth recording.
"""

from __future__ import annotations

import math
from dataclasses import replace

import fsml
import numpy as np
from fsml import DropoutSpec, EpisodeSpec, KnowledgeState, MetaTestConfig, Rng, SplitSpec, SyntheticSpec, TrainConfig

from checks import bitwise_problems, pretrain_log_problems, repeat_problems, report_problems

SYNTHETIC = dict(n_classes=100, samples_per_class=20, image_extent=32, cluster_std=0.1, class_separation=5.0)
SPLIT = (64, 16, 20)
WIDTHS = (4, 8, 8, 8)
CONV_TAGS = ("conv1", "conv2", "conv3", "conv4")
# C8 trains at batch 64, where the dropblock arm stays on the loss plateau at
# ln 64 for all 12 epochs on 3 of 75 seeds tried (208, 304, 323); at batch 32
# all 44 dropblock seeds tried learn, those three included
BATCH = 32
META_LR = 0.2
EPOCHS = 12
META_DROPOUT = DropoutSpec("dropblock", 0.9, frozenset({"conv3", "conv4"}), "meta_training", block_size=3)
TASK_DROPOUT = DropoutSpec("standard", 0.9, frozenset({"conv4"}), "meta_testing")
EPISODE = EpisodeSpec(C=5, K=1, Q_query=4)
# a round runs the first 100 episodes of the 600-episode protocol per arm
EPISODES = 100
FROZEN = MetaTestConfig(Q=600, freeze_meta=True, finetune_steps=5, finetune_lr=1.0)
# lr 1.0 without a frozen backbone collapses accuracy to chance
UNFROZEN = MetaTestConfig(Q=600, freeze_meta=False, finetune_steps=5, finetune_lr=0.1)


def make_views(seed: int):
    """(base, novel) views of the synthetic dataset made from `seed`."""
    ds = fsml.gen_synthetic(SyntheticSpec(seed=seed, **SYNTHETIC))
    base, _, novel = fsml.split_classes(ds, SplitSpec.from_counts(SYNTHETIC["n_classes"], *SPLIT))
    return base, novel


def build_net(n_classes: int, seed: int):
    extent = SYNTHETIC["image_extent"]
    net = fsml.build_conv4(WIDTHS, (1, extent, extent), n_classes, "cosine", Rng(seed).derive("net-init"))
    return net, fsml.partition_params(net, CONV_TAGS)


def pretrain(base, seed: int, meta_dropout: DropoutSpec | None) -> KnowledgeState:
    """The C8 pretrain: 12 epochs of SGD on the base view."""
    net, partition = build_net(base.n_classes, seed)
    cfg = TrainConfig(meta_lr=META_LR, meta_epochs=EPOCHS, batch_size=BATCH, meta_dropout=meta_dropout, seed=seed)
    return fsml.meta_train_pretrain(base, net, partition, cfg)


class PretrainDropblock:
    """A round is one 12-epoch pretrain with dropblock meta-dropout; an operation is one SGD step."""

    operation = "SGD step"
    # the user-facing rate: images per second, BATCH images per step
    rate_name, per_operation = "train_images_per_s", float(BATCH)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.base, self.novel = make_views(seed)

    def round(self):
        state = pretrain(self.base, self.seed, META_DROPOUT)
        return EPOCHS * math.ceil(self.base.n_samples / BATCH), state

    def check(self, states) -> tuple[list[str], dict]:
        problems = []
        blobs = []
        for i, state in enumerate(states):
            problems += pretrain_log_problems(state.log, self.base.n_classes, f"round {i}")
            values = {pid: v.astype(np.float32) for pid, v in state.network.values().items()}
            blob = fsml.dump_params(values)
            problems += bitwise_problems(values, fsml.parse_params(blob), f"round {i} checkpoint round trip")
            blobs.append(blob)
        problems += repeat_problems(blobs, "checkpoint bytes of one seed")
        net, partition = build_net(self.base.n_classes, self.seed)
        fsml.apply_checkpoint(net, fsml.parse_params(blobs[-1]))
        reloaded = KnowledgeState(net, partition, meta_dropout=META_DROPOUT, seed=self.seed)
        report = fsml.evaluate_fewshot(reloaded, self.novel, EPISODE, FROZEN, n_episodes=EPISODES, seed=self.seed)
        problems += report_problems(report, EPISODES, EPISODE.C, EPISODE.Q_query, "reloaded checkpoint")
        return problems, {"epoch_losses": [entry["meta_loss"] for entry in states[0].log],
                          "reloaded_accuracy": report.summary()}


class MetaTest:
    """A round meta-tests a set-up state on EPISODES episodes per arm; an operation is one episode."""

    operation = "episode"
    rate_name, per_operation = "episodes_per_s", 1.0

    def __init__(self, arms: dict[str, MetaTestConfig]):
        self.arms = arms

    def setup(self, seed: int) -> None:
        self.seed = seed
        base, self.novel = make_views(seed)
        # the C8 `none` arm: meta-dropout never fires at meta-test, and
        # without it the set-up pretrain is about 20 % cheaper
        self.state = pretrain(base, seed, None)

    def round(self):
        reports = {
            arm: fsml.evaluate_fewshot(self.state, self.novel, EPISODE, mcfg, n_episodes=EPISODES, seed=self.seed)
            for arm, mcfg in self.arms.items()
        }
        return EPISODES * len(self.arms), reports

    def check(self, rounds) -> tuple[list[str], dict]:
        problems = []
        for arm in self.arms:
            for i, reports in enumerate(rounds):
                problems += report_problems(reports[arm], EPISODES, EPISODE.C, EPISODE.Q_query,
                                            f"arm {arm} round {i}")
            problems += repeat_problems([reports[arm].per_episode_acc for reports in rounds],
                                        f"arm {arm} per-episode accuracies")
        if all(mcfg.freeze_meta for mcfg in self.arms.values()):
            problems += self._frozen_problems()
        return problems, {f"accuracy_{arm}": report.summary() for arm, report in rounds[0].items()}

    def _frozen_problems(self) -> list[str]:
        """meta_test with freeze_meta returns every meta parameter bitwise unchanged."""
        before = self.state.network.values()
        meta_ids = self.state.partition.meta_ids
        episode = fsml.sample_episode(self.novel, EPISODE, Rng(self.seed).derive("frozen-check"))
        problems = []
        for arm, mcfg in self.arms.items():
            adapted = fsml.meta_test(self.state, episode.support, mcfg, Rng(self.seed).derive(f"check-{arm}"))
            after = adapted.network.values()
            problems += bitwise_problems({pid: before[pid] for pid in meta_ids},
                                         {pid: after[pid] for pid in meta_ids},
                                         f"arm {arm}: meta parameters after meta_test")
        return problems + bitwise_problems(before, self.state.network.values(), "trained state after meta_test")


WORKLOADS = {
    "pretrain-dropblock": PretrainDropblock,
    "metatest-frozen": lambda: MetaTest({"none": FROZEN, "D": replace(FROZEN, task_dropout=TASK_DROPOUT)}),
    "metatest-unfrozen": lambda: MetaTest({"none": UNFROZEN}),
}
