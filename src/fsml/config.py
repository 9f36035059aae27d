"""Experiment configuration: JSON schema, strict validation, hashing, builders.

A config file is plain JSON.  Validation is exhaustive: every section checks
its keys against a closed set and rejects anything it does not know, because a
silently ignored typo ("finetune_stpes") would corrupt a whole ablation grid.
Two fingerprints are derived from a config: `config_hash` covers everything
that affects results (the output directory is excluded), and `arch_hash`
covers only what a checkpoint's tensors must agree with.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .data import (
    Dataset,
    EpisodeSpec,
    SplitSpec,
    SyntheticSpec,
    gen_synthetic,
    load_dataset,
    split_classes,
)
from .errors import ConfigurationError
from .evaluate import _ARMS, AblationGrid
from .meta import REGIMES, MetaTestConfig, TrainConfig
from .nn import (
    _HEADS,
    _KINDS,
    _STAGES,
    DropoutSpec,
    Network,
    ParamPartition,
    build_conv4,
    partition_params,
)
from .rng import Rng


def _check_keys(obj: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigurationError(f"{where}: missing required keys {missing}")


def _typed(obj: dict, key: str, kinds, where: str, default=None):
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) and bool not in (kinds if isinstance(kinds, tuple) else (kinds,)):
        raise ConfigurationError(f"{where}.{key} must not be a boolean")
    if not isinstance(value, kinds):
        names = kinds.__name__ if not isinstance(kinds, tuple) else "/".join(k.__name__ for k in kinds)
        raise ConfigurationError(f"{where}.{key} must be {names}, got {type(value).__name__}")
    return value


def _int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise ConfigurationError(f"{where} must be a list of integers")
    return list(value)


def parse_dropout_spec(obj: dict, where: str) -> DropoutSpec:
    _check_keys(obj, where, ("kind", "keep_prob", "placements", "stage"), ("block_size",))
    kind = _typed(obj, "kind", str, where)
    keep_prob = float(_typed(obj, "keep_prob", (int, float), where))
    placements = obj["placements"]
    if not isinstance(placements, list) or not all(isinstance(p, str) for p in placements):
        raise ConfigurationError(f"{where}.placements must be a list of layer tags")
    stage = _typed(obj, "stage", str, where)
    if stage not in _STAGES:
        raise ConfigurationError(f"{where}.stage must be one of {list(_STAGES)}, got {stage!r}")
    block_size = _typed(obj, "block_size", int, where, default=1 if kind != "dropblock" else None)
    if block_size is None:
        raise ConfigurationError(f"{where}: dropblock requires block_size")
    return DropoutSpec(kind=kind, keep_prob=keep_prob, placements=frozenset(placements),
                       stage=stage, block_size=block_size)


@dataclass(frozen=True)
class DatasetSource:
    """Either a path to an FSDS file or a synthetic generator spec."""

    path: str | None = None
    synthetic: SyntheticSpec | None = None

    def load(self) -> Dataset:
        if self.path is not None:
            return load_dataset(self.path)
        return gen_synthetic(self.synthetic)


@dataclass(frozen=True)
class NetworkFactory:
    """Builds the configured Conv-4 and its parameter partition.

    Picklable on purpose: ablation workers receive it across process
    boundaries.  Calling it with the same seed always yields bitwise-identical
    initial parameters.
    """

    widths: tuple[int, int, int, int]
    input_shape: tuple[int, int, int]
    n_classes: int
    head_kind: str
    cosine_scale: float
    meta_tags: frozenset[str]

    def __call__(self, seed: int) -> tuple[Network, ParamPartition]:
        net = build_conv4(self.widths, self.input_shape, self.n_classes,
                          self.head_kind, Rng(seed), cosine_scale=self.cosine_scale)
        return net, partition_params(net, self.meta_tags)

    def arch_hash(self) -> str:
        payload = {
            "widths": list(self.widths),
            "input_shape": list(self.input_shape),
            "n_classes": self.n_classes,
            "head": self.head_kind,
            "cosine_scale": self.cosine_scale,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class ExperimentConfig:
    regime: str
    source: DatasetSource
    split: SplitSpec | tuple[int, int, int]
    widths: tuple[int, int, int, int]
    head_kind: str
    cosine_scale: float
    meta_tags: frozenset[str]
    train: TrainConfig
    meta_test: MetaTestConfig
    episode: EpisodeSpec
    n_eval_episodes: int
    seeds: tuple[int, ...]
    out: str | None
    ablation: AblationGrid | None
    config_hash: str
    raw: dict = field(repr=False, default_factory=dict)

    def resolve_split(self, ds: Dataset) -> SplitSpec:
        if isinstance(self.split, SplitSpec):
            return self.split
        base, val, novel = self.split
        return SplitSpec.from_counts(ds.n_classes, base, val, novel)

    def views(self, ds: Dataset) -> tuple[Dataset, Dataset, Dataset]:
        return split_classes(ds, self.resolve_split(ds))

    def network_factory(self, ds: Dataset, regime: str | None = None) -> NetworkFactory:
        """Head width follows the regime: base classes for pretraining, C for episodic.

        `regime` defaults to the config's own; an ablation cell passes its own.
        """
        if (regime or self.regime) == "pretrain_finetune":
            n_classes = len(self.resolve_split(ds).base)
        else:
            n_classes = self.episode.C
        return NetworkFactory(self.widths, ds.image_shape, n_classes,
                              self.head_kind, self.cosine_scale, self.meta_tags)


def config_hash(raw: dict) -> str:
    """sha256 of the canonical JSON form; `out` never affects results."""
    scrubbed = {k: v for k, v in raw.items() if k != "out"}
    canon = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


_TOP_KEYS_REQ = ("regime", "dataset", "split", "network", "partition", "episode")
_TOP_KEYS_OPT = ("train", "meta_test", "n_eval_episodes", "seeds", "out", "ablation")


def parse_config(raw: dict) -> ExperimentConfig:
    _check_keys(raw, "config", _TOP_KEYS_REQ, _TOP_KEYS_OPT)

    regime = _typed(raw, "regime", str, "config")
    if regime not in REGIMES:
        raise ConfigurationError(f"config.regime must be one of {list(REGIMES)}, got {regime!r}")

    source = _parse_dataset(raw["dataset"])
    split = _parse_split(raw["split"])
    widths, head_kind, cosine_scale = _parse_network(raw["network"])
    meta_tags = _parse_partition(raw["partition"])
    episode = _parse_episode(raw["episode"])

    n_eval = _typed(raw, "n_eval_episodes", int, "config", default=600)
    train = _parse_train(raw.get("train", {}))
    meta_test = _parse_meta_test(raw.get("meta_test", {}), n_eval)

    seeds = tuple(_int_list(raw.get("seeds", [0]), "config.seeds"))
    if not seeds:
        raise ConfigurationError("config.seeds must not be empty")
    out = _typed(raw, "out", str, "config")

    ablation = _parse_ablation(raw["ablation"], regime, train.batch_size) if "ablation" in raw else None

    return ExperimentConfig(
        regime=regime, source=source, split=split,
        widths=widths, head_kind=head_kind, cosine_scale=cosine_scale,
        meta_tags=meta_tags, train=train, meta_test=meta_test, episode=episode,
        n_eval_episodes=n_eval, seeds=seeds, out=out, ablation=ablation,
        config_hash=config_hash(raw), raw=raw,
    )


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")
    return parse_config(raw)


def _parse_dataset(obj) -> DatasetSource:
    _check_keys(obj, "config.dataset", (), ("path", "synthetic"))
    has_path = "path" in obj
    has_synth = "synthetic" in obj
    if has_path == has_synth:
        raise ConfigurationError("config.dataset needs exactly one of 'path' or 'synthetic'")
    if has_path:
        return DatasetSource(path=_typed(obj, "path", str, "config.dataset"))
    s = obj["synthetic"]
    where = "config.dataset.synthetic"
    _check_keys(s, where, ("n_classes", "samples_per_class"),
                ("image_extent", "channels", "cluster_std", "class_separation", "seed"))
    spec = SyntheticSpec(
        n_classes=_typed(s, "n_classes", int, where),
        samples_per_class=_typed(s, "samples_per_class", int, where),
        image_extent=_typed(s, "image_extent", int, where, default=32),
        channels=_typed(s, "channels", int, where, default=1),
        cluster_std=float(_typed(s, "cluster_std", (int, float), where, default=0.15)),
        class_separation=float(_typed(s, "class_separation", (int, float), where, default=4.0)),
        seed=_typed(s, "seed", int, where, default=0),
    )
    return DatasetSource(synthetic=spec)


def _parse_split(obj) -> SplitSpec | tuple[int, int, int]:
    _check_keys(obj, "config.split", ("base", "val", "novel"))
    values = [obj["base"], obj["val"], obj["novel"]]
    if all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        return (values[0], values[1], values[2])
    if all(isinstance(v, list) for v in values):
        return SplitSpec(
            base=frozenset(_int_list(values[0], "config.split.base")),
            val=frozenset(_int_list(values[1], "config.split.val")),
            novel=frozenset(_int_list(values[2], "config.split.novel")),
        )
    raise ConfigurationError("config.split: base/val/novel must be all counts or all class lists")


def _parse_network(obj) -> tuple[tuple[int, int, int, int], str, float]:
    _check_keys(obj, "config.network", ("widths", "head"), ("cosine_scale",))
    widths = _int_list(obj["widths"], "config.network.widths")
    if len(widths) != 4:
        raise ConfigurationError(f"config.network.widths must list 4 widths, got {len(widths)}")
    head = _typed(obj, "head", str, "config.network")
    if head not in _HEADS:
        raise ConfigurationError(f"config.network.head must be one of {list(_HEADS)}, got {head!r}")
    scale = float(_typed(obj, "cosine_scale", (int, float), "config.network", default=10.0))
    if "cosine_scale" in obj and head != "cosine":
        raise ConfigurationError("config.network.cosine_scale only applies to the cosine head")
    return tuple(widths), head, scale


def _parse_partition(obj) -> frozenset[str]:
    _check_keys(obj, "config.partition", ("meta_tags",))
    tags = obj["meta_tags"]
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise ConfigurationError("config.partition.meta_tags must be a list of layer tags")
    return frozenset(tags)


def _parse_episode(obj) -> EpisodeSpec:
    _check_keys(obj, "config.episode", ("C", "K"), ("Q_query",))
    return EpisodeSpec(
        C=_typed(obj, "C", int, "config.episode"),
        K=_typed(obj, "K", int, "config.episode"),
        Q_query=_typed(obj, "Q_query", int, "config.episode", default=16),
    )


def _parse_train(obj) -> TrainConfig:
    where = "config.train"
    _check_keys(obj, where, (), ("M", "inner_steps", "inner_lr", "meta_lr", "meta_epochs",
                                 "batch_size", "momentum", "meta_dropout", "loss", "task_l2"))
    dropout = parse_dropout_spec(obj["meta_dropout"], where + ".meta_dropout") if obj.get("meta_dropout") else None
    return TrainConfig(
        M=_typed(obj, "M", int, where, default=1),
        inner_steps=_typed(obj, "inner_steps", int, where, default=0),
        inner_lr=float(_typed(obj, "inner_lr", (int, float), where, default=0.01)),
        meta_lr=float(_typed(obj, "meta_lr", (int, float), where, default=0.01)),
        meta_epochs=_typed(obj, "meta_epochs", int, where, default=1),
        batch_size=_typed(obj, "batch_size", int, where, default=32),
        momentum=float(_typed(obj, "momentum", (int, float), where, default=0.0)),
        meta_dropout=dropout,
        loss=_typed(obj, "loss", str, where, default="cross_entropy"),
        task_l2=float(_typed(obj, "task_l2", (int, float), where, default=0.0)),
    )


def _parse_meta_test(obj, n_eval: int) -> MetaTestConfig:
    where = "config.meta_test"
    _check_keys(obj, where, (), ("freeze_meta", "finetune_steps", "finetune_lr", "task_dropout"))
    dropout = parse_dropout_spec(obj["task_dropout"], where + ".task_dropout") if obj.get("task_dropout") else None
    return MetaTestConfig(
        Q=n_eval,
        freeze_meta=_typed(obj, "freeze_meta", bool, where, default=True),
        finetune_steps=_typed(obj, "finetune_steps", int, where, default=0),
        finetune_lr=float(_typed(obj, "finetune_lr", (int, float), where, default=0.01)),
        task_dropout=dropout,
    )


def _parse_ablation(obj, default_regime: str, default_batch: int) -> AblationGrid:
    where = "config.ablation"
    _check_keys(obj, where, (), ("arms", "kinds", "placements", "batch_sizes", "regimes"))
    arms = obj.get("arms", list(_ARMS))
    if not isinstance(arms, list) or any(a not in _ARMS for a in arms):
        raise ConfigurationError(f"{where}.arms must be drawn from {list(_ARMS)}, got {arms!r}")
    kinds = obj.get("kinds", ["dropblock"])
    if not isinstance(kinds, list) or any(k not in _KINDS for k in kinds):
        raise ConfigurationError(f"{where}.kinds must be drawn from {list(_KINDS)}, got {kinds!r}")
    placements = obj.get("placements", [["conv3", "conv4"]])
    if not isinstance(placements, list) or not all(
        isinstance(p, list) and all(isinstance(t, str) for t in p) for p in placements
    ):
        raise ConfigurationError(f"{where}.placements must be a list of tag lists")
    batch_sizes = _int_list(obj.get("batch_sizes", [default_batch]), where + ".batch_sizes")
    regimes = obj.get("regimes", [default_regime])
    for r in regimes:
        if r not in REGIMES:
            raise ConfigurationError(f"{where}.regimes: unknown regime {r!r}")
    return AblationGrid(
        arms=tuple(arms),
        kinds=tuple(kinds),
        placements=tuple(frozenset(p) for p in placements),
        batch_sizes=tuple(batch_sizes),
        regimes=tuple(regimes),
    )
