"""Few-shot evaluation and the ablation runner.

Every evaluation episode restarts from the same trained snapshot: sample an
episode, adapt a fresh copy on its support set, classify its query set, and
only then aggregate.  Episode i draws from a stream derived from (seed, i),
so episodes are independent of execution order and a parallel run merges, by
index, into exactly the serial result.

Accuracy is reported as mean over episodes with a 95% confidence halfwidth,
1.96 * std(ddof=1) / sqrt(n), formatted in percent: "62.71 ± 0.87".
"""

from __future__ import annotations

import csv
import ctypes
import glob
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, EpisodeSpec, sample_episode
from .errors import ContractError
from .meta import (
    KnowledgeState,
    MetaTestConfig,
    TrainConfig,
    meta_test,
    meta_test_prefix,
    meta_train,
)
from .nn import MODE_EVAL, STAGE_META_TESTING, DropoutSpec, Network, forward
from .rng import Rng


def ci95(values: np.ndarray) -> tuple[float, float]:
    """(mean, halfwidth) of the normal-approximation 95% confidence interval.

    Halfwidth is 1.96 * sample std (ddof=1) / sqrt(n); a single value has no
    spread estimate, so its halfwidth is defined as 0.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ContractError("ci95 needs at least one value")
    mean = float(values.mean())
    if values.size == 1:
        return mean, 0.0
    return mean, float(1.96 * values.std(ddof=1) / np.sqrt(values.size))


def format_mean_ci(mean: float, halfwidth: float) -> str:
    """Percent with two decimals, e.g. 0.62713, 0.0087 -> '62.71 ± 0.87'."""
    return f"{mean * 100:.2f} ± {halfwidth * 100:.2f}"


@dataclass(frozen=True)
class EvalReport:
    n_episodes: int
    mean_acc: float
    ci95: float
    seed: int
    config_hash: str
    per_episode_acc: tuple[float, ...] = ()

    def summary(self) -> str:
        return format_mean_ci(self.mean_acc, self.ci95)

    def to_json(self) -> str:
        payload = {
            "n_episodes": self.n_episodes,
            "mean_acc": self.mean_acc,
            "ci95": self.ci95,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "per_episode_acc": list(self.per_episode_acc),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _embed(net: Network, images: np.ndarray, cut: int, chunk: int) -> np.ndarray:
    """Layers [0, cut) of `net` on every image, in forwards of exactly `chunk` images.

    The last chunk is zero-padded and the padding trimmed off.  A row's bits
    depend on the row count of each layer's GEMM, not on the other images in
    the batch, so with `chunk` the size of an episode's query set every row is
    bitwise the one that episode's own query forward would give.
    """
    n = len(images)
    padded = np.zeros((-(-n // chunk) * chunk, *images.shape[1:]), dtype=images.dtype)
    padded[:n] = images
    parts = [forward(net, padded[i : i + chunk], MODE_EVAL, STAGE_META_TESTING, stop=cut).data
             for i in range(0, len(padded), chunk)]
    return np.concatenate(parts)[:n]


def _episode_accuracy(index: int, state: KnowledgeState, view: Dataset, espec: EpisodeSpec,
                      mcfg: MetaTestConfig, seed: int, feats: np.ndarray, cut: int) -> float:
    """Adapt on episode `index` and classify its query rows of `feats`, from layer `cut` on."""
    ep_rng = Rng(seed).derive(f"eval-episode-{index}")
    episode = sample_episode(view, espec, ep_rng.derive("sample"))
    adapted = meta_test(state, episode.support, mcfg, ep_rng)
    logits = forward(adapted.network, feats[episode.query_idx], MODE_EVAL, STAGE_META_TESTING, start=cut)
    predicted = np.argmax(logits.data, axis=1)
    return float((predicted == episode.query.y).mean())


# the arguments every task of a pool worker shares, sent once per worker
_POOL_ARGS: tuple = ()


def one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread; a no-op for any other BLAS.

    fsml's GEMMs are small, so a second BLAS thread per process buys little
    and oversubscribes the cores when processes run side by side.  The thread
    count changes no result byte.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so")
    for path in glob.glob(libs):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


def _pool_init(*args) -> None:
    global _POOL_ARGS
    one_blas_thread()
    _POOL_ARGS = args


def _pool_episode(index: int) -> float:
    return _episode_accuracy(index, *_POOL_ARGS)


def evaluate_fewshot(
    state: KnowledgeState,
    novel_view: Dataset,
    espec: EpisodeSpec,
    mcfg: MetaTestConfig,
    n_episodes: int = 600,
    seed: int = 0,
    config_hash: str = "",
    jobs: int = 1,
) -> EvalReport:
    """Adapt-and-classify over `n_episodes` episodes of the novel view.

    The layers meta_test leaves unchanged (`meta_test_prefix`) run once per
    call over the whole view, and each episode classifies its query from
    those features; the result is bitwise that of full query forwards.  When
    the episodes read fewer query images than the view holds, embedding it
    would cost more than it saves, so each query runs the whole network.
    Results are merged by episode index, so jobs > 1 is bit-identical to a
    serial run.  Per-episode accuracies are accumulated in float64 and the
    mean is computed once.
    """
    if n_episodes < 1:
        raise ContractError(f"n_episodes must be >= 1, got {n_episodes}")
    cut = meta_test_prefix(state, mcfg) if n_episodes * espec.C * espec.Q_query >= novel_view.n_samples else 0
    images = novel_view.images
    feats = _embed(state.network, images, cut, espec.C * espec.Q_query) if cut else images
    args = (state, novel_view, espec, mcfg, seed, feats, cut)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_pool_init, initargs=args) as pool:
            accs = list(pool.map(_pool_episode, range(n_episodes), chunksize=max(1, n_episodes // (4 * jobs))))
    else:
        accs = [_episode_accuracy(i, *args) for i in range(n_episodes)]
    acc_array = np.asarray(accs, dtype=np.float64)
    mean, halfwidth = ci95(acc_array)
    return EvalReport(
        n_episodes=n_episodes,
        mean_acc=mean,
        ci95=halfwidth,
        seed=seed,
        config_hash=config_hash,
        per_episode_acc=tuple(float(a) for a in acc_array),
    )


# ---------------------------------------------------------------------------
# ablation grid


_ARMS = ("none", "M", "D", "M&D")


def placement_label(placements: frozenset[str]) -> str:
    """Human row label for a placement set, matching the reporting convention."""
    named = {
        frozenset({"conv4"}): "on group 4",
        frozenset({"conv3", "conv4"}): "on group 3&4",
        frozenset({"flatten"}): "on last flatten layer",
    }
    return named.get(frozenset(placements), "on " + "&".join(sorted(placements)))


@dataclass(frozen=True)
class AblationCell:
    arm: str
    kind: str
    placements: frozenset[str]
    batch_size: int
    regime: str


@dataclass
class AblationGrid:
    """Cross product of regularizer arms and hyperparameter axes.

    The meta-dropout spec of the M arms takes its kind/placements from the
    cell; the D arms reuse `task_dropout` as given.  keep_prob and block_size
    come from `meta_dropout_template`.
    """

    arms: tuple[str, ...] = _ARMS
    kinds: tuple[str, ...] = ("dropblock",)
    placements: tuple[frozenset[str], ...] = (frozenset({"conv3", "conv4"}),)
    batch_sizes: tuple[int, ...] = (64,)
    regimes: tuple[str, ...] = ("pretrain_finetune",)

    def __post_init__(self):
        bad = [a for a in self.arms if a not in _ARMS]
        if bad:
            raise ContractError(f"unknown ablation arms {bad}; valid: {list(_ARMS)}")
        self.placements = tuple(frozenset(p) for p in self.placements)

    def cells(self) -> list[AblationCell]:
        out = []
        for regime in self.regimes:
            for batch in self.batch_sizes:
                for kind in self.kinds:
                    for placement in self.placements:
                        for arm in self.arms:
                            out.append(AblationCell(arm, kind, placement, batch, regime))
        return out


@dataclass
class AblationAssets:
    """Everything a cell run needs; the grid only varies what a cell changes."""

    base_view: Dataset
    novel_view: Dataset
    build_net: object  # callable (seed) -> (Network, ParamPartition)
    train_cfg: TrainConfig
    mtest_cfg: MetaTestConfig
    espec: EpisodeSpec
    n_episodes: int = 600
    meta_dropout_template: DropoutSpec | None = None
    task_dropout: DropoutSpec | None = None
    config_hash: str = ""


@dataclass
class AblationRow:
    cell: AblationCell
    seed: int
    report: EvalReport | None
    error: str = ""


def _cell_specs(cell: AblationCell, assets: AblationAssets) -> tuple[DropoutSpec | None, DropoutSpec | None]:
    meta_spec = None
    task_spec = None
    if cell.arm in ("M", "M&D"):
        template = assets.meta_dropout_template
        if template is None:
            raise ContractError(f"arm {cell.arm!r} needs a meta_dropout template")
        meta_spec = replace(template, kind=cell.kind, placements=cell.placements,
                            block_size=template.block_size if cell.kind == "dropblock" else 1)
    if cell.arm in ("D", "M&D"):
        if assets.task_dropout is None:
            raise ContractError(f"arm {cell.arm!r} needs a task_dropout spec")
        task_spec = assets.task_dropout
    return meta_spec, task_spec


def run_cell(cell: AblationCell, assets: AblationAssets, seed: int) -> EvalReport:
    """Train one configuration from scratch and evaluate it."""
    meta_spec, task_spec = _cell_specs(cell, assets)
    net, partition = assets.build_net(seed)
    cfg = replace(assets.train_cfg, seed=seed, batch_size=cell.batch_size, meta_dropout=meta_spec)
    state = meta_train(cell.regime, assets.base_view, assets.espec, net, partition, cfg)
    mcfg = replace(assets.mtest_cfg, task_dropout=task_spec)
    return evaluate_fewshot(
        state, assets.novel_view, assets.espec, mcfg,
        n_episodes=assets.n_episodes, seed=seed, config_hash=assets.config_hash,
    )


def run_ablation(grid: AblationGrid, assets: AblationAssets, seeds, jobs: int = 1) -> list[AblationRow]:
    """Run the full grid x seeds; a failed cell is recorded, not fatal.

    With jobs > 1 each worker receives `assets` once, and each task only its
    (cell, seed).
    """
    work = [(cell, seed) for cell in grid.cells() for seed in seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_pool_init, initargs=(assets,)) as pool:
            return list(pool.map(_pool_ablation_item, work))
    return [_run_ablation_item(item, assets) for item in work]


def _pool_ablation_item(item) -> AblationRow:
    return _run_ablation_item(item, *_POOL_ARGS)


def _run_ablation_item(item, assets: AblationAssets) -> AblationRow:
    """One (cell, seed) run, exceptions captured so the rest of the grid proceeds."""
    cell, seed = item
    try:
        return AblationRow(cell, seed, run_cell(cell, assets, seed))
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return AblationRow(cell, seed, None, error=f"{type(exc).__name__}: {exc}")


_CSV_COLUMNS = ["regime", "arm", "kind", "placement", "batch_size", "seed", "n_episodes", "mean_acc", "ci95", "error"]


def write_ablation_csv(rows: list[AblationRow], path) -> None:
    """One line per (cell, seed) plus one aggregate line per cell over its seeds."""
    grouped: dict[AblationCell, list[AblationRow]] = {}
    for row in rows:
        grouped.setdefault(row.cell, []).append(row)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for cell, cell_rows in grouped.items():
            for row in cell_rows:
                if row.report is None:
                    writer.writerow([cell.regime, cell.arm, cell.kind, placement_label(cell.placements),
                                     cell.batch_size, row.seed, "", "", "", row.error])
                else:
                    writer.writerow([cell.regime, cell.arm, cell.kind, placement_label(cell.placements),
                                     cell.batch_size, row.seed, row.report.n_episodes,
                                     f"{row.report.mean_acc:.6f}", f"{row.report.ci95:.6f}", ""])
            means = np.asarray([r.report.mean_acc for r in cell_rows if r.report is not None], dtype=np.float64)
            if means.size:
                agg_mean, agg_ci = ci95(means)
                writer.writerow([cell.regime, cell.arm, cell.kind, placement_label(cell.placements),
                                 cell.batch_size, f"mean({means.size})", "",
                                 f"{agg_mean:.6f}", f"{agg_ci:.6f}", ""])
