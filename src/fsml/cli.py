"""Command-line runner.

Subcommands: train, eval, ablate, gen-data, oracle-check.  Every artifact is
written inside --out (or config `out`) through a temp-file-plus-rename, so a
failed run never leaves a partial checkpoint or report behind.  Logging
verbosity comes from the FSML_LOG environment variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

from .checkpoint import apply_checkpoint, dump_params, load_checkpoint
from .config import ExperimentConfig, load_config
from .data import gen_synthetic, write_dataset
from .errors import ConfigurationError, FsmlError
from .evaluate import (
    AblationAssets,
    AblationGrid,
    evaluate_fewshot,
    one_blas_thread,
    run_ablation,
    write_ablation_csv,
)
from .meta import KnowledgeState, meta_train
from .oracle import run_all_gates

log = logging.getLogger("fsml")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("FSML_LOG", "error").lower()
    if name not in _LOG_LEVELS:
        raise ConfigurationError(f"FSML_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}")
    logging.basicConfig(level=_LOG_LEVELS[name], format="%(levelname)s %(name)s: %(message)s")


def _atomic_write(path: Path, data: bytes | Callable[[str], None]) -> None:
    """Temp file in the destination directory, then rename.

    `data` is the bytes to write, or a callable that writes the file at the
    path it is given.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        if callable(data):
            data(tmp)
        else:
            Path(tmp).write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _resolve_out(cfg: ExperimentConfig, args) -> Path:
    out = args.out or cfg.out
    if out is None:
        raise ConfigurationError("no output directory: pass --out or set config.out")
    return Path(out)


def _seeds(cfg: ExperimentConfig, args) -> tuple[int, ...]:
    return (args.seed,) if args.seed is not None else cfg.seeds


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = _resolve_out(cfg, args)
    ds = cfg.source.load()
    base_view, _, _ = cfg.views(ds)
    factory = cfg.network_factory(ds)
    for seed in _seeds(cfg, args):
        started = time.monotonic()
        net, partition = factory(seed)
        state = meta_train(cfg.regime, base_view, cfg.episode, net, partition, replace(cfg.train, seed=seed))
        sidecar = {
            "arch_hash": factory.arch_hash(),
            "config_hash": cfg.config_hash,
            "regime": cfg.regime,
            "seed": seed,
        }
        _atomic_write(out / f"ckpt_seed{seed}.fsml", dump_params(state.network.values()))
        _atomic_write(out / f"ckpt_seed{seed}.meta.json",
                      (json.dumps(sidecar, sort_keys=True, indent=2) + "\n").encode())
        lines = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in state.log)
        _atomic_write(out / f"train_seed{seed}.jsonl", lines.encode())
        final = state.log[-1]["meta_loss"] if state.log else float("nan")
        log.info("seed %d trained in %.1fs", seed, time.monotonic() - started)
        print(f"seed {seed}: final meta-loss {final:.6f}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    out = _resolve_out(cfg, args)
    ds = cfg.source.load()
    _, _, novel_view = cfg.views(ds)
    factory = cfg.network_factory(ds)
    for seed in _seeds(cfg, args):
        ckpt_path = out / f"ckpt_seed{seed}.fsml"
        meta_path = out / f"ckpt_seed{seed}.meta.json"
        params = load_checkpoint(ckpt_path)
        if not args.force:
            if not meta_path.exists():
                raise ConfigurationError(
                    f"{meta_path.name} is missing, so the architecture of {ckpt_path.name} "
                    f"cannot be checked; pass --force to evaluate anyway"
                )
            recorded = json.loads(meta_path.read_text()).get("arch_hash", "")
            expected = factory.arch_hash()
            if recorded != expected:
                raise ConfigurationError(
                    f"{ckpt_path.name} records architecture {recorded[:12]} but the eval "
                    f"config builds {expected[:12]}; pass --force to evaluate anyway"
                )
        net, partition = factory(seed)
        apply_checkpoint(net, params)
        state = KnowledgeState(network=net, partition=partition, loss=cfg.train.loss,
                               task_l2=cfg.train.task_l2, meta_dropout=cfg.train.meta_dropout,
                               seed=seed)
        report = evaluate_fewshot(state, novel_view, cfg.episode, cfg.meta_test,
                                  n_episodes=cfg.n_eval_episodes, seed=seed,
                                  config_hash=cfg.config_hash, jobs=args.jobs)
        print(report.summary())
        _atomic_write(out / f"eval_seed{seed}.json", report.to_json().encode())
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    out = _resolve_out(cfg, args)
    if cfg.ablation is not None:
        grid = cfg.ablation
    else:
        grid = AblationGrid(batch_sizes=(cfg.train.batch_size,), regimes=(cfg.regime,))
    if any(a in ("M", "M&D") for a in grid.arms) and cfg.train.meta_dropout is None:
        raise ConfigurationError("ablation includes an 'M' arm but config.train.meta_dropout is not set")
    if any(a in ("D", "M&D") for a in grid.arms) and cfg.meta_test.task_dropout is None:
        raise ConfigurationError("ablation includes a 'D' arm but config.meta_test.task_dropout is not set")
    ds = cfg.source.load()
    base_view, _, novel_view = cfg.views(ds)
    rows = []
    # one sub-grid per regime, each with a head sized for that regime; the
    # regime is the outermost axis of grid.cells(), so row order is unchanged
    for regime in grid.regimes:
        assets = AblationAssets(
            base_view=base_view,
            novel_view=novel_view,
            build_net=cfg.network_factory(ds, regime),
            train_cfg=cfg.train,
            mtest_cfg=cfg.meta_test,
            espec=cfg.episode,
            n_episodes=cfg.n_eval_episodes,
            meta_dropout_template=cfg.train.meta_dropout,
            task_dropout=cfg.meta_test.task_dropout,
            config_hash=cfg.config_hash,
        )
        rows += run_ablation(replace(grid, regimes=(regime,)), assets, _seeds(cfg, args), jobs=args.jobs)
    csv_path = out / "ablation.csv"
    _atomic_write(csv_path, lambda tmp: write_ablation_csv(rows, tmp))
    failed = [r for r in rows if r.report is None]
    for row in failed:
        log.error("cell %s seed %d failed: %s", row.cell, row.seed, row.error)
    print(f"ablation: {len(rows)} runs, {len(failed)} failed, table at {csv_path}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    if cfg.source.synthetic is None:
        raise ConfigurationError("gen-data requires config.dataset.synthetic")
    out = _resolve_out(cfg, args)
    ds = gen_synthetic(cfg.source.synthetic)
    path = out / "dataset.fsds"
    _atomic_write(path, lambda tmp: write_dataset(ds, tmp))
    print(f"wrote {path}: {ds.n_classes} classes, {ds.n_samples} samples")
    return 0


def cmd_oracle_check(args) -> int:
    results = run_all_gates()
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument parsing


def _seed_value(text: str) -> int:
    value = int(text)
    if not (0 <= value < 2**64):
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {value}")
    return value


def _jobs_value(text: str) -> int:
    value = int(text)
    limit = os.cpu_count() or 1
    if not (1 <= value <= limit):
        raise argparse.ArgumentTypeError(f"jobs must lie in 1..{limit} (the CPU count), got {value}")
    return value


def _add_common(sp, config_required: bool = True) -> None:
    sp.add_argument("--config", required=config_required, help="experiment config (JSON)")
    sp.add_argument("--seed", type=_seed_value, default=None,
                    help="single seed overriding the config's seed list")
    sp.add_argument("--out", default=None, help="output directory (overrides config.out)")
    sp.add_argument("--jobs", type=_jobs_value, default=1, help="worker processes for episodes/cells")
    sp.add_argument("--force", action="store_true", help="skip the architecture-hash guard")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fsml", description="few-shot meta-learning experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train", help="run the configured training regime")
    _add_common(sp)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="evaluate checkpoints on the novel split")
    _add_common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("ablate", help="train and evaluate the regularizer ablation grid")
    _add_common(sp)
    sp.set_defaults(fn=cmd_ablate)

    sp = sub.add_parser("gen-data", help="write the configured synthetic dataset")
    _add_common(sp)
    sp.set_defaults(fn=cmd_gen_data)

    sp = sub.add_parser("oracle-check", help="run the analytic-vs-numeric verification gates")
    _add_common(sp, config_required=False)
    sp.set_defaults(fn=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        one_blas_thread()
        return args.fn(args)
    except FsmlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
