"""Output checks of the benchmark workloads.

Each check returns a list of problems, empty when the output passes.  Every
check recomputes what it compares against from the output itself, or tests a
property the method must have; none compares against stored figures.
"""

from __future__ import annotations

import math

import numpy as np

GRID_TOL = 1e-9  # k = accuracy * n_query is an integer up to float64 rounding
STAT_TOL = 1e-12


def report_problems(report, n_episodes: int, n_way: int, q_query: int, label: str) -> list[str]:
    """An EvalReport against the episode protocol it claims to follow.

    - the episode count equals the count requested;
    - every per-episode accuracy is k / (n_way * q_query) for an integer k;
    - mean and 1.96 * std(ddof=1) / sqrt(n), recomputed here in float64 from
      the per-episode accuracies, equal the reported ones within 1e-12;
    - the mean is above chance (1 / n_way) by more than 3 * ci95.
    """
    problems = []
    accs = list(report.per_episode_acc)
    if report.n_episodes != n_episodes or len(accs) != n_episodes:
        problems.append(f"{label}: {report.n_episodes} episodes reported, {len(accs)} listed, "
                        f"{n_episodes} requested")
    if not accs:
        return problems + [f"{label}: no per-episode accuracies"]
    n_query = n_way * q_query
    for i, acc in enumerate(accs):
        k = acc * n_query
        if not (0 <= round(k) <= n_query and abs(k - round(k)) <= GRID_TOL):
            problems.append(f"{label}: episode {i} accuracy {acc!r} is not k/{n_query}")
            break
    values = np.asarray(accs, dtype=np.float64)
    n = values.size
    mean = math.fsum(values) / n
    halfwidth = 1.96 * math.sqrt(math.fsum((values - mean) ** 2) / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
    if abs(mean - report.mean_acc) > STAT_TOL:
        problems.append(f"{label}: reported mean {report.mean_acc!r}, recomputed {mean!r}")
    if abs(halfwidth - report.ci95) > STAT_TOL:
        problems.append(f"{label}: reported ci95 {report.ci95!r}, recomputed {halfwidth!r}")
    if not mean - 1.0 / n_way > 3 * halfwidth:
        problems.append(f"{label}: mean {mean:.4f} is not above chance {1 / n_way:.4f} "
                        f"by more than 3*ci95 = {3 * halfwidth:.4f}")
    return problems


def pretrain_log_problems(log, n_classes: int, label: str) -> list[str]:
    """Every epoch loss is finite; the last epoch ends below the first and below ln(n_classes)."""
    losses = [entry["meta_loss"] for entry in log]
    if not losses:
        return [f"{label}: empty training log"]
    if not all(math.isfinite(v) for v in losses):
        return [f"{label}: non-finite epoch loss in {losses}"]
    problems = []
    if not losses[-1] < losses[0]:
        problems.append(f"{label}: last epoch loss {losses[-1]:.4f} not below first {losses[0]:.4f}")
    if not losses[-1] < math.log(n_classes):
        problems.append(f"{label}: last epoch loss {losses[-1]:.4f} not below ln {n_classes} "
                        f"= {math.log(n_classes):.4f}, the loss of a uniform guess")
    return problems


def bitwise_problems(expected: dict, actual: dict, label: str) -> list[str]:
    """Same ids, dtypes, shapes and bytes."""
    if set(expected) != set(actual):
        return [f"{label}: ids {sorted(actual)} differ from {sorted(expected)}"]
    bad = [pid for pid in expected
           if expected[pid].dtype != actual[pid].dtype or expected[pid].shape != actual[pid].shape
           or expected[pid].tobytes() != actual[pid].tobytes()]
    return [f"{label}: {bad} not bitwise equal"] if bad else []


def repeat_problems(outputs: list, label: str) -> list[str]:
    """Every round produced the same output as the first."""
    differing = [i for i, out in enumerate(outputs) if out != outputs[0]]
    return [f"{label}: rounds {differing} differ from round 0"] if differing else []
