"""Same-host A/B of simulator speed behind ``repro bench --against REV``.

A speed figure means something only next to another one taken on the
same machine, interleaved, by identical benchmark code.  :func:`run_ab`
checks ``REV`` out of the local repository into a temporary detached
``git worktree`` (no network) and runs :data:`PAIRS` interleaved pairs
of two probes on that tree (the base) and on the current working tree
(the change), alternating which tree goes first:

* the Water x12 engine micro-benchmark, :mod:`repro.perf.probe`.  The
  current tree's probe file runs against each tree's ``src/`` through
  ``PYTHONPATH``, so both sides are measured by the same code;
* ``perfbench/run.py --workload engine-contended --seconds 3``,
  unmodified, in each tree.  A run whose results fail their digest
  check (``correct: false``) stops the comparison.

When ``perfbench/`` or ``BENCHMARK.json`` differ between the trees, the
two sides would run different benchmarks, so nothing is measured: the
A/B says so and exits 0, leaving the new benchmark to its own digest
check.

Each metric is judged by :func:`judge`; the end-to-end metrics take
their ``better`` direction and bound from ``BENCHMARK.json``.  The
worktree is removed however the run ends.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.common.errors import ReproError

__all__ = ["MICROBENCH", "PAIRS", "Metric", "Verdict", "judge", "run_ab"]

#: The probe script, run from this tree against either tree's sources.
PROBE = Path(__file__).with_name("probe.py")

#: What must be identical in both trees for their numbers to compare.
BENCHMARK_PATHS = ("BENCHMARK.json", "perfbench")

#: The perfbench run made in each tree, relative to the tree's root.
PERFBENCH_WORKLOAD = "engine-contended"
PERFBENCH_ARGS = ("perfbench/run.py", "--workload", PERFBENCH_WORKLOAD, "--seconds", "3")

#: Interleaved base/change pairs per run.  With five, the "lost at least
#: N-1 pairs" half of :func:`judge` still forgives one noisy pair.
PAIRS = 5


@dataclass(frozen=True)
class Metric:
    """A compared number: its name, which way is better, and its bound."""

    name: str
    better: str
    bound: float


#: Measured only on a 2-vCPU Xeon host (Python 3.11): bypassing the
#: engine's hit-streak fast path put this probe's median pair ratio at
#: 0.39-0.46, while the same code on both sides gave medians of
#: 0.92-1.07 (single pairs 0.80-1.46): a 0.25 bound sits clear of both.
MICROBENCH = Metric("microbench.events_per_s", "higher", 0.25)


@dataclass(frozen=True)
class Verdict:
    """How the change fared against the base on one metric."""

    ratios: tuple[float, ...]
    wins: int
    losses: int
    failed: bool

    @property
    def median_ratio(self) -> float:
        return statistics.median(self.ratios)


def judge(base: list[float], change: list[float], better: str, bound: float) -> Verdict:
    """The pass/fail rule for one metric over paired samples.

    ``base[i]`` and ``change[i]`` were measured back to back; each pair's
    ratio is ``change / base``.  A pair is lost when the change reads
    worse (lower when ``better == "higher"``, higher when ``"lower"``);
    ties count for neither side.  The metric fails only when the median
    ratio is worse than the bound allows (below ``1 - bound``, or above
    ``1 + bound``) *and* the change lost at least N-1 of the N pairs: a
    noisy pair or two cannot fail it, and a real regression loses all.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    if not base or len(base) != len(change):
        raise ValueError(f"need equal, non-empty samples; got {len(base)} and {len(change)}")
    ratios = tuple(c / b for b, c in zip(base, change))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for r in ratios if (r - 1.0) * sign > 0)
    losses = sum(1 for r in ratios if (r - 1.0) * sign < 0)
    median = statistics.median(ratios)
    beyond = median < 1.0 - bound if better == "higher" else median > 1.0 + bound
    return Verdict(ratios, wins, losses, beyond and losses >= len(ratios) - 1)


# ------------------------------------------------------------------ trees


def _git(cwd: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(cwd), *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise ReproError(f"git {' '.join(args)} failed: {proc.stderr.strip()}")
    return proc.stdout.strip()


@contextmanager
def _worktree(root: Path, sha: str) -> Iterator[Path]:
    """A detached checkout of ``sha``, removed on exit whatever happens."""
    tmp = Path(tempfile.mkdtemp(prefix="repro-ab-"))
    tree = tmp / "tree"
    try:
        _git(root, "worktree", "add", "--detach", "--quiet", str(tree), sha)
        yield tree
    finally:
        subprocess.run(
            ["git", "-C", str(root), "worktree", "remove", "--force", str(tree)],
            capture_output=True,
        )
        shutil.rmtree(tmp, ignore_errors=True)


def _benchmark_files(tree: Path) -> dict[str, bytes]:
    """Tracked and untracked, not ignored, benchmark files by path."""
    names = _git(
        tree, "ls-files", "--cached", "--others", "--exclude-standard", "--", *BENCHMARK_PATHS
    ).splitlines()
    return {name: (tree / name).read_bytes() for name in names if (tree / name).is_file()}


def _benchmark_differences(base: Path, change: Path) -> list[str]:
    """Benchmark files that differ between the two trees, sorted."""
    ours, theirs = _benchmark_files(change), _benchmark_files(base)
    return sorted(n for n in ours.keys() | theirs.keys() if ours.get(n) != theirs.get(n))


# ------------------------------------------------------------------ probes


def _run_json(tree: Path, args: tuple[str, ...], what: str) -> dict:
    """Run ``args`` with ``tree``'s sources; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ReproError(
            f"{what} exited {proc.returncode} without a JSON result:\n{proc.stderr[-2000:]}"
        ) from None


def _microbench(tree: Path, label: str) -> dict[str, float]:
    doc = _run_json(tree, (str(PROBE),), f"microbench probe on {label}")
    if not Path(doc["engine"]).resolve().is_relative_to(tree.resolve()):
        raise ReproError(f"microbench probe on {label} imported {doc['engine']}, not {tree}")
    return {MICROBENCH.name: doc["events_per_s"]}


def _perfbench(tree: Path, label: str) -> dict[str, float]:
    doc = _run_json(tree, PERFBENCH_ARGS, f"perfbench {PERFBENCH_WORKLOAD} on {label}")
    if not doc.get("correct"):
        raise ReproError(
            f"perfbench {PERFBENCH_WORKLOAD} on {label} reported correct: false "
            f"({doc.get('failed')} of {doc.get('attempted')} results failed their check)"
        )
    return {f"{PERFBENCH_WORKLOAD}/{name}": m["value"] for name, m in doc["metrics"].items()}


def _measure(
    sides: tuple[tuple[Path, str], tuple[Path, str]], pairs: int
) -> dict[str, tuple[list[float], list[float]]]:
    """Samples per metric, ``(base, change)``, from interleaved pairs."""
    samples: dict[str, tuple[list[float], list[float]]] = {}
    for i in range(pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for probe in (_microbench, _perfbench):
            for side in order:
                for name, value in probe(*sides[side]).items():
                    samples.setdefault(name, ([], []))[side].append(value)
        print(f"pair {i + 1}/{pairs} measured ({sides[order[0]][1]} first)", flush=True)
    return samples


# ------------------------------------------------------------------ report


def _host_fingerprint(root: Path) -> dict:
    """``perfbench.common.host_fingerprint()`` of the current tree."""
    code = "import json, perfbench.common as c; print(json.dumps(c.host_fingerprint()))"
    return _run_json(root, ("-c", code), "host fingerprint")


def _num(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def _spread(values: list[float]) -> str:
    """Median and quartiles, ``"median [q1, q3]"``."""
    q1, q2, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1
        else values * 3
    )
    return f"{_num(q2)} [{_num(q1)}, {_num(q3)}]"


def run_ab(against: str, pairs: int = PAIRS) -> int:
    """Compare the working tree with revision ``against``; the exit status.

    Returns 1 when any metric fails :func:`judge`, else 0; also 0, with
    nothing measured, when the trees' benchmark files differ.  Raises
    :class:`ReproError` for an unknown revision or a probe that fails;
    the worktree is removed in every case.  ``pairs`` is for tests.
    """
    if pairs < 1:
        raise ReproError(f"pairs must be at least 1, got {pairs}")
    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    try:
        sha = _git(root, "rev-parse", "--verify", "--quiet", f"{against}^{{commit}}")
    except ReproError:
        raise ReproError(f"unknown revision {against!r}: no such commit in {root}") from None
    label = f"{against} ({sha[:12]})"
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [MICROBENCH] + [
        Metric(f"{PERFBENCH_WORKLOAD}/{e['name']}", e["better"], e["bound"])
        for e in spec["end_to_end"]
    ]
    with _worktree(root, sha) as base:
        differ = _benchmark_differences(base, root)
        if differ:
            print(
                f"repro bench: skipped, nothing measured: {' and '.join(BENCHMARK_PATHS)} "
                f"differ between {label} and the working tree ({', '.join(differ)}), so "
                "an A/B would compare two different benchmarks"
            )
            return 0
        print(f"repro bench: base {label} vs change (working tree), {pairs} interleaved pairs")
        samples = _measure(((base, label), (root, "working tree")), pairs)
    print("host: " + "  ".join(f"{k}={v}" for k, v in _host_fingerprint(root).items()))
    print(
        f"{'metric':<34} {'better':<6} {'bound':>5}  {'base median [q1, q3]':<27} "
        f"{'change median [q1, q3]':<27} {'ratio median (min..max)':<24} {'wins':>5}  verdict"
    )
    failed = []
    for metric in metrics:
        base_s, change_s = samples[metric.name]
        verdict = judge(base_s, change_s, metric.better, metric.bound)
        if verdict.failed:
            failed.append(metric.name)
        ratio = (
            f"{verdict.median_ratio:.3f} ({min(verdict.ratios):.3f}..{max(verdict.ratios):.3f})"
        )
        print(
            f"{metric.name:<34} {metric.better:<6} {metric.bound:>5.2f}  "
            f"{_spread(base_s):<27} {_spread(change_s):<27} {ratio:<24} "
            f"{verdict.wins:>2}/{pairs:<2}  {'FAIL' if verdict.failed else 'ok'}"
        )
    if failed:
        print(f"repro bench: FAIL on {', '.join(failed)}")
        return 1
    print("repro bench: ok")
    return 0
