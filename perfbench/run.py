"""End-to-end and per-layer benchmark of the starbench CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each repetition spawns one fresh
interpreter (``child.py``) that imports ``starbench.cli`` from ``src/`` and
calls ``starbench.cli.main`` once per verb of the workload with
``--format json --jobs 1``; repetitions run one at a time until S seconds
have passed. Every verb's output is checked (``checks.py``).

With ``--trace 0`` the last line of stdout reports, as medians over the
repetitions, set-up time (spawn until ``starbench.cli`` is imported, also
sampled by import-only spawns), wall time of the verbs, peak RSS of the
child, and the share of answers that were correct. With ``--trace 1``
untraced and traced repetitions alternate and the per-layer metrics of
``tracer.py`` are reported, with the traced-minus-untraced ``wall_s`` as
``trace.overhead_s``. The line before it records the environment and the
raw samples.

The speed of a small shared VM drifts by 20% and more within minutes,
in CPU time as much as in wall time, so medians of raw wall times differ
by 15% and more between runs of the same code. Each repetition
therefore also times a fixed probe that does not touch starbench
(``child.probe``) just before and after its verbs, and ``wall_s`` is the
verbs' wall time rescaled to the speed at which a probe chunk takes
``PROBE_NOMINAL_S``; ``setup_s`` is rescaled by the run's median probe. A
change to starbench leaves the probe as it is.

Exit status: 0 when every answer is correct, 1 when some answer is wrong
(the result is still printed), 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 8
# Seconds a probe chunk typically takes on a 2-core x86-64 VM at 2.1 GHz
# (Python 3.11, numpy 2.4); wall_s is reported at that speed.
PROBE_NOMINAL_S = 0.06
# Every child must end within this many seconds of the start of the run.
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # numpy links OpenBLAS here; keep any matmul on one core
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(root: Path, workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """Spawn one repetition and return its report with ``setup_s`` added."""
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if traced else "0"]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("%s repetition did not finish in time" % workload)
    if proc.returncode != 0:
        raise BenchError("%s repetition exited with %d" % (workload, proc.returncode))
    report = json.loads(out.splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def git_rev(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def make_checker(root: Path) -> checks.Checker:
    from starbench.classifiers import PROPERTY_CLASSIFIERS
    from starbench.corpus import corpus_by_name
    from starbench.descriptor import descriptor_hash
    from starbench.dsl import parse_ring_expr

    with open(HERE / "digests.json") as fh:
        digests = json.load(fh)
    return checks.Checker(
        checks.load_goldens(root / "tests" / "goldens.json"),
        digests,
        lambda text: descriptor_hash(parse_ring_expr(text)),
        corpus_by_name,
        list(PROPERTY_CLASSIFIERS),
    )


def steady_wall(rep: dict) -> float:
    """A repetition's wall time, rescaled to the machine speed at which one
    probe chunk takes PROBE_NOMINAL_S (see ``child.probe``)."""
    return rep["wall_s"] * PROBE_NOMINAL_S / rep["probe_s"]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def benchmark(root: Path, workload: str, seed: int, seconds: int, trace: bool):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    checker = make_checker(root)

    run_child(root, "setup", 0, False, deadline)  # warm the bytecode cache
    setups = [run_child(root, "setup", 0, False, deadline)["setup_s"] for _ in range(SETUP_SPAWNS)]
    plain: List[dict] = []
    traced: List[dict] = []
    while True:
        for with_trace in ((False, True) if trace else (False,)):
            rep = run_child(root, workload, seed, with_trace, deadline)
            setups.append(rep["setup_s"])
            for item, verb in zip(workloads.items_for(workload, seed), rep["verbs"]):
                checker.check(item, verb["code"], verb["stdout"])
            (traced if with_trace else plain).append(rep)
        if time.monotonic() - start >= seconds:
            break

    if trace:
        metrics = {
            name: _metric(statistics.median(r["layers"][name] for r in traced), unit)
            for name, (unit, _, _) in tracer.LAYER_METRICS.items()
            if name in traced[0]["layers"]
        }
        verbs = traced[0]["verbs"]
        metrics["cli.verbs"] = _metric(len(verbs), "count")
        metrics["cli.stdout_bytes"] = _metric(sum(len(v["stdout"].encode()) for v in verbs), "bytes")
        metrics["cli.exit_nonzero"] = _metric(sum(v["code"] != 0 for v in verbs), "count")
        metrics["trace.overhead_s"] = _metric(
            statistics.median(map(steady_wall, traced))
            - statistics.median(map(steady_wall, plain)),
            "s",
        )
    else:
        metrics = {
            "setup_s": _metric(
                statistics.median(setups)
                * PROBE_NOMINAL_S
                / statistics.median(r["probe_s"] for r in plain),
                "s",
            ),
            "wall_s": _metric(statistics.median(map(steady_wall, plain)), "s"),
            "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "ops_ok_frac": _metric(1 - checker.failed / checker.attempted, "ratio"),
        }
    env = dict(plain[0]["env"])
    env.update(
        git_rev=git_rev(root),
        nproc=os.cpu_count(),
        seed=seed,
        workload=workload,
        platform=platform.platform(),
        wall_s_samples=[r["wall_s"] for r in plain],
        probe_s_samples=[r["probe_s"] for r in plain],
        setup_s_samples=setups,
    )
    return checker, metrics, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "starbench" / "cli.py").is_file():
        sys.stderr.write("error: run from the root of a starbench checkout (no src/starbench)\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        checker, metrics, env = benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2
    for problem in checker.problems[:20]:
        sys.stderr.write("wrong answer: %s\n" % problem)
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
