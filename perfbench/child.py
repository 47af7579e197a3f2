"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE

runs every verb of WORKLOAD, in the order SEED gives, through
``starbench.cli.main`` with its stdout captured, and prints one JSON line:
the monotonic time at which ``starbench.cli`` finished importing, the wall
time of the verbs, the speed probe just before and just after them, peak
RSS, each verb's exit code and stdout, and, when TRACE is 1, the per-layer
metrics. With WORKLOAD ``setup`` it only imports the CLI and prints the
import time.

``starbench`` must be importable, e.g. with ``PYTHONPATH=src``.
"""

import time  # noqa: I001 - the CLI import below is what set-up time measures

import starbench.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

PROBE_CHUNKS = 5
_PROBE_TABLE = (numpy.arange(625 * 625, dtype=numpy.int32) % 625 * 13 % 625).reshape(625, 625)
_PROBE_ROW = numpy.arange(2401, dtype=numpy.int64)


def _probe_chunk():
    t0 = time.perf_counter()
    counts = {}
    for i in range(120000):
        k = (i * 7919) & 4095
        counts[k] = counts.get(k, 0) + 1
    for i in range(600):
        numpy.bincount((_PROBE_ROW * (i + 1)) % 2401, minlength=2401)
    for i in range(60):
        _PROBE_TABLE[_PROBE_TABLE[i]].sum()
    return time.perf_counter() - t0


def probe():
    """Seconds of one chunk of fixed work that does not touch starbench:
    interpreter loops, small numpy ops and table gathers, the mix the verbs
    run. The median of a few chunks rejects short bursts; the machine's
    slower drifts in speed show in it as they do in the verbs."""
    return statistics.median(_probe_chunk() for _ in range(PROBE_CHUNKS))


def _run_verb(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = starbench.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - a traceback is a wrong answer, not a crash
            code = "exception"
            traceback.print_exc(file=sys.stderr)
    return code, buf.getvalue()


def main(workload, seed, trace):
    if workload == "setup":
        return {"ready": READY}
    import tracer
    import workloads

    items = workloads.items_for(workload, seed)
    rec = tracer.Recorder() if trace else None
    if rec is not None:
        tracer.install(rec)
    _probe_chunk()  # first numpy calls
    before = probe()
    results = []
    t0 = time.perf_counter()
    for item in items:
        results.append(_run_verb(item.full_argv()))
    wall = time.perf_counter() - t0
    after = probe()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ready": READY,
        "wall_s": wall,
        "probe_s": (before + after) / 2,
        "peak_rss_mb": rss_kb / 1024.0,
        "verbs": [
            {"key": item.key, "code": code, "stdout": out}
            for item, (code, out) in zip(items, results)
        ],
        "layers": tracer.layer_metrics(rec) if rec is not None else None,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernels_backend": getattr(
                sys.modules.get("starbench.kernels"), "BACKEND", None
            ),
        },
    }


if __name__ == "__main__":
    out = main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
    sys.stdout.write(json.dumps(out) + "\n")
