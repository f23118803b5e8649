"""Self-tests of the benchmark.  Run from the repository root::

    python3 perfbench/selftest.py

Checks that every metric name in ``BENCHMARK.json`` and the traced run
is well formed, that a tiny run of each workload completes with zero
failures, and that a deliberately wrong expected answer is counted as
a failed request.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import traced  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_SECONDS = 2.0


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def metric_names() -> None:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    names += list(traced.PER_LAYER)
    bad = [n for n in names if not NAME.fullmatch(n)]
    check(not bad, f"every metric name matches {NAME.pattern} {bad or ''}")
    check({w["name"] for w in config["workloads"]} == set(run.WORKLOADS),
          "BENCHMARK.json lists exactly the workloads run.py defines")
    check([m["name"] for m in config["per_layer"]] == list(traced.PER_LAYER),
          "BENCHMARK.json per_layer matches the traced run's metrics")


def tiny_run(name: str, trace: bool = False, corrupt: bool = False) -> dict:
    spec = replace(run.WORKLOADS[name], **run.TINY)
    work = run.WORK / f"selftest-{name}-{int(trace)}-{int(corrupt)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run.run(spec, seed=3, seconds=TINY_SECONDS, trace=trace,
                       work=work, corrupt_answer=corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    metric_names()
    for name in run.WORKLOADS:
        result = tiny_run(name)
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] > 0,
              f"tiny {name}: {result['attempted']} attempted, "
              f"{result['failed']} failed")
    for name in ("single-uniform", "fleet-live"):
        # fleet-live checks exact answers only before and after its
        # stream: the wrong one must be caught in the warm-up.
        result = tiny_run(name, corrupt=True)
        check(result["failed"] >= 1 and not result["correct"],
              f"{name}: a wrong expected answer is counted as failed "
              f"({result['failed']} failed)")
    result = tiny_run("fleet-live", trace=True)
    check(result["correct"] and not result["diagnostics"]["trace_problems"],
          "tiny traced fleet-live writes a valid Chrome trace")
    (run.ROOT / result["diagnostics"]["trace"]).unlink()
    for directory in (run.WORK, run.ROOT / ".perfbench_traces"):
        try:
            directory.rmdir()
        except OSError:
            pass  # not empty: files of other runs
    return 0


if __name__ == "__main__":
    sys.exit(main())
