"""The benchmark's one command.

    python3 bench/run.py                         # every workload, untraced
    python3 bench/run.py --trace                 # ... then each one traced
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

(``PYTHONPATH=src python -m bench.run`` is the same thing.)  With
``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics untraced, the per-layer metrics
traced.  Without it each workload runs in a child process of its own
and the reports are printed one after another.  The exit code is
non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench.driver import host_speed  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER, per_layer  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: share of ``--seconds`` a traced run spends on its untraced reference
#: section (same single-outstanding loop, no wrappers)
REFERENCE_SHARE = 0.3


def git_revision() -> str:
    """The checkout's commit, or ``unknown`` outside a repository.
    The search stops at the checkout: a parent's ``.git`` is not ours."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def stamp(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_1min": os.getloadavg()[0],
        "started_unix": time.time(),
    }


def run_untraced(name: str, seed: int, seconds: float):
    out = WORKLOADS[name](seed, seconds)
    out.extra["host_speed_factor"] = host_speed(out.calibration)
    out.extra["ops_per_s_whole_section"] = out.ops / out.wall if out.wall else 0.0
    return out, out.end_to_end(), END_TO_END


def run_traced(name: str, seed: int, seconds: float, meta: dict):
    # everything measured without wrappers comes first: the isolated
    # probes and the single-outstanding reference section
    from bench.probes import kvtable_probes, wire_replay
    from bench.tracer import Tracer

    fixed = kvtable_probes()
    reference = WORKLOADS[name](seed, seconds * REFERENCE_SHARE, None, True)
    reference_rate = reference.ops / reference.wall if reference.wall else 0.0

    tracer = Tracer()
    tracer.install()
    out = WORKLOADS[name](seed, seconds * (1.0 - REFERENCE_SHARE), tracer, True)
    out.checks += [("reference: " + n, ok, d) for n, ok, d in reference.checks]
    mismatches = tracer.counter_mismatches()
    out.check("span counts equal the program's registry counters",
              not mismatches, "; ".join(mismatches))
    fixed.update(wire_replay(tracer.messages))
    t0 = time.perf_counter()
    for system in out.systems[:1]:
        system.telemetry.export("jsonl")
    fixed["telemetry.export_ms"] = (time.perf_counter() - t0) * 1e3
    values = per_layer(tracer, out, out.root, reference_rate, fixed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{name}.json", meta)
    return out, values, PER_LAYER


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    meta = stamp(name, seed, seconds, trace)
    if trace:
        out, values, table = run_traced(name, seed, seconds, meta)
    else:
        out, values, table = run_untraced(name, seed, seconds)
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={trace}  "
          f"rev={meta['git_revision'][:12]}  python={meta['python']}  "
          f"nproc={meta['nproc']}  load={meta['load_1min']:.2f}")
    print(f"   one op = one {out.unit}; latency = {out.latency_unit}; "
          f"{out.ops} ops in {out.wall:.3f} s, {len(out.slices)} slices")
    for row in table:
        print(f"   {row[0]:32s} {values[row[0]]:14.4f} {row[1]}")
    for key, value in sorted(out.extra.items()):
        if key not in values:
            print(f"   ({key}: {value})")
    for check, ok, detail in out.checks:
        print(f"   [{'ok' if ok else 'FAILED'}] {check}" + (f" — {detail}" if detail else ""))
    metrics = {row[0]: {"value": values[row[0]], "unit": row[1]} for row in table}
    result = {
        "correct": out.correct,
        "attempted": max(int(out.attempted), 1),
        "failed": int(out.failed),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = dict(meta, **result, checks=out.checks,
                  extra={k: v for k, v in out.extra.items() if k not in values})
    with open(OUT_DIR / f"result-{name}-trace{trace}.json", "w") as f:
        json.dump(record, f, indent=2, default=str)
    print(json.dumps(result))
    return 0 if out.correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="wall seconds of the timed section (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload:
        return run_one(args.workload, args.seed, seconds, args.trace)
    status = 0
    for name in WORKLOADS:
        for trace in range(args.trace + 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)])
            status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
