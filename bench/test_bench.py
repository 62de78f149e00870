"""Self-check of the benchmark (kept outside pytest's ``testpaths``).

    python3 bench/test_bench.py --quick

validates ``BENCHMARK.json`` against the benchmark contract and against
the names fixed in ``bench/metrics.py`` / ``bench/workloads.py``, then
runs ``sim-broker-flash`` twice (traced and untraced, in parallel, a few
seconds) and checks what the runs print against ``BENCHMARK.json``: the last line is the result
object, its metrics are exactly the declared ones with the declared
units, and the simulated outcome of ``sim-broker-flash`` for seeds 0
and 1 equals the values recorded in ``bench/golden.json``.  Without
``--quick`` the runs use ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
GOLDEN_KEYS = ("completion_digest", "sim.p50_ms", "sim.p99_ms", "sim.timers_per_op")


def check_benchmark_json(doc: dict) -> list[str]:
    errors = []

    def need(cond, message):
        if not cond:
            errors.append(message)

    need(set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
         f"unexpected top-level keys: {sorted(doc)}")
    need(1 <= len(doc["paths"]) <= 16 and all(PATH.match(p) for p in doc["paths"]), "bad paths")
    need(1 <= len(doc["command"]) <= 32 and all(len(c) <= 200 for c in doc["command"]),
         "bad command")
    need(isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60, "bad run_seconds")
    need(2 <= len(doc["workloads"]) <= 8, "2 to 8 workloads")
    need(1 <= len(doc["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    need(1 <= len(doc["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = []
    for w in doc["workloads"]:
        need(set(w) == {"name", "why"}, f"workload keys: {w}")
        need(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']} too long")
        names.append(w["name"])
    for m in doc["end_to_end"]:
        need(set(m) == {"name", "unit", "better", "bound"}, f"end-to-end keys: {m}")
        need(0 <= m["bound"] <= 0.25, f"bound of {m['name']}")
        names.append(m["name"])
    for m in doc["per_layer"]:
        need(set(m) == {"name", "unit", "better"}, f"per-layer keys: {m}")
        names.append(m["name"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        need(UNIT.match(m["unit"]), f"unit of {m['name']}: {m['unit']!r}")
        need(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    need(all(NAME.match(n) for n in names), "a name breaks the naming rule")
    need(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    need(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
         "setup_s (s, lower) is required")
    need(setup and setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"]),
         "setup_s carries the largest bound")
    need(len(json.dumps(doc)) <= 64 * 1024, "file too large")
    # ... and against the tables the code prints from
    need([w["name"] for w in doc["workloads"]] == list(WORKLOADS), "workloads differ from bench.workloads")
    need([(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]]
         == list(END_TO_END), "end_to_end differs from bench.metrics")
    need([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
         == list(PER_LAYER), "per_layer differs from bench.metrics")
    return errors


def check_output(stdout: str, declared: list[dict]) -> tuple[list[str], dict]:
    errors = []
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return ["the last line of output is not a JSON object"], {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys: {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append("attempted must be a whole number >= 1")
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in declared]:
        errors.append("printed metrics differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{m['name']}: {got}")
        # every declared name is also printed by name with its unit
        if not re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$",
                         stdout, re.M):
            errors.append(f"{m['name']} is not printed with its unit")
    return errors, metrics


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_benchmark_json(doc)
    seconds = "0.5" if quick else str(doc["run_seconds"])
    runs = {  # (workload, seed, trace): one traced, one untraced
        "flash0": ("sim-broker-flash", 0, 1),
        "flash1": ("sim-broker-flash", 1, 0),
    }
    procs = {
        key: subprocess.Popen(
            doc["command"] + ["--workload", w, "--seed", str(seed), "--seconds", seconds,
                              "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for key, (w, seed, trace) in runs.items()
    }
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    for key, proc in procs.items():
        workload, seed, trace = runs[key]
        stdout, stderr = proc.communicate(timeout=180)
        label = f"{workload} seed={seed} trace={trace}"
        if proc.returncode != 0:
            errors.append(f"{label}: exit code {proc.returncode}\n{stderr[-2000:]}")
            continue
        found, metrics = check_output(stdout, doc["per_layer" if trace else "end_to_end"])
        errors += [f"{label}: {e}" for e in found]
        record = json.loads(
            (ROOT / "bench" / "out" / f"result-{workload}-trace{trace}.json").read_text())
        for field in ("git_revision", "python", "nproc", "load_1min", "seed"):
            if field not in record:
                errors.append(f"{label}: result file lacks {field}")
        seen = dict(record["extra"], **{k: v["value"] for k, v in metrics.items()})
        for name in GOLDEN_KEYS:
            if name in seen and seen[name] != golden[str(seed)][name]:
                errors.append(f"{label}: {name} = {seen[name]!r}, "
                              f"recorded {golden[str(seed)][name]!r}")
    for e in errors:
        print("FAIL", e)
    print(f"bench self-check: {'FAILED' if errors else 'ok'} "
          f"({len(doc['workloads'])} workloads, {len(doc['end_to_end'])} end-to-end and "
          f"{len(doc['per_layer'])} per-layer metrics, {len(runs)} runs)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
