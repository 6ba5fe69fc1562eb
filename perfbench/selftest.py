"""Self-test of the benchmark at smoke size (under a minute).

    python3 perfbench/selftest.py

For every workload it runs `run.py --size smoke` untraced and traced, and
checks that: every metric named in BENCHMARK.json appears with its unit,
no job failed (error rate 0), the record carries the seed, the input digest
and the environment, and the exact counts of two traced runs with one seed
agree.  It also checks that the recorded answers agree with closed forms.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 120
SEED = 1


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1]), done.stderr


def check_metrics(result, declared, label):
    problems = []
    got = result["metrics"]
    for entry in declared:
        metric = got.get(entry["name"])
        if metric is None:
            problems.append(f"{label}: metric {entry['name']} missing")
        elif metric["unit"] != entry["unit"] or not isinstance(metric["value"], (int, float)):
            problems.append(f"{label}: metric {entry['name']} has {metric}")
    extra = set(got) - {entry["name"] for entry in declared}
    if extra:
        problems.append(f"{label}: undeclared metrics {sorted(extra)}")
    return problems


def main():
    sys.path.insert(0, HERE)
    import expected

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = [f"constants: {m}" for m in expected.closed_form_mismatches()]
    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, None)):
            label = f"{workload} trace={trace}"
            record, result, stderr = run(workload, trace)
            if declared is not None:
                problems += check_metrics(result, declared, label)
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} jobs "
                                f"failed\n{stderr.strip()}")
            env = record["environment"]
            if record["seed"] != SEED or len(record["input_digest"]) != 64 or not (
                    env["python"] and env["nproc"] >= 1 and len(env["loadavg"]) == 3):
                problems.append(f"{label}: record incomplete: {record}")
            if trace:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] == "count"})
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{workload}: counts differ between traced runs: {diff}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
