"""prismhom benchmark: seeded CLI workloads timed end to end and, traced, by layer.

    python3 perfbench/run.py --workload homology-ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/selftest.py      # smoke-size check of the benchmark itself

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One client runs its workload's job list in a closed loop
(one job at a time, one thread): at least three passes, then further passes
while the next is expected to end within --seconds.  Every job is a real
`prismhom` command line run in-process through `prismhom.cli.main`, with its
stdout captured and checked against recorded answers and against the first
pass; a job that raises, exits non-zero, answers wrongly or prints different
bytes on a repeat counts as failed.

End-to-end metrics (--trace 0):
    setup_s       median over eleven fresh processes, each timed from before
                  `import prismhom` until the inputs are written (and, for
                  ktg-invariants, the complexes are warm in `cached_complex`)
    wall_s        time to every answer of the job list: the sum over jobs of
                  each job's best time over the passes
    job_p50_s     median over jobs of that best time
    peak_rss_mib  ru_maxrss of this process

With --trace 1 the run adds one traced pass and reports the per-layer
metrics of `tracing.py` instead.  The last stdout line is the result object;
the line before it records the seed, the input digest and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("homology-ladder", "verify-s3", "ktg-invariants")
SETUP_SAMPLES = 11
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
MAX_FAILURE_NOTES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke runs a small version of the workload in seconds")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args, traced=False):
    """Import prismhom from the checkout and write the seeded inputs.

    Returns (prepared inputs, workdir, import seconds, set-up seconds, tracer);
    with `traced` the tracer spans the set-up after the import.
    """
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import prismhom
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(prismhom.__file__)) != os.path.join(SRC, "prismhom"):
        raise SystemExit(f"error: prismhom was imported from {prismhom.__file__}, not {SRC}")
    import workloads

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    setup_fn, _ = workloads.WORKLOADS[args.workload]
    prepared = setup_fn(workdir, random.Random(args.seed), args.size)
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return prepared, workdir, import_s, setup_s, tracer


def probe(args):
    """One fresh-process set-up sample, printed as JSON."""
    import inputs

    prepared, workdir, import_s, setup_s, _ = setup(args)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, "import_s": import_s,
                      "digest": inputs.digest(prepared.files)}))
    return 0


def setup_samples(args, count):
    """Set-up samples from `count` fresh processes, run one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs jobs through the CLI entry point and checks every answer."""

    def __init__(self, check):
        from prismhom import cli

        self.cli = cli
        self.check = check
        self.first_stdout = {}
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def run_job(self, job):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(job.argv))
        except (Exception, SystemExit) as exc:  # a job that raises counts as failed
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problem = self._problem(job, code, out.getvalue())
        if problem:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(f"{job.key}: {problem}")
        return elapsed

    def _problem(self, job, code, stdout):
        if code != 0:
            return f"exit {code}"
        first = self.first_stdout.setdefault(job.argv, stdout)
        if stdout != first:
            return "stdout differs from the first run of the same job"
        try:
            ok = self.check(job, stdout, self.seen)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable answer: {exc}"
        return None if ok else "wrong answer"

    def run_pass(self, jobs):
        return [self.run_job(job) for job in jobs]


def measure(runner, jobs, seconds):
    """Closed loop over whole passes: MIN_PASSES or more, while the next fits.

    Returns per-job time lists (one entry per pass) and the pass times.
    """
    per_job = [[] for _ in jobs]
    passes = []
    start = time.perf_counter()
    while True:
        times = runner.run_pass(jobs)
        for samples, t in zip(per_job, times):
            samples.append(t)
        passes.append(sum(times))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(passes) > seconds:
            return per_job, passes


def environment():
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "platform": platform.platform()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prismhom", "cli.py")):
        print(f"error: no prismhom sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe(args)

    env = environment()
    # Half the fresh-process set-ups run before the measurement and half
    # after it, so the median spans the run rather than one moment of it.
    before = (SETUP_SAMPLES - 1) // 2
    setups = setup_samples(args, before)

    import expected
    import inputs

    bad_constants = expected.closed_form_mismatches()
    if bad_constants:
        print("error: recorded answers contradict closed forms: " + "; ".join(bad_constants),
              file=sys.stderr)
        return 1

    traced = args.trace == 1
    prepared, workdir, import_s, setup_s, tracer = setup(args, traced)
    digest = inputs.digest(prepared.files)
    setups.append({"setup_s": setup_s, "import_s": import_s, "digest": digest})

    import tracing
    import workloads

    runner = Runner(workloads.WORKLOADS[args.workload][1])
    try:
        per_job, passes = measure(runner, prepared.jobs, args.seconds)
        if traced:
            tracer.install()
            pass_first = len(tracer.spans)
            traced_pass_s = sum(runner.run_pass(prepared.jobs))
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups += setup_samples(args, SETUP_SAMPLES - 1 - before)

    same_inputs = all(s["digest"] == digest for s in setups)
    # On a shared host, other tenants slow the CPU by up to 1.6x in bursts of
    # seconds; that only ever adds time, so each job is summarised by its best
    # time over the passes before anything is summed or ranked.
    job_best = [min(samples) for samples in per_job]
    if traced:
        missing = tracer.missing(args.workload)
        if missing:
            print(f"error: traced run recorded no calls of {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.tsv"))
        metrics = tracing.layer_metrics(tracer, pass_first, traced_pass_s, sum(job_best),
                                        [t for samples in per_job for t in samples])
        metrics["cli.import_s"] = {"value": statistics.median(s["import_s"] for s in setups),
                                   "unit": "s"}
        metrics["jobs.error_rate"] = {"value": runner.failed / runner.attempted,
                                      "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "wall_s": {"value": sum(job_best), "unit": "s"},
            "job_p50_s": {"value": statistics.median(job_best), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }

    if not same_inputs:
        runner.notes.append("set-up processes generated different inputs for one seed")
    for note in runner.notes:
        print(f"failure: {note}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "input_digest": digest, "same_inputs": same_inputs,
              "jobs_per_pass": len(prepared.jobs), "pass_s": passes,
              "job_samples": sum(len(t) for t in per_job),
              "setup_s": [s["setup_s"] for s in setups],
              "environment": env}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0 and same_inputs,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
