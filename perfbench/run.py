"""msclust benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (it runs ``src/msclust``). The seed
makes the inputs, which are written before anything is timed. Each job is
a fresh ``msclust`` process, one at a time (a closed loop with one
client). Every job's output is checked by ``verify.py``; a job that fails
counts as failed and its time is not used.

--trace 0 runs whole rounds over the inputs, while the next round is
expected to end within S seconds, and prints the end-to-end metrics: each
input's median, then the median over the inputs, and ``setup_s`` from its
own probe processes. Times are given at a fixed host speed (see
SPEED_REF_S). --trace 1 runs each input plain and then traced, in the same
way, and prints the per-layer metrics of the traced jobs.

The last line of stdout is the result as one JSON object; the same result
with the provenance and every sample goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

import numpy as np

import tracer
import verify
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "msclust")

# what the console script `msclust` runs
ENTRY = "import sys; from msclust.cli import main; sys.exit(main())"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Inputs differ by 15% and more in how much search their data needs, and
# jobs on a shared machine by 25% and more; a run therefore reports
# medians over many inputs made from its seed.
INPUTS_PER_RUN = 10
SETUP_PROBES = 5
RUN_BUDGET_S = 150.0   # no job starts that would end the run after this
# The reference machine slows by up to 1.7x for minutes at a time (other
# tenants of the host), longer than a run. So a run times a fixed piece of
# work that uses no msclust code before every process it starts and after
# the last, and gives each process's time at a fixed speed: measured time
# x SPEED_REF_S / the mean of the speed probes just before and after it.
SPEED_REF_S = 0.15


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list
    quality: dict
    trace: dict | None = None
    part: int = 0           # which of the run's inputs the job ran on
    speed_s: float = SPEED_REF_S  # mean speed-probe time just before and after


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MSC_THREADS"}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = SRC
    return env


def provenance(seed: int, env: dict) -> dict:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # never a repository above ROOT
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {k: env.get(k) for k in THREAD_VARS + ("MSC_THREADS",)},
        "seed": seed,
    }


def speed_probe() -> float:
    """Seconds a fixed piece of work takes now: small numpy calls in a
    Python loop, then whole-array arithmetic, the mix the program's scans
    make."""
    x = np.linspace(0.0, 1.0, 1000)
    m = np.add.outer(x[:300], x)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30000):
        acc += float(np.minimum(m[i % 300], x[i % 1000]).sum())
    for _ in range(6):
        acc += float(np.sqrt(m * m + acc % 1.0).sum())
    return time.perf_counter() - t0


def run_process(cmd: list, env: dict, stdout, stderr, limit: float):
    """Run cmd to completion; returns (wall seconds, exit code, CPU seconds,
    peak RSS MB).
    The process is killed if it outlives limit seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=stdout, stderr=stderr)
    killer = threading.Timer(max(limit, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def run_job(inputs, env: dict, limit: float, traced: bool) -> Job:
    workdir = os.path.dirname(inputs.input_path)
    out = os.path.join(workdir, "out.json")
    err = os.path.join(workdir, "stderr.txt")
    trace_path = os.path.join(workdir, "trace.json")
    for path in (out, trace_path, inputs.plot_path):
        if path and os.path.exists(path):
            os.remove(path)
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path]
    else:
        cmd = [sys.executable, "-c", ENTRY]
    cmd += inputs.argv + ["--output", out]
    with open(err, "w", encoding="utf-8") as err_fh:
        wall, code, cpu, rss = run_process(cmd, env, subprocess.DEVNULL, err_fh, limit)
    problems, quality = verify.verify(
        inputs, code, _read(err) or "", _read(out) or "",
        _read(inputs.plot_path) if inputs.plot_path else None)
    trace = None
    if traced and not problems:
        trace = json.loads(_read(trace_path))
    return Job(wall, cpu, rss, problems, quality, trace)


def setup_probe(inputs, env: dict, limit: float) -> float | None:
    """Seconds from process start until the dissimilarity matrix is ready."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), inputs.kind,
           inputs.input_path]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(limit, 1.0))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    ready, n = proc.stdout.split()
    return float(ready) - t0 if int(n) == len(inputs.data) else None


def median(values):
    return statistics.median(values) if values else None


def end_to_end(jobs: list, setups: list) -> dict:
    """setups holds (seconds or None, speed-probe seconds) per set-up probe."""
    ok = [j for j in jobs if not j.problems]
    if not ok:
        return {"ok_frac": 0.0}
    parts = sorted({j.part for j in ok})

    def per_input(value):
        # every input weighs the same, however many of its jobs passed
        return median([median([value(j) for j in ok if j.part == p]) for p in parts])

    return {
        "wall_s": per_input(lambda j: j.wall_s * SPEED_REF_S / j.speed_s),
        "setup_s": median([s * SPEED_REF_S / speed for s, speed in setups if s is not None]),
        "peak_rss_mb": per_input(lambda j: j.rss_mb),
        "ams": per_input(lambda j: j.quality["ams"]),
        "ari": per_input(lambda j: j.quality["ari"]),
        "ok_frac": len(ok) / len(jobs),
    }


def per_layer(jobs: list) -> tuple[dict, list]:
    plain = [j.wall_s for j in jobs if j.trace is None and not j.problems]
    traced = [j for j in jobs if j.trace is not None]
    if not plain or not traced:
        return {}, []
    samples, absent = [], []
    for j in traced:
        values, absent = tracer.metrics(j.trace)
        accounted = (values.get("trace.counter_s", 0.0) + values.get("cli.import_s", 0.0)
                     + sum(j.trace["layer_self"].values()))
        values["trace.wall_s"] = j.wall_s
        values["trace.accounted_frac"] = accounted / j.wall_s
        samples.append(values)
    out = {name: median([s[name] for s in samples]) for name in samples[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - median(plain)
    return out, absent


def measure(args, inputs: list, env: dict) -> tuple[list, list, list]:
    """With --trace 0, jobs run in whole rounds, every input once a round,
    so every input gets the same number of jobs. With --trace 1, a round
    is one input run plain and then traced. Rounds run while the next one
    is expected to end within the window, and at least one runs. A speed
    probe runs before every process and after the last."""
    started = time.perf_counter()

    def remaining():
        return RUN_BUDGET_S - (time.perf_counter() - started)

    speeds = [speed_probe()]
    setups = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            seconds = setup_probe(inputs[i % len(inputs)], env, remaining())
            speeds.append(speed_probe())
            setups.append((seconds, (speeds[-2] + speeds[-1]) / 2))
    modes = (False, True) if args.trace else (False,)
    whole = len(modes) if args.trace else len(inputs)
    jobs: list[Job] = []
    longest = 0.0
    window = round_start = time.perf_counter()
    while remaining() > longest:
        if jobs and len(jobs) % whole == 0:
            now = time.perf_counter()
            if 2 * now - round_start - window > args.seconds:
                break   # another round as long as the last would overrun
            round_start = now
        part = len(jobs) // len(modes) % len(inputs)
        job = run_job(inputs[part], env, remaining(), modes[len(jobs) % len(modes)])
        speeds.append(speed_probe())
        job.part, job.speed_s = part, (speeds[-2] + speeds[-1]) / 2
        for problem in job.problems:
            print(f"job {len(jobs)}: {problem}", file=sys.stderr)
        jobs.append(job)
        longest = max(longest, job.wall_s)
    return jobs, setups, speeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"perfbench: no msclust source under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = child_env()
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = []
        for part in range(INPUTS_PER_RUN):
            os.makedirs(os.path.join(workdir, str(part)))
            inputs.append(workloads.generate(args.workload, args.seed, part,
                                             os.path.join(workdir, str(part))))
        # untimed warm-up: byte-compiles the package before anything is timed
        warm = setup_probe(inputs[0], env, RUN_BUDGET_S)
        jobs, setups, speeds = measure(args, inputs, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    absent = []
    if args.trace:
        values, absent = per_layer(jobs)
    else:
        values = end_to_end(jobs, setups)
    failed = sum(bool(j.problems) for j in jobs) + sum(s is None for s, _ in setups) + (warm is None)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}
    for name in absent:
        print(f"perfbench: {name} is absent: a span it needs could not be hooked",
              file=sys.stderr)
    result = {
        "correct": failed == 0 and len(metrics) + len(absent) == len(wanted),
        "attempted": len(jobs) + len(setups) + 1,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, params=workloads.WORKLOADS[args.workload].params,
                  provenance=provenance(args.seed, env),
                  jobs=[{"part": j.part, "wall_s": j.wall_s, "cpu_s": j.cpu_s, "rss_mb": j.rss_mb, "speed_s": j.speed_s, "traced": j.trace is not None,
                         "problems": j.problems, **j.quality} for j in jobs],
                  setup_s=setups, speed_s=speeds, absent=absent)
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
