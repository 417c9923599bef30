"""Benchmark: how long a user waits for mayacrystal's verdicts.

Usage, from the root of a checkout:

    python3 bench/run.py --workload census|oracle|theta_deep --seed N \
        --seconds S --trace 0|1

Each job is one ``mayacrystal`` CLI invocation in a fresh child process
(``bench/child.py``), one child at a time (a closed loop with one client).
The seed picks the jobs (see ``jobs.py``); the program sees only their argv.
Every job's stdout is checked: against a pinned digest, or as a
non-vacuous PASS report.

``--trace 0`` runs the seeded job list as rounds, repeating it while another
round fits in ``--seconds``, and prints the end-to-end metrics.  ``--trace
1`` runs the list's traced jobs once plainly and once with layer tracing,
self-tests the tracing, and prints the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.  The last line of stdout is the JSON
result; one row per job goes to ``.bench_build/jobs/``, traces to
``.bench_build/trace/``.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import sys
import time

from jobs import WORKLOADS, load_digests, make_jobs, sha256, verdict_problem

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
#: A job running longer than this is killed and counted as failed.
JOB_LIMIT_S = 90
#: No job starts, and a running one is killed, after this much of a run.
RUN_LIMIT_S = 160
#: Layers that must show self time on each workload's traced run.
PREDICTED_LAYERS = {
    "census": ("cli", "graph", "datum", "maya"),
    "oracle": ("cli", "datum", "maya", "fock", "laurent", "oracle"),
    "theta_deep": ("cli", "datum", "maya", "oracle"),
}
WARMUP_ARGV = ("kostant", "--rank", "2", "--beta", "1,1")
#: Interpreter start-up time (spawn to the first line of child.py) that
#: defines a calibrated second: about its median on the 2-core box the
#: baseline was measured on.
INTERPRETER_S = 0.05


def clock():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC) / 1e9


class Runner:
    """Spawns job children, times them and checks their verdicts."""

    def __init__(self, root, name):
        self.build = os.path.join(root, ".bench_build")
        self.name = name
        # Bytecode is cached under .bench_build (the warm-up job writes it),
        # as an installed package has it, so setup does not recompile.
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            PYTHONPYCACHEPREFIX=os.path.join(self.build, "pycache"),
        )
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        for sub in ("out", "jobs", "trace"):
            os.makedirs(os.path.join(self.build, sub), exist_ok=True)
        self.digests = load_digests()
        self.deadline = clock() + RUN_LIMIT_S
        self.rows = []

    def path(self, sub, suffix):
        return os.path.join(self.build, sub, "%s-%d%s" % (self.name, len(self.rows), suffix))

    def run(self, job, traced=False):
        """Run one job; returns its row (also kept in ``self.rows``)."""
        stdout_path = self.path("out", ".stdout")
        ready_path = self.path("out", ".ready")
        trace_path = self.path("trace", ".json") if traced else None
        for stale in (ready_path, trace_path):
            if stale and os.path.exists(stale):
                os.remove(stale)
        row = {"argv": list(job.argv), "traced": traced}
        limit = min(JOB_LIMIT_S, self.deadline - clock())
        if limit <= 0:
            row.update(exit=None, problem="not started: run time limit reached")
            return self._keep(row)
        exit_code, start, end, usage = self._spawn(
            [CHILD, ready_path, trace_path or "-", *job.argv],
            stdout_path, self.path("out", ".stderr"), limit,
        )
        with open(stdout_path, "rb") as handle:
            stdout = handle.read()
        try:
            with open(ready_path, encoding="utf-8") as handle:
                entered, ready = (int(field) / 1e9 for field in handle.read().split())
        except (OSError, ValueError):
            entered = ready = end
        row.update(
            exit=exit_code,
            digest=sha256(stdout),
            stdout_bytes=len(stdout),
            setup_s=ready - start,
            interpreter_s=entered - start,
            verdict_s=end - ready,
            peak_rss_mb=usage.ru_maxrss / 1024,
            cpu_s=usage.ru_utime + usage.ru_stime,
            problem=(
                "killed after %.0f s" % limit if exit_code is None
                else verdict_problem(job, exit_code, stdout, self.digests)
            ),
        )
        if traced:
            row["trace"] = trace_path
        return self._keep(row)

    def _keep(self, row):
        self.rows.append(row)
        return row

    def _spawn(self, args, stdout_path, stderr_path, limit):
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        start = clock()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *args], self.env,
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
                (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
            ],
        )
        killed = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                if not select.select([pidfd], [], [], limit)[0]:
                    os.kill(pid, signal.SIGKILL)
                    killed = True
            finally:
                os.close(pidfd)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        _, status, usage = os.wait4(pid, 0)
        end = clock()
        return (None if killed else os.waitstatus_to_exitcode(status)), start, end, usage

    def warm_up(self):
        """One untimed job, so the first timed one does not pay for cold
        caches or bytecode compilation."""
        stem = os.path.join(self.build, "out", "warmup")
        self._spawn(
            [CHILD, stem + ".ready", "-", *WARMUP_ARGV],
            stem + ".stdout", stem + ".stderr", JOB_LIMIT_S,
        )

    def write_rows(self):
        with open(os.path.join(self.build, "jobs", self.name + ".jsonl"), "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def run_rounds(runner, jobs, seconds):
    """Repeat the job list while another round fits in ``seconds``."""
    rounds = []
    begin = clock()
    while True:
        round_start = clock()
        rounds.append([runner.run(job) for job in jobs])
        now = clock()
        if now + (now - round_start) > begin + seconds or now > runner.deadline:
            return rounds


def calibrated(row, key):
    """``row[key]`` in calibrated seconds.

    The speed of this shared 2-core machine drifts by a quarter within
    minutes, and a run's raw times drift with it.  The interpreter's own
    start-up is fixed work that runs just before the job, on the same CPU,
    and does not depend on the program, so each job's times are scaled by
    INTERPRETER_S over its interpreter start.  The job rows keep the raw
    seconds.
    """
    return row.get(key, 0.0) * INTERPRETER_S / row["interpreter_s"]


def end_to_end(rounds, spec):
    rows = [row for rows in rounds for row in rows if "setup_s" in row]
    per_job = len(rounds[0])
    values = {
        # Setup is the same work for every job, so the round's sum is taken
        # as job count times the median, which one slow spawn cannot move.
        "setup_s": per_job * statistics.median(calibrated(row, "setup_s") for row in rows),
        "verdict_s": statistics.median(
            sum(calibrated(row, "verdict_s") for row in round_rows if "setup_s" in row)
            for round_rows in rounds
        ),
        "peak_rss_mb": max(row["peak_rss_mb"] for row in rows),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}


def traced_run(runner, jobs, workload):
    """Each traced job plainly, then traced.

    Returns the (plain, traced) row pairs, the traces of the jobs that
    passed, and the self-test's problems.
    """
    pairs = [(runner.run(job), runner.run(job, traced=True)) for job in jobs if job.traced]
    problems = []
    traces = []
    for plain, traced in pairs:
        if plain["problem"] or traced["problem"]:
            continue
        if plain["digest"] != traced["digest"]:
            problems.append("traced stdout differs for %s" % " ".join(plain["argv"]))
        with open(traced["trace"], encoding="utf-8") as handle:
            trace = json.load(handle)
        traces.append(trace)
        total = sum(trace["self_ns"].values())
        if abs(total - trace["main_ns"]) > 0.01 * trace["main_ns"] + 1e6:
            problems.append(
                "layer self times sum to %d ns, traced job took %d ns (%s)"
                % (total, trace["main_ns"], " ".join(plain["argv"]))
            )
    for layer in PREDICTED_LAYERS[workload]:
        if not sum(trace["self_ns"][layer] for trace in traces):
            problems.append("layer %s has no self time on %s" % (layer, workload))
    return pairs, traces, problems


def per_layer(pairs, traces, spec):
    def total(part, key):
        return sum(trace[part].get(key, 0) for trace in traces)

    def counter(key):
        if any(key in trace["peaks"] for trace in traces):
            return max(trace["peaks"].get(key, 0) for trace in traces)
        return total("counts", key)

    children = total("counts", "graph.children")
    special = {
        "graph.dedup.useful_ratio": (
            # Every node but each exploration's root came from a child.
            (total("counts", "graph.nodes") - total("calls", "graph.explore")) / children
            if children else 0.0
        ),
        "cli.output_bytes": sum(traced["stdout_bytes"] for _, traced in pairs),
        "trace.overhead_s": sum(t["verdict_s"] - p["verdict_s"] for p, t in pairs),
    }
    metrics = {}
    for name, unit in spec:
        if name in special:
            value = special[name]
        elif name.endswith(".self_s"):
            value = total("self_ns", name[: -len(".self_s")]) / 1e9
        elif name.endswith(".calls"):
            value = total("calls", name[: -len(".calls")])
        elif name.endswith(".s"):
            value = total("incl_ns", name[: -len(".s")]) / 1e9
        else:
            value = counter(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mayacrystal", "cli.py")):
        print("bench: run from a checkout that has src/mayacrystal", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    runner = Runner(root, name)
    runner.warm_up()
    jobs = make_jobs(args.workload, args.seed)
    problems = []
    if args.trace:
        spec = [(m["name"], m["unit"]) for m in config["per_layer"]]
        pairs, traces, problems = traced_run(runner, jobs, args.workload)
        metrics = per_layer(pairs, traces, spec)
    else:
        spec = [(m["name"], m["unit"]) for m in config["end_to_end"]]
        metrics = end_to_end(run_rounds(runner, jobs, args.seconds), spec)
    runner.write_rows()

    failed = [row for row in runner.rows if row["problem"]]
    for row in failed:
        print("job failed: %s: %s" % (" ".join(row["argv"]), row["problem"]), file=sys.stderr)
    for problem in problems:
        print("self-test: %s" % problem, file=sys.stderr)
    wrong = [row for row in failed if row["exit"] is not None]
    print(json.dumps({
        "correct": not wrong and not problems,
        "attempted": len(runner.rows),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
