"""Tests of the benchmark's generators, verdict checks and tracing.

Run from the repository root: python3 -m pytest bench -q
"""

import json
import os
import subprocess
import sys

import pytest

import jobs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _words(job_list):
    return [[int(x) for x in job.argv[4].split(",")] for job in job_list]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_argv(workload):
    first = [job.argv for job in jobs.make_jobs(workload, 7)]
    assert first == [job.argv for job in jobs.make_jobs(workload, 7)]
    assert first != [job.argv for job in jobs.make_jobs(workload, 8)]


def test_census_stays_on_the_grid():
    for job in jobs.make_jobs("census", 3):
        _, _, n, _, depth, _, window = job.argv
        n, depth, window = int(n), int(depth), int(window)
        assert (n, depth) in jobs.CENSUS_CELLS
        assert 0 <= window - n * (depth + 1) <= 2
        assert job.digest_key == "verify-%d-%d" % (n, depth)


def test_oracle_stays_in_range():
    job_list = jobs.make_jobs("oracle", 3)
    assert len(job_list) == len(jobs.ORACLE_SLOTS)
    shapes = []
    for job, word in zip(job_list, _words(job_list)):
        n, window = int(job.argv[2]), int(job.argv[6])
        lengths, windows = {2: ((5, 6), (8, 10)), 3: ((4, 5), (7, 8))}[n]
        assert lengths[0] <= len(word) <= lengths[1]
        assert windows[0] <= window <= windows[1]
        assert all(0 <= x < n for x in word)
        changes = sum(a != b for a, b in zip(word, word[1:]))
        shapes.append((n, len(word), window, changes))
    assert sorted(shapes) == sorted(jobs.ORACLE_SLOTS)


def test_theta_deep_stays_in_range():
    job_list = jobs.make_jobs("theta_deep", 3)
    for job, word in zip(job_list, _words(job_list)):
        n = int(job.argv[2])
        low, high = {3: (10, 12), 4: (12, 14)}[n]
        assert low <= len(word) <= high
        assert job.argv[-1] == "1" and job.rows == 2 * n
        steps = {(b - a) % n for a, b in zip(word[:-1], word[1:-1])}
        assert steps in ({1}, {n - 1})


def test_partition_count():
    def brute(k, cap):
        return 1 if k == 0 else sum(brute(k - p, p) for p in range(1, min(k, cap) + 1))

    assert [jobs.partition_count(k) for k in range(15)] == [brute(k, k) for k in range(15)]


def _report(rows, passed=True):
    return json.dumps({"pass": passed, "results": rows}).encode()


def test_verdict_rules():
    job = jobs.Job(("oracle-check",), rows=2)
    good = [{"match": True}, {"match": True}]
    assert jobs.verdict_problem(job, 0, _report(good), {}) is None
    assert jobs.verdict_problem(job, 0, _report([]), {})  # vacuous pass
    assert jobs.verdict_problem(job, 0, _report([{"match": True}, {"match": False}]), {})
    assert jobs.verdict_problem(job, 0, _report(good, passed=False), {})
    assert jobs.verdict_problem(job, 1, _report(good), {})
    pinned = jobs.Job(("verify",), digest_key="k")
    assert jobs.verdict_problem(pinned, 0, b"x", {"k": jobs.sha256(b"x")}) is None
    assert jobs.verdict_problem(pinned, 0, b"y", {"k": jobs.sha256(b"x")})
    assert jobs.verdict_problem(pinned, 0, b"x", {})


def test_traced_child_matches_plain_child(tmp_path):
    argv = ["oracle-check", "--rank", "2", "--word", "0,1", "--max-boxes", "3"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    child = os.path.join(ROOT, "bench", "child.py")
    trace_path = tmp_path / "trace.json"
    plain = subprocess.run(
        [sys.executable, child, str(tmp_path / "a"), "-", *argv],
        env=env, capture_output=True, check=True)
    traced = subprocess.run(
        [sys.executable, child, str(tmp_path / "b"), str(trace_path), *argv],
        env=env, capture_output=True, check=True)
    assert plain.stdout == traced.stdout
    trace = json.loads(trace_path.read_text())
    assert sum(trace["self_ns"].values()) <= trace["main_ns"]
    assert sum(trace["self_ns"].values()) > 0.99 * trace["main_ns"]
    for name in ("maya.to_partition", "maya.from_partition", "maya.removable_boxes",
                 "fock.x_act", "laurent.MultiPoly.mul", "oracle.compare", "datum.eval"):
        assert trace["calls"][name] > 0, name
    spans = {span[0]: span for span in trace["spans"]}
    for span_id, parent, name, start, end in spans.values():
        assert start <= end
        if parent is not None:
            assert spans[parent][3] <= start and end <= spans[parent][4]


def test_wrappers_replace_every_import_site():
    script = (
        "import layertrace\n"
        "layertrace.Tracer().install()\n"
        "from mayacrystal import cli, datum, fock, maya, oracle\n"
        "for fn in ('to_partition', 'removable_boxes', 'remove_box'):\n"
        "    sites = [m for m in (datum, fock, oracle, maya) if hasattr(m, fn)]\n"
        "    assert len({id(getattr(m, fn)) for m in sites}) == 1, fn\n"
        "    assert hasattr(getattr(maya, fn), '__wrapped__'), fn\n"
        "assert oracle.x_act is fock.x_act and hasattr(fock.x_act, '__wrapped__')\n"
        "assert cli.from_partition is maya.from_partition\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"),
                                                       os.path.join(ROOT, "bench")]))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
