"""Seeded job lists for the three benchmark workloads, and verdict checks.

A job is one ``mayacrystal`` CLI invocation.  ``make_jobs`` returns the same
argv list for the same seed.  Every job slot fixes what the cost depends on
(rank, word shape, window); the seed picks only what leaves the cost
unchanged: a symmetry of the affine type-A Dynkin diagram applied to each
word (rotating the residues, reflecting i to -i) and the job order.  Seeded
random words moved a run's work by 7% between seeds (interquartile range
over ten seeds, counted in MultiPoly multiplies), on top of the machine's
own noise, which the run-to-run bounds cannot absorb.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from functools import lru_cache

WORKLOADS = ("census", "oracle", "theta_deep")

#: (rank, depth) cells of the census workload.
CENSUS_CELLS = ((2, 6), (3, 5), (4, 4))
#: Every census cell runs at the default window and at the default plus two
#: boxes; the report does not depend on the window, the cost does (n=4 takes
#: 12 s at the default and 19 s at +2), so every run has both.
CENSUS_WIDENINGS = (0, 2)

#: (rank, word length, window, letter changes) of each oracle job slot.
#: Cost grows with the number of letter changes (n=2, length 6, window 8:
#: 0.28 s for 000000 against 1.2 s for 011010), so each slot fixes it.
ORACLE_SLOTS = (
    (2, 5, 8, 2), (2, 5, 9, 3), (2, 5, 10, 2), (2, 6, 8, 3), (2, 6, 9, 2), (2, 6, 10, 3),
    (2, 5, 8, 3), (2, 5, 9, 2), (2, 5, 10, 3), (2, 6, 8, 2), (2, 6, 9, 3), (2, 6, 10, 2),
    (2, 6, 8, 4), (2, 6, 9, 4), (2, 6, 10, 4),
    (3, 4, 7, 2), (3, 4, 8, 3), (3, 5, 8, 2), (3, 5, 7, 3), (3, 5, 7, 4),
    (3, 4, 8, 2), (3, 4, 7, 3), (3, 5, 7, 2), (3, 5, 8, 3), (3, 5, 8, 4),
)
#: Seed of the fixed draw of the oracle slots' base words.
ORACLE_CATALOG_SEED = "oracle-catalog"

#: (rank, word length, last-letter change) of each theta_deep job slot.  The
#: base word is 0, 1, 2, ... mod n; a change adds +1 (a skip) or -1 (a repeat
#: of the letter before) to its last letter.  A change in the middle of the
#: word cuts the cost to a seventh, so only the last letter changes.
THETA_SLOTS = (
    (3, 10, 0), (3, 10, -1), (3, 11, 0), (3, 11, 1), (3, 12, 0), (3, 12, -1),
    (4, 12, 0), (4, 12, 1), (4, 13, 0), (4, 13, -1), (4, 14, 0), (4, 14, 1),
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and how its stdout is checked.

    ``digest_key`` names a pinned stdout digest; ``rows`` is the row count a
    non-vacuous oracle report must have.  ``traced`` marks the jobs that the
    traced run repeats with layer tracing on.
    """

    argv: tuple
    digest_key: str | None = None
    rows: int | None = None
    traced: bool = True


def make_jobs(workload, seed):
    """The seeded job list of one round of ``workload``."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "census":
        jobs = census_jobs()
    elif workload == "oracle":
        jobs = oracle_jobs(rng)
    elif workload == "theta_deep":
        jobs = theta_jobs(rng)
    else:
        raise ValueError("unknown workload: %r" % (workload,))
    rng.shuffle(jobs)
    return jobs


def census_jobs():
    return [
        Job(
            ("verify", "--rank", str(n), "--depth", str(depth),
             "--max-boxes", str(n * (depth + 1) + widen)),
            digest_key="verify-%d-%d" % (n, depth),
            traced=widen == 0,
        )
        for n, depth in CENSUS_CELLS
        for widen in CENSUS_WIDENINGS
    ]


def oracle_jobs(rng):
    catalog = random.Random(ORACLE_CATALOG_SEED)
    return [
        _oracle_job(
            n, symmetric_image(rng, n, changing_word(catalog, n, length, changes)),
            window, traced=k % 2 == 0,
        )
        for k, (n, length, window, changes) in enumerate(ORACLE_SLOTS)
    ]


def theta_jobs(rng):
    jobs = []
    for n, length, change in THETA_SLOTS:
        word = [k % n for k in range(length)]
        word[-1] = (word[-1] + change) % n
        jobs.append(_oracle_job(n, symmetric_image(rng, n, word), 1, traced=True))
    return jobs


def changing_word(rng, n, length, changes):
    """Random word over residues mod n with exactly ``changes`` letter changes."""
    positions = set(rng.sample(range(1, length), changes))
    word = [rng.randrange(n)]
    for k in range(1, length):
        letter = word[-1]
        if k in positions:
            letter = (letter + rng.randrange(1, n)) % n
        word.append(letter)
    return word


def symmetric_image(rng, n, word):
    """``word`` under a random Dynkin-diagram symmetry, which leaves the
    job's cost unchanged: residues rotated, and possibly reflected."""
    shift = rng.randrange(n)
    sign = rng.choice((1, -1))
    return [(sign * letter + shift) % n for letter in word]


def _oracle_job(n, word, window, traced):
    return Job(
        ("oracle-check", "--rank", str(n), "--word", ",".join(map(str, word)),
         "--max-boxes", str(window)),
        rows=n * sum(partition_count(k) for k in range(window + 1)),
        traced=traced,
    )


@lru_cache(maxsize=None)
def partition_count(k):
    """Number of partitions of k (Euler's pentagonal recurrence)."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    total = 0
    j = 1
    while True:
        for pent in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if pent > k:
                return total
            total += (-1) ** (j + 1) * partition_count(k - pent)
        j += 1


DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def verdict_problem(job, exit_code, stdout, digests):
    """None when the job's verdict checks out, else a one-line reason."""
    if exit_code != 0:
        return "exit code %s" % exit_code
    if job.digest_key is not None:
        pinned = digests.get(job.digest_key)
        if pinned is None:
            return "no pinned digest for %s" % job.digest_key
        if sha256(stdout) != pinned:
            return "stdout digest differs from pinned %s" % job.digest_key
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON report"
    rows = report.get("results", [])
    if report.get("pass") is not True:
        return "report does not pass"
    if not all(row.get("match") is True for row in rows):
        return "a row does not match"
    if len(rows) != job.rows:
        return "report has %d rows, expected %d" % (len(rows), job.rows)
    return None
