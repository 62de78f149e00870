"""Engine-suite fixtures: cluster worker-process hygiene, and a process
that holds more descriptors than ``select()`` can name.

Every cluster worker is forked into its own process group and recorded
in a module-level registry; this autouse fixture reaps anything still
registered after each test and fails the test that leaked it, so a
crashing test can never strand worker processes on CI.
"""

import os
import resource

import pytest

from repro.runtime.cluster import live_worker_pgids, reap_orphan_workers


@pytest.fixture(autouse=True)
def no_orphan_workers():
    before = live_worker_pgids()
    yield
    leaked = reap_orphan_workers()
    fresh = [pgid for pgid in leaked if pgid not in before]
    assert not fresh, f"test leaked cluster worker process group(s): {fresh}"


@pytest.fixture
def many_descriptors():
    """``hold()`` dups descriptors until the next one the process opens
    is numbered past ``FD_SETSIZE`` (1024); all are closed afterwards."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = 1400
    if hard != resource.RLIM_INFINITY and hard < want:
        pytest.skip(f"RLIMIT_NOFILE hard limit {hard} is below {want}")
    resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, want), hard))
    held = []

    def hold():
        while not held or held[-1] < 1100:
            held.append(os.dup(0))

    try:
        yield hold
    finally:
        for fd in held:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
