"""Engine-suite fixtures: cluster worker-process hygiene, asyncio task
hygiene, and a process that holds more descriptors than ``select()``
can name.

Every cluster worker is forked into its own process group and recorded
in a module-level registry; an autouse fixture reaps anything still
registered after each test and fails the test that leaked it, so a
crashing test can never strand worker processes on CI.  Another fails
the test after which a garbage collection destroys a still-pending
asyncio task (a coroutine an engine abandoned instead of cancelling).
"""

import gc
import logging
import os
import resource

import pytest

from repro.runtime.cluster import live_worker_pgids, reap_orphan_workers

#: how asyncio reports a task collected before it finished
_DESTROYED = "Task was destroyed but it is pending!"


class _Errors(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.fixture(autouse=True)
def no_orphan_workers():
    before = live_worker_pgids()
    yield
    leaked = reap_orphan_workers()
    fresh = [pgid for pgid in leaked if pgid not in before]
    assert not fresh, f"test leaked cluster worker process group(s): {fresh}"


@pytest.fixture(autouse=True)
def no_destroyed_pending_tasks():
    errors = _Errors()
    log = logging.getLogger("asyncio")
    log.addHandler(errors)
    try:
        yield
        gc.collect()
    finally:
        log.removeHandler(errors)
    destroyed = [m for m in errors.messages if m.startswith(_DESTROYED)]
    assert not destroyed, "\n".join(destroyed)


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
