"""Differential: the DSL broker architectures vs the direct control
arm (same pattern as the sharding/fail-over differentials).

Both arms execute the same deterministic publish/fetch/commit workload
sequentially; client outputs and final partition logs must agree.
"""

from random import Random

from benchmarks.control import DirectShardedBroker
from repro.arch.broker import ReplicatedBroker, ShardedBroker
from repro.brokerlite import BrokerRequest
from repro.runtime.sim import Simulator

SEED = 7
N_PARTITIONS = 2


def _workload(n, *, users=8, read_ratio=0.3):
    """A seeded broker command mix (deterministic in SEED)."""
    rng = Random(SEED)
    out = []
    for i in range(n):
        key = f"u{rng.randrange(users)}"
        r = rng.random()
        if r < read_ratio / 2:
            out.append(BrokerRequest(op="FETCH", partition=rng.randrange(N_PARTITIONS),
                                     offset=0, max_records=8))
        elif r < read_ratio:
            out.append(BrokerRequest(op="COMMIT", partition=rng.randrange(N_PARTITIONS),
                                     group="g", offset=rng.randrange(3)))
        else:
            out.append(BrokerRequest(op="PUB", partition=0, key=key,
                                     value=b"v%d" % i))
    return out


def _drive_dsl(svc, requests, step=2.0):
    replies = []
    for req in requests:
        got = []
        svc.submit(req, got.append)
        svc.system.run_until(svc.system.now + step)
        assert got, f"no reply for {req}"
        replies.append(got[0])
    return replies


def _drive_direct(svc, sim, requests):
    replies = []
    for req in requests:
        got = []
        svc.submit(req, got.append)
        sim.run()
        assert got, f"no reply for {req}"
        replies.append(got[0])
    return replies


def _as_tuples(replies):
    """Reply essence, with the simulated append timestamps stripped
    from fetched records — the two arms' clocks advance differently,
    the log content and order must not."""
    return [
        (
            r.ok,
            r.offset,
            None if r.records is None else [rec[:3] for rec in r.records],
            r.high_water,
        )
        for r in replies
    ]


class TestShardedBrokerDifferential:
    def test_same_outputs_and_final_logs(self):
        requests = _workload(40)
        preload = [(f"u{i}", b"seed") for i in range(8)]

        dsl = ShardedBroker(n_partitions=N_PARTITIONS, seed=SEED)
        dsl.preload(preload)
        dsl_replies = _drive_dsl(dsl, requests)

        sim = Simulator()
        direct = DirectShardedBroker(sim, n_partitions=N_PARTITIONS)
        direct.preload(preload)
        direct_replies = _drive_direct(direct, sim, requests)

        assert _as_tuples(dsl_replies) == _as_tuples(direct_replies)

        dsl_logs = [dsl.server(p).partition(p).snapshot() for p in range(N_PARTITIONS)]
        direct_logs = [
            direct.servers[p].partition(p).snapshot() for p in range(N_PARTITIONS)
        ]
        # timestamps differ between arms (simulated clocks advance
        # differently); the log content and order must not
        strip = lambda logs: [[rec[:3] for rec in log] for log in logs]  # noqa: E731
        assert strip(dsl_logs) == strip(direct_logs)

        dsl_commits = [dsl.server(p).commits for p in range(N_PARTITIONS)]
        direct_commits = [direct.servers[p].commits for p in range(N_PARTITIONS)]
        assert dsl_commits == direct_commits

    def test_dsl_run_is_deterministic(self):
        requests = _workload(15)
        runs = []
        for _ in range(2):
            svc = ShardedBroker(n_partitions=N_PARTITIONS, seed=SEED)
            runs.append(_as_tuples(_drive_dsl(svc, requests)))
        assert runs[0] == runs[1]


class TestReplicatedBrokerDifferential:
    def test_replicas_agree_with_direct_log(self):
        """The fail-over broker fans every command out to both
        replicas; each replica's log must equal the direct single-node
        log of the same workload."""
        requests = [r for r in _workload(30) if r.op == "PUB"]

        repl = ReplicatedBroker(seed=SEED, timeout=0.5, n_partitions=N_PARTITIONS)
        repl_replies = _drive_dsl(repl, requests)
        assert all(r.ok for r in repl_replies)

        sim = Simulator()
        direct = DirectShardedBroker(sim, n_partitions=N_PARTITIONS)
        direct_replies = _drive_direct(direct, sim, requests)

        assert _as_tuples(repl_replies) == _as_tuples(direct_replies)

        strip = lambda snap: [rec[:3] for rec in snap]  # noqa: E731
        for p in range(N_PARTITIONS):
            want = strip(direct.servers[p].partition(p).snapshot())
            for replica in range(2):
                got = strip(repl.backend_app(replica).payload.partition(p).snapshot())
                assert got == want, f"replica {replica} partition {p} diverged"
