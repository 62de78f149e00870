"""The one request/reply binding (``repro.arch.ports``).

Every protocol-speaking catalog row is the same assembly under
different role names, so one contract holds for all of them: a request
submitted is a request called back, exactly once.  Plus the two things
the assembly is there to get right once — bindings checked against the
program at construction, and replica numbers taken from the running
program rather than parsed out of instance names.
"""

import dataclasses

import pytest

from repro.arch import sharding
from repro.arch.broker import ReplicatedBroker
from repro.arch.catalog import CATALOG
from repro.arch.failover import FailoverRedis
from repro.arch.ports import BackApp, FrontApp, RequestReply, redis_exec
from repro.brokerlite import BrokerRequest
from repro.compile import compilation
from repro.core.errors import HostError
from repro.redislite import Command, RedisServer

N = 24

REQUESTS = {
    "redis": lambda i: (
        Command("SET", f"k{i % 5}", b"v%d" % i) if i % 3 else Command("GET", f"k{i % 5}")
    ),
    "broker": lambda i: (
        BrokerRequest(op="PUB", partition=0, key=f"k{i % 5}", value=b"v%d" % i)
        if i % 3 else BrokerRequest(op="FETCH", partition=i % 4, offset=0)
    ),
}


@pytest.mark.parametrize("compiled", (True, False), ids=("compiled", "tree-walked"))
@pytest.mark.parametrize(
    "name", [name for name, row in CATALOG.items() if row.protocol is not None]
)
def test_every_request_is_called_back_once(name, compiled):
    row = CATALOG[name]
    with compilation(compiled):
        svc = row.build(seed=0, **row.explore)
    replies = []
    for i in range(N):
        svc.submit(REQUESTS[row.protocol](i), replies.append)
    svc.system.run_until(svc.system.now + 30.0)
    assert len(replies) == N
    assert svc.front.completed + svc.front.failed == N
    assert not svc.front.queue and svc.front.current is None
    assert all(r.ok for r in replies) and not svc.system.failures


class TestBindingsCheckedAtConstruction:
    """A block left out, or bound under a name no junction runs, fails
    where the wrapper is built — not on the first request to reach it,
    and not never."""

    @staticmethod
    def build(roles, also=()):
        svc = RequestReply(
            "sharding", roles, FrontApp, lambda inst: BackApp(RedisServer()),
            redis_exec, latency=100e-6, seed=0,
        )
        for type_name, block in also:
            svc.system.bind_host(type_name, block, lambda ctx: None)
        svc._start(t=2.0)
        return svc

    def test_the_declared_roles_bind(self):
        assert self.build(sharding._ROLES).system.instance("Bck4").running

    def test_a_block_left_out(self):
        roles = dataclasses.replace(sharding._ROLES, respond=None)
        with pytest.raises(HostError, match=r"'Front'.*\['Respond'\] not bound"):
            self.build(roles)

    def test_a_block_the_program_never_declares(self):
        with pytest.raises(HostError, match=r"'Back'.*\['Audit'\] bound but never declared"):
            self.build(sharding._ROLES, also=[("Back", "Audit")])

    def test_a_misspelt_role(self):
        roles = dataclasses.replace(sharding._ROLES, respond="Respnd")
        with pytest.raises(HostError) as err:
            self.build(roles)
        # the misspelling shows from both sides, on the type it is on
        assert "'Front'" in str(err.value)
        assert "['Respond'] not bound" in str(err.value)
        assert "['Respnd'] bound but never declared" in str(err.value)


class TestReplicaNumbersAfterASwap:
    """``swap_backend("b2", "b3")`` leaves replicas ``b1`` and ``b3``:
    replica 1 is whichever instance is second *now*."""

    def test_failover_redis_preload_reaches_both_replicas(self):
        svc = FailoverRedis(timeout=0.5)
        assert svc.swap_backend("b2", "b3").ok
        svc.system.run_until(svc.system.now + 2.0)
        assert svc.back_instances() == ["b1", "b3"]
        assert svc.backend_app(1) is svc.system.instance("b3").app
        assert svc.backend_app(1).payload.name == "replica1"

        svc.preload([Command("SET", "k", b"v")])
        assert [svc.backend_app(i).payload.store.get("k") for i in (0, 1)] == [b"v"] * 2
        got = []
        svc.submit(Command("GET", "k"), got.append)
        svc.system.run_until(svc.system.now + 2.0)
        assert [(r.ok, r.value) for r in got] == [(True, b"v")]
        assert svc.registered_backends() == ["b1", "b3"]

    def test_replicated_broker_preload_reaches_both_replicas(self):
        svc = ReplicatedBroker(timeout=0.5)
        assert svc.swap_backend("b2", "b3").ok
        svc.system.run_until(svc.system.now + 2.0)
        svc.preload([("k", b"v")])
        p = svc.partition_of({"op": "PUB", "key": "k"})
        assert [svc.backend_app(i).payload.partition(p).size() for i in (0, 1)] == [1, 1]
