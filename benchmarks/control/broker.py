"""Direct (non-DSL) partitioned broker: the control arm for the
broker differential.

A router endpoint hashes publish keys (djb2) to the owning partition
and forwards every command to the partition's endpoint over the
hand-rolled message bus — correlation, timeouts and per-partition
health tracked by hand, exactly the logic ``sharding.csaw`` expresses
in the DSL (the program the ``broker_sharded`` deployment runs).
"""

from __future__ import annotations

from typing import Callable

from repro.brokerlite import BrokerReply, BrokerRequest, BrokerServer, partition_for
from repro.runtime.sim import Simulator
from .messaging import Envelope, MessageBus


class DirectShardedBroker:
    """Key-partitioned brokerlite without the DSL."""

    def __init__(
        self,
        sim: Simulator,
        n_partitions: int = 4,
        *,
        cost_model=None,
        latency: float = 100e-6,
        timeout: float = 2.0,
    ):
        self.sim = sim
        self.n_partitions = n_partitions
        self.timeout = timeout
        self.bus = MessageBus(sim, latency)
        self.router = self.bus.endpoint("router")
        self.servers: list[BrokerServer] = []
        self.partition_counts = [0] * n_partitions
        self.healthy = [True] * n_partitions
        self.failed_requests = 0
        self._busy_until = [0.0] * n_partitions

        for i in range(n_partitions):
            server = BrokerServer(name=f"dpartition{i}", cost=cost_model)
            self.servers.append(server)
            ep = self.bus.endpoint(f"partition{i}")
            ep.on("exec", self._make_exec(i, server))

    def _make_exec(self, idx: int, server: BrokerServer):
        def handler(env: Envelope):
            d = env.body[1]
            req = BrokerRequest(
                op=d["op"], partition=d["partition"], key=d["key"],
                value=d["value"], offset=d["offset"],
                max_records=d["max"], group=d["group"],
            )
            reply, cost = server.execute(req, now=self.sim.now)
            self._busy_until[idx] = max(self._busy_until[idx], self.sim.now) + cost
            return {
                "ok": reply.ok,
                "offset": reply.offset,
                "records": reply.records,
                "high_water": reply.high_water,
            }

        return handler

    def partition_of(self, req: BrokerRequest) -> int:
        if req.op.upper() == "PUB":
            return partition_for(req.key, self.n_partitions)
        return req.partition % self.n_partitions

    def submit(self, req: BrokerRequest, on_done: Callable[[BrokerReply], None]) -> None:
        p = self.partition_of(req)
        self.partition_counts[p] += 1

        def on_reply(body: object):
            self.healthy[p] = True
            if isinstance(body, dict):
                on_done(BrokerReply(
                    ok=body["ok"], offset=body["offset"],
                    records=body["records"], high_water=body["high_water"],
                ))
            else:
                on_done(BrokerReply(ok=False))

        def on_timeout():
            self.healthy[p] = False
            self.failed_requests += 1
            on_done(BrokerReply(ok=False))

        self.router.request(
            f"partition{p}",
            "exec",
            {
                "op": req.op, "partition": p, "key": req.key,
                "value": req.value, "offset": req.offset,
                "max": req.max_records, "group": req.group,
            },
            on_reply,
            timeout=self.timeout,
            on_timeout=on_timeout,
            retries=1,
        )

    def preload(self, records) -> None:
        for key, value in records:
            p = partition_for(key, self.n_partitions)
            self.servers[p].partition(p).append(key, value)

    def partition_sizes(self) -> list[int]:
        return [s.records_stored() for s in self.servers]
