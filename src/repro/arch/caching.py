"""The caching architecture (Fig. 7) applied to redislite.

``Cache`` fronts the ``Fun`` instance (which wraps the Redis server).
Host blocks implement the paper's cache-side functions:

* ``CheckCacheable`` — GETs are cacheable; SETs are not and invalidate
  the cached entry (writes must not serve stale data);
* ``LookupCache`` — consult the host-language LRU cache; on a hit the
  reply is produced locally and the expensive back-end call is skipped;
* ``UpdateCache`` — install the fresh value after a miss.

The cache's size and eviction strategy are host-language concerns,
"orthogonal to the architecture ... and therefore outside of the DSL's
scope" (sec. 7.2) — :class:`LruCache` lives entirely in Python.
"""

from __future__ import annotations

from collections import OrderedDict

from ..redislite.server import CostModel, RedisServer
from ..runtime.system import System
from .ports import BackApp, FrontApp, RedisPort, RequestReply, Roles, redis_exec


class LruCache:
    """A small LRU cache of key -> value bytes."""

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._data: OrderedDict[str, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> bytes | None:
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key: str, value: bytes) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def invalidate(self, key: str) -> None:
        self._data.pop(key, None)

    def __len__(self) -> int:
        return len(self._data)


class _CacheApp(FrontApp):
    """Front app plus the cache and per-request classification state."""

    def __init__(self, system: System, node: str, cache: LruCache):
        super().__init__(system, node)
        self.cache = cache
        self.lookup_hit = False


_ROLES = Roles(
    front="CacheT", node="Cache::junction", backs=("FunT",),
    first="CheckCacheable", respond="Respond", execute="F", request="n", reply="m",
    cost=1e-6,
)


class CachedRedis(RequestReply, RedisPort):
    """Redis behind the Fig. 7 caching layer (RequestPort).

    ``lookup_cost`` models the cache probe; it must be far below the
    back-end's per-command cost for caching to pay off, as in the
    paper's setup where the cache avoids a Redis round trip.
    """

    def __init__(
        self,
        *,
        capacity: int = 128,
        cost_model: CostModel | None = None,
        latency: float = 100e-6,
        timeout: float = 2.0,
        lookup_cost: float = 5e-6,
        seed: int = 0,
    ):
        self.cache = LruCache(capacity)
        self.lookup_cost = lookup_cost
        self.server = RedisServer(name="fun", cost=cost_model)
        super().__init__(
            "caching", _ROLES,
            lambda system, node: _CacheApp(system, node, self.cache),
            lambda inst: BackApp(self.server), redis_exec,
            latency=latency, seed=seed,
        )
        sys_ = self.system

        @sys_.host("CacheT", "LookupCache")
        def _lookup(ctx):
            req = ctx.app.current
            value = ctx.app.cache.get(req["key"])
            ctx.take(self.lookup_cost)
            if value is not None:
                ctx.app.lookup_hit = True
                ctx.app.set_reply({"ok": True, "value": value, "hit": True})
                ctx.set("Cached", True)
            else:
                ctx.set("Cached", False)

        @sys_.host("CacheT", "UpdateCache")
        def _update(ctx):
            req = ctx.app.current
            reply = ctx.app.reply
            if reply is not None and reply.get("value") is not None:
                ctx.app.cache.put(req["key"], reply["value"])
            ctx.take(1e-6)

        self._start(t=timeout)

    def _route(self, ctx, request: dict) -> None:
        """``CheckCacheable``: GETs are; a SET invalidates the entry."""
        if request["op"] == "SET":
            ctx.app.cache.invalidate(request["key"])
        ctx.app.lookup_hit = False
        ctx.set("Cacheable", request["op"] == "GET")

    def preload(self, commands) -> None:
        for cmd in commands:
            self.server.execute(cmd, now=0.0)
