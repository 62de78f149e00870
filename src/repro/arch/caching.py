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

from ..redislite.server import Command, CostModel, RedisServer
from ..runtime.system import System
from .loader import load_program
from .ports import BackApp, FrontApp, RedisPort


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


class CachedRedis(RedisPort):
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
        self.program = load_program("caching")
        self.system = System(self.program, latency=latency, seed=seed)
        self.cache = LruCache(capacity)
        self.lookup_cost = lookup_cost
        sys_ = self.system

        self.front = _CacheApp(sys_, "Cache::junction", self.cache)
        sys_.bind_app("CacheT", lambda inst: self.front)
        self.server = RedisServer(name="fun", cost=cost_model)
        sys_.bind_app("FunT", lambda inst: BackApp(self.server))

        @sys_.host("CacheT", "CheckCacheable")
        def _check(ctx):
            req = ctx.app.begin_next()
            if req is None:
                from ..core.errors import DslFailure

                raise DslFailure("cache front scheduled with no pending request")
            cacheable = req["op"] == "GET"
            if req["op"] == "SET":
                ctx.app.cache.invalidate(req["key"])
            ctx.app.lookup_hit = False
            ctx.set("Cacheable", cacheable)
            ctx.take(1e-6)

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

        @sys_.host("CacheT", "Respond")
        def _respond(ctx):
            ctx.app.respond()

        @sys_.host("CacheT", "Complain")
        def _complain(ctx):
            ctx.app.fail_current()

        @sys_.host("FunT", "F")
        def _fun(ctx):
            app: BackApp = ctx.app
            if app.current is None:
                return
            req = app.current
            cmd = Command(req["op"], req["key"], req.get("value", b""))
            reply, cost = self.server.execute(cmd, now=ctx.now)
            app.set_reply({"ok": reply.ok, "value": reply.value, "hit": reply.hit})
            ctx.take(cost)

        @sys_.host("FunT", "Complain")
        def _fun_complain(ctx):
            pass

        sys_.bind_state(
            "CacheT", data_name="n",
            save=lambda app, inst: app.current,
            restore=lambda app, inst, obj: None,
        )
        sys_.bind_state(
            "CacheT", data_name="m",
            save=lambda app, inst: app.reply,
            restore=lambda app, inst, obj: app.set_reply(obj),
        )
        sys_.bind_state(
            "FunT", data_name="n",
            save=lambda app, inst: app.current,
            restore=lambda app, inst, obj: app.receive(obj),
        )
        sys_.bind_state(
            "FunT", data_name="m",
            save=lambda app, inst: app.reply,
            restore=lambda app, inst, obj: None,
        )

        sys_.start(t=timeout)

    @property
    def sim(self):
        return self.system.sim

    def preload(self, commands) -> None:
        for cmd in commands:
            self.server.execute(cmd, now=0.0)
