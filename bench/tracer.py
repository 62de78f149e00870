"""Span recorder for the traced run.

Class-level wrappers are installed on the layer boundaries *from here*
(no file under ``src/`` changes) before the service is built.  A span is
``(name_id, start, end, parent, op)``: ``parent`` is the innermost span
open on the same thread when this one started, ``op`` the index of the
request outstanding then (``BACKGROUND`` for supervisor heartbeats and
anything outside a request).  Spans stay in memory — per thread, one
flat list per field, so half a million of them add no objects for the
garbage collector to walk — and ``write`` dumps them when the run ends.
Self time is duration minus the time covered by child spans.

The runtime thread (the one that builds and drives the system) carries
almost every span.  On the wall-clock engines host blocks run on a
thread pool, and a client's completion callback — hence the next
``submit`` — runs there too, so every thread records into a buffer of
its own; nothing is shared between threads but the name table.

Three kinds of boundary:

* **call spans** — a wrapped function or method (``BOUNDARIES``);
* **callback spans** — every callback handed to a clock
  (``call_at``/``call_after``/``post``) is wrapped when scheduled and
  attributed to the layer that owns the callback's code, so timer-driven
  work (strand pumps, retransmits, transport hops) is accounted without
  patching private closures;
* **async spans** — intervals that cross callbacks or threads (a
  junction execution, a host call on the thread pool, a cluster relay
  round trip); they carry no parent and do not enter self-time sums.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from functools import partial

BACKGROUND = -1

#: module owning a clock callback's code -> layer charged for it
CALLBACK_LAYERS = {
    "repro.runtime.system": "system",
    "repro.runtime.interpreter": "body",
    "repro.runtime.delivery": "delivery",
    "repro.runtime.channels": "channels",
    "repro.runtime.engine": "channels",  # ClockTransport's delivery timer
    "repro.runtime.cluster": "cluster",
    "repro.runtime.realtime": "realtime",
    "repro.runtime.kvtable": "kvtable",
    "repro.runtime.host": "host",
    "repro.reconfig.executor": "reconfig",
    "bench.driver": "driver",
}

#: (module, dotted attribute, span name); the layer is the name's prefix
BOUNDARIES = (
    ("repro.core.compiler", "parse_program", "core.parse"),
    ("repro.arch.loader", "compile_program", "core.compile"),
    ("repro.compile", "compile_junction_code", "compile.codegen"),
    ("repro.runtime.system", "System.__init__", "system.init"),
    ("repro.runtime.system", "System.start", "system.start"),
    ("repro.runtime.system", "System.exec_start", "system.start_instance"),
    ("repro.runtime.system", "specialize", "core.specialize"),
    ("repro.runtime.system", "validate_closed_junction", "core.validate"),
    ("repro.runtime.system", "System.attempt_schedule", "system.attempt"),
    ("repro.runtime.system", "System.external_update", "system.external_update"),
    ("repro.runtime.system", "System.execution_finished", "system.finished"),
    ("repro.runtime.system", "System.reconfigure", "reconfig.execute"),
    ("repro.reconfig.executor", "diff_programs", "reconfig.diff"),
    ("repro.reconfig.executor", "plan_transition", "reconfig.plan"),
    ("repro.runtime.interpreter", "JunctionExecution.start", "body.start"),
    ("repro.runtime.interpreter", "JunctionExecution.on_ack", "body.on_ack"),
    ("repro.runtime.kvtable", "KVTable.receive", "kvtable.receive"),
    ("repro.runtime.kvtable", "KVTable.apply_pending", "kvtable.apply"),
    ("repro.runtime.kvtable", "KVTable.apply_pending_for", "kvtable.apply_for"),
    ("repro.runtime.kvtable", "KVTable.set_local", "kvtable.set_local"),
    ("repro.runtime.kvtable", "KVTable.set_slot", "kvtable.set_slot"),
    ("repro.runtime.kvtable", "KVTable.snapshot", "kvtable.snapshot"),
    ("repro.runtime.sim", "Simulator.call_at", "sim.call_at"),
    ("repro.runtime.sim", "Simulator.call_after", "sim.call_after"),
    ("repro.runtime.sim", "Simulator.post", "sim.post"),
    ("repro.runtime.sim", "Simulator.run_until", "sim.run_until"),
    ("repro.runtime.realtime", "RealtimeClock.call_at", "realtime.call_at"),
    ("repro.runtime.realtime", "RealtimeClock.run_until", "realtime.run_until"),
    ("repro.runtime.realtime", "ThreadPoolHostExecutor.invoke", "host.invoke"),
    ("repro.runtime.instance", "InstanceTypeRuntime.bind_host", "host.bind"),
    ("repro.runtime.delivery", "ReliableDelivery.send", "delivery.send"),
    ("repro.runtime.delivery", "ReliableDelivery.ack", "delivery.ack"),
    ("repro.runtime.channels", "Network.register", "channels.register"),
    ("repro.runtime.channels", "Network.send", "channels.send"),
    ("repro.runtime.channels", "Network.dispatch", "channels.dispatch"),
    ("repro.runtime.cluster", "encode_message", "wire.encode"),
    ("repro.runtime.cluster", "decode_message", "wire.decode"),
    ("repro.runtime.cluster", "frame", "wire.frame"),
    ("repro.runtime.cluster", "ClusterTransport.deliver", "cluster.deliver"),
    ("repro.runtime.cluster", "ClusterSupervisor.attach", "cluster.spawn"),
    ("repro.runtime.cluster", "ClusterSupervisor.deploy", "cluster.deploy"),
    ("repro.telemetry.facade", "Telemetry.emit", "telemetry.emit"),
    ("repro.telemetry.facade", "Telemetry.export", "telemetry.export"),
    ("repro.redislite.server", "RedisServer.execute", "redislite.exec"),
    ("repro.brokerlite.broker", "BrokerServer.execute", "brokerlite.exec"),
)

#: how many spans ``write`` keeps per thread (the summary covers all)
WRITE_LIMIT = 100_000
#: how many sent messages are kept for the wire codec replay
MESSAGE_SAMPLE = 512


class Buffer:
    """Everything one thread records: the spans, one list per field,
    and the counts its hooks keep next to them."""

    def __init__(self):
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []  # indices of the spans open right now
        self.asyncs: list[tuple] = []  # (name, start, end, op)
        self.timers = 0
        self.kv_applied = 0
        self.wire_bytes = 0

    def open(self, nid: int, op: int) -> int:
        """Start a span (the caller sets ``ends[i]`` and pops the stack)."""
        stack = self.stack
        i = len(self.starts)
        self.name_ids.append(nid)
        self.ends.append(0.0)
        self.parents.append(stack[-1] if stack else -1)
        self.ops.append(op)
        stack.append(i)
        self.starts.append(time.perf_counter())
        return i


class _Callback:
    """A clock callback wrapped at scheduling time."""

    __slots__ = ("tracer", "fn", "nid", "clock", "due")

    def __init__(self, tracer, fn, nid, clock=None, due=0.0):
        self.tracer = tracer
        self.fn = fn
        self.nid = nid
        self.clock = clock
        self.due = due

    def __call__(self):
        tr = self.tracer
        if self.clock is not None:
            tr.timer_lags.append((self.clock.now - self.due) * self.clock.time_scale)
        nid = self.nid
        if nid < 0:  # the callback is itself a call span
            return self.fn()
        buf = tr.buffer()
        i = buf.open(nid, BACKGROUND if nid == tr.supervisor_nid else tr.op)
        try:
            return self.fn()
        finally:
            buf.ends[i] = time.perf_counter()
            buf.stack.pop()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._nid: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: list[Buffer] = []
        self.main = self.buffer()  # the runtime thread's
        self.op = BACKGROUND
        self.installed = False
        # observations made on the runtime thread only
        self.systems: list = []
        self.timer_lags: list[float] = []
        self.messages: list = []
        self.host_busy: list[float] = []
        self.compiled = 0
        self.fallback = 0
        self.source_bytes = 0
        self.reports: list = []
        self._cb_nid: dict = {}
        self._exec_t0: dict[int, tuple] = {}
        self._relay_t0: dict[tuple, float] = {}
        self.supervisor_nid = self.nid("supervisor.cb")

    def nid(self, name: str) -> int:
        with self._lock:
            n = self._nid.get(name)
            if n is None:
                n = self._nid[name] = len(self.names)
                self.names.append(name)
            return n

    def buffer(self) -> Buffer:
        """The calling thread's buffer."""
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = Buffer()
            with self._lock:
                self.buffers.append(buf)
            return buf

    def total(self, field: str) -> int:
        return sum(getattr(buf, field) for buf in self.buffers)

    # -- wrappers -----------------------------------------------------------

    def span(self, fn, name: str, pre=None, post=None):
        """``fn`` wrapped in a call span.  ``pre(args) -> args`` may
        replace positional arguments (to wrap a callback handed in);
        ``post(args, result, buf, i)`` observes the finished call, span
        ``i`` of the calling thread's buffer."""
        nid = self.nid(name)
        local, clock = self._local, time.perf_counter

        def traced(*args, **kw):
            try:
                buf = local.buf
            except AttributeError:
                buf = self.buffer()
            if pre is not None:
                args = pre(args)
            i = buf.open(nid, self.op)
            try:
                result = fn(*args, **kw)
            finally:
                buf.ends[i] = clock()
                buf.stack.pop()
            if post is not None:
                post(args, result, buf, i)
            return result

        traced._bench_span = True
        traced.__wrapped__ = fn
        return traced

    def callback(self, cb, clock=None, due=0.0):
        """Wrap a callback about to be scheduled on a clock."""
        if isinstance(cb, _Callback):
            return cb  # call_after delegating to call_at
        self.buffer().timers += 1
        fn = cb
        while isinstance(fn, partial):
            fn = fn.func
        fn = getattr(fn, "__func__", fn)
        if getattr(fn, "_bench_span", False):
            nid = -1
        else:
            key = getattr(fn, "__code__", None) or type(fn)
            nid = self._cb_nid.get(key)
            if nid is None:
                layer = CALLBACK_LAYERS.get(getattr(fn, "__module__", None), "other")
                if layer == "cluster" and "Supervisor" in getattr(fn, "__qualname__", ""):
                    layer = "supervisor"
                nid = self._cb_nid[key] = self.nid(layer + ".cb")
        return _Callback(self, cb, nid, clock, due)

    def root(self, name: str):
        """Context manager: one span on the runtime thread enclosing a
        section driven from the benchmark (the timed section)."""
        return _Root(self, self.nid(name))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every boundary.  Must run before the service is built:
        a bound method or handler captured earlier would bypass the
        wrapper (the counter cross-check names any that do)."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        cb = self.callback
        hooks = {
            "sim.post": (lambda a: (a[0], cb(a[1]), *a[2:]), None),
            "sim.call_at": (lambda a: (a[0], a[1], cb(a[2]), *a[3:]), None),
            "sim.call_after": (lambda a: (a[0], a[1], cb(a[2]), *a[3:]), None),
            "realtime.call_at": (
                lambda a: (a[0], a[1], cb(a[2], a[0], a[1]), *a[3:]), None),
            "channels.register": (
                lambda a: (a[0], a[1], self.span(a[2], "system.deliver"), *a[3:]), None),
            "host.bind": (
                lambda a: (a[0], a[1], self.span(a[2], "host.fn"), *a[3:]), None),
            "host.invoke": (self._pre_invoke, None),
            "system.init": (None, lambda a, r, buf, i: self.systems.append(a[0])),
            "body.start": (None, self._post_start),
            "system.finished": (None, self._post_finished),
            "kvtable.receive": (self._pre_receive, None),
            "kvtable.apply": (None, self._post_apply),
            "kvtable.apply_for": (None, self._post_apply),
            "channels.send": (None, self._post_send),
            "channels.dispatch": (None, self._post_dispatch),
            "cluster.deliver": (None, self._post_deliver),
            "wire.encode": (None, self._post_encode),
            "compile.codegen": (None, self._post_codegen),
            "reconfig.execute": (None, lambda a, r, buf, i: self.reports.append(r)),
        }
        for module, path, name in BOUNDARIES:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            pre, post = hooks.get(name, (None, None))
            setattr(owner, attr, self.span(getattr(owner, attr), name, pre, post))

    # -- hooks --------------------------------------------------------------

    def _pre_invoke(self, a):
        """``ThreadPoolHostExecutor.invoke(fn, ctx, done)``: time the
        host function on its worker thread and the whole hand-off."""
        executor, fn, ctx, done = a[:4]
        t0 = time.perf_counter()
        busy = [0.0]
        op = self.op

        def timed_fn(ctx):
            b0 = time.perf_counter()
            try:
                return fn(ctx)
            finally:
                busy[0] = time.perf_counter() - b0

        def timed_done(exc):
            self.main.asyncs.append(("host.call", t0, time.perf_counter(), op))
            self.host_busy.append(busy[0])
            return done(exc)

        return (executor, timed_fn, ctx, timed_done, *a[4:])

    def _post_start(self, a, result, buf, i):
        execution = a[0]
        if execution.finished:
            buf.asyncs.append(("body.exec", buf.starts[i], buf.ends[i], buf.ops[i]))
        else:
            self._exec_t0[id(execution)] = (buf.starts[i], buf.ops[i])

    def _post_finished(self, a, result, buf, i):
        started = self._exec_t0.pop(id(a[2]), None)
        if started is not None:
            buf.asyncs.append(("body.exec", started[0], buf.ends[i], started[1]))

    def _pre_receive(self, a):
        # an update admitted by an open wait window is applied inside
        # receive() (no apply_pending call): seen from outside as an
        # executing table with a window that admits the key
        table = a[0]
        if table.executing and table.windows:
            key = a[1].key
            if any(w.active and key in w.admits for w in table.windows):
                self.buffer().kv_applied += 1
        return a

    def _post_apply(self, a, result, buf, i):
        buf.kv_applied += result

    def _post_send(self, a, result, buf, i):
        if len(self.messages) < MESSAGE_SAMPLE:
            self.messages.append(a[1])

    def _post_deliver(self, a, result, buf, i):
        msg = a[1]
        self._relay_t0[(msg.msg_id, msg.kind, msg.dst)] = buf.starts[i]

    def _post_dispatch(self, a, result, buf, i):
        msg = a[1]
        t0 = self._relay_t0.pop((msg.msg_id, msg.kind, msg.dst), None)
        if t0 is not None:
            buf.asyncs.append(("cluster.relay", t0, buf.starts[i], buf.ops[i]))

    def _post_encode(self, a, result, buf, i):
        buf.wire_bytes += len(result)

    def _post_codegen(self, a, result, buf, i):
        if result is None:
            self.fallback += 1
        else:
            self.compiled += 1
            self.source_bytes += len(result.source)

    # -- analysis -----------------------------------------------------------

    def summary(self, root=None) -> dict:
        """Per span name: count, total and self seconds — over the
        whole trace, or over one section: the spans the runtime thread
        opened inside ``root`` plus those other threads started while
        it was open."""
        rows = [[0, 0.0, 0.0] for _ in self.names]
        for buf in list(self.buffers):
            starts, ends, parents, name_ids = buf.starts, buf.ends, buf.parents, buf.name_ids
            n = min(len(starts), len(name_ids))
            if root is None:
                picked = range(n)
            elif buf is self.main:
                picked = range(root.first, root.last)
            else:
                picked = [i for i in range(n) if root.start <= starts[i] <= root.end]
            child: dict[int, float] = {}
            for i in picked:
                p = parents[i]
                if p >= 0:
                    child[p] = child.get(p, 0.0) + ends[i] - starts[i]
            for i in picked:
                dur = ends[i] - starts[i]
                row = rows[name_ids[i]]
                row[0] += 1
                row[1] += dur
                row[2] += dur - child.get(i, 0.0)
        return {name: row for name, row in zip(self.names, rows) if row[0]}

    def async_durations(self, name: str, since: float = 0.0) -> list[float]:
        return [e - s for buf in list(self.buffers)
                for n, s, e, _ in buf.asyncs if n == name and s >= since]

    def counter_mismatches(self) -> list[str]:
        """Span counts against the program's own registry counters,
        summed over every system built while tracing."""
        total = self.summary()

        def count(name):
            return total.get(name, (0, 0.0, 0.0))[0]

        def registry(counter):
            return int(sum(s.telemetry.metrics.sum(counter) for s in self.systems))

        pairs = (
            ("JunctionExecution.start", count("body.start"), registry("junction_scheds")),
            ("Network.send", count("channels.send"), registry("net_sent")),
            ("KVTable.receive", count("kvtable.receive"), registry("kv_updates_received")),
            ("KVTable.apply_pending", self.total("kv_applied"), registry("kv_updates_applied")),
        )
        return [
            f"{boundary}: {seen} traced vs {counted} counted"
            for boundary, seen, counted in pairs
            if seen != counted
        ]

    def write(self, path, meta: dict) -> None:
        threads = []
        for buf in list(self.buffers):
            threads.append({
                "runtime_thread": buf is self.main,
                "spans_total": len(buf.starts),
                "spans": list(zip(buf.name_ids[:WRITE_LIMIT], buf.starts, buf.ends,
                                  buf.parents, buf.ops)),
                "async_spans": buf.asyncs[:WRITE_LIMIT],
            })
        doc = {
            "meta": meta,
            "names": self.names,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "async_fields": ["name", "start", "end", "op"],
            "threads": threads,
        }
        with open(path, "w") as f:
            f.write(json.dumps(doc, separators=(",", ":")))  # dumps: the C encoder


class _Root:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid
        self.first = self.last = 0
        self.start = self.end = 0.0
        # what the section added to the tracer's running observations
        self.timers = self.lags_first = self.wire_bytes = 0
        self.cpu = 0.0

    def __enter__(self):
        tr = self.tracer
        self.timers = -tr.total("timers")
        self.wire_bytes = -tr.total("wire_bytes")
        self.lags_first = len(tr.timer_lags)
        self.cpu = -time.process_time()
        self.first = tr.main.open(self.nid, BACKGROUND)
        self.start = tr.main.starts[self.first]
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        self.end = tr.main.ends[self.first] = time.perf_counter()
        self.cpu += time.process_time()
        self.timers += tr.total("timers")
        self.wire_bytes += tr.total("wire_bytes")
        tr.main.stack.pop()
        self.last = len(tr.main.starts)
        return False
