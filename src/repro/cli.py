"""Command-line interface: ``python -m repro <command> <file.csaw>``.

Commands:

* ``check``     — parse + validate + compile; report errors with positions.
                  ``--strict`` folds in the analyzer's fast (key-flow)
                  checks and fails on unsuppressed errors.
* ``analyze``   — static analysis: KV write-write races, dead junctions
                  and case arms, host write-contract violations, unused
                  keys.  Accepts a ``.csaw`` file, a shipped
                  architecture name, or an example ``.py`` script
                  (analyzes every program its Systems load).
                  ``--fail-on race,dead,contract`` exits 2 when any
                  unsuppressed *error* finding of those checks remains.
* ``fmt``       — pretty-print (normalize) an architecture file.
* ``topo``      — print the communication topology (sec. 8.7's Topo).
* ``semantics`` — print the event-structure semantics per junction
                  (``--dot`` for Graphviz output).
* ``loc``       — count non-blank, non-comment lines.
* ``trace``     — run an architecture (a ``.csaw`` file or an example
                  ``.py`` script) with telemetry on and export the
                  causal trace as JSONL or Chrome trace-event JSON
                  (loadable in ``chrome://tracing`` / Perfetto).
* ``run``       — execute an architecture on a chosen execution engine
                  (``--engine`` takes an EngineSpec string such as
                  ``realtime,time_scale=0.05`` or ``sim,compiled=off``);
                  SIGINT/SIGTERM drain in-flight work before the
                  summary instead of dying mid-write.
* ``cluster``   — deploy across supervised worker processes (one OS
                  process per instance, or ``--engine cluster,workers=N``
                  shard groups) with heartbeat liveness probes and
                  restart-with-backoff; ``--kill b1 --kill-at 4`` runs
                  a SIGKILL fault drill and exits non-zero unless the
                  supervisor recovers the worker.
* ``explore``   — controlled-scheduler interleaving search: run a
                  shipped architecture name, a ``.csaw`` file or a
                  ``.py`` scenario script under every reachable
                  schedule (``--strategy dpor|bfs|dfs|random``,
                  ``--budget N``), checking invariants over each final
                  state.  Failing interleavings serialize as replayable
                  JSON (``--replay schedule.json`` reproduces the exact
                  run, byte-identical telemetry); ``--witness-races``
                  attempts a concrete witness schedule for every static
                  race finding.

Configuration values (set contents, parameters) are supplied as
``--config name=value`` pairs; values parse as numbers, comma-separated
lists, or names.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.compiler import compile_program
from .core.emit import emit_program
from .core.errors import CSawError
from .core.parser import parse_program
from .core.topology import topology
from .semantics.program_sem import denote_program
from .semantics.render import to_dot, to_text


def _engine_spec(args, *, default: str = "sim",
                 default_time_scale: float | None = None):
    """Resolve the subcommand's ``--engine`` value to an
    :class:`~repro.runtime.engine.EngineSpec`."""
    import dataclasses

    from .runtime.engine import EngineSpec

    spec = EngineSpec.of(getattr(args, "engine", None) or default)
    if default_time_scale is not None and spec.name != "sim" and spec.time_scale is None:
        # the CLI compresses wall-clock engines by default (the engine
        # constructors themselves default to real time)
        spec = dataclasses.replace(spec, time_scale=default_time_scale)
    return spec


def _compile_ctx(spec):
    """A context applying the spec's compile mode (``compiled=on/off``)
    to every System built inside it; a no-op when the spec is silent."""
    import contextlib

    if spec.compiled is None:
        return contextlib.nullcontext()
    from .compile import compilation

    return compilation(spec.compiled)


def _parse_config(pairs: list[str]) -> dict:
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--config expects name=value, got {pair!r}")
        name, _, raw = pair.partition("=")
        if "," in raw:
            out[name] = [_scalar(v) for v in raw.split(",") if v]
        else:
            out[name] = _scalar(raw)
    return out


def _scalar(raw: str) -> object:
    try:
        return float(raw) if "." in raw else int(raw)
    except ValueError:
        return raw


def cmd_check(args) -> int:
    text = Path(args.file).read_text()
    prog = compile_program(text, config=_parse_config(args.config))
    print(f"OK: {len(prog.source.instance_types)} type(s), "
          f"{len(prog.source.instances)} instance(s), "
          f"{len(prog.junctions)} junction(s), "
          f"{len(prog.source.functions)} function(s)")
    if not args.strict:
        return 0
    from .analysis import fast_checks

    report = fast_checks(
        prog, _parse_config(args.config), source_text=text, label=args.file
    )
    sys.stdout.write(report.render_text())
    errors = [f for f in report.unsuppressed() if f.severity == "error"]
    return 2 if errors else 0


def _analysis_sources(args) -> list[tuple[str, object, str | None]]:
    """Resolve the ``analyze`` argument to ``(label, program-or-text,
    source_text)`` items: a shipped architecture name, a ``.csaw``
    file (placeholders expanded), or a ``.py`` script whose Systems'
    programs are captured while it runs."""
    from .arch.loader import ARCHITECTURES, expand_placeholders, load_source

    name = args.file
    if name in ARCHITECTURES:
        text = load_source(name)
        return [(name, text, text)]
    path = Path(name)
    if path.suffix == ".py":
        import contextlib
        import runpy

        from .analysis.capture import capture_programs

        argv = sys.argv
        sys.argv = [str(path)]
        try:
            with capture_programs() as captured, contextlib.redirect_stdout(sys.stderr):
                runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv
        if not captured:
            raise SystemExit(f"error: {name} constructed no System to analyze")
        labels = (
            [str(path)]
            if len(captured) == 1
            else [f"{path}#{i}" for i in range(len(captured))]
        )
        return [(lbl, prog, None) for lbl, prog in zip(labels, captured)]
    text = path.read_text()
    if "@BACKENDS@" in text:
        text = expand_placeholders(text)
    return [(str(path), text, text)]


def cmd_analyze(args) -> int:
    import json

    from .analysis import analyze_program, analyze_source
    from .analysis.model import CHECKS

    fail_on: tuple[str, ...] = ()
    if args.fail_on:
        fail_on = tuple(c.strip() for c in args.fail_on.split(",") if c.strip())
        bad = [c for c in fail_on if c not in CHECKS]
        if bad:
            raise SystemExit(
                f"error: --fail-on accepts {','.join(CHECKS)}; got {','.join(bad)}"
            )

    config = _parse_config(args.config)
    reports = []
    for label, source, text in _analysis_sources(args):
        if isinstance(source, str):
            reports.append(
                analyze_source(
                    source,
                    config,
                    label=label,
                    deep=not args.fast,
                    max_unfold=args.max_unfold,
                )
            )
        else:  # a captured CompiledProgram from a .py script
            reports.append(
                analyze_program(
                    source,
                    config,
                    source_text=text,
                    label=label,
                    deep=not args.fast,
                    max_unfold=args.max_unfold,
                )
            )

    if args.json:
        payload = (
            reports[0].to_json()
            if len(reports) == 1
            else [r.to_json() for r in reports]
        )
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for r in reports:
            sys.stdout.write(r.render_text())

    if fail_on:
        failing = [
            f
            for r in reports
            for f in r.unsuppressed(fail_on)
            if f.severity == "error"
        ]
        if failing:
            print(
                f"analyze: {len(failing)} failing finding(s) "
                f"(--fail-on {','.join(fail_on)})",
                file=sys.stderr,
            )
            return 2
    return 0


def cmd_fmt(args) -> int:
    text = Path(args.file).read_text()
    out = emit_program(parse_program(text))
    if args.write:
        Path(args.file).write_text(out)
        print(f"formatted {args.file}")
    else:
        sys.stdout.write(out)
    return 0


def cmd_topo(args) -> int:
    text = Path(args.file).read_text()
    prog = compile_program(text, config=_parse_config(args.config))
    g = topology(prog)
    print(f"# {g.number_of_nodes()} junction(s), {g.number_of_edges()} edge(s)")
    for src, dst in sorted(g.edges()):
        print(f"{src} -> {dst}")
    return 0


def cmd_semantics(args) -> int:
    text = Path(args.file).read_text()
    prog = compile_program(text, config=_parse_config(args.config))
    sem = denote_program(prog, _parse_config(args.config))
    if args.dot:
        print(to_dot(sem.startup, "startup"))
        for node, es in sorted(sem.junctions.items()):
            print(to_dot(es, node))
    else:
        print("== startup ==")
        print(to_text(sem.startup))
        for node, es in sorted(sem.junctions.items()):
            print(f"\n== {node} ==")
            print(to_text(es))
    return 0


def cmd_loc(args) -> int:
    from .arch.loc import count_loc_text

    text = Path(args.file).read_text()
    print(count_loc_text(text))
    return 0


def _trace_py(path: Path) -> list:
    """Run a Python script, capturing the telemetry of every System it
    constructs.  The script's stdout goes to stderr so the export owns
    stdout."""
    import contextlib
    import runpy

    from .telemetry.facade import capture_systems

    argv = sys.argv
    sys.argv = [str(path)]
    try:
        with capture_systems() as captured, contextlib.redirect_stdout(sys.stderr):
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv
    return captured


def _trace_csaw(path: Path, config: dict, until: float, spec) -> list:
    from .runtime.system import System

    prog = compile_program(path.read_text(), config=config)
    system = System(prog, engine=spec)
    system.start()
    system.run_until(until)
    return [system.telemetry]


def cmd_trace(args) -> int:
    from .runtime.engine import default_engine
    from .telemetry.sinks import chrome_json, to_jsonl

    spec = _engine_spec(args)
    path = Path(args.file)
    with _compile_ctx(spec):
        if path.suffix == ".py":
            if args.engine is not None:
                # an explicit spec reroutes every System the script
                # builds (scripts passing their own engine keep it)
                with default_engine(spec):
                    telemetries = _trace_py(path)
            else:
                telemetries = _trace_py(path)
        else:
            telemetries = _trace_csaw(
                path, _parse_config(args.config), args.until, spec
            )
    if not telemetries:
        print("error: the traced program constructed no System", file=sys.stderr)
        return 1

    labels = (
        ["system"]
        if len(telemetries) == 1
        else [f"system{i}" for i in range(len(telemetries))]
    )
    if args.format == "chrome":
        out = chrome_json(
            [(lbl, tel.events) for lbl, tel in zip(labels, telemetries)]
        )
    else:
        out = "".join(
            to_jsonl(tel.events, system=None if len(telemetries) == 1 else lbl)
            for lbl, tel in zip(labels, telemetries)
        )
    if args.out:
        Path(args.out).write_text(out)
        total = sum(len(tel.events) for tel in telemetries)
        print(f"wrote {total} event(s) to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(out)
    return 0


def _stub_bindings(system) -> list[str]:
    """Bind no-op host functions and empty state providers for every
    unbound ⌊H⌉ block / save schema, so a bare ``.csaw`` architecture
    runs to completion without an embedding application."""
    from .core import ast as A
    from .runtime.instance import StateProviders

    stubbed: list[str] = []
    for tname, trt in sorted(system.types.items()):
        declared: set[str] = set()
        for cj in trt.junctions.values():
            for e in A.walk(cj.body):
                if isinstance(e, A.HostBlock):
                    declared.add(e.name)
        for name in sorted(declared - set(trt.host_fns)):
            trt.bind_host(name, lambda ctx: None)
            stubbed.append(f"{tname}.{name}")
        if trt.state.save is None:
            trt.state = StateProviders(
                save=lambda app, inst: {},
                restore=lambda app, inst, obj: None,
            )
    return stubbed


class _GracefulSignal(Exception):
    """Raised out of a running engine loop by the SIGINT/SIGTERM
    handler so ``repro run`` / ``repro cluster`` can drain instead of
    dying mid-write."""

    def __init__(self, signum: int):
        super().__init__(signum)
        self.signum = signum

    @property
    def name(self) -> str:
        import signal as _signal

        try:
            return _signal.Signals(self.signum).name
        except ValueError:  # pragma: no cover - exotic signal numbers
            return str(self.signum)


class _graceful_signals:
    """Context manager: route SIGINT/SIGTERM into :class:`_GracefulSignal`
    (wall-clock engines only — the sim engine finishes instantly and the
    default KeyboardInterrupt behaviour is right for it)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._prev: list[tuple[int, object]] = []

    def __enter__(self):
        if not self.enabled:
            return self
        import signal as _signal

        def handler(signum, frame):  # noqa: ARG001 - signal signature
            raise _GracefulSignal(signum)

        for signum in (_signal.SIGINT, _signal.SIGTERM):
            self._prev.append((signum, _signal.signal(signum, handler)))
        return self

    def __exit__(self, *exc):
        import signal as _signal

        for signum, prev in self._prev:
            _signal.signal(signum, prev)
        return False


def _run_workload(args, engine, holder=None):
    """The shared ``repro run`` / ``repro cluster`` drive: a shipped
    scenario name runs its exploration workload, anything else loads as
    a ``.csaw`` file with stubbed host bindings.  ``engine`` is an
    :class:`~repro.runtime.engine.EngineSpec` or a zero-arg engine
    factory.  Returns the system."""
    from .explore.scenarios import _ARCH_SCENARIOS, arch_scenario
    from .runtime.engine import default_engine

    if args.file in _ARCH_SCENARIOS:
        # shipped architecture: the exploration scenario provides the
        # host bindings and a deterministic workload
        sc = arch_scenario(args.file)
        if args.until is not None:
            sc.horizon = args.until
        if holder is not None:
            holder.append(sc)
        with default_engine(engine):
            return sc.run()
    from .arch.loader import expand_placeholders
    from .core.compiler import compile_program
    from .runtime.system import System

    text = Path(args.file).read_text()
    if "@BACKENDS@" in text:
        text = expand_placeholders(text)
    prog = compile_program(text, config=_parse_config(args.config))
    system = System(prog, engine=engine() if callable(engine) else engine)
    if holder is not None:
        holder.append(system)
    stubbed = _stub_bindings(system)
    if stubbed:
        print(f"stubbed host bindings: {', '.join(stubbed)}", file=sys.stderr)
    main_args = {}
    if prog.main is not None:
        env = prog.config_env()
        main_args = {p: 1.0 for p in prog.main.params if p not in env}
    if main_args:
        print(
            f"defaulted main parameter(s) to 1.0: {sorted(main_args)}",
            file=sys.stderr,
        )
    system.start(**main_args)
    system.run_until(args.until if args.until is not None else 30.0)
    return system


def _recover_system(holder):
    """Best-effort: the system under a run that was interrupted
    mid-workload (scenarios stash the service on themselves first)."""
    for obj in holder:
        svc = getattr(obj, "_svc", None)
        if svc is not None:
            return svc.system
        if hasattr(obj, "engine"):
            return obj
    return None


def _print_summary(args, system, wall: float, *, drained: str | None = None) -> None:
    sent = int(system.telemetry.metrics.sum("net_sent"))
    delivered = int(system.telemetry.metrics.sum("net_delivered"))
    drain_note = f" drained={drained}" if drained is not None else ""
    print(
        f"{args.file}: engine={system.engine.name} t={system.now:.3f} "
        f"sent={sent} delivered={delivered} wall={wall:.2f}s "
        f"failures={len(system.failures)}{drain_note}"
    )
    for t, node, exc in system.failures:
        print(f"  failure at t={t:.3f} in {node}: {exc!r}", file=sys.stderr)


def cmd_run(args) -> int:
    import time as _time

    spec = _engine_spec(args, default_time_scale=0.05)

    holder: list = []
    wall0 = _time.perf_counter()
    drained: str | None = None
    try:
        with _compile_ctx(spec), _graceful_signals(enabled=spec.name != "sim"):
            system = _run_workload(args, spec, holder)
    except _GracefulSignal as sig:
        system = _recover_system(holder)
        if system is None:
            print(f"run: {sig.name} before the system came up", file=sys.stderr)
            return 130
        # drain in-flight messages and host calls before summarizing, so
        # the telemetry counters below describe a settled system
        print(f"run: {sig.name} — draining in-flight work", file=sys.stderr)
        drained = "clean" if system.engine.drain(grace=5.0) else "timeout"
    wall = _time.perf_counter() - wall0

    _print_summary(args, system, wall, drained=drained)
    system.shutdown()
    return 1 if system.failures else 0


def cmd_workload(args) -> int:
    from .workload import ADAPTERS, WorkloadSpec, run_workload

    if args.arch not in ADAPTERS:
        print(
            f"error: no workload adapter for {args.arch!r}; "
            f"have {', '.join(sorted(ADAPTERS))}",
            file=sys.stderr,
        )
        return 1
    spec = WorkloadSpec(
        seed=args.seed,
        users=args.users,
        pattern=args.pattern,
        mode=args.mode,
        rate=args.rate,
        concurrency=args.concurrency,
        duration=args.duration,
        max_ops=args.max_ops,
        value_size=args.value_size,
        read_fraction=args.read_fraction,
    )
    engine = _engine_spec(args, default_time_scale=0.05)
    with _compile_ctx(engine):
        report = run_workload(spec, args.arch, engine)
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"{args.arch}: engine={report.engine} pattern={spec.pattern} "
            f"mode={spec.mode} users={spec.users}"
        )
        print(
            f"  ops: {report.ops_completed} completed, {report.ops_failed} failed, "
            f"{report.ops_dropped} dropped of {report.ops_submitted} submitted"
        )
        print(
            f"  throughput: {report.ops_per_sec:.1f} ops/sec over "
            f"{report.logical_seconds:.1f} logical s ({report.wall_seconds:.2f}s wall)"
        )
        print(f"  latency: p50={report.p50_ms:.3f}ms p99={report.p99_ms:.3f}ms")
        print(f"  digest: {report.digest}")
    return 1 if report.ops_dropped else 0


def cmd_cluster(args) -> int:
    import time as _time

    from .runtime.cluster import ClusterEngine, reap_orphan_workers
    from .runtime.supervisor import BackoffPolicy

    kills = list(args.kill)
    kill_times = list(args.kill_at)
    if len(kill_times) > len(kills):
        raise SystemExit("error: more --kill-at times than --kill targets")
    # unscheduled kills default to 4s, spaced 2s apart
    while len(kill_times) < len(kills):
        last = kill_times[-1] if kill_times else 2.0
        kill_times.append(last + 2.0)
    drills = list(zip(kill_times, kills))

    spec = _engine_spec(args, default="cluster", default_time_scale=0.05)
    if spec.name != "cluster":
        raise SystemExit(
            f"error: repro cluster deploys on the cluster engine, "
            f"got --engine {spec.name}"
        )

    backoff = BackoffPolicy(base=args.backoff_base, cap=args.backoff_cap)
    engines: list[ClusterEngine] = []

    def factory() -> ClusterEngine:
        e = ClusterEngine(
            workers=spec.workers,
            time_scale=spec.time_scale,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            backoff=backoff,
            drills=drills,
            **dict(spec.options),
        )
        engines.append(e)
        return e

    holder: list = []
    wall0 = _time.perf_counter()
    drained: str | None = None
    interrupted = False
    try:
        with _compile_ctx(spec), _graceful_signals():
            system = _run_workload(args, factory, holder)
            if drills:
                # give supervised restarts room to land after the
                # workload: backoff delay + handshake + stabilization
                system.run_until(system.now + args.settle)
    except _GracefulSignal as sig:
        interrupted = True
        system = _recover_system(holder)
        if system is None:
            for e in engines:
                e.close()
            print(f"cluster: {sig.name} before the system came up", file=sys.stderr)
            return 130
        print(f"cluster: {sig.name} — draining workers", file=sys.stderr)
        drained = "clean" if system.engine.drain(grace=5.0) else "timeout"
    wall = _time.perf_counter() - wall0

    _print_summary(args, system, wall, drained=drained)
    engine = system.engine
    recovered = True
    if isinstance(engine, ClusterEngine):
        report = engine.supervisor.report()
        print(report.render())
        if drills and not interrupted:
            recovered = report.recovered()
            print(f"recovered={recovered}")
    system.shutdown()
    leaked = reap_orphan_workers()
    if leaked:
        print(f"cluster: reaped leaked worker pgids {leaked}", file=sys.stderr)
        return 1
    if system.failures:
        return 1
    return 0 if recovered else 2


def _load_arch_text(value: str, n_backends: int | None) -> str:
    """A shipped architecture name or a ``.csaw`` path → DSL source
    (``@BACKENDS@`` placeholders expanded)."""
    from .arch.loader import ARCHITECTURES, expand_placeholders, load_source

    if value in ARCHITECTURES:
        return load_source(value, n_backends=n_backends)
    text = Path(value).read_text()
    if "@BACKENDS@" in text:
        text = expand_placeholders(text, n_backends or 4)
    return text


def cmd_reconfigure(args) -> int:
    import time as _time

    from .reconfig import diff_programs, plan_transition

    config = _parse_config(args.config)
    old = compile_program(
        _load_arch_text(args.old, args.old_backends), config=config
    )
    new = compile_program(
        _load_arch_text(args.new, args.new_backends), config=config
    )
    diff = diff_programs(old, new)
    print(f"diff: {diff.summary()}")
    if args.diff_only:
        return 0
    if args.plan_only:
        plan = plan_transition(diff)
        print(plan.render())
        return 0

    spec = _engine_spec(args, default_time_scale=0.05)
    from .runtime.system import System

    wall0 = _time.perf_counter()
    with _compile_ctx(spec), _graceful_signals(enabled=spec.name != "sim"):
        system = System(old, engine=spec)
        stubbed = _stub_bindings(system)
        if stubbed:
            print(f"stubbed host bindings: {', '.join(stubbed)}", file=sys.stderr)
        main_args = {}
        if old.main is not None:
            env = old.config_env()
            main_args = {p: 1.0 for p in old.main.params if p not in env}
        if main_args:
            print(
                f"defaulted main parameter(s) to 1.0: {sorted(main_args)}",
                file=sys.stderr,
            )
        system.start(**main_args)
        system.run_until(args.at)
        report = system.reconfigure(new, quiesce_grace=args.grace)
        system.run_until(args.until if args.until is not None else system.now + 5.0)
    wall = _time.perf_counter() - wall0

    print(report.render())
    print(
        f"{args.old} -> {args.new}: engine={system.engine.name} "
        f"t={system.now:.3f} wall={wall:.2f}s failures={len(system.failures)}"
    )
    for t, node, exc in system.failures:
        print(f"  failure at t={t:.3f} in {node}: {exc!r}", file=sys.stderr)
    system.shutdown()
    if system.failures:
        return 1
    return 0 if report.ok else 2


def _explore_scenario(args):
    from .explore import resolve_scenario

    return resolve_scenario(
        args.file, config=_parse_config(args.config), horizon=args.until
    )


def _write_trace(result, schedule_id: str, path: str) -> None:
    from .telemetry.sinks import to_jsonl

    out = to_jsonl(result.system.telemetry.events, system=f"schedule:{schedule_id}")
    Path(path).write_text(out)
    print(f"wrote telemetry to {path} (schedule:{schedule_id})", file=sys.stderr)


def _explore_replay(args, scenario) -> int:
    import json

    from .explore import Schedule, ScheduleDivergence, replay

    sched = Schedule.from_json(json.loads(Path(args.replay).read_text()))
    invariants = tuple(args.invariant) if args.invariant else None
    try:
        res = replay(scenario, sched, invariants=invariants)
    except ScheduleDivergence as e:
        print(f"error: replay diverged: {e}", file=sys.stderr)
        return 1
    if args.trace_out:
        _write_trace(res, sched.schedule_id, args.trace_out)
    if res.violations:
        for inv, msg in res.violations:
            print(f"violation [{inv}]: {msg}")
        return 1
    print(f"replayed schedule {sched.schedule_id}: all invariants hold")
    return 0


def _explore_witness_races(args, scenario) -> int:
    import json

    from .analysis import analyze_source
    from .arch.loader import ARCHITECTURES, load_source
    from .explore import witness_findings

    if args.file in ARCHITECTURES:
        text = load_source(args.file)
    else:
        path = Path(args.file)
        if path.suffix == ".py":
            raise SystemExit(
                "error: --witness-races needs a .csaw file or architecture "
                "name (the static analyzer works on DSL sources)"
            )
        text = path.read_text()
    report = analyze_source(
        text, _parse_config(args.config), label=args.file, deep=True
    )
    races = [f for f in report.unsuppressed() if f.check == "race"]
    if not races:
        print(f"{args.file}: the analyzer reports no unsuppressed races")
        return 0
    witnesses = witness_findings(
        scenario,
        races,
        strategy=args.strategy,
        budget=args.budget,
        depth=args.depth,
        seed=args.seed,
    )
    for w in witnesses:
        print(w.describe())
    if args.out:
        payload = [w.to_json() for w in witnesses]
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(payload)} witness attempt(s) to {args.out}", file=sys.stderr)
    return 0


def cmd_explore(args) -> int:
    import json

    from .explore import explore

    spec = _engine_spec(args)
    if spec.name != "sim":
        raise SystemExit(
            f"error: explore requires the sim engine (controlled "
            f"scheduling), got --engine {spec.name}"
        )
    # spec.compiled is accepted but moot: controlled scheduling always
    # runs the interpreter so event labels match recorded schedules
    scenario = _explore_scenario(args)
    if args.replay:
        return _explore_replay(args, scenario)
    if args.witness_races:
        return _explore_witness_races(args, scenario)

    invariants = tuple(args.invariant) if args.invariant else None
    result = explore(
        scenario,
        strategy=args.strategy,
        budget=args.budget,
        depth=args.depth,
        invariants=invariants,
        seed=args.seed,
    )
    print(f"{scenario.name}: {result.summary()}")
    for v in result.violations:
        print(
            f"violation [{v.invariant}] under schedule "
            f"{v.schedule.schedule_id}: {v.message}"
        )
    if args.out and result.violations:
        payload = [v.to_json() for v in result.violations]
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(
            f"wrote {len(payload)} failing schedule(s) to {args.out}",
            file=sys.stderr,
        )
    return 2 if result.violations else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="C-Saw architecture tooling"
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="a .csaw architecture file")
        sp.add_argument(
            "--config", action="append", default=[], metavar="NAME=VALUE",
            help="load-time configuration (sets, parameters); repeatable",
        )

    sp = sub.add_parser("check", help="parse, validate and compile")
    common(sp)
    sp.add_argument(
        "--strict", action="store_true",
        help="also run the analyzer's fast checks; exit 2 on errors",
    )
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser(
        "analyze", help="static analysis: races, dead code, host contracts"
    )
    sp.add_argument(
        "file",
        help="a .csaw file, a shipped architecture name, or an example .py script",
    )
    sp.add_argument(
        "--config", action="append", default=[], metavar="NAME=VALUE",
        help="load-time configuration (sets, parameters); repeatable",
    )
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.add_argument(
        "--fail-on", metavar="CHECKS", default="",
        help="comma-separated checks (race,dead,contract,unused); exit 2 "
             "when any unsuppressed error finding of these checks remains",
    )
    sp.add_argument(
        "--fast", action="store_true",
        help="key-flow checks only (skip event-structure denotation)",
    )
    sp.add_argument(
        "--max-unfold", type=int, default=1,
        help="reconsider/retry unfolding depth for the deep pass (default: 1)",
    )
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("fmt", help="pretty-print / normalize")
    sp.add_argument("file")
    sp.add_argument("--write", action="store_true", help="rewrite in place")
    sp.set_defaults(fn=cmd_fmt)

    sp = sub.add_parser("topo", help="print the communication topology")
    common(sp)
    sp.set_defaults(fn=cmd_topo)

    sp = sub.add_parser("semantics", help="print event-structure semantics")
    common(sp)
    sp.add_argument("--dot", action="store_true", help="Graphviz output")
    sp.set_defaults(fn=cmd_semantics)

    sp = sub.add_parser("loc", help="count effective lines of code")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_loc)

    sp = sub.add_parser(
        "trace", help="run with telemetry and export the causal trace"
    )
    sp.add_argument("file", help="a .csaw architecture or an example .py script")
    sp.add_argument(
        "--config", action="append", default=[], metavar="NAME=VALUE",
        help="load-time configuration (for .csaw files); repeatable",
    )
    sp.add_argument(
        "--format", choices=("jsonl", "chrome"), default="jsonl",
        help="export format (default: jsonl)",
    )
    sp.add_argument(
        "--until", type=float, default=60.0,
        help="simulated seconds to run a .csaw file for (default: 60)",
    )
    sp.add_argument(
        "--engine", metavar="SPEC", default=None,
        help="engine spec, e.g. sim, sim,compiled=off, "
             "realtime,time_scale=0.05 (default: sim)",
    )
    sp.add_argument("--out", help="write to this file instead of stdout")
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser(
        "run", help="execute an architecture on a chosen execution engine"
    )
    sp.add_argument(
        "file",
        help="a shipped architecture name (driven by its exploration "
             "workload) or a .csaw file (unbound host blocks are stubbed)",
    )
    sp.add_argument(
        "--config", action="append", default=[], metavar="NAME=VALUE",
        help="load-time configuration (for .csaw files); repeatable",
    )
    sp.add_argument(
        "--engine", metavar="SPEC", default="sim",
        help="engine spec: sim | realtime | realtime-tcp | cluster plus "
             "key=value options, e.g. realtime,time_scale=0.05 or "
             "sim,compiled=off (default: sim)",
    )
    sp.add_argument(
        "--until", type=float, default=None,
        help="logical-seconds horizon (default: the scenario's own, or 30)",
    )
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser(
        "workload",
        help="drive a seeded million-user workload through an architecture "
             "and report ops/sec, p50/p99 and drops",
    )
    sp.add_argument(
        "--arch", default="broker_sharded",
        help="architecture adapter: broker_sharded | broker_failover | "
             "sharding | failover (default: broker_sharded)",
    )
    sp.add_argument(
        "--engine", metavar="SPEC", default="sim",
        help="engine spec: sim | realtime | realtime-tcp | cluster plus "
             "key=value options (default: sim)",
    )
    sp.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    sp.add_argument(
        "--users", type=int, default=10_000,
        help="distinct-user population keys are drawn from (default: 10000)",
    )
    sp.add_argument(
        "--pattern", choices=("steady", "diurnal", "flash-crowd"),
        default="steady", help="arrival curve (default: steady)",
    )
    sp.add_argument(
        "--mode", choices=("open", "closed"), default="open",
        help="open loop (timed arrivals) or closed loop (fixed "
             "outstanding-op window; default: open)",
    )
    sp.add_argument(
        "--rate", type=float, default=200.0,
        help="mean arrival rate in ops per logical second (open loop; "
             "default: 200)",
    )
    sp.add_argument(
        "--concurrency", type=int, default=8,
        help="outstanding-op window (closed loop; default: 8)",
    )
    sp.add_argument(
        "--duration", type=float, default=10.0,
        help="logical seconds of traffic (default: 10)",
    )
    sp.add_argument(
        "--max-ops", type=int, default=2000,
        help="hard cap on generated operations (default: 2000)",
    )
    sp.add_argument(
        "--value-size", type=int, default=64,
        help="payload bytes per write (default: 64)",
    )
    sp.add_argument(
        "--read-fraction", type=float, default=0.3,
        help="fraction of ops that are reads (default: 0.3)",
    )
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.set_defaults(fn=cmd_workload)

    sp = sub.add_parser(
        "cluster",
        help="deploy across supervised worker processes (one per instance "
             "or shard group), with optional SIGKILL fault drills",
    )
    sp.add_argument(
        "file",
        help="a shipped architecture name (driven by its exploration "
             "workload) or a .csaw file (unbound host blocks are stubbed)",
    )
    sp.add_argument(
        "--config", action="append", default=[], metavar="NAME=VALUE",
        help="load-time configuration (for .csaw files); repeatable",
    )
    sp.add_argument(
        "--engine", metavar="SPEC", default="cluster",
        help="engine spec (name must be cluster), e.g. "
             "cluster,workers=4,time_scale=0.05 (default: cluster)",
    )
    sp.add_argument(
        "--until", type=float, default=None,
        help="logical-seconds horizon (default: the scenario's own, or 30)",
    )
    sp.add_argument(
        "--heartbeat-interval", type=float, default=0.5,
        help="logical seconds between liveness pings (default: 0.5)",
    )
    sp.add_argument(
        "--heartbeat-timeout", type=float, default=2.0,
        help="logical seconds without a pong before a worker is declared "
             "crashed (default: 2.0)",
    )
    sp.add_argument(
        "--backoff-base", type=float, default=0.5,
        help="first restart delay in logical seconds (default: 0.5)",
    )
    sp.add_argument(
        "--backoff-cap", type=float, default=8.0,
        help="maximum restart delay in logical seconds (default: 8.0)",
    )
    sp.add_argument(
        "--kill", action="append", default=[], metavar="INSTANCE",
        help="fault drill: SIGKILL the worker hosting INSTANCE mid-run "
             "(repeatable; exits non-zero unless the supervisor recovers it)",
    )
    sp.add_argument(
        "--kill-at", action="append", type=float, default=[], metavar="T",
        help="logical time of the matching --kill (default: 4s, spaced 2s)",
    )
    sp.add_argument(
        "--settle", type=float, default=20.0,
        help="extra logical seconds after the workload for supervised "
             "restarts to land (only with --kill; default: 20)",
    )
    sp.set_defaults(fn=cmd_cluster)

    sp = sub.add_parser(
        "reconfigure",
        help="apply a .csaw architecture diff to a running system "
             "(quiesce, snapshot, cutover, resume — zero dropped requests)",
    )
    sp.add_argument(
        "old",
        help="the running architecture: a shipped name or a .csaw file",
    )
    sp.add_argument(
        "new",
        help="the target architecture: a shipped name or a .csaw file",
    )
    sp.add_argument(
        "--config", action="append", default=[], metavar="NAME=VALUE",
        help="load-time configuration applied to both sources; repeatable",
    )
    sp.add_argument(
        "--old-backends", type=int, default=None, metavar="N",
        help="back-end count for a parameterized OLD source (sharding)",
    )
    sp.add_argument(
        "--new-backends", type=int, default=None, metavar="N",
        help="back-end count for a parameterized NEW source (sharding)",
    )
    sp.add_argument(
        "--engine", metavar="SPEC", default="sim",
        help="engine spec: sim | realtime | realtime-tcp | cluster plus "
             "key=value options (default: sim)",
    )
    sp.add_argument(
        "--at", type=float, default=2.0,
        help="logical time to trigger the transition (default: 2.0)",
    )
    sp.add_argument(
        "--until", type=float, default=None,
        help="logical-seconds horizon after the transition "
             "(default: trigger time + 5)",
    )
    sp.add_argument(
        "--grace", type=float, default=5.0,
        help="quiesce grace in logical seconds before rollback (default: 5.0)",
    )
    sp.add_argument(
        "--diff-only", action="store_true",
        help="print the architecture diff and exit",
    )
    sp.add_argument(
        "--plan-only", action="store_true",
        help="print the transition plan and exit",
    )
    sp.set_defaults(fn=cmd_reconfigure)

    sp = sub.add_parser(
        "explore",
        help="controlled-scheduler interleaving search with invariant checks",
    )
    sp.add_argument(
        "file",
        help="a shipped architecture name, a .csaw file, or a .py scenario "
             "script defining build_scenario()",
    )
    sp.add_argument(
        "--config", action="append", default=[], metavar="NAME=VALUE",
        help="load-time configuration (for .csaw files); repeatable",
    )
    sp.add_argument(
        "--strategy", choices=("dpor", "bfs", "dfs", "random"), default="dpor",
        help="search strategy (default: dpor — partial-order-reduced search)",
    )
    sp.add_argument(
        "--budget", type=int, default=200,
        help="maximum schedules to run (default: 200)",
    )
    sp.add_argument(
        "--depth", type=int, default=None,
        help="branch only at the first N choice points (default: unbounded)",
    )
    sp.add_argument(
        "--invariant", action="append", default=[], metavar="NAME",
        help="invariant to check (repeatable; default: the scenario's own "
             "set — no-failures, convergence, at-most-once, ...)",
    )
    sp.add_argument(
        "--seed", type=int, default=0, help="seed for the random strategy"
    )
    sp.add_argument(
        "--engine", metavar="SPEC", default=None,
        help="engine spec; accepted for uniformity but must name sim "
             "(exploration needs controlled scheduling)",
    )
    sp.add_argument(
        "--until", type=float, default=None,
        help="simulated-seconds horizon for .csaw scenarios",
    )
    sp.add_argument(
        "--replay", metavar="SCHEDULE_JSON",
        help="replay a serialized schedule exactly instead of searching",
    )
    sp.add_argument(
        "--trace-out", metavar="FILE",
        help="with --replay: export the run's telemetry JSONL (labeled with "
             "the schedule id) to FILE",
    )
    sp.add_argument(
        "--witness-races", action="store_true",
        help="run the static analyzer and attempt a concrete witness "
             "schedule for every unsuppressed race finding",
    )
    sp.add_argument(
        "--out", metavar="FILE",
        help="write failing schedules (or --witness-races results) as JSON",
    )
    sp.set_defaults(fn=cmd_explore)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CSawError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
