"""Command-line interface: ``python -m repro <command> <target>``.

Every verb that takes a target resolves it by one rule
(:func:`repro.arch.loader.open_target`): a shipped architecture name
(``sharding``, ``failover``, …), else a ``.csaw`` file, else — for the
verbs that run scripts — a ``.py`` file.  Verbs that *run* a target
(``run``, ``cluster``, ``trace``, ``explore``) turn it into a scenario
(:func:`repro.explore.resolve_scenario`): a shipped name runs its
catalog row's exploration workload with the real host bindings, a
``.csaw`` runs bare (unbound host blocks stubbed, open ``main``
parameters defaulted to 1.0).

Commands:

* ``check``     — parse + validate + compile; report errors with positions.
                  ``--strict`` folds in the analyzer's fast (key-flow)
                  checks and fails on unsuppressed errors.
* ``analyze``   — static analysis: KV write-write races, dead junctions
                  and case arms, host write-contract violations, unused
                  keys.  A ``.py`` script is run and every program its
                  Systems load is analyzed.
                  ``--fail-on race,dead,contract`` exits 2 when any
                  unsuppressed *error* finding of those checks remains.
* ``fmt``       — pretty-print (normalize) an architecture file
                  (``--write`` rewrites a ``.csaw`` file, never a
                  shipped name).
* ``topo``      — print the communication topology (sec. 8.7's Topo).
* ``semantics`` — print the event-structure semantics per junction
                  (``--dot`` for Graphviz output).
* ``loc``       — count non-blank, non-comment lines.
* ``trace``     — run a target (a ``.py`` script is run as ``__main__``
                  and every System it builds is captured) with telemetry
                  on and export the causal trace as JSONL or Chrome
                  trace-event JSON (loadable in ``chrome://tracing`` /
                  Perfetto).
* ``run``       — execute a target on a chosen execution engine
                  (``--engine`` takes an EngineSpec string such as
                  ``realtime,time_scale=0.05`` or ``sim,compiled=off``);
                  SIGINT/SIGTERM drain in-flight work before the
                  summary instead of dying mid-write.
* ``workload``  — drive a seeded million-user workload through a
                  shipped architecture that speaks a request protocol.
* ``cluster``   — deploy across supervised worker processes (one OS
                  process per instance, or ``--engine cluster,workers=N``
                  shard groups) with heartbeat liveness probes and
                  restart-with-backoff; ``--kill b1 --kill-at 4`` runs
                  a SIGKILL fault drill and exits non-zero unless the
                  supervisor recovers the worker.
* ``reconfigure`` — apply the diff between two targets to a running
                  system (quiesce, snapshot, cutover, resume).
* ``explore``   — controlled-scheduler interleaving search: run a
                  target (a ``.py`` script must define
                  ``build_scenario()``) under every reachable
                  schedule (``--strategy dpor|bfs|dfs|random``,
                  ``--budget N``), checking invariants over each final
                  state.  Failing interleavings serialize as replayable
                  JSON (``--replay schedule.json`` reproduces the exact
                  run, byte-identical telemetry); ``--witness-races``
                  attempts a concrete witness schedule for every static
                  race finding.

Configuration values (family sizes, set contents, parameters) are
supplied as ``--config name=value`` pairs; values parse as numbers,
comma-separated lists, or names.  ``--config Bck=16`` sizes the
back-end family ``Bck[4]: Back`` of the sharded architectures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import time
from pathlib import Path

from .arch.loader import bare_main_args, compile_sized, open_target, start_bare
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
    if spec.compiled is None:
        return contextlib.nullcontext()
    from .compile import compilation

    return compilation(spec.compiled)


def _config(args) -> dict:
    out: dict[str, object] = {}
    for pair in args.config:
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


def _note(line: str) -> None:
    print(line, file=sys.stderr)


def _compiled(args):
    """The verb's target as ``(source text, compiled program)``; the
    program carries ``--config``, so tools read it from there."""
    text = open_target(args.file).text
    return text, compile_program(text, config=_config(args))


def _run_script(path: str, capture) -> list:
    """Run a Python script as ``__main__`` inside ``capture()`` (a
    context collecting something from every System the script
    constructs).  The script's stdout goes to stderr so the verb's own
    output owns stdout."""
    import runpy

    path = str(Path(path))
    argv = sys.argv
    sys.argv = [path]
    try:
        with capture() as captured, contextlib.redirect_stdout(sys.stderr):
            runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = argv
    return captured


def _print_failures(system) -> None:
    for t, node, exc in system.failures:
        print(f"  failure at t={t:.3f} in {node}: {exc!r}", file=sys.stderr)


def _write_json(payload, path: str, what: str) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} {what} to {path}", file=sys.stderr)


def cmd_check(args) -> int:
    text, prog = _compiled(args)
    print(f"OK: {len(prog.source.instance_types)} type(s), "
          f"{len(prog.instance_map())} instance(s), "
          f"{len(prog.junctions)} junction(s), "
          f"{len(prog.source.functions)} function(s)")
    if not args.strict:
        return 0
    from .analysis import fast_checks

    report = fast_checks(prog, source_text=text, label=args.file)
    sys.stdout.write(report.render_text())
    errors = [f for f in report.unsuppressed() if f.severity == "error"]
    return 2 if errors else 0


def _analysis_sources(args, config) -> list[tuple[str, object, str | None]]:
    """The ``analyze`` target as ``(label, program, source_text)``
    items: one for DSL source, one per System for a ``.py`` script
    (whose programs are captured while it runs)."""
    target = open_target(args.file, scripts=True)
    label = str(Path(args.file))
    if target.kind != "py":
        return [(label, compile_program(target.text, config=config), target.text)]
    from .analysis.capture import capture_programs

    captured = _run_script(args.file, capture_programs)
    if not captured:
        raise SystemExit(f"error: {args.file} constructed no System to analyze")
    labels = (
        [label]
        if len(captured) == 1
        else [f"{label}#{i}" for i in range(len(captured))]
    )
    return [(lbl, prog, None) for lbl, prog in zip(labels, captured)]


def cmd_analyze(args) -> int:
    from .analysis import analyze_program
    from .analysis.model import CHECKS

    fail_on: tuple[str, ...] = ()
    if args.fail_on:
        fail_on = tuple(c.strip() for c in args.fail_on.split(",") if c.strip())
        bad = [c for c in fail_on if c not in CHECKS]
        if bad:
            raise SystemExit(
                f"error: --fail-on accepts {','.join(CHECKS)}; got {','.join(bad)}"
            )

    config = _config(args)
    reports = [
        analyze_program(
            program,
            # a program compiled here carries ``--config``; one a script
            # built is analyzed under it
            config if text is None else None,
            source_text=text,
            label=label,
            deep=not args.fast,
            max_unfold=args.max_unfold,
        )
        for label, program, text in _analysis_sources(args, config)
    ]

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
    target = open_target(args.file)
    out = emit_program(parse_program(target.text))
    if not args.write:
        sys.stdout.write(out)
    elif target.kind != "csaw":
        raise SystemExit(
            f"error: fmt --write rewrites a .csaw file; {args.file} is a "
            "shipped architecture"
        )
    else:
        Path(args.file).write_text(out)
        print(f"formatted {args.file}")
    return 0


def cmd_topo(args) -> int:
    g = topology(_compiled(args)[1])
    print(f"# {g.number_of_nodes()} junction(s), {g.number_of_edges()} edge(s)")
    for src, dst in sorted(g.edges()):
        print(f"{src} -> {dst}")
    return 0


def cmd_semantics(args) -> int:
    sem = denote_program(_compiled(args)[1])
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

    print(count_loc_text(open_target(args.file).text))
    return 0


def _scenario(args, **kw):
    """The verb's target as a runnable scenario."""
    from .explore import resolve_scenario

    return resolve_scenario(
        args.file, config=_config(args), horizon=args.until, note=_note, **kw
    )


def cmd_trace(args) -> int:
    from .runtime.engine import default_engine
    from .telemetry.facade import capture_systems
    from .telemetry.sinks import chrome_json, to_jsonl

    spec = _engine_spec(args)
    # an explicit spec reroutes every System a script builds (scripts
    # passing their own engine keep it); DSL targets always build on it
    script = open_target(args.file, scripts=True).kind == "py"
    reroute = not script or args.engine is not None
    with _compile_ctx(spec), (
        default_engine(spec) if reroute else contextlib.nullcontext()
    ):
        if script:
            telemetries = _run_script(args.file, capture_systems)
        else:
            telemetries = [_scenario(args, bare_horizon=60.0).run().telemetry]
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


class _GracefulSignal(Exception):
    """Raised out of a running engine loop by the SIGINT/SIGTERM
    handler so ``repro run`` / ``repro cluster`` can drain instead of
    dying mid-write."""

    def __init__(self, signum: int):
        super().__init__(signum)
        self.name = signal.Signals(signum).name


@contextlib.contextmanager
def _graceful_signals(enabled: bool = True):
    """Route SIGINT/SIGTERM into :class:`_GracefulSignal` (wall-clock
    engines only — the sim engine finishes instantly and the default
    KeyboardInterrupt behaviour is right for it)."""

    def handler(signum, frame):  # noqa: ARG001 - signal signature
        raise _GracefulSignal(signum)

    signums = (signal.SIGINT, signal.SIGTERM) if enabled else ()
    prev = [(signum, signal.signal(signum, handler)) for signum in signums]
    try:
        yield
    finally:
        for signum, old in prev:
            signal.signal(signum, old)


def _drive(args, spec, engine, *, draining: str, settle: float | None = None):
    """The shared ``repro run`` / ``repro cluster`` path: run the
    target's scenario under ``engine`` (an
    :class:`~repro.runtime.engine.EngineSpec` or a zero-arg engine
    factory), then ``settle`` more logical seconds; on SIGINT/SIGTERM
    drain in-flight work instead; print the summary.  Returns
    ``(system, interrupted)`` — ``system`` is ``None`` when the signal
    beat the build."""
    from .runtime.engine import default_engine

    scenario = _scenario(args)
    wall0 = time.perf_counter()
    drained = ""
    try:
        with _compile_ctx(spec), _graceful_signals(enabled=spec.name != "sim"), \
                default_engine(engine):
            system = scenario.run()
            if settle is not None:
                system.run_until(system.now + settle)
    except _GracefulSignal as sig:
        system = scenario.system
        if system is None:
            print(f"{args.command}: {sig.name} before the system came up",
                  file=sys.stderr)
            return None, True
        # drain in-flight messages and host calls before summarizing, so
        # the telemetry counters below describe a settled system
        print(f"{args.command}: {sig.name} — draining {draining}", file=sys.stderr)
        drained = " drained=" + ("clean" if system.engine.drain(grace=5.0) else "timeout")
    wall = time.perf_counter() - wall0

    sent = int(system.telemetry.metrics.sum("net_sent"))
    delivered = int(system.telemetry.metrics.sum("net_delivered"))
    print(
        f"{args.file}: engine={system.engine.name} t={system.now:.3f} "
        f"sent={sent} delivered={delivered} wall={wall:.2f}s "
        f"failures={len(system.failures)}{drained}"
    )
    _print_failures(system)
    return system, bool(drained)


def cmd_run(args) -> int:
    spec = _engine_spec(args, default_time_scale=0.05)
    system, _ = _drive(args, spec, spec, draining="in-flight work")
    if system is None:
        return 130
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
    # every WorkloadSpec field the CLI exposes is a flag of the same name
    spec = WorkloadSpec(**{
        f: getattr(args, f)
        for f in ("seed", "users", "pattern", "mode", "rate", "concurrency",
                  "duration", "max_ops", "value_size", "read_fraction")
    })
    engine = _engine_spec(args, default_time_scale=0.05)
    with _compile_ctx(engine):
        report = run_workload(spec, args.arch, engine)
    if args.json:
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

    # with drills, give supervised restarts room to land after the
    # workload: backoff delay + handshake + stabilization
    system, interrupted = _drive(
        args, spec, factory, draining="workers",
        settle=args.settle if drills else None,
    )
    if system is None:
        for e in engines:
            e.close()
        return 130

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


def _static_plan(old, new, diff):
    """The plan ``start_bare(old).reconfigure(new)`` executes, from the
    two programs alone: the executor's rebind rule over what the old
    ``main`` elaborates to in place of a running system's junctions."""
    from .core.elaborate import main_env
    from .reconfig import plan_transition
    from .reconfig.executor import rebind_set, start_args

    old_args, new_args = (
        start_args(p, main_env(p, bare_main_args(p))[0]) for p in (old, new)
    )
    junctions = {name: old.junctions_of_type(t) for name, t in old.instance_map().items()}
    bound = {
        name: {cj.name: dict(zip(cj.params, groups.get(cj.name, ()))) for cj in junctions[name]}
        for name, groups in old_args.items()
    }
    return plan_transition(diff, rebind=rebind_set(diff, new, new_args, bound))


def cmd_reconfigure(args) -> int:
    from .reconfig import diff_programs

    config = _config(args)
    old, new = (
        compile_sized(open_target(target).text, n, config, what=target)
        for target, n in ((args.old, args.old_backends), (args.new, args.new_backends))
    )
    diff = diff_programs(old, new)
    print(f"diff: {diff.summary()}")
    if args.diff_only:
        return 0
    if args.plan_only:
        print(_static_plan(old, new, diff).render())
        return 0

    spec = _engine_spec(args, default_time_scale=0.05)
    wall0 = time.perf_counter()
    with _compile_ctx(spec), _graceful_signals(enabled=spec.name != "sim"):
        system = start_bare(old, spec, note=_note)
        system.run_until(args.at)
        report = system.reconfigure(new, quiesce_grace=args.grace)
        system.run_until(args.until if args.until is not None else system.now + 5.0)
    wall = time.perf_counter() - wall0

    print(report.render())
    print(
        f"{args.old} -> {args.new}: engine={system.engine.name} "
        f"t={system.now:.3f} wall={wall:.2f}s failures={len(system.failures)}"
    )
    _print_failures(system)
    system.shutdown()
    if system.failures:
        return 1
    return 0 if report.ok else 2


def _explore_replay(args, scenario, invariants) -> int:
    from .explore import Schedule, ScheduleDivergence, replay
    from .telemetry.sinks import to_jsonl

    sched = Schedule.from_json(json.loads(Path(args.replay).read_text()))
    try:
        res = replay(scenario, sched, invariants=invariants)
    except ScheduleDivergence as e:
        print(f"error: replay diverged: {e}", file=sys.stderr)
        return 1
    if args.trace_out:
        label = f"schedule:{sched.schedule_id}"
        Path(args.trace_out).write_text(
            to_jsonl(res.system.telemetry.events, system=label)
        )
        print(f"wrote telemetry to {args.trace_out} ({label})", file=sys.stderr)
    if res.violations:
        for inv, msg in res.violations:
            print(f"violation [{inv}]: {msg}")
        return 1
    print(f"replayed schedule {sched.schedule_id}: all invariants hold")
    return 0


def _explore_witness_races(args, scenario, search: dict) -> int:
    from .analysis import analyze_source
    from .explore import witness_findings

    # the static analyzer works on DSL source: no .py scripts here
    report = analyze_source(
        open_target(args.file).text, _config(args), label=args.file, deep=True
    )
    races = [f for f in report.unsuppressed() if f.check == "race"]
    if not races:
        print(f"{args.file}: the analyzer reports no unsuppressed races")
        return 0
    witnesses = witness_findings(scenario, races, **search)
    for w in witnesses:
        print(w.describe())
    if args.out:
        _write_json([w.to_json() for w in witnesses], args.out, "witness attempt(s)")
    return 0


def cmd_explore(args) -> int:
    from .explore import explore

    spec = _engine_spec(args)
    if spec.name != "sim":
        raise SystemExit(
            f"error: explore requires the sim engine (controlled "
            f"scheduling), got --engine {spec.name}"
        )
    scenario = _scenario(args)
    invariants = tuple(args.invariant) if args.invariant else None
    search = dict(
        strategy=args.strategy, budget=args.budget, depth=args.depth, seed=args.seed
    )
    # every run builds its systems afresh: generated code unless the
    # spec says compiled=off (schedules replay under either, the labels
    # being the machine's)
    with _compile_ctx(spec):
        if args.replay:
            return _explore_replay(args, scenario, invariants)
        if args.witness_races:
            return _explore_witness_races(args, scenario, search)
        result = explore(scenario, invariants=invariants, **search)
    print(f"{scenario.name}: {result.summary()}")
    for v in result.violations:
        print(
            f"violation [{v.invariant}] under schedule "
            f"{v.schedule.schedule_id}: {v.message}"
        )
    if args.out and result.violations:
        _write_json(
            [v.to_json() for v in result.violations], args.out, "failing schedule(s)"
        )
    return 2 if result.violations else 0


# ---------------------------------------------------------------------------
# The parser is a table: argument specs, then verbs over them
# ---------------------------------------------------------------------------


def _arg(*flags, **kw):
    return flags, kw


#: arguments more than one verb takes, each declared once
_SHARED = {
    "target": _arg(
        "file",
        help="a shipped architecture name, a .csaw file, or — where the "
             "verb runs scripts — a .py script",
    ),
    "config": _arg(
        "--config", action="append", default=[], metavar="NAME=VALUE",
        help="load-time configuration (family sizes such as Bck=16, sets, "
             "parameters) of .csaw sources; repeatable",
    ),
    "engine": _arg(
        "--engine", metavar="SPEC", default=None,
        help="engine spec: sim | realtime | realtime-tcp | cluster plus "
             "key=value options, e.g. realtime,time_scale=0.05 or "
             "sim,compiled=off (default: sim; cluster under `repro cluster`, "
             "which takes no other; explore needs sim — controlled scheduling)",
    ),
    "until": _arg(
        "--until", type=float, default=None,
        help="logical-seconds horizon (default: the shipped scenario's own; "
             "30 for a bare .csaw, 60 under trace; the trigger time + 5 "
             "under reconfigure)",
    ),
    "json": _arg("--json", action="store_true", help="machine-readable output"),
}

#: (verb, handler, help, arguments) — an argument is a ``_SHARED`` key
#: or an ``_arg(...)`` of the verb's own
_VERBS = (
    ("check", cmd_check, "parse, validate and compile", (
        "target", "config",
        _arg("--strict", action="store_true",
             help="also run the analyzer's fast checks; exit 2 on errors"),
    )),
    ("analyze", cmd_analyze, "static analysis: races, dead code, host contracts", (
        "target", "config", "json",
        _arg("--fail-on", metavar="CHECKS", default="",
             help="comma-separated checks (race,dead,contract,unused); exit 2 "
                  "when any unsuppressed error finding of these checks remains"),
        _arg("--fast", action="store_true",
             help="key-flow checks only (skip event-structure denotation)"),
        _arg("--max-unfold", type=int, default=1,
             help="reconsider/retry unfolding depth for the deep pass (default: 1)"),
    )),
    ("fmt", cmd_fmt, "pretty-print / normalize", (
        "target",
        _arg("--write", action="store_true",
             help="rewrite in place (.csaw files only)"),
    )),
    ("topo", cmd_topo, "print the communication topology", ("target", "config")),
    ("semantics", cmd_semantics, "print event-structure semantics", (
        "target", "config",
        _arg("--dot", action="store_true", help="Graphviz output"),
    )),
    ("loc", cmd_loc, "count effective lines of code", ("target",)),
    ("trace", cmd_trace, "run with telemetry and export the causal trace", (
        "target", "config", "until", "engine",
        _arg("--format", choices=("jsonl", "chrome"), default="jsonl",
             help="export format (default: jsonl)"),
        _arg("--out", help="write to this file instead of stdout"),
    )),
    ("run", cmd_run, "execute an architecture on a chosen execution engine", (
        "target", "config", "engine", "until",
    )),
    ("workload", cmd_workload,
     "drive a seeded million-user workload through an architecture "
     "and report ops/sec, p50/p99 and drops", (
        _arg("--arch", default="broker_sharded",
             help="a shipped architecture that speaks a request protocol, e.g. "
                  "broker_sharded | broker_failover | sharding | failover "
                  "(default: broker_sharded)"),
        "engine", "json",
        _arg("--seed", type=int, default=0, help="generator seed (default: 0)"),
        _arg("--users", type=int, default=10_000,
             help="distinct-user population keys are drawn from (default: 10000)"),
        _arg("--pattern", choices=("steady", "diurnal", "flash-crowd"),
             default="steady", help="arrival curve (default: steady)"),
        _arg("--mode", choices=("open", "closed"), default="open",
             help="open loop (timed arrivals) or closed loop (fixed "
                  "outstanding-op window; default: open)"),
        _arg("--rate", type=float, default=200.0,
             help="mean arrival rate in ops per logical second (open loop; "
                  "default: 200)"),
        _arg("--concurrency", type=int, default=8,
             help="outstanding-op window (closed loop; default: 8)"),
        _arg("--duration", type=float, default=10.0,
             help="logical seconds of traffic (default: 10)"),
        _arg("--max-ops", type=int, default=2000,
             help="hard cap on generated operations (default: 2000)"),
        _arg("--value-size", type=int, default=64,
             help="payload bytes per write (default: 64)"),
        _arg("--read-fraction", type=float, default=0.3,
             help="fraction of ops that are reads (default: 0.3)"),
    )),
    ("cluster", cmd_cluster,
     "deploy across supervised worker processes (one per instance "
     "or shard group), with optional SIGKILL fault drills", (
        "target", "config", "engine", "until",
        _arg("--heartbeat-interval", type=float, default=0.5,
             help="logical seconds between liveness pings (default: 0.5)"),
        _arg("--heartbeat-timeout", type=float, default=2.0,
             help="logical seconds without a pong before a worker is declared "
                  "crashed (default: 2.0)"),
        _arg("--backoff-base", type=float, default=0.5,
             help="first restart delay in logical seconds (default: 0.5)"),
        _arg("--backoff-cap", type=float, default=8.0,
             help="maximum restart delay in logical seconds (default: 8.0)"),
        _arg("--kill", action="append", default=[], metavar="INSTANCE",
             help="fault drill: SIGKILL the worker hosting INSTANCE mid-run "
                  "(repeatable; exits non-zero unless the supervisor recovers it)"),
        _arg("--kill-at", action="append", type=float, default=[], metavar="T",
             help="logical time of the matching --kill (default: 4s, spaced 2s)"),
        _arg("--settle", type=float, default=20.0,
             help="extra logical seconds after the workload for supervised "
                  "restarts to land (only with --kill; default: 20)"),
    )),
    ("reconfigure", cmd_reconfigure,
     "apply a .csaw architecture diff to a running system "
     "(quiesce, snapshot, cutover, resume — zero dropped requests)", (
        _arg("old", help="the running architecture: a shipped name or a .csaw file"),
        _arg("new", help="the target architecture: a shipped name or a .csaw file"),
        "config",
        _arg("--old-backends", type=int, default=None, metavar="N",
             help="size of the OLD source's Bck family (--config Bck=N for "
                  "that side only)"),
        _arg("--new-backends", type=int, default=None, metavar="N",
             help="size of the NEW source's Bck family (--config Bck=N for "
                  "that side only)"),
        "engine",
        _arg("--at", type=float, default=2.0,
             help="logical time to trigger the transition (default: 2.0)"),
        "until",
        _arg("--grace", type=float, default=5.0,
             help="quiesce grace in logical seconds before rollback (default: 5.0)"),
        _arg("--diff-only", action="store_true",
             help="print the architecture diff and exit"),
        _arg("--plan-only", action="store_true",
             help="print the transition plan and exit"),
    )),
    ("explore", cmd_explore,
     "controlled-scheduler interleaving search with invariant checks", (
        "target", "config",
        _arg("--strategy", choices=("dpor", "bfs", "dfs", "random"), default="dpor",
             help="search strategy (default: dpor — partial-order-reduced search)"),
        _arg("--budget", type=int, default=200,
             help="maximum schedules to run (default: 200)"),
        _arg("--depth", type=int, default=None,
             help="branch only at the first N choice points (default: unbounded)"),
        _arg("--invariant", action="append", default=[], metavar="NAME",
             help="invariant to check (repeatable; default: the scenario's own "
                  "set — no-failures, convergence, at-most-once, ...)"),
        _arg("--seed", type=int, default=0, help="seed for the random strategy"),
        "engine", "until",
        _arg("--replay", metavar="SCHEDULE_JSON",
             help="replay a serialized schedule exactly instead of searching"),
        _arg("--trace-out", metavar="FILE",
             help="with --replay: export the run's telemetry JSONL (labeled with "
                  "the schedule id) to FILE"),
        _arg("--witness-races", action="store_true",
             help="run the static analyzer and attempt a concrete witness "
                  "schedule for every unsuppressed race finding"),
        _arg("--out", metavar="FILE",
             help="write failing schedules (or --witness-races results) as JSON"),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="C-Saw architecture tooling"
    )
    sub = p.add_subparsers(dest="command", required=True)
    for verb, fn, help_, arguments in _VERBS:
        sp = sub.add_parser(verb, help=help_)
        for a in arguments:
            flags, kw = _SHARED[a] if isinstance(a, str) else a
            sp.add_argument(*flags, **kw)
        sp.set_defaults(fn=fn)
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
