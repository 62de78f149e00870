"""The tree-walking front-end: junction bodies, statement by statement.

:func:`body` has the signature of a compiled ``body_fn(ex, consts)`` and
is what :class:`~repro.runtime.interpreter.JunctionExecution` runs when
``jr.code is None``.  It walks the specialized expression tree and does
everything through the machine's public ops — so does the code
:mod:`repro.compile.codegen` generates, which is how the two stay one
semantics.  The tree-walker is the *reference*: the differential suites
compare compiled bodies against it — telemetry byte for byte, and the
schedules ``repro explore`` visits id for id.

``case`` implements the paper's terminators: ``break`` leaves the case;
``next`` re-matches below the succeeded arm; ``reconsider`` re-matches
from scratch and **fails** if the same arm would run again with the
junction's proposition state unchanged (``ex.case_match``).
"""

from __future__ import annotations

from typing import Generator

from ..core import ast as A
from ..core.errors import DslFailure, ReturnSignal, RetrySignal


def body(ex, consts=None) -> Generator:
    """The junction body with the retry/return loop around it (compiled
    bodies embed the same loop)."""
    while True:
        try:
            yield from run(ex, ex.jr.body)
            return
        except ReturnSignal:
            return
        except RetrySignal:
            ex.retry()


def run(ex, e: A.Expr) -> Generator:
    """Execute one statement on execution ``ex``."""
    handler = _STATEMENTS.get(type(e))
    if handler is None:
        raise DslFailure(f"{ex.jr.node}: cannot execute {type(e).__name__}")
    blocking = handler(ex, e)
    if blocking is not None:
        yield from blocking


# -- statements that never block: plain functions ---------------------------

def _skip(ex, e) -> None:
    pass


def _return(ex, e) -> None:
    raise ReturnSignal()


def _retry(ex, e) -> None:
    raise RetrySignal()


def _unexpanded(ex, e) -> None:
    what = f"function call {e}" if isinstance(e, A.Call) else f"template {type(e).__name__}"
    raise DslFailure(f"{ex.jr.node}: unexpanded {what}")


# -- statements that may block: generators ----------------------------------

def _seq(ex, e: A.Seq) -> Generator:
    for item in e.items:
        yield from run(ex, item)


def _write(ex, e: A.Write) -> Generator:
    value = ex.data(e.name)
    yield ex.send_update(ex.resolve(e.target), e.name, value)


def _set_prop(ex, e) -> Generator | None:
    key = ex.prop_key(e.prop, e.index)
    value = isinstance(e, A.Assert)
    if isinstance(e.target, A.SelfTarget):
        ex.table.set_local(key, value)
        return None
    return ex.set_remote(ex.resolve(e.target), key, value)


def _wait(ex, e: A.Wait) -> Generator:
    yield ex.wait(e.formula, e.keys)


def _fate(ex, e: A.FateBlock) -> Generator:
    try:
        yield from run(ex, e.body)
    except ReturnSignal:
        return


def _transaction(ex, e: A.Transaction) -> Generator:
    with ex.transaction():
        yield from run(ex, e.body)


def _otherwise(ex, e: A.Otherwise) -> Generator:
    timeout = None if e.timeout is None else ex.number(e.timeout)
    with ex.deadline(timeout) as scope:
        yield from run(ex, e.body)
    if scope.failed:
        yield from run(ex, e.handler)


def _parallel(ex, e) -> Generator:
    yield ex.join([run(ex, item) for item in e.items])


def _case(ex, e: A.Case) -> Generator:
    lower = 0
    prev = None
    while True:
        matched = None
        for i in range(lower, len(e.arms)):
            if ex.truth(e.arms[i].formula) is True:
                matched = i
                break
        if matched is None:
            yield from run(ex, e.otherwise)
            return
        mark = ex.case_match(matched, prev)
        arm = e.arms[matched]
        yield from run(ex, arm.body)
        term = arm.terminator
        if term == "break":
            return
        if term == "next":
            lower = matched + 1
            prev = None
        elif term == "reconsider":
            lower = 0
            prev = mark
        else:
            raise DslFailure(f"{ex.jr.node}: unknown case terminator {term!r}")


_STATEMENTS = {
    A.Skip: _skip,
    A.Return: _return,
    A.Retry: _retry,
    A.Seq: _seq,
    A.HostBlock: lambda ex, e: ex.host(e.name, e.writes),
    A.Save: lambda ex, e: ex.save(e.name),
    A.Restore: lambda ex, e: ex.restore(e.name),
    A.Write: _write,
    A.Assert: _set_prop,
    A.Retract: _set_prop,
    A.Keep: lambda ex, e: ex.table.keep(e.keys),
    A.Wait: _wait,
    A.Verify: lambda ex, e: ex.verify(e.formula),
    A.FateBlock: _fate,
    A.Transaction: _transaction,
    A.Otherwise: _otherwise,
    A.Par: _parallel,
    A.RepPar: _parallel,
    A.Case: _case,
    A.Start: lambda ex, e: ex.start_instance(e.instance, e.junction_args),
    A.Stop: lambda ex, e: ex.stop_instance(e.instance),
    A.Call: _unexpanded,
    A.For: _unexpanded,
    A.If: _unexpanded,
}
