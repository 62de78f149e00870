"""Error hierarchy for the C-Saw reproduction.

Two families of errors exist:

* Static errors (:class:`CSawError` subclasses other than
  :class:`DslFailure`) are raised while parsing, validating, expanding or
  compiling a DSL program.  They indicate a malformed architecture
  description and carry source positions where available.

* Dynamic failures (:class:`DslFailure` subclasses) are raised while a
  junction executes.  They correspond to the paper's notion of an
  expression *failing*: a failure propagates outward through fate scopes
  until an ``otherwise`` handler absorbs it (or the junction's scheduling
  aborts).  Transaction blocks roll their KV table back before
  re-raising.

``return`` and ``retry`` travel the same way but are *control signals*
(:class:`ControlSignal`), not failures: ``otherwise`` lets them through
and transactions keep their writes.
"""

from __future__ import annotations


class CSawError(Exception):
    """Base class for every error produced by this library."""


class ParseError(CSawError):
    """The concrete syntax could not be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(CSawError):
    """A well-formedness constraint from the paper is violated.

    Examples: an empty ``case``, ``next`` immediately before
    ``otherwise``, a host block inside a transaction, a write-to-self,
    or a reference to an undeclared name.
    """


class ExpansionError(CSawError):
    """Template expansion (function inlining / ``for`` unrolling) failed.

    Typical causes: unknown function, wrong arity, a ``for`` over a set
    whose contents are not known at expansion time, or unbounded
    template recursion.
    """


class CompileError(CSawError):
    """The validated, expanded program could not be assembled."""


class UndeclaredKeyError(CSawError):
    """An update from outside the architecture named a key its target
    junction does not declare: a junction's table holds exactly its
    declarations (sec. 6, "Junction state"), so the update is refused
    and the table left unchanged."""


class DslFailure(CSawError):
    """Base of all *runtime* failures of DSL expressions.

    A failure aborts the enclosing expression.  ``E1 otherwise[t] E2``
    absorbs failures raised inside ``E1`` and runs ``E2``;
    ``<| E |>`` rolls back the KV table and re-raises.
    """


class TimeoutFailure(DslFailure):
    """An ``otherwise[t]`` deadline expired while its body was blocked."""


class VerifyFailure(DslFailure):
    """A ``verify`` formula evaluated to false."""


class VerifyUnknown(VerifyFailure):
    """A ``verify`` formula could not be evaluated (ternary *error*).

    Raised when evaluating ``gamma@P`` and ``gamma``'s instance is not
    running, per the paper's ternary-logic treatment of ``verify``.
    """


class UndefError(DslFailure):
    """A data item holding the special ``undef`` value was written or
    restored before being given a valid value with ``save``."""


class StartStopFailure(DslFailure):
    """``start`` on a running instance, or ``stop`` on a stopped one."""


class RetryExhausted(DslFailure):
    """``retry`` was invoked more times than its per-scheduling bound."""


class ReconsiderFailure(DslFailure):
    """``reconsider`` re-matched the same ``case`` arm with no change."""


class CommunicationFailure(DslFailure):
    """A remote ``write``/``assert``/``retract`` could not be delivered
    (target stopped, crashed, or partitioned away) and the runtime
    detected this eagerly rather than via a timeout."""


class DeliveryFailure(CommunicationFailure):
    """The reliable-delivery layer gave up on a remote update.

    Raised into the sending strand when every retransmission attempt of
    an update went unacknowledged (see :mod:`repro.runtime.delivery`),
    or synchronously at send time when the per-link circuit breaker is
    open.  Like any :class:`DslFailure` it is absorbed by ``otherwise``
    handlers — which therefore fire as soon as the transport gives up,
    rather than only when their own deadline expires."""


class HostError(DslFailure):
    """A host-language block raised an exception.

    The original exception is available as ``__cause__``.
    """


class SerdeError(CSawError):
    """The serialization framework rejected a schema or a value."""


class ControlSignal(Exception):
    """Non-failure control transfer out of a junction body; passes
    through ``otherwise`` and commits enclosing transactions."""


class ReturnSignal(ControlSignal):
    """``return``: leave the enclosing fate scope / the junction."""


class RetrySignal(ControlSignal):
    """``retry``: restart the junction body (bounded)."""
