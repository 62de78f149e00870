"""Formal event-structure semantics of the C-Saw DSL (paper sec. 8).

The package re-exports what the runtime uses (:mod:`.commute`,
:mod:`.events`); the denotation is imported from its modules
(:mod:`.program_sem`, :mod:`.denote`, :mod:`.render`, :mod:`.structure`).
"""

from .commute import Footprint, commutes, conflicts, footprint_of, key_token, node_token
from .events import (
    AdHoc,
    Event,
    FF,
    Label,
    Rd,
    STAR,
    Sched,
    StartL,
    StopL,
    Synch,
    TT,
    Unsched,
    WaitL,
    Wr,
    fresh_event,
    isolate_event,
)

__all__ = [
    "AdHoc",
    "Event",
    "FF",
    "Footprint",
    "Label",
    "Rd",
    "STAR",
    "Sched",
    "StartL",
    "StopL",
    "Synch",
    "TT",
    "Unsched",
    "WaitL",
    "Wr",
    "commutes",
    "conflicts",
    "footprint_of",
    "fresh_event",
    "isolate_event",
    "key_token",
    "node_token",
]
