#!/usr/bin/env python
"""Quickstart: the paper's Fig. 3 two-instance program, end to end.

Shows the whole public API surface in one file:

1. write an architecture in the C-Saw DSL,
2. compile it (parse → validate → inline),
3. inspect its communication topology and formal event-structure
   semantics,
4. bind host-language blocks and state providers,
5. run it on the simulated distributed runtime.

Run:  python examples/quickstart.py
"""

from repro.api import System, compile_program
from repro.core import topology_edges
from repro.semantics.program_sem import denote_program
from repro.semantics.render import to_text

SRC = """
instance_types { TF, TG }
instances { f: TF, g: TG }

def main(t) = start f(t) + start g(t)

def complain() = host LogComplaint; return

# The front instance: runs H1, snapshots its state into n, pushes it to
# g, and blocks until g retracts Work — Fig. 3's handshake, with Fig. 4's
# timeout handling.
def TF::junction(t) =
  | init prop !Work
  | init data n
  host H1;
  save(n);
  { write(n, g); assert[g] Work; wait[] !Work } otherwise[t] complain()

# The back instance: guarded on Work, so it only runs once engaged.
def TG::junction(t) =
  | init prop !Work
  | init data n
  | guard Work
  restore(n);
  host H2;
  retract[f] Work
"""


def main() -> None:
    prog = compile_program(SRC)

    print("junctions:", [j.qualified for j in prog.junctions])
    print("topology edges:", sorted(topology_edges(prog)))

    # Formal semantics: the event structure of f's junction (Fig. 18).
    sem = denote_program(prog, {"t": 5})
    print("\nevent structure of f::junction:")
    print(to_text(sem.junctions["f::junction"]))

    # Runtime: bind host blocks and state providers, then run.
    system = System(prog, latency=0.05)
    log = []

    system.bind_host("TF", "H1", lambda ctx: (ctx.take(0.1), log.append(("H1", ctx.now))))
    system.bind_host("TG", "H2", lambda ctx: (ctx.take(0.2), log.append(("H2", ctx.now))))
    system.bind_host("TF", "LogComplaint", lambda ctx: log.append(("complain", ctx.now)))

    app_state = {"counter": 42}
    system.bind_state(
        "TF",
        save=lambda app, inst: dict(app_state),
        restore=lambda app, inst, obj: None,
    )
    system.bind_state(
        "TG",
        save=lambda app, inst: None,
        restore=lambda app, inst, obj: log.append(("g received", obj)),
    )

    system.start(t=5.0)
    system.run_until(10.0)

    print("\nexecution log:")
    for entry in log:
        print(" ", entry)
    print("\nf's Work:", system.read_state("f::junction", "Work"))
    print("g's Work:", system.read_state("g::junction", "Work"))
    assert system.read_state("f::junction", "Work") is False
    print("\nOK — handshake completed on the simulated runtime.")


if __name__ == "__main__":
    main()
