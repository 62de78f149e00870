"""The analyzer entry points.

:func:`analyze_program` runs every pass over a compiled program;
:func:`fast_checks` is the key-flow subset (no event-structure
denotation) that ``repro check --strict`` folds in; ``analyze_source``
compiles text first (keeping the comment directives).
"""

from __future__ import annotations

from ..core.compiler import CompiledProgram, compile_program
from ..core.elaborate import elaborate
from .contracts import contract_findings
from .deadcode import dead_code, unused_keys
from .directives import parse_directives
from .keyflow import collect_keyflow
from .model import AnalysisReport, Finding
from .races import cross_junction_races, intra_junction_races


def analyze_program(
    program: CompiledProgram,
    env: dict | None = None,
    *,
    source_text: str | None = None,
    label: str = "<program>",
    deep: bool = True,
    max_unfold: int = 1,
) -> AnalysisReport:
    """Analyze a compiled program.

    ``source_text`` carries the ``# analyze:`` directives (defaults to
    the text the program was compiled from, when known); ``deep``
    enables the event-structure intra-junction race pass.
    """
    if source_text is None:
        source_text = getattr(program, "source_text", None)
    directives = parse_directives(source_text)
    report = AnalysisReport(source=label)

    for word in directives.unknown:
        report.add(
            Finding(
                check="contract",
                kind="unknown-directive",
                severity="warning",
                node="",
                key=word,
                message=f"unknown '# analyze:' directive {word!r}",
            )
        )

    binding = elaborate(program, env)
    for node, reason in binding.unbound:
        report.add(
            Finding(
                check="dead",
                kind="not-analyzed",
                severity="info",
                node=node,
                key="",
                message=f"{node} could not be closed for analysis: {reason}",
            )
        )

    kf = collect_keyflow(binding)
    report.extend(contract_findings(kf, binding, directives))
    report.extend(dead_code(kf, binding, directives))
    report.extend(unused_keys(kf, binding, directives))
    report.extend(cross_junction_races(kf, binding, directives))
    if deep:
        report.extend(intra_junction_races(binding, directives, max_unfold=max_unfold))
    return report


def fast_checks(
    program: CompiledProgram,
    env: dict | None = None,
    *,
    source_text: str | None = None,
    label: str = "<program>",
) -> AnalysisReport:
    """The key-flow subset: contract + dead + unused + cross-junction
    races, no event-structure denotation (for ``repro check --strict``)."""
    return analyze_program(
        program, env, source_text=source_text, label=label, deep=False
    )


def analyze_source(
    text: str,
    config: dict | None = None,
    *,
    label: str = "<source>",
    deep: bool = True,
    max_unfold: int = 1,
) -> AnalysisReport:
    program = compile_program(text, config=config)
    return analyze_program(
        program,
        source_text=text,
        label=label,
        deep=deep,
        max_unfold=max_unfold,
    )
