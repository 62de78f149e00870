"""Static analysis over compiled C-Saw programs.

The paper's pitch for a non-Turing-complete coordination language is
that architectures stay *analyzable* (secs. 1 and 8).  This package
cashes that in: it walks the expanded AST (:mod:`repro.core.expand`
output) and the denoted event structures (:mod:`repro.semantics`) and
reports

* write-write races on KV keys between concurrently-enabled writers,
  with the conflicting sites and a witness interleaving;
* dead coordination code — junctions whose guard cannot hold under the
  key-flow lattice, dead ``case`` arms, instances never started;
* host write-contract problems (``host NAME {writes}``) and remote
  writes of keys the target junction never declared;
* advisory key-flow hygiene: keys read but never written, written but
  never read, and the program's external inputs.

Entry points: :func:`~repro.analysis.analyzer.analyze_program` /
:func:`~repro.analysis.analyzer.analyze_source`, imported from
:mod:`.analyzer`: the runtime loads this package for :mod:`.capture`,
and this ``__init__`` keeps it light.  The CLI surface is ``repro
analyze`` (and a fast subset under ``repro check --strict``).  See
``docs/ANALYSIS.md``.
"""

from .directives import Directives, parse_directives
from .model import AnalysisReport, Finding

__all__ = [
    "AnalysisReport",
    "Directives",
    "Finding",
    "parse_directives",
]
