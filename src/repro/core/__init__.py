"""C-Saw DSL core: AST, parser, validation, expansion, compilation.

Typical use::

    from repro.core import compile_program

    prog = compile_program(dsl_text, config={"N": 4})
"""

from . import ast
from .compiler import CompiledJunction, CompiledProgram, compile_program
from .errors import (
    CompileError,
    CSawError,
    DslFailure,
    ExpansionError,
    ParseError,
    TimeoutFailure,
    UndeclaredKeyError,
    ValidationError,
    VerifyFailure,
)
from .formula import (
    UNKNOWN,
    And,
    At,
    FalseF,
    Formula,
    Implies,
    Live,
    Not,
    Or,
    Prop,
    TRUE,
    evaluate,
    to_dnf,
)
from .parser import parse_expression, parse_formula, parse_program
from .topology import topology, topology_edges
from .validate import validate_program

__all__ = [
    "ast",
    "CompiledJunction",
    "CompiledProgram",
    "compile_program",
    "CSawError",
    "CompileError",
    "DslFailure",
    "ExpansionError",
    "ParseError",
    "TimeoutFailure",
    "UndeclaredKeyError",
    "ValidationError",
    "VerifyFailure",
    "UNKNOWN",
    "And",
    "At",
    "FalseF",
    "Formula",
    "Implies",
    "Live",
    "Not",
    "Or",
    "Prop",
    "TRUE",
    "evaluate",
    "to_dnf",
    "parse_expression",
    "parse_formula",
    "parse_program",
    "topology",
    "topology_edges",
    "validate_program",
]
