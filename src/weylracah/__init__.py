"""Exact symbolic engine for differential-operator realizations of sl_m
and the higher-rank Racah algebra, with machine-checked embedding
certificates and an exact matrix oracle."""

__version__ = "0.1.0"

from .poly import ContextMismatchError, MonomialOverflowError, Poly, Rat, Ring
from .weyl import WeylOp
from .report import Check, Report
from .sln import (
    DmContext,
    SlElement,
    check_generator_membership,
    check_lemma1,
    check_sl_homomorphism,
    nonempty_subsets,
)
from .racah import RacahContext, check_racah_structure
from .embed import (
    EmbeddedExpr,
    embedded_c_pair,
    embedded_c_set,
    eval_tree,
    eval_tree_matrix,
    l_op,
    l_op_pair,
    verify_embedding,
)
from .repmat import LeakageError, OpMatrix, PiBasis, basis, to_matrix
from .printing import format_poly, print_canonical
from .dsl import ParseError, elaborate, parse
from .cli import run_cli

__all__ = [
    "ContextMismatchError",
    "MonomialOverflowError",
    "Poly",
    "Rat",
    "Ring",
    "WeylOp",
    "Check",
    "Report",
    "DmContext",
    "SlElement",
    "check_generator_membership",
    "check_lemma1",
    "check_sl_homomorphism",
    "nonempty_subsets",
    "RacahContext",
    "check_racah_structure",
    "EmbeddedExpr",
    "embedded_c_pair",
    "embedded_c_set",
    "eval_tree",
    "eval_tree_matrix",
    "l_op",
    "l_op_pair",
    "verify_embedding",
    "LeakageError",
    "OpMatrix",
    "PiBasis",
    "basis",
    "to_matrix",
    "format_poly",
    "print_canonical",
    "ParseError",
    "elaborate",
    "parse",
    "run_cli",
]
