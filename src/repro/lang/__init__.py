"""Query languages: the parameter ``L`` of L-transducers.

Implements every language the paper mentions: FO under the
active-domain semantics, conjunctive queries and UCQ/UCQ¬, Datalog
(naive and semi-naive), stratified Datalog, nonrecursive Datalog, the
*while* language, and arbitrary computable queries via
:class:`~repro.lang.query.PythonQuery`.
"""

from .ast import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    Literal,
    Not,
    Or,
    Rule,
    Term,
    Var,
)
from .datalog import (
    DatalogError,
    DatalogProgram,
    DatalogQuery,
    naive_fixpoint,
    seminaive_fixpoint,
    tp_step,
)
from .engine import (
    ENGINES,
    default_engine,
    resolve_engine,
)
from .fo import evaluate as evaluate_fo
from .joinplan import IndexPool, JoinPlan, plan_for
from .vecjoin import ColumnPool
from .monotone import (
    check_monotone_empirical,
    check_monotone_pair,
    find_monotonicity_counterexample,
    random_instance,
)
from .nonrecursive import NonrecursiveProgram, NonrecursiveQuery
from .parser import ParseError, parse_formula, parse_rule, parse_rules
from .query import (
    EmptyQuery,
    FOQuery,
    PythonQuery,
    Query,
    QueryUndefined,
    check_answers_in_adom,
    check_generic,
)
from .stratified import (
    StratificationError,
    StratifiedProgram,
    StratifiedQuery,
    stratified_fixpoint,
)
from .ucq import UCQNegQuery, UCQQuery
from .whilelang import (
    Assign,
    While,
    WhileChange,
    WhileProgram,
    WhileProgramDiverged,
    WhileQuery,
)

__all__ = [
    "And",
    "Assign",
    "Atom",
    "ColumnPool",
    "Const",
    "DatalogError",
    "DatalogProgram",
    "DatalogQuery",
    "ENGINES",
    "EmptyQuery",
    "Eq",
    "Exists",
    "FOQuery",
    "Forall",
    "Formula",
    "IndexPool",
    "JoinPlan",
    "Literal",
    "NonrecursiveProgram",
    "NonrecursiveQuery",
    "Not",
    "Or",
    "ParseError",
    "PythonQuery",
    "Query",
    "QueryUndefined",
    "Rule",
    "StratificationError",
    "StratifiedProgram",
    "StratifiedQuery",
    "Term",
    "UCQNegQuery",
    "UCQQuery",
    "Var",
    "While",
    "WhileChange",
    "WhileProgram",
    "WhileProgramDiverged",
    "WhileQuery",
    "check_answers_in_adom",
    "check_generic",
    "check_monotone_empirical",
    "check_monotone_pair",
    "default_engine",
    "evaluate_fo",
    "find_monotonicity_counterexample",
    "naive_fixpoint",
    "resolve_engine",
    "parse_formula",
    "parse_rule",
    "parse_rules",
    "plan_for",
    "random_instance",
    "seminaive_fixpoint",
    "stratified_fixpoint",
    "tp_step",
]
