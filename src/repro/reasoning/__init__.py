"""Statistical and logical reasoning: factor graphs, MaxSat, rules, MLN."""

from .factorgraph import (
    Factor,
    FactorGraph,
    conjunction_implies,
    equivalent,
    implies,
    is_true,
    not_both,
)
from .decompose import (
    Component,
    Decomposition,
    decompose,
    solve_decomposed,
)
from .maxsat import HARD, Clause, MaxSatResult, WeightedMaxSat
from .rules import Atom, GroundRule, Rule, apply_rules, ground_rule, ground_rules
from .mln import MarkovLogicNetwork, confidence_to_weight
from .pra import KnowledgeGraph, PathRankingModel
from .rulemining import MinedRule, RuleMiner, complete_kb

__all__ = [
    "Factor",
    "FactorGraph",
    "conjunction_implies",
    "equivalent",
    "implies",
    "is_true",
    "not_both",
    "HARD",
    "Clause",
    "Component",
    "Decomposition",
    "MaxSatResult",
    "WeightedMaxSat",
    "decompose",
    "solve_decomposed",
    "Atom",
    "GroundRule",
    "Rule",
    "apply_rules",
    "ground_rule",
    "ground_rules",
    "MarkovLogicNetwork",
    "confidence_to_weight",
    "KnowledgeGraph",
    "PathRankingModel",
    "MinedRule",
    "RuleMiner",
    "complete_kb",
]
