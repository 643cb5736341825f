"""Generation, certification and execution of branching algorithms for
vertex cover on subcubic graphs."""

from .configs import LocalConfiguration, boundary, canonical_key, expand, is_expansion, true_degree
from .graphs import Graph, Instance, enumerate_cycles, vc_cover, vc_oracle
from .measure import (
    MU1,
    MU2,
    BranchVector,
    Measure,
    branching_number,
    check_feasibility,
    combine_bound,
    evaluate,
    pure_k,
)
from .requirements import crucial_set, eb
from .rulegen import GenLimits, RuleTable, gensa, table_from_json, table_to_json, verify_table
from .runtime import TableEngine, TrialPlan
from .simplify import apply, config_site, find_site, simplify_fixpoint
from .subspaces import classify, forbidden_by, root_config
from .tree import find_anchor, match_instance

__all__ = [
    "BranchVector",
    "GenLimits",
    "Graph",
    "Instance",
    "LocalConfiguration",
    "MU1",
    "MU2",
    "Measure",
    "RuleTable",
    "TableEngine",
    "TrialPlan",
    "apply",
    "boundary",
    "branching_number",
    "canonical_key",
    "check_feasibility",
    "classify",
    "combine_bound",
    "config_site",
    "crucial_set",
    "eb",
    "enumerate_cycles",
    "evaluate",
    "expand",
    "find_anchor",
    "find_site",
    "forbidden_by",
    "gensa",
    "is_expansion",
    "match_instance",
    "pure_k",
    "root_config",
    "simplify_fixpoint",
    "table_from_json",
    "table_to_json",
    "true_degree",
    "vc_cover",
    "vc_oracle",
    "verify_table",
]
