"""Fair division of graphs into compact bundles."""

from .compactness import (
    BundleCompactnessCache,
    CenterWitness,
    Graph,
    StrongCover,
    ball,
    diameter,
    distance,
    induced_subgraph,
    is_annotated,
    is_compact,
    is_compact_allocation,
    is_strongly_compact,
)
from .model import (
    Allocation,
    CompactnessSpec,
    FairnessGoal,
    Instance,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    is_complete,
    is_envy_free,
    is_proportional,
    load_instance,
    max_welfare_upper,
    total_value,
    utilitarian_welfare,
    validate_allocation,
)
from .oracle import (
    BudgetExceededError,
    OracleBudget,
    enumerate_allocations,
    is_pareto_optimal,
    mms_oracle,
    solve_oracle,
)
from .matching import mms_10, solve_ef_one_item, solve_mms_10, solve_prop_10
from .path_dp import (
    AgentTypeProfile,
    PathInstance,
    derive_type_profile,
    solve_prop_path_agents,
    solve_prop_path_types,
)
from .enum_solver import enumerate_compact_allocations, solve_enum
from .annotate import AnnotatedInstance, build_annotated_instances, lift_allocation
from .treewidth import (
    NiceTreeDecomposition,
    TreeDecomposition,
    greedy_decompose,
    nicefy,
    parse_td,
    validate_td,
)
from .tw_dp import mms_tw, run_dp, solve_tw
from .generators import (
    ClubSource,
    PartitionSource,
    XacSource,
    gen_from_club,
    gen_from_partition,
    gen_from_xac,
    has_beta_club,
    has_exact_cover,
    has_partition,
)

__version__ = "0.1.0"
