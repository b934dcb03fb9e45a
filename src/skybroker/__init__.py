"""skybroker: a deterministic multi-provider swarm-drone delivery broker simulator.

Pipeline: capability filtering and density-based pruning of providers, weighted
greedy composition of delivery paths over a skyway network, ranked-voting
provider recommendation, and consumer satisfaction scoring.
"""

from .composition import (
    CompositionContext,
    CompositionOutcome,
    SubSwarmState,
    compose,
    prepare_composition,
)
from .config import (
    CompositionConfig,
    ConfigurationError,
    EnergyModelConfig,
    Seeds,
    load_config_file,
    mix64,
)
from .domain import (
    QOS_METRICS,
    CapabilityRanges,
    DeliveryRequest,
    Formation,
    Partnership,
    Provider,
    QosVector,
    ScenarioLimits,
    Swarm,
    assign_packages,
    generate_scenario,
    normalize_weights,
)
from .energy import (
    NodeService,
    WindField,
    best_formation,
    execution_time_proxy,
    node_service_time,
    relative_sector,
    segment_energy,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    aggregate,
    run_experiment,
    spearman,
    write_outputs,
)
from .network import (
    ParseError,
    RegionGrid,
    SkywayNetwork,
    SkywayNode,
    SkywaySegment,
    build_all_heatmaps,
    build_region_grid,
    dump_network,
    load_network,
    load_network_dump,
    shortest_path_tree,
    synthetic_network,
    t_shortest_region_paths,
)
from .pruning import (
    NoFeasibleProviders,
    capabilities_scores,
    density_score,
    filter_providers,
    prune,
    select_cohort,
)
from .recommend import (
    Ballot,
    ElectionResult,
    NoSuccessfulProviders,
    borda,
    build_ballots,
    condorcet,
    expected_raw,
    instant_runoff,
    normalized_qos,
    pairwise_preferences,
    plurality,
    satisfaction,
    top_weight,
)
