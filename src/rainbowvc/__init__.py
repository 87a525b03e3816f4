"""Exact rainbow vertex-connection numbers for small graphs.

Core pieces: a bitset graph type with a graph6 codec, an exact rvc solver
with an independent brute-force oracle, the extremal complement-pair
constructions, and an exhaustive census verifying
2 <= rvc(G) + rvc(G-bar) <= n - 1 over all small graphs whose complement
is also connected.
"""

from .census import (
    BUILTIN_MAX_VERTICES,
    CensusRecord,
    CensusSummary,
    IngestError,
    census_run,
    enumerate_connected_graphs,
    enumerate_graphs,
    ingest_graph6,
    records_to_csv,
    summary_to_dict,
)
from .constructions import (
    ExtensionReport,
    NgPair,
    complement_pair,
    complete_graph,
    cycle_graph,
    diameter_two_graph,
    lower_bound_pair,
    path_complement_pair,
    path_graph,
    star_graph,
    verify_extension_bound,
)
from .graphs import (
    CANONICAL_MAX_VERTICES,
    GRAPH6_MAX_VERTICES,
    MAX_VERTICES,
    Graph,
    Graph6Error,
    add_vertex,
    canonical_representative,
    complement,
    diameter,
    edge_list,
    from_edges,
    from_triangle_mask,
    is_complete,
    is_connected,
    parse_graph6,
    relabel,
    to_graph6,
    triangle_mask,
)
from .rainbow import (
    RvcResult,
    TheoremViolationError,
    VertexColoring,
    exists_rainbow_path,
    exists_rainbow_path_oracle,
    find_failing_pair,
    rgs_colorings,
    rvc_exact,
)

__version__ = "0.1.0"
