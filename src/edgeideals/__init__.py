"""edgeideals: an exact laboratory for edge ideals of graphs.

Castelnuovo-Mumford regularity of powers of edge ideals by two
independent Betti engines, colon-ideal graphs by even-connection search,
very well-covered graph recognition and generation, and a verification
harness sweeping theorem statements over graph families.
"""

# The one version literal: pyproject.toml and the sweep reports read it.
__version__ = "1.0.0"

from .betti import (
    BettiTable,
    CapacityError,
    EngineDisagreement,
    betti_table,
    betti_table_hochster,
    betti_table_lcm,
    polarize,
    regularity,
)
from .evenconn import (
    ColonQuadraticIdeal,
    EvenConnectionWitness,
    colon_graph,
    colon_ideal_by_algebra,
    is_even_connected,
)
from .generators import (
    FamilySpec,
    corona,
    enumerate_all_graphs,
    enumerate_vwc_graphs,
    named_graph,
    random_graph,
    random_vwc_graph,
)
from .graphs import (
    INFINITE,
    Graph,
    GraphError,
    are_isomorphic,
    find_vwc_certificate,
    from_edge_list,
    induced_matching_number,
    is_unmixed,
    is_very_well_covered,
    matching_certificate_ok,
    maximal_independent_sets,
    odd_girth,
    to_edge_list,
)
from .monomials import (
    IdealError,
    MonomialIdeal,
    colon_by_monomial,
    edge_ideal,
    equals,
    power,
)
from .verify import (
    CheckResult,
    SweepParams,
    SweepReport,
    run_sweep,
)
