"""Bottleneck duality over lattice-valued capacities.

Path-cut duality on flow networks, join-conservation max-flow, and
chain/antichain duality on weighted posets, each paired with brute-force
enumeration so the identities can be machine-checked on desk-scale
instances.
"""

from .bottleneck import (
    DualityReport,
    alpha_bruteforce,
    alpha_dp,
    beta_bruteforce,
    counterexample_for,
    cut_capacity,
    path_throughput,
    verify_duality,
)
from .certify import (
    AxiomReport,
    DistributivityCertificate,
    SublatticeWitness,
    check_distributive,
    check_lattice_axioms,
    find_forbidden_sublattice,
    is_distributive,
)
from .dilworth import (
    CorrespondenceReport,
    DilworthReport,
    WeightedPoset,
    auxiliary_network,
    check_correspondences,
    dilworth_direct,
    dilworth_via_network,
    maximal_antichains,
    maximal_chains,
)
from .dot import emit_dot, network_dot, poset_dot
from .errors import (
    CapExceeded,
    DistributivityRequired,
    InstanceError,
    MismatchError,
    NoBottomError,
    UniverseTooLarge,
)
from .flows import (
    FlowCheck,
    flow_value,
    is_feasible_flow,
    joined_path_flow,
    max_flow_value,
    path_flow,
)
from .gallery import gallery_expected, gallery_instance, gallery_names
from .instances import (
    Instance,
    instance_to_dict,
    lattice_from_spec,
    load_instance,
    load_lattice,
    parse_instance,
)
from .lattices import (
    ChainLattice,
    DiamondLattice,
    DownsetLattice,
    ExplicitLattice,
    IntervalGridLattice,
    Lattice,
    PentagonLattice,
    PowersetLattice,
    ProductLattice,
    RingOfSetsLattice,
    SurvivalLattice,
    bounds,
    ring_of_sets_closure,
)
from .network import (
    CapacityAssignment,
    Cut,
    FlowNetwork,
    ValidationReport,
    crossing_edges,
    enumerate_cuts,
    enumerate_paths,
    minimal_cuts,
    validate_network,
)

__version__ = "0.1.0"
