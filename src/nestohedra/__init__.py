"""Hypergraph polytopes: constructions, face lattices, axiom checking
and exact simplex-truncation realizations."""

from .hypergraph import (
    AtomSet,
    Carrier,
    Family,
    Hypergraph,
    census,
    finest_partition,
    from_json,
    from_text,
    is_atomic,
    is_connected,
    quotient,
    restriction,
    to_json,
    to_text,
)
from .saturation import (
    CognateClassSummary,
    are_cognate,
    bare_kernel,
    cognate_class,
    dispensable_subsets,
    is_dispensable,
    is_saturated,
    saturated_closure,
)
from .constructions import (
    EMPTY,
    Empty,
    Prefix,
    STerm,
    Sum,
    count_constructions,
    enumerate_constructions,
    enumerate_constructs,
    is_asc,
    is_construct,
    is_construction,
    parse_s_construction,
    sterm_to_family,
    superficial_elements,
    to_f_construction,
    to_s_construction,
)
from .facelattice import (
    BOTTOM,
    FacePoset,
    abstract_polytope,
    continuation,
    f_vector,
    face_label,
    facet_section,
    join,
    meet,
    otimes,
    section,
)
from .axioms import VerificationReport, verify_axioms, verify_inductive
from .realization import (
    HyperplaneSpec,
    LatticeIsomorphism,
    RealizedPolytope,
    check_vertex_membership,
    face_lattice_isomorphic,
    realize,
    to_off,
    vertex_coordinates,
)
from .tubings import (
    GraphHypergraph,
    TubingEquivalenceReport,
    as_graph,
    graph_from_text,
    is_graph_hypergraph,
    is_loose,
    is_tubing,
    tubings_equal_constructs,
)
from .catalog import CatalogEntry, catalog, catalog_lookup, chart_edges, fvector_table

__version__ = "0.1.0"
