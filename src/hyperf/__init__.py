"""Orientation invariants of r-uniform hypergraphs.

Exact, certificate-carrying computations around bounded-coordinate
orientations: maximum average degree, degeneracy, the everywhere-full
p-set count f(H,p,k) with its closed forms and bounds, Ramsey p-chromatic
numbers, and the searches certifying the identities between them.
"""

from .hypercore import (
    BadParams,
    BadPSet,
    BudgetExceeded,
    DegreeVector,
    DuplicateEdge,
    FormatError,
    Hypergraph,
    HyperfError,
    Orientation,
    RepeatedVertexInEdge,
    VertexOutOfRange,
    ascending_orientation,
    canonicalize,
    complement,
    complete,
    complete_multipartite,
    degree_vector,
    degree_vectors,
    from_text,
    generate,
    join_k2,
    max_coordinate,
    mop_fan,
    mop_random,
    random_hypergraph,
    random_orientation,
    read_path,
    to_json,
    to_text,
    write_path,
)
from .netflow import FlowNetwork
from .orient import (
    BudgetDomainMismatch,
    Infeasible,
    PartNotSparse,
    PartsNotDisjoint,
    StuckEdge,
    orient_budget,
    orient_forbidden,
    orient_from_partition,
    orient_max_outdeg,
)
from .extremal import (
    MValueResult,
    NotDegenerateEnough,
    alpha,
    beta,
    chromatic_exact,
    degeneracy,
    hit_triangles,
    m_value,
    mad_bruteforce,
    mad_certificate,
    mad_exact,
    partition_degenerate,
    szekeres_wilf_coloring,
)
from .fcalc import (
    Bound,
    EdgeBound,
    FReport,
    MultipartiteResult,
    PackingResult,
    ThresholdResult,
    ThresholdUnknown,
    bounds,
    closed_form_complete,
    closed_form_multipartite,
    complete_part_size,
    edge_bound,
    f_bruteforce,
    f_count,
    f_via_m,
    find_tset,
    greedy_packing,
    packing_bound,
    tset_threshold_q,
)
from .ramsey import (
    BValueResult,
    PSetColoring,
    b_value,
    check_mono,
    chi_r,
    derived_pset_hypergraph,
    f_p1_exact,
    f_threshold,
    f_value,
)
from .verify import (
    SUITES,
    CheckResult,
    UnknownSuite,
    VerifySuiteReport,
    random_corpus,
    run_all,
    verify_suite,
)

__version__ = "0.1.0"
