"""treelap: exact and certified spectral quantities of tree Laplacians."""

from .errors import (
    BadLabel,
    BadParam,
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    EdgeAbsent,
    PendantEdge,
    TreelapError,
)
from .intervals import PI, Enclosure
from .tree import (
    DegreeSummary,
    Tree,
    canonical_code,
    degree_summary,
    delete_edge,
    diameter,
    from_pruefer,
    join_trees,
    parse_edge_text,
    format_edge_text,
    to_pruefer,
)
from .families import (
    double_broom3,
    double_broom4,
    path,
    sns_kind,
    sns_params,
    sns_tree,
    star,
    t4_spider,
    t_dprime,
    t_prime,
)
from .enumeration import EnumRange, count_free_trees, free_trees, free_trees_sharded
from .charpoly import (
    Poly,
    char_poly,
    closed_form_t4,
    closed_form_tdprime,
    closed_form_tprime,
    tdprime_sextic,
    tprime_quartic,
)
from .spectral import (
    EigCounts,
    Spectrum,
    count_eigs,
    eigenvalues,
    laplacian_energy,
    multiplicity_of_one,
    s_k,
    sigma,
)
from .bounds import (
    BoundReport,
    brouwer_haemers_check,
    conjecture_check,
    cor31_check,
    cor31_lower_bound,
    coru_sufficient,
    diam4_energy_check,
    majorization_check,
    path_energy_bound_check,
    path_energy_closed_form,
    path_energy_upper,
    star_energy_exact,
    thm31_condition,
    thm31_lower_bound,
    thm31_minimal_n,
    thm32_lower_bound,
    thm51_check,
    thm52_check,
    thm53_check,
)
from .verify import (
    RunConfig,
    RunSummary,
    SweepConfig,
    VerifyRecord,
    emit_report,
    run_exhaustive,
    run_family_sweep,
)

__version__ = "0.1.0"
