"""Joint class-specific clustering and category quantification for
categorical data, with biplot construction and evaluation tools."""

__version__ = "0.1.0"

from .data import (
    CategoricalDataset,
    ClusterSpec,
    HierarchicalAssignment,
    SupplementaryData,
    cluster_counts,
    encode_dataset,
    encode_supplementary,
    read_csv_dataset,
)
from .linalg import TOL, SymEigResult, Tolerances, mass_scale, sym_eig_top
from .solver import (
    ConstrainedFit,
    ConstraintSpec,
    MsccaSolution,
    SolverOptions,
    fit_cluster_ca,
    fit_constrained_mca,
    fit_mscca,
    init_random,
    object_scores,
    objective_phi,
    psi_value,
    repair_empty_clusters,
    update_B,
    update_G,
    update_U,
)
from .biplot import (
    BiplotModel,
    biplot_coordinates,
    contingency,
    rescale_spread,
    residual_comparison,
    standardized_residuals,
)
from .metrics import (
    ClassSelection,
    KlCurve,
    adjusted_rand_index,
    gf_against_truth,
    goodness_of_fit,
    kl_select,
    select_k_per_class,
)
from .simulation import (
    GenSpec,
    StudyDesign,
    SupGenSpec,
    condition_label,
    generate_clustered,
    generate_illustration,
    generate_supplementary,
    run_study,
    summarize_study,
)

__all__ = [name for name in dir() if not name.startswith("_")]
