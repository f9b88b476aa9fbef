"""critform: criticality analysis for quadratic forms on weighted graphs.

Green operators and classification along exhaustions, Agmon ground states,
Hardy weights with certificates, weak Hardy/Poincaré profiles with semigroup
decay rates, and positive-kernel-operator machinery (principal values, weak
Harnack sets, excessive-function construction).
"""

__version__ = "0.1.0"

from .config import DEFAULT_TOLERANCES, job_tolerances, tolerance, tolerances  # noqa: F401
from .errors import *  # noqa: F401,F403
from .forms import (  # noqa: F401
    GraphForm,
    VertexFunction,
    build_form,
    evaluate,
    evaluate_bilinear,
    operator_apply,
    check_first_bd,
    check_lattice_inequality,
    is_invariant_set,
    irreducible_components,
    is_irreducible,
)
from .resolvent import (  # noqa: F401
    GreenResult,
    default_alpha_schedule,
    green_apply,
    is_excessive,
    resolvent_apply,
    semigroup_apply,
    check_resolvent_contraction,
)
from .criticality import (  # noqa: F401
    ClassificationReport,
    Exhaustion,
    GroundState,
    agmon_ground_state,
    capacity,
    classify,
    null_sequence,
)
from .hardy import (  # noqa: F401
    GroundStateTransform,
    HardyWeight,
    abstract_hardy_gap,
    ground_state_transform,
    hardy_weight,
    perturbed_hardy_bound,
    verify_hardy,
)
from .weak_ineq import (  # noqa: F401
    AlphaProfile,
    DecayCurve,
    alpha_profile,
    alpha_profile_levels,
    decay_rate,
    poincare_project,
    truncation_map,
    verify_decay,
)
from .kernel_ops import (  # noqa: F401
    HarnackCertificate,
    KernelOperator,
    check_super_eigen,
    construct_excessive,
    ergodicity_check,
    harnack_sets,
    heat_kernel_operator,
    ktilde,
    lambda_of,
)
from .reports import (  # noqa: F401
    emit_graph_document,
    parse_graph_file,
    parse_graph_text,
    parse_kernel_file,
)
from .families import (  # noqa: F401
    birth_death,
    birth_death_exhaustion,
    builtin_family,
    constant_exhaustion,
    dirichlet_path,
    dirichlet_path_exhaustion,
    lattice,
    lattice_exhaustion,
    path_form,
    random_connected_form,
    random_kernel_data,
    random_tree_form,
)
