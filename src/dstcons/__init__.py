"""Dempster-Shafer belief combination and best-of-n consensus dynamics."""

from .evidence import default_qualities, evidence_mass, select_state
from .fixedpoint import (
    FixedPointReport,
    classify,
    dp_polynomial_map,
    numeric_jacobian,
    self_combine_residual,
)
from .harness import (
    CellSummary,
    RunRecord,
    SweepSpec,
    SweepResult,
    derive_seed,
    emit_csv,
    preset_spec,
    reproduce,
    run_sweep,
)
from .mass import (
    COMBINERS,
    EPS_CONFLICT,
    EPS_NORM,
    EPS_PRUNE,
    FrameOfDiscernment,
    MassFunction,
    TotalConflictError,
    approx_eq,
    bel,
    combine_average,
    combine_dempster,
    combine_dubois_prade,
    combine_yager,
    conflict,
    format_mass,
    get_combiner,
    make_vacuous,
    pignistic,
    pl,
    renormalize,
)
from .simulation import (
    EPS_CONV,
    RunResult,
    SimConfig,
    population_means,
    run,
)

__version__ = "0.1.0"
