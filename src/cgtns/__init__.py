"""Complete graph tensor network states for small active spaces."""

from .analysis import (
    RunRecord,
    accuracy_measure,
    export_trace,
    reduction_report,
    spin_splitting,
)
from .correlators import (
    ANSATZ_KINDS,
    AnsatzSpec,
    CorrelatorSet,
    param_count,
    select_sites,
)
from .energy import EnergyEvaluator, EnergyReport
from .fock import (
    CsfBasis,
    FockSubspace,
    OccupationVector,
    build_csf_basis,
    count_onvs_asymptotic,
    enumerate_onvs,
    s2_apply,
)
from .hamiltonian import (
    HamiltonianOperator,
    IntegralSet,
    exact_diagonalize,
    parse_fcidump,
    slater_condon,
)
from .optimizer import (
    PtConfig,
    ReplicaEnsemble,
    bfgs_refine,
    gradient_subspace_solve,
    reduced_gradient_sweep,
    run_parallel_tempering,
    subspace_refine,
    swap_probability,
    temperature_ladder,
)

__version__ = "0.1.0"
