"""Complete graph tensor network states for small active spaces."""

import os
import sys

# An idle OpenBLAS worker busy-waits 2^28 cycles (about 0.1 s) before it
# sleeps, at start-up and after each threaded product; 2^4 is OpenBLAS's
# minimum.  OpenBLAS reads the variable once, when numpy loads it, so a value
# set after numpy would only leak into child processes.  The thread count,
# and with it every product's bits, is unchanged.
if "OPENBLAS_THREAD_TIMEOUT" not in os.environ and "numpy" not in sys.modules:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"

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
    param_count,
    select_sites,
)
from .energy import EnergyEvaluator, EnergyReport
from .fock import (
    CsfBasis,
    FockSubspace,
    build_csf_basis,
    count_onvs_asymptotic,
    enumerate_onvs,
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
    run_parallel_tempering,
    run_stages,
    subspace_refine,
    swap_probability,
    temperature_ladder,
)

__version__ = "0.1.0"
