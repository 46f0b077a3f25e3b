"""fraclap: spectral fractional Laplacians, Besov energies, and
extension-problem Dirichlet solvers on finite metric measure spaces."""

from .dirichlet import (
    DirichletProblem,
    Solution,
    harnack_quotient,
    holder_estimate,
    maximum_principle_check,
    residual_check,
    solve_extension,
    solve_spectral,
    solve_spectral_batch,
    strong_maximum_check,
    uniqueness_check,
)
from .energy import (
    FracEnergyForm,
    besov_energy,
    comparability_report,
    stiffness_matrix,
)
from .errors import FraclapError
from .extension import (
    ExtensionField,
    HalfSpaceGrid,
    build_grid,
    codim_ball_check,
    default_ymax,
    dtn_apply,
    dtn_constant,
    extension_energy_constant,
    mode_energy_quadrature,
    mode_profile,
    mode_profile_derivative,
    poisson_extend,
    vertical_modulus,
)
from .space import (
    Space,
    ball_mask,
    ball_measure,
    build_space,
    check_space_spec,
    fixture,
    space_from_spec,
)
from .spectral import (
    SpectralDecomposition,
    decompose,
    frac_apply,
    graph_stiffness,
    heat_kernel,
    heat_kernel_log_bound,
    heat_kernel_series,
    subordination_check,
)

__version__ = "0.1.0"
