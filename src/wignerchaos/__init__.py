"""Exact kernel calculus for Wigner chaos on step-function kernels.

Kernels live on a uniform grid, where contractions, product formulas,
the free gradient and the fourth-moment bound are all finite tensor
algebra and can be checked to floating-point accuracy.
"""

from .grid_kernel import (
    ATOL,
    RTOL,
    GridSpec,
    Kernel,
    MemoryCapError,
    SplitKernel,
    adjoint,
    adjoint_split,
    bicontract,
    cell_indicator,
    constant_kernel,
    contract,
    inner,
    is_mirror_symmetric,
    is_symmetric,
    kernel_from_bytes,
    kernel_from_json,
    kernel_to_bytes,
    kernel_to_json,
    kernels_close,
    max_abs_diff,
    norm,
    slice_kernel,
    symmetrize,
    zero_kernel,
)
from .chaos import (
    ChaosElement,
    fourth_moment_gap,
    from_kernel,
    moment,
    multiply,
    one,
    oracle_moment,
    spectral_moments,
    trace,
    trace_of_product,
)
from .bichaos import (
    BiChaosElement,
    bitrace,
    from_split_kernel,
    norm2,
    one_tensor_one,
    sharp_multiply,
    tensor,
)
from .bounds import (
    C,
    ConstantsRow,
    P,
    dc2_bound_from_gap,
    dc2_bound_from_lhs,
    semicircle_moment,
    u0,
)
from .gradient import (
    BoundReport,
    bound_report,
    closed_form_lhs,
    coefficient_c,
    gradient,
    gradient_quadratic_form,
    main_bound_lhs,
    number_inverse,
)
from .breuer_major import (
    BMConfig,
    BMResult,
    alpha,
    chebyshev_U,
    gap_fast,
    increment_kernels,
    rate_fit,
    rho,
    sigma2,
    sigma2_tail_bound,
    vm_kernel,
)

__version__ = "0.1.0"
