"""Infinite-divisibility and positive-correlation checks for squared
Gaussian and permanental vectors on finite kernel matrices."""

from .assoc import (
    AssociationReport,
    IncreasingFunctionFamily,
    StrongOrderReport,
    association_mc_test,
    default_family,
    fkg_lattice_test,
    random_scalings,
    resolvent_monotonicity_scan,
    shifted_strong_order_test,
)
from .betaperm import (
    PositivityReport,
    beta_permanent,
    beta_positivity_scan,
    cycle_polynomial,
    id_necessary_battery,
)
from .densities import (
    gaussian_pair_pdf,
    marginal_quantile_grid,
    squared_pair_density,
)
from .errors import (
    DimensionCapError,
    InputFormatError,
    InvalidIndexError,
    NonFiniteError,
    NotPositiveDefiniteError,
    NotPSDError,
    PermacheckError,
    SchemaMismatchError,
    SingularMatrixError,
    SpectralRadiusError,
)
from .green import (
    PlusConstantReport,
    TransientChain,
    green_from_chain,
    hadamard_power,
    is_green,
    plus_constant_check,
    restriction,
)
from .idcheck import (
    IdVerdict,
    bapat_test,
    id_verdict,
    shifted_pair_id_test,
)
from .matcore import (
    KernelMatrix,
    Signature,
    dumps_matrix,
    invert,
    kernel,
    load_matrix,
    loads_matrix,
    real_eigen_nonneg,
    resolvent,
    save_matrix,
)
from .sampler import (
    PermanentalSpec,
    SampleBatch,
    abs_product_moment,
    empirical_laplace,
    laplace_transform,
    load_batch,
    sample_gaussian,
    sample_permanental,
    save_batch,
    tilt_resolvent,
)
from .verdict import Verdict

__version__ = "0.1.0"
