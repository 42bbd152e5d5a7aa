"""Cardinal exponential-spline sampling toolkit.

Shift-invariant spaces generated by exponential B-splines (TB-splines), their
Euler-Frobenius polynomials, Shannon-type interpolation kernels, and
reconstruction of polyharmonic splines from samples on concentric spheres or
parallel hyperplanes.
"""

from .shannon1d import (
    BoundaryTailWarning,
    KernelTable,
    NarrowGridError,
    NotSamplableError,
    SamplingGrid,
    cardinal_series,
    spline_series,
    symbol_margin,
    synthesize_dual,
    synthesize_kernel,
    tb_superposition,
)
from .spectrum import (
    SpectrumVector,
    radial_spectrum,
    strip_spectrum,
)
from .spherical import (
    PolysplineField,
    ShannonPolysplineKernel,
    SphereGrid,
    analyze_sphere,
    decay_check,
    radial_kernel,
    random_polyspline_field,
    reconstruct_spherical,
    sph_harm,
    sph_harm_degree,
    sph_index,
    synthesize_sphere,
)
from .strip import (
    StripField,
    analyze_torus,
    random_strip_field,
    reconstruct_strip,
    strip_kernel,
    synthesize_torus,
    torus_modes,
)
from .tbspline import (
    ConditioningError,
    EFPolynomial,
    TbChebyshev,
    TbTable,
    ef_zeros,
    euler_frobenius,
    euler_spline,
    euler_spline_resolvent,
    tb_chebyshev,
    tb_exact,
    tb_fourier,
    tb_integer_values,
    tb_tabulate,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryTailWarning",
    "ConditioningError",
    "EFPolynomial",
    "KernelTable",
    "NarrowGridError",
    "NotSamplableError",
    "PolysplineField",
    "SamplingGrid",
    "ShannonPolysplineKernel",
    "SphereGrid",
    "SpectrumVector",
    "StripField",
    "TbChebyshev",
    "TbTable",
    "analyze_sphere",
    "analyze_torus",
    "cardinal_series",
    "decay_check",
    "ef_zeros",
    "euler_frobenius",
    "euler_spline",
    "euler_spline_resolvent",
    "radial_kernel",
    "radial_spectrum",
    "random_polyspline_field",
    "random_strip_field",
    "reconstruct_spherical",
    "reconstruct_strip",
    "sph_harm",
    "sph_harm_degree",
    "sph_index",
    "spline_series",
    "strip_kernel",
    "strip_spectrum",
    "symbol_margin",
    "synthesize_dual",
    "synthesize_kernel",
    "synthesize_sphere",
    "synthesize_torus",
    "tb_chebyshev",
    "tb_exact",
    "tb_fourier",
    "tb_integer_values",
    "tb_superposition",
    "tb_tabulate",
    "torus_modes",
    "__version__",
]
