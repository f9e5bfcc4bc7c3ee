"""Exact class numbers, ideal Euler functions, and per-degree torsion bounds.

The library computes, for imaginary quadratic fields: class numbers by
two independent exact methods, the ideal Euler function and ideal
enumeration by norm, degree sandwiches for ray class fields, exhaustive
verification of the mod-N unit-group facts behind the torsion-squaring
rule, an explicit per-degree upper bound B(d) on CM torsion, and the
analytic product estimates the bound's constant shadows.
"""

__version__ = "0.1.0"

from .quad_core import (
    Discriminant,
    Splitting,
    as_discriminant,
    class_number,
    class_number_dirichlet,
    fundamental_discriminants,
    is_fundamental,
    kronecker,
    splitting_type,
    unit_count,
)
from .ideal_arith import (
    FactoredIdeal,
    PrimeIdeal,
    brute_force_phi,
    ideal_norm,
    ideals_up_to_norm,
    phi_K,
    phi_K_of_N,
    primes_above,
    principal_ideal,
)
from .ray_class_bounds import DegreeBounds, degree_bounds
from .galois_image import (
    GaloisImageReport,
    cn_elements,
    cn_order,
    kernel_size,
    max_stabilizer_order,
    verify_homotheties,
)
from .feasibility import (
    BoundRecord,
    ChainAudit,
    ConstantEstimate,
    FeasibilityRow,
    TorsionShape,
    bound_records,
    chain_audit,
    refined_table,
)
from .analytics import (
    LandauCheck,
    ProductEstimate,
    ScanResult,
    char_euler_product,
    l1_from_class_number,
    landau_liminf_check,
    mertens_product,
    phi_bound_scan,
)
from .errors import CapExceededError
