"""Exact arithmetic for quadratic twists of elliptic curves over Q.

Curve models, Tate's algorithm, twist Tamagawa laws, and a batch
verification harness for the even-two-power identities satisfied by
local invariants under a split/inert hypothesis on the discriminant.
"""

from .arith import (
    Factorization,
    FundamentalDiscriminant,
    factorize,
    fundamental_discriminant,
    fundamental_discriminants,
    kronecker,
    valuation,
)
from .curves import (
    MinimalModelResult,
    SingularModelError,
    WeierstrassModel,
    invariants,
    minimal_model,
    model,
    quadratic_twist,
)
from .localred import (
    LocalReduction,
    conductor,
    tate_local,
    twist_prime_tamagawa_odd,
)
from .profile_scan import ProfileScanResult, scan_profiles
from .twistlaws import (
    SetupError,
    TwistPair,
    TwistRow,
    join_rows,
    pair_twist_quantity,
    symbol_closed_form,
    tamagawa_symbol_check,
    tamagawa_transfer_check,
    tamagawa_transfer_product_check,
    twist_quantity,
    u_of_discriminant,
    validate_setup,
)

__all__ = [
    "Factorization",
    "FundamentalDiscriminant",
    "LocalReduction",
    "MinimalModelResult",
    "ProfileScanResult",
    "SetupError",
    "SingularModelError",
    "TwistPair",
    "TwistRow",
    "WeierstrassModel",
    "conductor",
    "factorize",
    "fundamental_discriminant",
    "fundamental_discriminants",
    "invariants",
    "join_rows",
    "kronecker",
    "minimal_model",
    "model",
    "pair_twist_quantity",
    "quadratic_twist",
    "scan_profiles",
    "symbol_closed_form",
    "tamagawa_symbol_check",
    "tamagawa_transfer_check",
    "tamagawa_transfer_product_check",
    "tate_local",
    "twist_prime_tamagawa_odd",
    "twist_quantity",
    "u_of_discriminant",
    "validate_setup",
    "valuation",
]

__version__ = "0.1.0"
