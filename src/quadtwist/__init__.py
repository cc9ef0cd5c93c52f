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
    is_fundamental_discriminant,
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
    two_strongly_minimal,
)
from .localred import (
    LocalReduction,
    c_tilde,
    conductor,
    inert_base_change_tamagawa,
    tate_local,
    twist_prime_tamagawa_odd,
)
from .profile_scan import ProfileScanResult, scan_profiles
from .twistlaws import (
    SetupError,
    TwistPair,
    TwistRow,
    TwistSetup,
    join_rows,
    pair_twist_quantity,
    setup_rows,
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
    "TwistSetup",
    "WeierstrassModel",
    "c_tilde",
    "conductor",
    "factorize",
    "fundamental_discriminant",
    "fundamental_discriminants",
    "inert_base_change_tamagawa",
    "invariants",
    "is_fundamental_discriminant",
    "join_rows",
    "kronecker",
    "minimal_model",
    "model",
    "pair_twist_quantity",
    "quadratic_twist",
    "scan_profiles",
    "setup_rows",
    "symbol_closed_form",
    "tamagawa_symbol_check",
    "tamagawa_transfer_check",
    "tamagawa_transfer_product_check",
    "tate_local",
    "twist_prime_tamagawa_odd",
    "twist_quantity",
    "two_strongly_minimal",
    "u_of_discriminant",
    "validate_setup",
    "valuation",
]

__version__ = "0.1.0"
