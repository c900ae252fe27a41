"""Exact-arithmetic staircase-path combinatorics, q-analogues, and
hook-indexed Schur expansions, with brute-force oracles for every identity."""

from .qpoly import (
    LaurentPoly,
    gauss_binomial,
    gauss_binomial_qinv,
    q_factorial,
    q_int,
    q_pochhammer,
)
from .shapes import (
    Partition,
    StdTableau,
    conjugate,
    descent_classes,
    enumerate_SYT,
    hook_tableau_from_descents,
    is_hook,
    make_hook,
    parse_partition,
    partition_str,
)
from .paths import (
    LatticePath,
    enumerate_T,
    filter_paths,
    gf_T,
    gf_closed,
    hat_gf,
)
from .schur import (
    SchurExpansion,
    e_perp,
    omega,
    psi,
    psi_inverse_hooks,
    restrict,
    specialize2,
    ssyt_specialize_oracle,
)
from .characters import (
    HookResult,
    alternant_formula,
    alternating_identity_check,
    f_one_part,
    gl2_delta_en,
    gl2_delta_mu,
    gl2_nabla_hooks,
    hook_formula,
    hrs_t0,
    lift_hooks,
    lift_next_column,
    two_column_formula,
)
from .pierimaps import (
    TaggedPath,
    beta_inverse,
    beta_map,
    build_sets,
    compare_difference,
    difference_W,
    e_minus_map,
    e_plus_map,
    hook_of,
    omega_inverse,
    omega_map,
    path_stats,
    perp_via_paths,
    phi_inverse,
    phi_map,
)
from .fixtures import fixture_component, load_fixture

__version__ = "0.1.0"
