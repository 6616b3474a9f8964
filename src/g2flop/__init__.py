"""Exact-arithmetic engine for G2 flag-variety cohomology, total-space Ext
groups, Cox-ring Hilbert series and certified semiorthogonal mutations."""

from .rootdata import RootSystem, Root, build_root_system, g2
from .weylbott import (
    CohomologyProfile,
    dot_normalize,
    filtered_cohomology,
    line_cohomology,
    weyl_dim,
)
from .bundles import (
    BundleExpr,
    Dual,
    IrrP1,
    IrrP2,
    Line,
    Spinor,
    Sym,
    Tensor,
    Twist,
    Universal,
    flag_cohomology,
    format_expr,
    levi_tensor,
    parse_expr,
    weights,
)
from .totalspace import HomVResult, hom_v, total_space_canonical
from .sodengine import apply_move, k_class, replay_mutation_script
from .coxring import flag_cox_dim, git_piece, total_cox_dim

__all__ = [
    "RootSystem",
    "Root",
    "build_root_system",
    "g2",
    "CohomologyProfile",
    "dot_normalize",
    "filtered_cohomology",
    "line_cohomology",
    "weyl_dim",
    "BundleExpr",
    "Dual",
    "IrrP1",
    "IrrP2",
    "Line",
    "Spinor",
    "Sym",
    "Tensor",
    "Twist",
    "Universal",
    "flag_cohomology",
    "format_expr",
    "levi_tensor",
    "parse_expr",
    "weights",
    "HomVResult",
    "hom_v",
    "total_space_canonical",
    "apply_move",
    "k_class",
    "replay_mutation_script",
    "flag_cox_dim",
    "git_piece",
    "total_cox_dim",
]

__version__ = "0.1.0"
