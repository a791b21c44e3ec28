"""boxprune: prove where the solutions of equation systems can and cannot be.

The pipeline: parse a small equation language, decompose to primitive
ternary constraints, narrow boxes with optimal interval contractors driven
to a fixpoint, hand a propagation that stalls to an interval Newton
(Krawczyk) step, and branch-and-prune until every remaining box is atomic.
All arithmetic is outward-rounded, so emitted enclosures are guaranteed to
contain every real solution of the input system.
"""

from .boxes import Box, empty_box
from .contractors import (
    Constraint,
    TraceRecord,
    apply_lifted,
    big_gamma,
    contract_const,
    contract_mul,
    contract_sq,
    contract_sum,
    extdiv,
)
from .decompose import (
    Csp,
    ParseError,
    compile_problem,
    decompose,
    parse_problem,
    render_problem,
)
from .interval import EMPTY, FULL, Interval
from .newton import krawczyk
from .oracle import GridSpec, bisect_root, extend_assignment, grid_solutions
from .propagation import (
    PropagationOutcome,
    Status,
    get_engine,
    propagate_random,
    propagate_roundrobin,
    propagate_worklist,
)
from .search import (
    BudgetExceeded,
    SolveReport,
    SolveStats,
    SolveStatus,
    pick_split_var,
    solve,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "EMPTY",
    "FULL",
    "Box",
    "empty_box",
    "Constraint",
    "TraceRecord",
    "contract_sum",
    "contract_mul",
    "contract_sq",
    "contract_const",
    "extdiv",
    "apply_lifted",
    "big_gamma",
    "ParseError",
    "Csp",
    "parse_problem",
    "decompose",
    "compile_problem",
    "render_problem",
    "PropagationOutcome",
    "Status",
    "propagate_roundrobin",
    "propagate_worklist",
    "propagate_random",
    "get_engine",
    "krawczyk",
    "SolveReport",
    "SolveStats",
    "SolveStatus",
    "BudgetExceeded",
    "split",
    "pick_split_var",
    "solve",
    "GridSpec",
    "grid_solutions",
    "bisect_root",
    "extend_assignment",
    "__version__",
]
