"""Persistence diagrams as free commutative monoids over pointed metric
spaces, with exact p-Wasserstein and bottleneck distances, metric
constructions (quotient, p-strengthening, pullback, product), the universal
extension of Lipschitz maps, and Kantorovich-Rubinstein dual certificates.

The package root exports the entry points; every other name is imported
from its own module (`pdmetric.assignment`, `pdmetric.spaces`, ...).
"""

import importlib

from .diagram import (
    Diagram,
    diagram_from_list,
    empty_diagram,
    include,
)
from .errors import DomainError, PreconditionError, SizeLimitError
from .kr_duality import (
    dual_objective,
    duality_gap,
    feasibility_violation,
    kr_certificate,
    mcshane_extend,
    support_function,
    tightness_violation,
)
from .metric_core import (
    INF,
    FiniteSpace,
    p_strengthen,
    product_metric,
    pullback_metric,
    quotient_metric,
)
from .spaces import (
    AnagramSpace,
    HalfPlaneSpace,
    IntervalSpace,
    StarGraphSpace,
)
from .io import (
    dump_json,
    load_diagram,
    space_from_spec,
)
from .wasserstein import (
    bottleneck,
    brute_force_wasserstein,
    wasserstein,
    wasserstein_quotient_reduced,
    wasserstein_value,
)

__version__ = "0.1.0"

# The verification suites and the universality checks load on first use, so
# that `pdmetric distance` does not pay for them.
_LAZY = {
    "run_suite": "verify",
    **dict.fromkeys(["check_maximality", "converse_stability", "extend_lipschitz"],
                    "universality"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "AnagramSpace",
    "Diagram",
    "DomainError",
    "FiniteSpace",
    "HalfPlaneSpace",
    "INF",
    "IntervalSpace",
    "PreconditionError",
    "SizeLimitError",
    "StarGraphSpace",
    "bottleneck",
    "brute_force_wasserstein",
    "check_maximality",
    "converse_stability",
    "diagram_from_list",
    "dual_objective",
    "duality_gap",
    "dump_json",
    "empty_diagram",
    "extend_lipschitz",
    "feasibility_violation",
    "include",
    "kr_certificate",
    "load_diagram",
    "mcshane_extend",
    "p_strengthen",
    "product_metric",
    "pullback_metric",
    "quotient_metric",
    "run_suite",
    "space_from_spec",
    "support_function",
    "tightness_violation",
    "wasserstein",
    "wasserstein_quotient_reduced",
    "wasserstein_value",
]
