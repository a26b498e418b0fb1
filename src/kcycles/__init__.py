"""Exact computation of tree polynomials and of the coefficient system
relating dual Kontsevich cycles to adjusted Miller-Morita-Mumford classes.

Layout:

* exact     -- rationals, sparse multivariate polynomials, partitions,
               arrangements, Stirling numbers, double factorials
* caps      -- the oracles' enumeration caps and the error past one
* oracles   -- brute-force enumerations and the routes the production
               code replaced, each kept to check it
* treepoly  -- the production recursion for the integer tree polynomials,
               its hyperbolic generating-function check, and all closed
               forms attached to them
* coeffs    -- the b- and a-rows, both built by one surjection rule, cup
               products, and the degenerate zero-padded extension
* cache     -- the on-disk JSON result cache
* verify    -- named self-checks comparing independent routes
* cli       -- the `kcycles` command-line tool

Importing the package loads none of these.  Each name in `__all__` (and
each submodule, as `kcycles.verify`) is imported from its home module on
first use and is the very same object.  The `kcycles` command imports
cache and caps at start-up, and each command the modules it runs: a
`kcycles table` that reads its cached file loads no other, and verify
loads only for `kcycles verify`.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys((
        "MultiPoly", "binomial", "double_factorial", "format_rational",
        "normalize_partition", "partitions_of",
        "stirling_first_signed", "stirling_second",
    ), "exact"),
    **dict.fromkeys((
        "compositions", "counting_identity_bruteforce",
        "counting_identity_closed", "enumerate_cyclic_shuffles",
        "enumerate_increasing_trees", "even_cycle_histogram", "oriented_sign_sum",
        "p_family_x", "reduced_tree_poly_bruteforce", "shuffle_sign_sum_bruteforce",
        "tree_monomial", "tree_poly_bruteforce",
    ), "oracles"),
    **dict.fromkeys((
        "PFamily", "double_sum_identity", "l_poly", "p_family", "q_closed_ones",
        "q_eval", "reduced_tree_poly", "t_closed_main", "t_closed_ones", "tree_poly",
        "tree_value", "verify_g_recursion", "xe_tables",
    ), "treepoly"),
    **dict.fromkeys((
        "CoeffTable", "a_lambda_mu", "a_matrix", "a_single", "b_extend",
        "b_lambda_mu", "b_lambda_n", "b_matrix", "b_single", "closed_a_pair",
        "closed_b_pair", "cup_coeff", "degenerate_a", "degenerate_b", "h_sequence",
        "shared_table", "sym_count", "witten_expansion",
    ), "coeffs"),
    "EnumerationCapError": "caps",
    "run_verify": "verify",
}
_SUBMODULES = frozenset(("exact", "caps", "oracles", "treepoly", "coeffs", "cache", "verify",
                         "cli"))

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOMES.keys() | _SUBMODULES)
