"""Command-line front end.

Subcommands: treepoly, coeff, table, cup, witten, verify, oracle.  JSON is
the canonical interchange format (LaTeX and text are conveniences with no
round-trip guarantee); identical invocations produce byte-identical
output.  Exit codes: 0 success, 2 usage error, 3 enumeration cap
exceeded, 4 verification/oracle failure, 5 I/O failure, 6 internal
arithmetic error (an ArithmeticError raised by the computation itself).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from pathlib import Path

from . import cache as cache_mod
from .coeffs import (
    SCHEMA_VERSION,
    a_lambda_mu,
    b_lambda_mu,
    cup_coeff,
    partition_key,
    table_document,
    witten_expansion,
)
from .exact import (
    MultiPoly,
    check_odd_tuple,
    format_rational,
    json_pieces,
    latex_rational,
    normalize_partition,
    signed_join,
    term_pieces,
)
from .oracles import (
    DEFAULT_LETTER_CAP,
    DEFAULT_TREE_CAP,
    EnumerationCapError,
    SIGN_SUM_VARIANTS,
    counting_identity_bruteforce,
    counting_identity_closed,
    reduced_tree_poly_bruteforce,
    shuffle_sign_sum_bruteforce,
    tree_poly_bruteforce,
)
from .treepoly import (
    l_poly_runs, p_family_runs, reduced_tree_poly, tree_value, xe_tables,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_VERIFY = 4
EXIT_IO = 5
EXIT_ARITH = 6

ENV_CAPS = "KCYCLES_CAPS"


def _parse_caps_env() -> dict[str, int]:
    raw = os.environ.get(ENV_CAPS, "")
    caps: dict[str, int] = {}
    if not raw:
        return caps
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, value = chunk.partition("=")
        if name.strip() not in ("trees", "letters") or not value.strip().isdigit():
            raise ValueError(
                f"cannot parse {ENV_CAPS}={raw!r}; expected e.g. trees=5,letters=11"
            )
        caps[name.strip()] = int(value.strip())
    return caps


def _cap_arg(text: str) -> int:
    # the digits-only rule of KCYCLES_CAPS, so a negative cap is a usage error
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"bad cap {text!r}; need an integer >= 0")
    return int(text)


def _partition_arg(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
        return normalize_partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}") from exc


def _variant_arg(text: str) -> str:
    if text in ("reduced", "full", "pfamily") or (
        text.startswith("l:") and text[2:].isdigit()
    ):
        return text
    raise argparse.ArgumentTypeError(
        f"bad variant {text!r}; use reduced, full, pfamily or l:N"
    )


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _kappa_latex(parts: tuple[int, ...]) -> str:
    factors = []
    for value, power in sorted(Counter(parts).items(), reverse=True):
        body = f"\\tilde{{\\kappa}}_{{{value}}}"
        factors.append(body if power == 1 else f"{body}^{{{power}}}")
    # the empty partition is the unit class
    return " ".join(factors) or "1"


def _emit_terms(terms, fmt: str, head: dict, latex_basis) -> None:
    """Ordered (partition, value) pairs in `fmt`.

    Text is one `partition: value` line per pair ("0" for none), LaTeX the
    signed sum of value times `latex_basis(partition)`, and JSON the `head`
    fields followed by a "terms" map in the same order.
    """
    if fmt == "json":
        obj = {**head, "terms": {partition_key(p): format_rational(v) for p, v in terms}}
        _emit(cache_mod.canonical_json(obj))
    elif fmt == "latex":
        _emit(signed_join([
            ("-" if value < 0 else "+", f"{latex_rational(value)}\\,{latex_basis(p)}")
            for p, value in terms
        ]))
    else:
        lines = [f"{partition_key(p)}: {format_rational(v)}" for p, v in terms]
        _emit("\n".join(lines) if lines else "0")


def _poly_summary(poly: MultiPoly) -> str:
    return f"{len(poly)} terms, coefficient sum {poly.coefficient_sum()}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_treepoly(args) -> int:
    """Print a tree polynomial, or the P family, from the runs of its
    pre-final stores (see treepoly._x_runs), one renderer per format, with
    no x store: the text in flight is one chunk's."""
    k, fmt, out = args.k, args.format, sys.stdout
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    num_vars = 2 * k + 1
    # text and LaTeX lead with the highest term, JSON with the lowest
    reverse = fmt != "json"

    def pieces(runs, depth=0):
        if fmt == "json":
            return json_pieces(num_vars, runs, depth)
        return term_pieces(num_vars, runs, fmt == "latex")

    if args.variant != "pfamily":
        # reduced is l:0, and full is x0 times it
        n = int(args.variant[2:]) if args.variant.startswith("l:") else 0
        out.writelines(pieces(l_poly_runs(k, n, reverse, args.variant == "full")))
    elif fmt == "json":
        # the indent-2 json.dumps layout of {"k": k, "polys": {"c": [...], ...}},
        # its head written with P_k^1, once a walk of the level has succeeded
        separator = f'{{\n  "k": {k},\n  "polys": {{\n    '
        for c, runs in p_family_runs(k, reverse):
            out.write(f'{separator}"{c}": ')
            out.writelines(pieces(runs, 2))
            separator = ",\n    "
        out.write("\n  }\n}")
    else:
        separator = ""
        for c, runs in p_family_runs(k, reverse):
            out.write(f"{separator}P[{c}] = ")
            out.writelines(pieces(runs))
            separator = "\n"
    out.write("\n")
    return EXIT_OK


def cmd_coeff(args) -> int:
    lam = args.lam
    if not lam:
        raise ValueError("--lambda must be a nonempty partition")
    mu = args.mu if args.mu is not None else (sum(lam),)
    value = b_lambda_mu(lam, mu) if args.kind == "b" else a_lambda_mu(lam, mu)
    _emit(format_rational(value))
    return EXIT_OK


def cmd_table(args) -> int:
    weight = args.weight
    if weight < 0:
        raise ValueError(f"need weight >= 0, got {weight}")
    cache_dir = Path(args.cache_dir) if args.cache_dir else cache_mod.default_cache_dir()
    cache_path = cache_mod.document_path(cache_dir, "table", f"w{weight}")
    doc = cache_mod.load_table(cache_path, weight)
    if doc is None:
        doc = table_document(weight)
        cache_mod.write_atomic(cache_path, cache_mod.canonical_json(doc))
    if args.out:
        cache_mod.write_atomic(Path(args.out), cache_mod.canonical_json(doc))
        _emit(str(args.out))
    else:
        _emit(str(cache_path))
    return EXIT_OK


def cmd_cup(args) -> int:
    lam, mu = args.lam, args.mu if args.mu is not None else ()
    head = {"version": SCHEMA_VERSION, "lambda": list(lam), "mu": list(mu)}
    _emit_terms(cup_coeff(lam, mu).items(), args.format, head,
                lambda nu: f"[W^*_{{{partition_key(nu)}}}]")
    return EXIT_OK


def cmd_witten(args) -> int:
    lam = args.lam
    _emit_terms(witten_expansion(lam).items(), args.format, {"lambda": list(lam)}, _kappa_latex)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_verify  # the check registry loads only for this command

    cache_dir = Path(args.cache_dir) if args.cache_dir else cache_mod.default_cache_dir()
    report = run_verify(args.level, cache_dir=cache_dir)
    for line in report.lines(timings=args.timings):
        _emit(line)
    return EXIT_OK if report.ok else EXIT_VERIFY


def _oracle_report(brute, other, brute_text: str, other_text: str) -> int:
    equal = brute == other
    _emit(f"brute-force: {brute_text}")
    _emit(f"reference:   {other_text}")
    _emit("verdict: equal" if equal else "verdict: UNEQUAL")
    return EXIT_OK if equal else EXIT_VERIFY


def cmd_oracle(args) -> int:
    caps = _parse_caps_env()
    cap_trees = args.cap_trees if args.cap_trees is not None else caps.get(
        "trees", DEFAULT_TREE_CAP
    )
    cap_letters = args.cap_letters if args.cap_letters is not None else caps.get(
        "letters", DEFAULT_LETTER_CAP
    )
    if args.what == "treepoly":
        brute = reduced_tree_poly_bruteforce(args.k, cap_trees)
        production = reduced_tree_poly(args.k)
        if len(brute) <= 12:
            return _oracle_report(brute, production, brute.text(), production.text())
        return _oracle_report(
            brute, production, _poly_summary(brute), _poly_summary(production)
        )
    if args.what == "shuffle-sum":
        values = args.tuple
        brute = tree_poly_bruteforce(values, cap_letters)
        closed = tree_value(values)
        return _oracle_report(brute, closed, str(brute), str(closed))
    if args.what == "counting":
        brute = counting_identity_bruteforce(args.n, args.s)
        closed = counting_identity_closed(args.n, args.s)
        return _oracle_report(brute, closed, str(brute), str(closed))
    brute = shuffle_sign_sum_bruteforce(args.variant, args.n, args.m)
    closed, _ = xe_tables(args.variant, args.n, args.m)
    return _oracle_report(brute, closed, str(brute), str(closed))


def _odd_tuple_arg(text: str) -> tuple[int, ...]:
    try:
        return check_odd_tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tuple {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcycles",
        description=(
            "Exact tree polynomials and the conversion coefficients between "
            "dual Kontsevich cycles and adjusted Miller-Morita-Mumford classes."
        ),
    )
    parser.add_argument("--cache-dir", default=None, help="result cache directory")
    parser.add_argument(
        "--cap-trees", type=_cap_arg, default=None,
        help=f"max level for full tree enumeration (default {DEFAULT_TREE_CAP})",
    )
    parser.add_argument(
        "--cap-letters", type=_cap_arg, default=None,
        help=f"max letters for shuffle enumeration (default {DEFAULT_LETTER_CAP})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("treepoly", help="emit a tree polynomial")
    p.add_argument("k", type=int)
    p.add_argument("--variant", type=_variant_arg, default="reduced",
                   help="reduced, full, pfamily or l:N")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_treepoly)

    p = sub.add_parser("coeff", help="print one conversion coefficient")
    p.add_argument("kind", choices=("b", "a"))
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--mu", dest="mu", type=_partition_arg, default=None,
                   help="defaults to the one-part partition of the weight")
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("table", help="write the b/a table document for a weight")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--out", default=None, help="output path (defaults into the cache)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cup", help="cup-product coefficients of two dual cycles")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--mu", dest="mu", type=_partition_arg, default=None)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_cup)

    p = sub.add_parser("witten", help="expand a dual cycle in kappa-monomials")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_witten)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed times (non-deterministic output)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="compare brute force against the production route")
    oracle_sub = p.add_subparsers(dest="what", required=True)
    q = oracle_sub.add_parser("treepoly")
    q.add_argument("k", type=int)
    q.set_defaults(func=cmd_oracle)
    q = oracle_sub.add_parser("shuffle-sum")
    q.add_argument("tuple", type=_odd_tuple_arg)
    q.set_defaults(func=cmd_oracle)
    q = oracle_sub.add_parser("counting")
    q.add_argument("n", type=int)
    q.add_argument("s", type=int)
    q.set_defaults(func=cmd_oracle)
    q = oracle_sub.add_parser("xe")
    q.add_argument("variant", choices=SIGN_SUM_VARIANTS)
    q.add_argument("n", type=int)
    q.add_argument("m", type=int)
    q.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a write that the buffer held back fails here, as exit 5, and not
        # in the interpreter's final flush, which reports it and exits 120
        sys.stdout.flush()
        return code
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARITH
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # a failed flush keeps its bytes in the buffer, and the final
            # flush would fail on them again: point fd 1 at the null device,
            # the remedy the `signal` docs give for SIGPIPE
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_IO


def run() -> None:
    """Entry point of the `kcycles` script and of `python -m kcycles.cli`.

    Before the process exits, `gc.freeze()` moves every object the
    collector tracks (the modules that `site`, argparse and kcycles
    loaded, and the memos still alive) into the permanent generation,
    which the collections run at interpreter shutdown skip: a few
    milliseconds off every command.  Reference counting still frees what
    is not in a cycle, and atexit handlers and the final flush of stdout
    and stderr still run.  `main` does not freeze, because tests and
    library callers run it in-process, and a freeze there would keep
    their objects in the permanent generation for the rest of their
    process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
