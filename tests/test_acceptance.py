"""Acceptance criteria.

One test per criterion; each asserts its identities at exact tolerance,
checks the stated runtime budget, and prints one pass line (pytest's own
PASSED/FAILED marks the verdict per criterion as well).  Run with -s to
see the timing lines.

Criteria 1-9 run checks from the `kcycles.verify.CHECKS` registry, the
one place each identity sweep is written:

  1  anchors/reduced-polys
  2  anchors/coefficients, anchors/witten-cup
  3  anchors/witten-cup
  4  oracle/reduced-tree-poly, oracle/p-family-coordinates,
     oracle/cyclic-shuffles
  5  sweep/closed-ones, sweep/closed-main, sweep/pair-closed,
     anchors/pair-closed
  6  struct/reduced-poly, struct/l-poly, struct/g-recursion
  7  matrix/duality, matrix/order-independence, oracle/b-matrix,
     matrix/next-coefficient
  8  oracle/xe-sweep, oracle/counting-sweep, oracle/even-cycles
  9  anchors/degenerate, degenerate/inverses, anchors/stirling

Criterion 10 drives the command line and runs `kcycles verify --level full`.

`COMPARISONS` pins the number of comparisons each registry check makes,
which its PASS line does not show: criteria 1-9 assert it for their
checks, and one more test for the checks outside them.
"""

import hashlib
import os
import subprocess
import sys
import time

from kcycles import cache as cache_mod
from kcycles.coeffs import table_document
from kcycles.verify import CHECKS, run_checks

CLI = [sys.executable, "-m", "kcycles.cli"]

# comparisons per registry check; cache/tables is counted with one cached table
COMPARISONS = {
    "anchors/reduced-polys": 10,
    "anchors/coefficients": 20,
    "anchors/witten-cup": 5,
    "anchors/pair-closed": 10,
    "anchors/xe-tables": 10,
    "anchors/counting": 6,
    "anchors/q-t-closed": 7,
    "anchors/l-poly": 6,
    "anchors/series": 10,
    "anchors/stirling": 128,
    "anchors/degenerate": 68,
    "anchors/double-sum": 6,
    "cache/tables": 1,
    "oracle/reduced-tree-poly": 2468,
    "oracle/p-family-coordinates": 6,
    "oracle/cyclic-shuffles": 92,
    "oracle/shuffle-counts": 144,
    "oracle/xe-sweep": 396,
    "oracle/counting-sweep": 30,
    "oracle/even-cycles": 513,
    "sweep/closed-ones": 2165,
    "sweep/closed-main": 3086,
    "sweep/pair-closed": 182,
    "struct/reduced-poly": 39,
    "struct/l-poly": 20,
    "struct/g-recursion": 7,
    "matrix/duality": 50,
    "oracle/b-matrix": 33,
    "matrix/next-coefficient": 1609,
    "matrix/order-independence": 68,
    "degenerate/inverses": 8,
    "cup/symmetry": 74,
}


def _finish(number: int, budget: float, start: float, description: str) -> None:
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS in {elapsed:6.1f}s (budget {budget:.0f}s): {description}")
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def _assert_passes(results) -> None:
    for result in results:
        assert result.ok, f"{result.name}: lhs={result.lhs} rhs={result.rhs}"
        assert result.lhs == f"{COMPARISONS[result.name]} comparisons", result.name


def _criterion(number: int, budget: float, description: str, *checks: str) -> None:
    start = time.perf_counter()
    _assert_passes(run_checks(checks))
    _finish(number, budget, start, description)


def test_criterion_01_reduced_tree_polynomials():
    _criterion(1, 1.0, "reduced tree polynomials match their explicit forms",
               "anchors/reduced-polys")


def test_criterion_02_coefficient_anchors():
    _criterion(2, 5.0, "coefficient anchors exact",
               "anchors/coefficients", "anchors/witten-cup")


def test_criterion_03_cup_product_anchor():
    _criterion(3, 1.0, "cup product of the two simplest dual cycles",
               "anchors/witten-cup")


def test_criterion_04_oracle_equivalence():
    _criterion(4, 300.0, "brute-force enumeration equals the recursion route",
               "oracle/reduced-tree-poly", "oracle/p-family-coordinates",
               "oracle/cyclic-shuffles")


def test_criterion_05_closed_form_sweeps():
    _criterion(5, 120.0, "near-all-ones closed forms and pair coefficients",
               "sweep/closed-ones", "sweep/closed-main", "sweep/pair-closed",
               "anchors/pair-closed")


def test_criterion_06_structural_invariants():
    _criterion(6, 180.0, "structural invariants through level seven",
               "struct/reduced-poly", "struct/l-poly", "struct/g-recursion")


def test_criterion_07_matrix_duality_and_order_independence():
    _criterion(7, 120.0,
               "matrix duality, peel-order independence, b-matrix oracle, next coefficient",
               "matrix/duality", "matrix/order-independence", "oracle/b-matrix",
               "matrix/next-coefficient")


def test_criterion_08_sign_sum_and_counting_tables():
    _criterion(8, 120.0, "sign-sum tables, counting identity, cycle histogram",
               "oracle/xe-sweep", "oracle/counting-sweep", "oracle/even-cycles")


def test_criterion_09_degenerate_case():
    _criterion(9, 30.0, "degenerate zero-padded coefficients",
               "anchors/degenerate", "degenerate/inverses", "anchors/stirling")


def test_checks_outside_the_criteria_make_their_pinned_comparisons(tmp_path):
    assert list(COMPARISONS) == [name for name, _, _ in CHECKS]
    path = cache_mod.document_path(tmp_path, "table", "w2")
    cache_mod.write_atomic(path, cache_mod.canonical_json(table_document(2)))
    _assert_passes(run_checks(
        ["anchors/xe-tables", "anchors/counting", "anchors/q-t-closed", "anchors/l-poly",
         "anchors/series", "anchors/double-sum", "cache/tables", "oracle/shuffle-counts",
         "cup/symmetry"], cache_dir=tmp_path))


def _run_cli(*args, check=True):
    env = os.environ.copy()
    env.pop("KCYCLES_CACHE_DIR", None)
    env.pop("KCYCLES_CAPS", None)
    result = subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=620
    )
    if check:
        assert result.returncode == 0, (args, result.stderr)
    return result


def test_criterion_10_cli_determinism_and_full_verify(tmp_path):
    start = time.perf_counter()
    cache = tmp_path / "cache"
    deterministic_invocations = [
        ("treepoly", "2", "--variant", "reduced", "--format", "text"),
        ("treepoly", "2", "--variant", "reduced", "--format", "json"),
        ("treepoly", "3", "--variant", "full", "--format", "latex"),
        ("treepoly", "1", "--variant", "pfamily", "--format", "json"),
        ("treepoly", "2", "--variant", "l:2", "--format", "json"),
        ("coeff", "b", "--lambda", "1,1", "--mu", "2"),
        ("coeff", "a", "--lambda", "1,1,1", "--mu", "3"),
        ("cup", "--lambda", "1", "--mu", "1", "--format", "json"),
        ("witten", "--lambda", "2,1", "--format", "latex"),
        ("oracle", "counting", "4", "3"),
        ("oracle", "xe", "X1", "3", "2"),
        ("oracle", "shuffle-sum", "3,1,1"),
        ("oracle", "treepoly", "3"),
        ("--cache-dir", str(cache), "verify", "--level", "quick"),
    ]
    for args in deterministic_invocations:
        first = _run_cli(*args)
        second = _run_cli(*args)
        assert first.stdout == second.stdout, args
        assert first.stdout.endswith("\n"), args
    # table files are byte-identical on rerun
    out = tmp_path / "table-w4.json"
    _run_cli("--cache-dir", str(cache), "table", "--weight", "4", "--out", str(out))
    bytes_one = out.read_bytes()
    _run_cli("--cache-dir", str(cache), "table", "--weight", "4", "--out", str(out))
    assert out.read_bytes() == bytes_one

    verify_start = time.perf_counter()
    result = _run_cli("--cache-dir", str(cache), "verify", "--level", "full")
    verify_elapsed = time.perf_counter() - verify_start
    assert result.stdout.splitlines()[-1].startswith("OK:")
    # the report's bytes: one PASS line per registry check, then the summary
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "82c177c867c770b6527c043c58d39d6cbbbfa96c9965b40dadb264d1bf26d327")
    assert verify_elapsed < 600.0, f"full verify took {verify_elapsed:.0f}s"
    _finish(10, 900.0, start, "CLI determinism and full self-verification")
