"""The verify runner called in-process: the cache directory as an argument,
and the state that one run of checks holds."""

import json
import os
import subprocess
import sys
from collections import Counter

from kcycles import cache as cache_mod
from kcycles import oracles, treepoly, verify
from kcycles.cache import SCHEMA_VERSION
from kcycles.coeffs import shared_table, table_document
from kcycles.verify import run_checks, run_verify


def _write_table(cache_dir, weight):
    path = cache_mod.document_path(cache_dir, "table", f"w{weight}")
    cache_mod.write_atomic(path, cache_mod.canonical_json(table_document(weight)))
    return path


def test_cache_dir_argument(tmp_path):
    tampered = tmp_path / "tampered"
    path = _write_table(tampered, 2)
    doc = json.loads(path.read_text())
    doc["b"][0][0] = "1/121"
    path.write_text(cache_mod.canonical_json(doc))
    report = run_verify("quick", cache_dir=tampered)
    assert [r.name for r in report.results if not r.ok] == ["cache/tables"]

    clean = tmp_path / "clean"
    _write_table(clean, 2)
    report = run_verify("quick", cache_dir=clean)
    assert report.ok
    cache_check = next(r for r in report.results if r.name == "cache/tables")
    assert cache_check.lhs == "1 comparisons"  # the one table was compared


def test_cache_file_that_is_not_text_fails_the_cache_check(tmp_path):
    path = _write_table(tmp_path, 2)
    path.write_bytes(b"\xff" + path.read_bytes())
    report = run_verify("quick", cache_dir=tmp_path)
    assert [r.name for r in report.results if not r.ok] == ["cache/tables"]


def test_table_paths_read_the_weight_off_the_name(tmp_path):
    # the cache check reads the weight off the name: table-w<digits>, then
    # anything after a dot, then the versioned suffix, in sorted path order
    suffix = f"v{SCHEMA_VERSION}.json"
    for stem in ("w-1", "w08", "w10", "w2", "w8.old", "w8x", "w\u00b2", "w3.v0"):
        (tmp_path / f"table-{stem}.{suffix}").write_text("{}")
    (tmp_path / f"table-w3.v{SCHEMA_VERSION + 1}.json").write_text("{}")
    assert [(weight, path.name) for weight, path in cache_mod.table_paths(tmp_path)] == [
        (8, f"table-w08.{suffix}"), (10, f"table-w10.{suffix}"), (2, f"table-w2.{suffix}"),
        (3, f"table-w3.v0.{suffix}"), (8, f"table-w8.old.{suffix}"),
    ]
    assert cache_mod.table_paths(tmp_path / "absent") == []


def test_stray_cache_name_is_skipped(tmp_path):
    (tmp_path / "table-w-1.v1.json").write_text("{}\n")
    report = run_verify("quick", cache_dir=tmp_path)
    assert report.ok
    cache_check = next(r for r in report.results if r.name == "cache/tables")
    assert cache_check.lhs == "0 comparisons"


def test_cache_file_with_a_bad_header_fails_without_a_build(tmp_path):
    # the name claims weight 40, which no check budget could build; the
    # content is not a table document, so the file fails as it is.  A
    # subprocess, so that a build which does start is cut off by the timeout
    (tmp_path / "table-w40.v1.json").write_text("{}")
    env = {k: v for k, v in os.environ.items() if k != "KCYCLES_CACHE_DIR"}
    result = subprocess.run(
        [sys.executable, "-m", "kcycles.cli", "--cache-dir", str(tmp_path),
         "verify", "--level", "quick"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert result.returncode == 4
    failed = [line for line in result.stdout.splitlines() if line.startswith("FAIL ")]
    assert [line.split(":")[0] for line in failed] == ["FAIL cache/tables"]


def test_a_run_walks_each_reduced_level_once(monkeypatch):
    builds = Counter()

    def counting(k):
        builds[k] += 1
        return treepoly.reduced_tree_poly(k)

    monkeypatch.setattr(verify, "reduced_tree_poly", counting)
    # the enumerated levels take seconds and walk no production level, so the
    # production walk stands in for them here; criterion 4 runs the enumeration
    monkeypatch.setattr(oracles, "reduced_tree_poly_bruteforce", treepoly.reduced_tree_poly)
    # the registry checks that read reduced tree levels, 0-7 between them
    names = ["anchors/reduced-polys", "oracle/reduced-tree-poly", "oracle/even-cycles",
             "struct/reduced-poly"]
    assert all(result.ok for result in run_checks(names))
    assert builds == Counter(range(8))
    # a run drops its levels: the next one walks them again, and
    # struct/reduced-poly alone reads all eight
    assert all(result.ok for result in run_checks(["struct/reduced-poly"]))
    assert builds == Counter(2 * list(range(8)))


def test_a_run_leaves_the_shared_table_as_it_was(tmp_path):
    shared = shared_table()
    memos = ("_scales", "_brows", "_arows", "_kernels")
    before = {name: dict(getattr(shared, name)) for name in memos}
    assert run_verify("quick", cache_dir=tmp_path).ok
    assert all(result.ok for result in run_checks(["matrix/duality"], cache_dir=tmp_path))
    assert {name: dict(getattr(shared, name)) for name in memos} == before
