"""Per-layer measurements of kcycles, one task per fresh interpreter.

Run as ``python3 perfbench/layers.py TASK --seed N --work DIR`` with the
package's ``src`` directory on PYTHONPATH.  The task imports kcycles,
times calls to its public functions inside spans, checks their results,
and prints one JSON object as its last line: the spans, the per-layer
metrics and the list of failed checks.

Each task runs in its own interpreter because the treepoly level caches
are module globals with no reset, so a cold build can be measured only
once per process.  Coefficient work uses fresh ``CoeffTable`` instances
and keeps every prewarm outside the timed span.  Nothing here builds a
level above 5.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# The partitions the peel5 workload draws from: smallest part 5, weight
# 10-13.  Peeling the 5 enumerates the compositions of the rest into 11
# slots, C(w + 5, 10) of them, so from weight 14 on one draw would cost
# half a second or more beyond the others and the seed, not the code, would
# move the workload's time.
PEEL_CHOICES = ((5, 5), (6, 5), (7, 5), (8, 5))

Q_EVAL_CALLS = {4: 400, 5: 60}


class Tracer:
    """Spans kept in memory: name, start, end and the enclosing span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def duration(record: dict) -> float:
    return record["end"] - record["start"]


def peel_partitions(rng: random.Random) -> list[tuple[int, ...]]:
    """The two partitions a peel5 run queries."""
    return rng.sample(PEEL_CHOICES, 2)


def odd_tuples(rng: random.Random, k: int, count: int) -> list[tuple[int, ...]]:
    """Points shaped like the ones b_extend passes to q_eval at level k:
    a composition of a weight 4-10 into 2k+1 slots, mapped to odd entries."""
    out = []
    for _ in range(count):
        weight = rng.randint(4, 10)
        cuts = [0] + sorted(rng.randint(0, weight) for _ in range(2 * k)) + [weight]
        comp = [b - a for a, b in zip(cuts, cuts[1:])]
        out.append((2 * comp[0] + 3,) + tuple(2 * x + 1 for x in comp[1:]))
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Task:
    """One task's measurements: its spans, metrics and failed checks."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.work = work
        self.tracer = Tracer()
        self.metrics: dict[str, float] = {}
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def timed(self, name: str, func, calls: int = 1, scale: float = 1.0):
        """Run func inside a span named after the metric and record its
        seconds per call times scale."""
        with self.tracer.span(name) as record:
            result = func()
        self.metrics[name] = duration(record) / calls * scale
        return result

    # -- tasks --------------------------------------------------------------

    def k4(self) -> None:
        from kcycles import p_family, q_eval, reduced_tree_poly

        self.timed("treepoly.p_family_s.k4", lambda: p_family(4))
        points = odd_tuples(self.rng, 4, Q_EVAL_CALLS[4])
        values = self.timed(
            "treepoly.q_eval_us.k4", lambda: [q_eval(p) for p in points],
            calls=len(points), scale=1e6,
        )
        reduced = reduced_tree_poly(4)
        self.check(
            all(v == q_of_eval(p, reduced.eval(p)) for p, v in zip(points, values)),
            "q_eval at level 4 disagrees with the reduced polynomial's eval",
        )

    def k5(self) -> None:
        from kcycles import CoeffTable, format_rational, l_poly, p_family, q_eval
        from kcycles import partitions_of, reduced_tree_poly
        from kcycles.cache import canonical_json

        # the build runs first, so the growth of the high-water mark is its own
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        family = self.timed("treepoly.p_family_s.k5", lambda: p_family(5))
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        self.metrics["treepoly.p_family_peak_mb.k5"] = grown / 1024  # KiB on Linux
        terms = sum(len(poly) for poly in family.polys.values())
        self.metrics["treepoly.terms.k5"] = terms
        self.check(terms == REFERENCE["terms.k5"], "level-5 term count changed")
        reduced = self.timed("treepoly.reduced_s.k5", lambda: reduced_tree_poly(5))
        leafy = self.timed("treepoly.l_poly_s.k5", lambda: l_poly(5, 2))
        points = odd_tuples(self.rng, 5, Q_EVAL_CALLS[5])
        values = self.timed(
            "treepoly.q_eval_us.k5", lambda: [q_eval(p) for p in points],
            calls=len(points), scale=1e6,
        )
        evals = self.timed(
            "exact.eval_us.k5", lambda: [reduced.eval(p) for p in points],
            calls=len(points), scale=1e6,
        )
        self.check(
            all(v == q_of_eval(p, e) for p, v, e in zip(points, values, evals)),
            "q_eval at level 5 disagrees with the reduced polynomial's eval",
        )
        text = self.timed("exact.render_json_s.k5", lambda: canonical_json(reduced.to_obj()))
        self.check(sha256(text.encode()) == REFERENCE["treepoly 5 --format json"],
                   "rendered level-5 JSON differs from the reference output")
        text = self.timed("exact.render_text_s.k5", lambda: leafy.text())
        self.check(
            sha256((text + "\n").encode()) == REFERENCE["treepoly 5 --variant l:2 --format text"],
            "rendered l:2 text differs from the reference output",
        )

        table = CoeffTable()
        lams = peel_partitions(random.Random(self.seed))  # the peel5 run's partitions
        with self.tracer.span("setup.peel_prewarm"):
            for lam in lams:
                rest = lam[:-1]
                for mu in partitions_of(sum(rest)):
                    table.b_lambda_mu(rest, mu)
        peeled = self.timed(
            "coeffs.peel_s.k5", lambda: [table.b_extend(lam[:-1], 5) for lam in lams]
        )
        for lam, value in zip(lams, peeled):
            key = "coeff b --lambda " + ",".join(map(str, lam))
            self.check(sha256(f"{format_rational(value)}\n".encode()) == REFERENCE[key],
                       f"peel of {lam} differs from the reference output")

    def coeffs(self) -> None:
        from kcycles import CoeffTable, cup_coeff, p_family, partitions_of
        from kcycles import cache as cache_mod
        from kcycles.coeffs import invert_rational_matrix, table_document

        p_family(4)  # q_eval levels used by the weight-8 peels, built untimed
        table = CoeffTable()
        # The surjection sum reads only b_lambda_n, so prewarming it leaves
        # every b_lambda_mu pair of weight 8 still to compute.
        with self.tracer.span("setup.prewarm_b_lambda_n"):
            for w in range(1, 9):
                for lam in partitions_of(w):
                    table.b_lambda_n(lam)
        rows = self.timed("coeffs.surjection_s.w8", lambda: self.pairs(table, 8))
        with self.tracer.span("setup.prewarm_b_lambda_mu"):
            for w in range(1, 8):
                self.pairs(table, w)
        # every peel step a weight-8 table takes, with the b_lambda_mu it reads memoized
        peels = [lam for w in range(2, 9) for lam in partitions_of(w) if len(lam) > 1]
        peeled = self.timed(
            "coeffs.b_extend_s.w8", lambda: [table.b_extend(lam[:-1], lam[-1]) for lam in peels]
        )
        self.check(peeled == [table.b_lambda_n(lam) for lam in peels],
                   "b_extend disagrees with the memoized b_lambda_n")
        self.timed("coeffs.invert_s.w8", lambda: invert_rational_matrix(rows))

        doc = table_document(8, table)
        path = cache_mod.document_path(self.work, "table", "w8")
        self.timed("cache.write_s.w8",
                   lambda: cache_mod.write_atomic(path, cache_mod.canonical_json(doc)))
        self.check(sha256(path.read_bytes()) == REFERENCE["table-w8"],
                   "weight-8 table document differs from the reference")
        loaded = self.timed("cache.load_s.w8", lambda: cache_mod.load_document(path))
        self.check(loaded == doc, "cached weight-8 table does not load back equal")
        self.metrics["cache.bytes.w8"] = path.stat().st_size

        small = [lam for w in range(1, 6) for lam in partitions_of(w)]
        pairs = [(a, b) for a in small for b in small if sum(a) + sum(b) <= 6]
        cups = CoeffTable()
        products = self.timed(
            "coeffs.cup_s", lambda: [cups.cup_coeff(a, b) for a, b in pairs]
        )
        self.check(
            all(p == cup_coeff(b, a) for (a, b), p in zip(pairs, products)),
            "cup product is not symmetric",
        )

    def verify(self) -> None:
        from kcycles import run_verify

        empty = self.work / "verify-cache"
        empty.mkdir()
        report = self.timed("verify.quick_s", lambda: run_verify("quick", cache_dir=empty))
        self.check(report.ok, "verify --level quick failed")

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def pairs(table, weight: int) -> list[list]:
        from kcycles import partitions_of

        parts = partitions_of(weight)
        return [[table.b_lambda_mu(lam, mu) for mu in parts] for lam in parts]


def q_of_eval(point, reduced_value):
    """q_eval from a value of the reduced polynomial, as its docstring defines it."""
    denominator, partial = 1, 0
    for value in point[:-1]:
        partial += value
        denominator *= partial
    return Fraction(point[0] * reduced_value) / denominator


TASKS = ("k4", "k5", "coeffs", "verify")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    task = Task(args.seed, args.work)
    getattr(task, args.task)()
    print(json.dumps({"spans": task.tracer.spans, "metrics": task.metrics,
                      "errors": task.errors}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
