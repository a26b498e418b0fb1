"""Write reference.json: digests of what the kcycles CLI prints for every
command the benchmark runs, plus the level-5 term count.

    python3 perfbench/make_reference.py

Run it at the commit whose outputs are the reference (the benchmark's
first commit); afterwards the benchmark counts any output that differs
from these bytes as a failed command.  layers.py reads reference.json
when imported, so a first run needs a placeholder file holding ``{}``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import PEEL_CHOICES
from run import BENCH, OUT, ROOT, WARMUP, Launcher, child_env, cli, sha256

COMMANDS = [
    WARMUP,
    ["treepoly", "5", "--format", "json"],
    ["treepoly", "5", "--variant", "l:2", "--format", "text"],
    ["cup", "--lambda", "5", "--mu", "5"],
    ["verify", "--level", "quick"],
] + [
    ["coeff", "b", "--lambda", ",".join(map(str, lam))]
    for lam in PEEL_CHOICES
]

TERMS = (
    "from kcycles import p_family; "
    "print(sum(len(p) for p in p_family(5).polys.values()))"
)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT))
    try:
        reference = {}
        with Launcher(work) as launch:
            for args in COMMANDS:
                child = cli(launch, args, work / "cache")
                if child.returncode != 0:
                    raise SystemExit(f"{args} exited {child.returncode}: {child.stderr}")
                reference[" ".join(args)] = sha256(child.stdout)
            child = cli(launch, ["table", "--weight", "8"], work / "cache")
        if child.returncode != 0:
            raise SystemExit(f"table exited {child.returncode}: {child.stderr}")
        reference["table-w8"] = sha256((work / "cache" / "table-w8.v1.json").read_bytes())
        terms = subprocess.run([sys.executable, "-c", TERMS], env=child_env(), cwd=ROOT,
                               capture_output=True, text=True, check=True)
        reference["terms.k5"] = int(terms.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
