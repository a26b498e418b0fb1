"""End-to-end tests of the command-line interface (subprocess level)."""

import gc
import hashlib
import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "kcycles.cli"]


def run_cli(*args, env_extra=None, text=True):
    env = os.environ.copy()
    env.pop("KCYCLES_CACHE_DIR", None)
    env.pop("KCYCLES_CAPS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=text, env=env, timeout=300
    )


def test_treepoly_text():
    result = run_cli("treepoly", "1", "--variant", "reduced", "--format", "text")
    assert result.returncode == 0
    assert result.stdout == "x0*x2 + x1*x2\n"


def test_treepoly_full_k0():
    result = run_cli("treepoly", "0", "--variant", "full")
    assert result.returncode == 0
    assert result.stdout == "x0\n"


def test_treepoly_json_schema():
    from kcycles.treepoly import l_poly

    result = run_cli("treepoly", "1", "--variant", "l:1", "--format", "json")
    assert result.returncode == 0
    obj = json.loads(result.stdout)
    assert obj == l_poly(1, 1).to_obj()
    exps = [entry["exp"] for entry in obj]
    assert exps == sorted(exps)  # canonical ordering


def test_treepoly_pfamily():
    result = run_cli("treepoly", "1", "--variant", "pfamily")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0].startswith("P[1] = ")
    assert lines[1].startswith("P[3] = ")


def test_treepoly_level_six_json_pinned():
    # no brute-force oracle reaches level 6, so the stdout bytes are pinned to
    # the digest the earlier x-coordinate build printed
    result = run_cli("treepoly", "6", "--format", "json")
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == "df9a5fcb607d1a013f285a08934ac9bb5d5e28a0381622c8d8f9f62a9a7ee31d"


# sha256 of stdout as printed when each document was built in memory and
# printed whole; the json and l:2 text documents also match the bench
# reference digests of perfbench/reference.json
TREEPOLY_DIGESTS = {
    ("5", "--format", "json"):
        "d03131a4b8546582a63f86de7691ad4dd002769d9005ac7ed10e83593d9eea50",
    ("5", "--variant", "l:2", "--format", "text"):
        "4354df5696c9aceccdedbda173e83d15a8a8f4c1dcda6403521702e1b04ca442",
    ("5", "--variant", "l:2", "--format", "latex"):
        "131ea6003046394b4c5bdb14ecb4912a6505c7dae82314d9e357d17a8914fe6a",
    ("5", "--variant", "pfamily", "--format", "json"):
        "66b431d1a5f51a4f979f6bebfc603aa3f7faa6dd723501117592e61247adddf2",
    ("5", "--variant", "pfamily", "--format", "text"):
        "2487b8ee061d8f4fdd27648c9c628aa2d16fcd8e4a853e093d28d82910335514",
    ("5", "--variant", "full", "--format", "json"):
        "7aacd4a04df3933acd4cfc89243644658ef813498fc0b018dbbb1034d5cd4776",
    ("5", "--variant", "full", "--format", "text"):
        "8573a82ebba7ee60555c26d3de502808171a93856742f3dc32c48d2adec03c29",
    # level 6 in the two renderers its JSON digest leaves open, as the
    # bytes-keyed term stores printed them
    ("6", "--format", "text"):
        "c6425c2022b4a79ba6c67a43bb0bc4bf62f306f1ba871c5c13e3b88b68cc4ecf",
    ("6", "--variant", "l:1", "--format", "latex"):
        "e4dc8a1dae9f1b98d9f2275f979fb1763e4c77eb12d8e9487480db847a374c69",
    # the one LaTeX output with negative coefficients, an offset run in
    # LaTeX, and level 6 with large coefficients in text, as the head/tail
    # renderers printed them
    ("5", "--variant", "pfamily", "--format", "latex"):
        "4c766bd70361880292f0d9b0342100fa0dd6890da43f10c9afc51bab405defaa",
    ("5", "--variant", "full", "--format", "latex"):
        "cb2d9afb61912dd731f3681a1ba3765c8d8fd52e7347d699b94d07fe400e7c84",
    ("6", "--variant", "l:2", "--format", "text"):
        "3fa973a0a36c3a848d2c04418df64064101fd7a3da12199fb34866ef7f378976",
}


@pytest.mark.parametrize("args", sorted(TREEPOLY_DIGESTS))
def test_treepoly_level_five_outputs_pinned(args):
    result = run_cli("treepoly", *args)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == TREEPOLY_DIGESTS[args]


# sha256 of level-7 stdout as the x-store renderers printed it; the 112 MB
# JSON document is read as bytes, with no decoded copy
@pytest.mark.parametrize(("fmt", "digest"), [
    ("text", "3cef865b44539efb8175372529d5417c70ab4b043a6b753d8074260c6084b948"),
    ("json", "f0cc0548f3e4beec6ce2a9b61cfb652cc9918518bd45d8ebc7a494c7ae184011"),
])
def test_treepoly_level_seven_pinned(fmt, digest):
    result = run_cli("treepoly", "7", "--format", fmt, text=False)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == digest


@pytest.mark.parametrize("k", range(5))
def test_treepoly_variants_render_as_their_multipolys(k, capsys):
    # every variant in every format prints what its MultiPoly renders; k = 0
    # has one variable and a constant term, k = 1 a two-variable head
    from kcycles import cli
    from kcycles.treepoly import l_poly, p_family, tree_poly

    polys = {"reduced": l_poly(k, 0), "full": tree_poly(k),
             "l:1": l_poly(k, 1), "l:3": l_poly(k, 3)}
    family = p_family(k).polys
    for fmt in ("text", "json", "latex"):
        if fmt == "json":
            expected = {v: json.dumps(p.to_obj(), indent=2) for v, p in polys.items()}
            expected["pfamily"] = json.dumps(
                {"k": k, "polys": {str(c): p.to_obj() for c, p in family.items()}}, indent=2)
        else:
            expected = {v: "".join(p.term_pieces(fmt == "latex")) for v, p in polys.items()}
            expected["pfamily"] = "\n".join(
                f"P[{c}] = " + "".join(p.term_pieces(fmt == "latex"))
                for c, p in family.items())
        for variant, text in expected.items():
            assert cli.main(["treepoly", str(k), "--variant", variant, "--format", fmt]) == 0
            assert capsys.readouterr().out == text + "\n", (variant, fmt)


def test_coeff_values():
    assert run_cli("coeff", "b", "--lambda", "1,1", "--mu", "2").stdout == "29/720\n"
    assert run_cli("coeff", "a", "--lambda", "1,1,1", "--mu", "3").stdout == "20736\n"
    # --mu defaults to the one-part partition of the weight
    assert run_cli("coeff", "b", "--lambda", "3").stdout == "1/1680\n"
    assert run_cli("coeff", "b", "--lambda", "2,1", "--mu", "2,1").stdout == "-1/1440\n"


def test_coeff_weight_mismatch_is_usage_error():
    for kind in ("b", "a"):
        result = run_cli("coeff", kind, "--lambda", "1,1", "--mu", "3")
        assert result.returncode == 2
        assert "weight mismatch" in result.stderr


def test_internal_arithmetic_error_exit_code(monkeypatch, capsys):
    from kcycles import cli

    def broken(args):
        raise ArithmeticError("closed form produced a non-integer: 1/2")

    # a bad value is still a usage error
    assert cli.main(["coeff", "b", "--lambda", "1,1", "--mu", "3"]) == cli.EXIT_USAGE
    monkeypatch.setattr(cli, "cmd_coeff", broken)
    assert cli.main(["coeff", "b", "--lambda", "1"]) == cli.EXIT_ARITH == 6
    assert "non-integer" in capsys.readouterr().err


def test_family_past_the_level_limit_prints_nothing(capsys):
    # the level is refused before the first byte of any format is written
    from kcycles import cli

    for fmt in ("text", "json", "latex"):
        assert cli.main(["treepoly", "31", "--variant", "pfamily", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "exceeds the packed-exponent limit" in err


def test_bad_partition_is_usage_error():
    assert run_cli("coeff", "b", "--lambda", "1,x").returncode == 2
    assert run_cli("coeff", "b", "--lambda", "0,1").returncode == 2
    assert run_cli("treepoly", "2", "--variant", "nope").returncode == 2
    assert run_cli("oracle", "shuffle-sum", "2,1,1").returncode == 2
    assert run_cli("oracle", "shuffle-sum", "1,1").returncode == 2


def test_cup_outputs():
    text = run_cli("cup", "--lambda", "1", "--mu", "1")
    assert text.stdout == "2: 29/5\n1,1: 2\n"
    js = run_cli("cup", "--lambda", "1", "--mu", "1", "--format", "json")
    obj = json.loads(js.stdout)
    assert obj["terms"] == {"2": "29/5", "1,1": "2"}
    assert obj["lambda"] == [1] and obj["mu"] == [1]
    assert obj["version"] == 1
    empty_mu = run_cli("cup", "--lambda", "1")
    assert empty_mu.stdout == "1: 1\n"


def test_witten_outputs():
    text = run_cli("witten", "--lambda", "1,1,1")
    assert text.stdout == "3: 20736\n2,1: 4176\n1,1,1: 288\n"
    latex = run_cli("witten", "--lambda", "1,1,1", "--format", "latex")
    assert latex.stdout == (
        "20736\\,\\tilde{\\kappa}_{3} + 4176\\,\\tilde{\\kappa}_{2} "
        "\\tilde{\\kappa}_{1} + 288\\,\\tilde{\\kappa}_{1}^{3}\n"
    )


# sha256 of stdout as printed when cup and witten each had a renderer of
# their own; the last two as printed when every a-coefficient came from
# inverting the whole weight matrix
EXPANSION_DIGESTS = {
    ("cup", "--lambda", "1", "--mu", "1", "--format", "text"):
        "190586a8a6855c2f9023bea2394d4c445c902f61ec5f5210b16a69a1b84e7cae",
    ("cup", "--lambda", "1", "--mu", "1", "--format", "json"):
        "bdc2a95f2dffa8c652fa66ecacec41c2f1b07ae6ec3120690bfb00392556c70f",
    ("cup", "--lambda", "1", "--mu", "1", "--format", "latex"):
        "b3398267917d677eaaa37d686828f9b9a691a2ca2b55dc1cf1d132dc3e7bff9e",
    ("cup", "--lambda", "2,1", "--mu", "1", "--format", "text"):
        "8dcf5cb54483043f6e07f2f310a36f88299c838f372f4d484a774b7d0aaa85b5",
    ("cup", "--lambda", "2,1", "--mu", "1", "--format", "json"):
        "73a50ce9a8a50c619eab2aa54a8a98393b1ccb2c8e32f76c506978d459eae082",
    ("cup", "--lambda", "2,1", "--mu", "1", "--format", "latex"):
        "0225c4b8885c7a61fe9a1a39b3f18a4a449b98dbbc0ec88913f0132b5b0dfb01",
    ("witten", "--lambda", "2,1", "--format", "text"):
        "4a4b60468c7385c0a3b1769b19972a01cf27e555fa0423f69ab27482992cfefc",
    ("witten", "--lambda", "2,1", "--format", "json"):
        "95148d30c92d565e5c0356e7bee637729abb7c778ad115046e0774868d302f34",
    ("witten", "--lambda", "2,1", "--format", "latex"):
        "2e65f12d50593f0085f98436eaf8575d755536cac8b14137ce3dd214ba583ba3",
    ("witten", "--lambda", "4,3,3,2", "--format", "text"):
        "301da70d55b53502ad0182155a4a98a43b4529c14c39caef6534e844953ee4fd",
    ("cup", "--lambda", "3,2", "--mu", "4,1", "--format", "text"):
        "d292968a563fb769fc0404f962d7d744dc422ed9daa7033d87f7c49f039cb404",
}


@pytest.mark.parametrize("args", sorted(EXPANSION_DIGESTS))
def test_expansion_outputs_pinned(args):
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == EXPANSION_DIGESTS[args]


def test_oracle_counting():
    result = run_cli("oracle", "counting", "4", "3")
    assert result.returncode == 0
    assert "brute-force: -16" in result.stdout
    assert "verdict: equal" in result.stdout


def test_oracle_xe():
    result = run_cli("oracle", "xe", "X0", "2", "2")
    assert result.returncode == 0
    assert result.stdout.endswith("verdict: equal\n")


# sha256 of the whole `oracle treepoly k` stdout: both polynomials'
# MultiPoly.text() at level 2, their term counts and coefficient sums at
# level 4, and the verdict, as printed when MultiPoly still took Fractions
ORACLE_TREEPOLY_DIGESTS = {
    "2": "3d77e9adc8578cd0dbaa26d18f422054090038e6be5a58be2c77892d88ad1cb0",
    "4": "b5e6779f529b26a98dbf1fb8e9f23f8b04c33abc5989787cd8fc9dbb08dcd502",
}


def test_oracle_treepoly_small():
    for k, digest in ORACLE_TREEPOLY_DIGESTS.items():
        result = run_cli("oracle", "treepoly", k)
        assert result.returncode == 0
        assert "verdict: equal" in result.stdout
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


# sha256 of the whole `oracle shuffle-sum` stdout: the enumerated sign sum,
# the tree polynomial at the point and the verdict, as printed when the
# reference was q_eval times the shuffle count, a Fraction
SHUFFLE_SUM_DIGESTS = {
    "3,1,1": "2560fc366b342b3493232f3bdc6df309c0fdeeb5408d14a7ea79902b2660f9a1",
    "3,1,1,1,1": "d1542e5edf61dd6417ed839e9b46a9317a01f40afef205dd0924fa00ba86c6d3",
    "5,3,1": "0cf64f0faf59790fb0f648c45f113bdd510965c25771fecaa5cd60d84b662212",
    "1,3,1,3,1": "82893ead0a570fd05e5d8765df2178af46d61359e09b3863cb7cf3be6544a90f",
}


@pytest.mark.parametrize("values", sorted(SHUFFLE_SUM_DIGESTS))
def test_oracle_shuffle_sum_pinned(values):
    result = run_cli("oracle", "shuffle-sum", values)
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == SHUFFLE_SUM_DIGESTS[values]


def test_cap_exceeded_exit_code():
    result = run_cli("oracle", "shuffle-sum", "13")
    assert result.returncode == 3
    assert "cap" in result.stderr
    # flag override lifts the cap; (13,) has a single shuffle word
    assert run_cli("--cap-letters", "13", "oracle", "shuffle-sum", "13").returncode == 0
    # environment override works too, flag wins over it
    assert (
        run_cli("oracle", "shuffle-sum", "13", env_extra={"KCYCLES_CAPS": "letters=13"})
        .returncode
        == 0
    )
    assert (
        run_cli(
            "--cap-letters", "11", "oracle", "shuffle-sum", "13",
            env_extra={"KCYCLES_CAPS": "letters=13"},
        ).returncode
        == 3
    )


@pytest.mark.parametrize(
    "args, oracle",
    [
        (("counting", "10", "8"), "counting_identity_bruteforce"),
        (("xe", "X0", "7", "7"), "shuffle_sign_sum_bruteforce"),
    ],
)
def test_flagless_cap_names_its_parameter(args, oracle):
    # these caps have no flag, so the message points at the Python parameter
    result = run_cli("oracle", *args)
    assert result.returncode == 3
    assert result.stdout == ""
    assert f"raise it with cap= of kcycles.oracles.{oracle} " in result.stderr


def test_negative_cap_is_usage_error():
    for flag, command in (("--cap-trees", ("oracle", "treepoly", "0")),
                          ("--cap-letters", ("oracle", "shuffle-sum", "13"))):
        result = run_cli(flag, "-1", *command)
        assert result.returncode == 2, flag
        assert "bad cap" in result.stderr, flag


def test_startup_loads_only_what_commands_run():
    # one process, so whatever `site` preloads is in both snapshots
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kcycles\n"
        "package = set(sys.modules) - before\n"
        "import kcycles.cli\n"
        "print(' '.join(sorted(package)))\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, check=True)
    package, cli = (set(line.split()) for line in result.stdout.splitlines())
    assert not {name for name in package if name.startswith("kcycles.")}
    assert "kcycles.cli" in cli
    deferred = {"kcycles.verify", "kcycles.stats", "dataclasses", "inspect", "json", "hashlib"}
    assert not cli & deferred


def _buffered_env():
    # with PYTHONUNBUFFERED set, each write reaches the fd at once and fails
    # inside the command; these tests need the buffered stdout of a shell
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_to_stdout_is_io_error():
    # the output is short enough to sit in the buffer until the last flush
    with open("/dev/full", "w") as full:
        result = subprocess.run(CLI + ["coeff", "b", "--lambda", "5,5"], stdout=full,
                                stderr=subprocess.PIPE, text=True,
                                env=_buffered_env(), timeout=300)
    assert result.returncode == 5
    assert result.stderr == "error: [Errno 28] No space left on device\n"


def test_reader_closing_the_pipe_is_io_error():
    proc = subprocess.Popen(CLI + ["treepoly", "5", "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_buffered_env())
    # the 0.8 MB document cannot fit in the pipe: the writer is still busy
    assert proc.stdout.read(100).startswith(b"[")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 5
    assert stderr == "error: [Errno 32] Broken pipe\n"


def test_only_the_entry_point_freezes_the_collector(capsys):
    from kcycles import cli

    script = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count()))\n"
        "sys.argv = ['kcycles', 'coeff', 'b', '--lambda', '1']\n"
        "from kcycles.cli import run\n"
        "run()\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    value, frozen = result.stdout.splitlines()
    assert value == "1/12"
    assert int(frozen) > 0
    before = gc.get_freeze_count()
    assert cli.main(["coeff", "b", "--lambda", "1"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "1/12\n"
    assert gc.get_freeze_count() == before


def test_table_idempotent_and_cached(tmp_path):
    out = tmp_path / "w3.json"
    cache = tmp_path / "cache"
    first = run_cli("--cache-dir", str(cache), "table", "--weight", "3", "--out", str(out))
    assert first.returncode == 0
    bytes_one = out.read_bytes()
    second = run_cli("--cache-dir", str(cache), "table", "--weight", "3", "--out", str(out))
    assert second.returncode == 0
    assert out.read_bytes() == bytes_one
    doc = json.loads(bytes_one)
    assert doc["weight"] == 3 and doc["version"] == 1
    assert doc["order"] == [[3], [2, 1], [1, 1, 1]]
    assert doc["b"][2][0] == "263/6720"
    cached = list(cache.glob("table-w3.v1.json"))
    assert len(cached) == 1


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_the_umask(tmp_path, umask, mode):
    # the child inherits the umask; the files get what open(path, "w") gives
    out, cache = tmp_path / "w1.json", tmp_path / "cache"
    old = os.umask(umask)
    try:
        result = run_cli("--cache-dir", str(cache), "table", "--weight", "1", "--out", str(out))
    finally:
        os.umask(old)
    assert result.returncode == 0
    for path in (out, next(cache.glob("table-w1.v1.json"))):
        assert path.stat().st_mode & 0o777 == mode


def test_table_weight_zero_and_negative(tmp_path):
    out = tmp_path / "w0.json"
    cache = tmp_path / "cache"
    result = run_cli("--cache-dir", str(cache), "table", "--weight", "0", "--out", str(out))
    assert result.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["order"] == [[]]
    assert doc["b"] == doc["a"] == [["1"]]
    negative = run_cli("--cache-dir", str(cache), "table", "--weight", "-1")
    assert negative.returncode == 2
    assert "weight >= 0" in negative.stderr


def test_verify_detects_tampered_cache(tmp_path):
    cache = tmp_path / "cache"
    assert run_cli("--cache-dir", str(cache), "table", "--weight", "2").returncode == 0
    ok = run_cli("--cache-dir", str(cache), "verify", "--level", "quick")
    assert ok.returncode == 0
    path = next(cache.glob("table-w2.v1.json"))
    doc = json.loads(path.read_text())
    doc["b"][0][0] = "1/121"  # tamper
    path.write_text(json.dumps(doc, indent=2) + "\n")
    bad = run_cli("--cache-dir", str(cache), "verify", "--level", "quick")
    assert bad.returncode == 4
    assert "FAIL cache/tables" in bad.stdout


def test_cache_file_that_is_not_text_is_rebuilt(tmp_path):
    cache = tmp_path / "cache"
    assert run_cli("--cache-dir", str(cache), "table", "--weight", "2").returncode == 0
    path = next(cache.glob("table-w2.v1.json"))
    canonical = path.read_bytes()
    path.write_bytes(b"\xff" + canonical)
    bad = run_cli("--cache-dir", str(cache), "verify", "--level", "quick")
    assert bad.returncode == 4
    assert "FAIL cache/tables" in bad.stdout
    assert run_cli("--cache-dir", str(cache), "table", "--weight", "2").returncode == 0
    assert path.read_bytes() == canonical


# sha256 of the `verify --level quick` report; the benchmark's peel5
# workload checks the same bytes
VERIFY_QUICK_DIGEST = "24286e09152eff5da5adc808634814096a0776b3d2933728b01303fbdbae694a"


def test_verify_quick_deterministic(tmp_path):
    cache = tmp_path / "cache"
    one = run_cli("--cache-dir", str(cache), "verify", "--level", "quick")
    two = run_cli("--cache-dir", str(cache), "verify", "--level", "quick")
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout
    assert one.stdout.endswith("checks passed\n")
    assert hashlib.sha256(one.stdout.encode()).hexdigest() == VERIFY_QUICK_DIGEST


@pytest.mark.parametrize(
    "args",
    [
        ("treepoly", "2", "--variant", "reduced", "--format", "json"),
        ("treepoly", "2", "--variant", "full", "--format", "latex"),
        ("coeff", "b", "--lambda", "2,1"),
        ("cup", "--lambda", "1", "--mu", "2", "--format", "json"),
        ("witten", "--lambda", "2,1"),
        ("oracle", "xe", "X2", "1", "1"),
    ],
)
def test_commands_byte_identical(args):
    one = run_cli(*args)
    two = run_cli(*args)
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout
