"""Command-line front end: subcommands, exit codes, report formats."""

import hashlib
import json
import os
import subprocess
import sys

import jsonschema
import pytest

import weylracah
from weylracah import cli, run_cli
from weylracah.report import timed_check

REPORT_SCHEMA = {
    "type": "object",
    "required": ["suite", "context", "checks", "summary"],
    "additionalProperties": False,
    "properties": {
        "suite": {"type": "string"},
        "context": {
            "type": "object",
            "required": ["n", "k_mode"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer"},
                "k_mode": {"type": "string", "enum": ["symbolic", "numeric"]},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "desc", "equal", "ms"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "desc": {"type": "string"},
                    "equal": {"type": "boolean"},
                    "ms": {"type": "number"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["passed", "failed"],
            "additionalProperties": False,
            "properties": {
                "passed": {"type": "integer"},
                "failed": {"type": "integer"},
            },
        },
    },
}


def test_verify_embedding_passes(capsys):
    assert run_cli(["verify", "--suite", "embedding", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    assert [line for line in out.splitlines() if line.startswith("  [ok ] C(")]


def test_verify_embedding_check_count(capsys):
    run_cli(["verify", "--suite", "embedding", "--n", "4", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    pair_checks = [c for c in data["checks"] if c["id"].startswith("C(")]
    assert len(pair_checks) == 6
    assert data["summary"]["failed"] == 0


def test_verify_rejects_small_n(capsys):
    assert run_cli(["verify", "--suite", "embedding", "--n", "2"]) == 2
    assert "at least 3" in capsys.readouterr().err


def test_verify_unknown_suite():
    assert run_cli(["verify", "--suite", "nonsense", "--n", "4"]) == 2


def test_json_schema(capsys):
    for suite in ("sln", "lemma1", "racah", "embedding"):
        assert run_cli(["verify", "--suite", suite, "--n", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        jsonschema.validate(data, REPORT_SCHEMA)
        assert data["suite"] == suite
        assert data["summary"]["passed"] == len(data["checks"])


def test_all_suite_prefixes_ids(capsys):
    assert run_cli(["verify", "--suite", "all", "--n", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, REPORT_SCHEMA)
    heads = {c["id"].split(":", 1)[0] for c in data["checks"]}
    assert {"hom", "mem", "lemma1", "racah", "embed"} <= heads


def test_text_and_json_agree(capsys):
    run_cli(["verify", "--suite", "lemma1", "--n", "4"])
    text = capsys.readouterr().out
    run_cli(["verify", "--suite", "lemma1", "--n", "4", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert f"summary: {data['summary']['passed']} passed, 0 failed" in text


def test_deterministic_modulo_timing(capsys):
    def snapshot():
        run_cli(["verify", "--suite", "embedding", "--n", "3", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        for check in data["checks"]:
            check["ms"] = 0.0
        return data

    assert snapshot() == snapshot()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert (
        run_cli(
            ["verify", "--suite", "embedding", "--n", "3", "--format", "json", "--out", str(target)]
        )
        == 0
    )
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text())
    jsonschema.validate(data, REPORT_SCHEMA)


def test_normalize(capsys):
    assert run_cli(["normalize", "--n", "4", "--expr", "d1 u1 - u1 d1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_normalize_parse_error(capsys):
    assert run_cli(["normalize", "--n", "4", "--expr", "d1 +"]) == 2
    assert "position" in capsys.readouterr().err


def test_normalize_index_error(capsys):
    assert run_cli(["normalize", "--n", "4", "--expr", "T[2,2]"]) == 2


def test_commute(capsys):
    assert run_cli(["commute", "--n", "4", "--lhs", "d1", "--rhs", "u1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_commute_lemma_instance(capsys):
    assert run_cli(["commute", "--n", "3", "--lhs", "T[2,1]", "--rhs", "d1"]) == 0
    assert capsys.readouterr().out.strip() == "-2 u1 d1 + k"


def test_matrix_dump(capsys):
    code = run_cli(
        ["matrix", "--n", "4", "--k", "1", "--nu", "1/2,3/2,5/2,7/2", "--op", "C[1,2]"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["6", "1", "0"]


def test_matrix_leakage_exit_code(capsys):
    assert run_cli(["matrix", "--n", "4", "--k", "1", "--nu", "1,1,1,1", "--op", "u1"]) == 1
    assert "leakage" in capsys.readouterr().err


def test_matrix_bad_nu_count(capsys):
    assert run_cli(["matrix", "--n", "4", "--k", "1", "--nu", "1,2", "--op", "d1"]) == 2


def test_matrix_bad_nu_value(capsys):
    assert run_cli(["matrix", "--n", "4", "--k", "1", "--nu", "a,b,c,d", "--op", "d1"]) == 2


def test_usage_error():
    assert run_cli([]) == 2
    assert run_cli(["verify"]) == 2


def test_module_invocation_subprocess():
    # the child imports the package from where this test process found it
    package_root = os.path.dirname(os.path.dirname(weylracah.__file__))
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "weylracah", "normalize", "--n", "3", "--expr", "Td[1]"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-2 u1 d1 + k"


def test_verification_failure_exit_code(capsys, monkeypatch):
    # corrupt one embedding coefficient: the suite must exit nonzero
    import weylracah.embed as embed_mod

    original = embed_mod.embedded_c_pair

    def corrupted(ctx, i, j):
        expr = original(ctx, i, j)
        if tuple(sorted((i, j))) == (1, 3):
            expr = expr + (2 * ctx.ring.nu(1)) * embed_mod.l_op(ctx, "L1", 3)
        return expr

    monkeypatch.setattr(embed_mod, "embedded_c_pair", corrupted)
    assert run_cli(["verify", "--suite", "embedding", "--n", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_report_golden_digest(capsys):
    # the full n = 4 report, timings dropped, pinned to its recorded digest
    assert run_cli(["verify", "--suite", "all", "--n", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["checks"]) == 197
    for check in data["checks"]:
        del check["ms"]
    text = json.dumps(data, sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "4e7b50ca6d78922ed3d3a56e40484955d2903830d59968a710279301bcacb55c"


def test_raising_check_fails_alone():
    def build():
        raise ZeroDivisionError("broken build")

    check = timed_check("boom", "a check that raises", build)
    assert not check.equal
    assert check.lhs == "ZeroDivisionError: broken build"

    class Incomparable:
        def __eq__(self, other):
            raise RuntimeError("no comparison")

    check = timed_check("cmp", "a comparison that raises", lambda: (Incomparable(), 0))
    assert not check.equal
    assert check.lhs == "RuntimeError: no comparison"


def test_raising_check_keeps_the_report(capsys, monkeypatch):
    # a foreign leaf makes the (1,3) tree fail to evaluate inside C(1,3)
    import weylracah.embed as embed_mod

    original = embed_mod.embedded_c_pair

    def broken(ctx, i, j):
        expr = original(ctx, i, j)
        if tuple(sorted((i, j))) == (1, 3):
            expr = embed_mod.EmbeddedExpr(ctx, embed_mod.SumNode((expr.tree, "junk")))
        return expr

    monkeypatch.setattr(embed_mod, "embedded_c_pair", broken)
    assert run_cli(["verify", "--suite", "embedding", "--n", "4", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    checks = {c["id"]: c for c in data["checks"]}
    assert not checks["prov(1,3)"]["equal"] and not checks["C(1,3)"]["equal"]
    later = data["checks"][list(checks).index("C(1,3)") + 1 :]
    assert len(later) == 8 and all(c["equal"] for c in later)
    assert data["summary"] == {"passed": len(data["checks"]) - 2, "failed": 2}

    assert run_cli(["verify", "--suite", "embedding", "--n", "4"]) == 1
    out = capsys.readouterr().out
    fail = [line.split()[1] for line in out.splitlines() if "[FAIL]" in line]
    assert fail == ["prov(1,3)", "C(1,3)"]
    assert "lhs: TypeError: not a provenance node: 'junk'" in out


class Reached(Exception):
    """Raised by a stand-in for work that an input guard must prevent."""


def refuse(*args, **kwargs):
    raise Reached


def test_n_limit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "RacahContext", refuse)
    for n in ("13", "1000000000"):
        assert run_cli(["normalize", "--n", n, "--expr", "d1"]) == 2
        assert "at most 12" in capsys.readouterr().err
    assert run_cli(["verify", "--suite", "sln", "--n", "13"]) == 2
    with pytest.raises(Reached):
        run_cli(["normalize", "--n", "12", "--expr", "d1"])


def test_matrix_basis_limit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "to_matrix", refuse)
    args = ["matrix", "--n", "3", "--nu", "1,2,3", "--op", "d1", "--k"]
    assert run_cli(args + ["2000"]) == 2
    assert "2001 basis monomials, limit is 2000" in capsys.readouterr().err
    with pytest.raises(Reached):
        run_cli(args + ["1999"])


def test_matrix_nu_grammar(capsys):
    base = ["matrix", "--n", "3", "--k", "1", "--op", "d1", "--nu"]
    for nu in ("1,2,1e3", "0.5,1,2", "1,+2,3", "1,2,3/0"):
        assert run_cli(base + [nu]) == 2
        assert "could not parse rationals" in capsys.readouterr().err
    assert run_cli(base + ["-1/2, 3 ,7/4"]) == 0
