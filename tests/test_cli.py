"""Command line contract: exit codes, determinism, file round-trips."""
import inspect
import json

import pytest

from gradedrings import cli
from gradedrings.algebra import GradedAlgebra
from gradedrings.analysis import CheckResult
from gradedrings.bimodule import Verdict
from gradedrings.builders import galois_skew_example, group_algebra
from gradedrings.cli import ORACLE_WHATS, PROPERTIES, main, parse_field, parse_group, run_check
from gradedrings.errors import InvalidInput
from gradedrings.groups import cyclic_group
from gradedrings.linalg import GF, RATIONALS
from gradedrings.serialize import MAX_TOTAL_DIM, algebra_to_obj, load_algebra


@pytest.fixture()
def m3_path(tmp_path):
    path = tmp_path / "m3.json"
    assert main(["build", "m3", "--field", "gf2", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def gf4_path(tmp_path):
    path = tmp_path / "gf4skew.json"
    assert main(["build", "galois-skew", "--p", "2", "--n", "2", "--out", str(path)]) == 0
    return str(path)


def test_parse_field():
    assert parse_field("q") == RATIONALS
    assert parse_field("gf2") == GF(2)
    assert parse_field("GF(7)") == GF(7)
    with pytest.raises(InvalidInput):
        parse_field("gf6")
    with pytest.raises(InvalidInput):
        parse_field("real")


def test_parse_group():
    assert parse_group("z4").order == 4
    assert parse_group("v4").order == 4
    assert parse_group("s3").order == 6
    assert parse_group("trivial").order == 1
    assert parse_group("z2xz3").order == 6
    with pytest.raises(InvalidInput):
        parse_group("d8")


def test_build_m3_comp_dims(m3_path):
    alg = load_algebra(m3_path)
    assert alg.comp_dims == (5, 4)
    assert alg.field == GF(2)


def test_build_group_algebra(tmp_path):
    path = tmp_path / "z4.json"
    assert main(["build", "group-algebra", "--field", "gf3", "--group", "z4", "--out", str(path)]) == 0
    assert load_algebra(path).dim == 4


def test_build_to_stdout_is_canonical(capsys):
    assert main(["build", "group-algebra", "--field", "q", "--group", "z2"]) == 0
    first = capsys.readouterr().out
    assert main(["build", "group-algebra", "--field", "q", "--group", "z2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["field"] == {"type": "Q"}


def test_build_missing_params_exit_2(capsys):
    assert main(["build", "group-algebra", "--field", "gf2"]) == 2
    assert "needs" in capsys.readouterr().err


def test_build_skew_group_from_files(tmp_path, capsys):
    base_path = tmp_path / "base.json"
    assert main(["build", "galois-skew", "--p", "2", "--n", "2", "--out", str(tmp_path / "g.json")]) == 0
    # reuse the Galois base by writing a 2-dim field extension directly
    from gradedrings.builders import finite_field_algebra
    from gradedrings.serialize import save_algebra

    base, frob = finite_field_algebra(2, 2)
    save_algebra(base, base_path)
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(json.dumps({"1": [list(r) for r in frob.entries]}))
    out = tmp_path / "skew.json"
    code = main(
        [
            "build", "skew-group",
            "--base", str(base_path),
            "--group", "z2",
            "--sigma", str(sigma_path),
            "--out", str(out),
        ]
    )
    assert code == 0
    alg = load_algebra(out)
    assert alg.dim == 4
    # identical to the packaged Galois example up to metadata
    assert main(["check", str(out), "--property", "controlled"]) == 0


def test_build_crossed_product_with_alpha(tmp_path):
    from gradedrings.builders import finite_field_algebra
    from gradedrings.serialize import save_algebra

    base, frob = finite_field_algebra(3, 2)
    base_path = tmp_path / "gf9.json"
    save_algebra(base, base_path)
    (tmp_path / "sigma.json").write_text(json.dumps({"1": [list(r) for r in frob.entries]}))
    (tmp_path / "alpha.json").write_text(
        json.dumps({"0,0": [1, 0], "0,1": [1, 0], "1,0": [1, 0], "1,1": [2, 0]})
    )
    out = tmp_path / "crossed.json"
    code = main(
        [
            "build", "crossed-product",
            "--base", str(base_path),
            "--group", "z2",
            "--sigma", str(tmp_path / "sigma.json"),
            "--alpha", str(tmp_path / "alpha.json"),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert main(["check", str(out), "--property", "crossed-product"]) == 0


# --------------------------------------------------------------------------
# check: exit codes
# --------------------------------------------------------------------------


def test_check_m3_pins(m3_path):
    assert main(["check", m3_path, "--property", "valid"]) == 0
    assert main(["check", m3_path, "--property", "strong"]) == 0
    assert main(["check", m3_path, "--property", "graded-simple"]) == 0
    assert main(["check", m3_path, "--property", "simple"]) == 0
    assert main(["check", m3_path, "--property", "centralizer"]) == 0
    assert main(["check", m3_path, "--property", "controlled"]) == 1
    assert main(["check", m3_path, "--property", "crossed-product"]) == 1


def test_check_m3_crossed_scope_is_exhaustive(m3_path, capsys):
    assert main(["check", m3_path, "--property", "crossed-product", "--json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["proof_scope"] == "exhaustive"
    assert obj["verdict"] == "false"


def test_check_gf4_pins(gf4_path):
    assert main(["check", gf4_path, "--property", "controlled"]) == 0
    assert main(["check", gf4_path, "--property", "crossed-product"]) == 0
    assert main(["check", gf4_path, "--property", "subrings"]) == 0
    assert main(["check", gf4_path, "--property", "crossed-controlled"]) == 0
    assert main(["check", gf4_path, "--property", "picard-injective"]) == 0
    assert main(["check", gf4_path, "--property", "necessary"]) == 0


def test_check_reports_echo_seed_and_budget(gf4_path, capsys):
    assert main(["check", gf4_path, "--property", "controlled", "--seed", "5", "--budget", "4096", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["seed"] == 5
    assert obj["budget"] == 4096


def test_every_property_reports_a_check_result():
    # the 4-dim Galois skew ring is a controlled, strongly graded crossed
    # product, so no property refuses it
    alg = galois_skew_example(2, 2)
    for prop in PROPERTIES:
        report = run_check(alg, prop, seed=0, budget=65536)
        assert type(report) is CheckResult, prop
        assert report.to_json()["verdict"] == "true", prop


def test_run_check_reaches_each_check_through_the_module(monkeypatch):
    # perfbench/tracing.py times a check by rebinding its name in cli, so
    # run_check must look each check up there when it runs: a table of the
    # functions built at import would bypass the tracer
    sentinel = CheckResult("sentinel", Verdict.SKIPPED)
    names = [
        n for n, v in vars(cli).items()
        if inspect.isfunction(v) and v.__module__ == "gradedrings.analysis"
    ]
    assert len(names) == len(PROPERTIES)
    for name in names:
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: sentinel)
    alg = galois_skew_example(2, 2)
    for prop in PROPERTIES:
        assert run_check(alg, prop, seed=0, budget=65536) is sentinel, prop


def test_check_missing_file_exit_2(capsys):
    assert main(["check", "/nonexistent/x.json", "--property", "valid"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_gate_errors_exit_2(m3_path, capsys):
    assert main(["check", m3_path, "--property", "subrings"]) == 2
    assert "controlled" in capsys.readouterr().err


def test_nonpositive_budget_rejected_exit_2(m3_path, capsys):
    for argv in (
        ["check", m3_path, "--property", "simple", "--budget", "-5", "--json"],
        ["check", m3_path, "--property", "simple", "--budget", "0"],
        ["oracle", m3_path, "--what", "controlled", "--budget", "-1"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "--budget" in captured.err


def _set_dim(value):
    def edit(obj):
        obj["components"]["1"] = value
    return edit


def _set_index(value):
    def edit(obj):
        obj["structure"][0][0] = value
    return edit


def _set_table_entry(value):
    # Z/2 has 0 * 1 = 1, so an entry read as 1 would still give a group
    def edit(obj):
        obj["group"]["table"][0][1] = value
    return edit


@pytest.mark.parametrize(
    "edit,needle",
    [
        (_set_dim("x"), "dimension of component"),
        (_set_dim(1.5), "dimension of component"),
        (_set_dim(True), "dimension of component"),
        (_set_dim(-1), "dimension of component"),
        # one past the cap in total: the other component has dimension 1
        (_set_dim(MAX_TOTAL_DIM), f"exceeds the limit of {MAX_TOTAL_DIM}"),
        (_set_index(0.0), "structure index"),
        (_set_index(False), "structure index"),
        (_set_index(-1), "structure index"),
        (_set_table_entry("x"), "Cayley table"),
        (_set_table_entry(1.7), "Cayley table"),
        (_set_table_entry(True), "Cayley table"),
    ],
    ids=[
        "dim-string", "dim-float", "dim-bool", "dim-negative", "total-dim-over-cap",
        "index-float", "index-bool", "index-negative",
        "table-string", "table-float", "table-bool",
    ],
)
def test_malformed_sizes_rejected_exit_2(tmp_path, capsys, edit, needle):
    # GF(2)[Z/2]: both components are lines, so a dimension read as 1, an
    # index read as 0 or a table entry read as 1 would still give a valid
    # algebra
    obj = algebra_to_obj(group_algebra(GF(2), cyclic_group(2)))
    edit(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["check", str(path), "--property", "valid"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert needle in captured.err


def test_internal_inconsistency_exit_4(tmp_path, capsys):
    # b_{0,0} * b_{0,0} flipped from 1 to the generator of GF(4): the data is
    # no longer associative, and the unit found for R_1 stops being invertible
    obj = algebra_to_obj(galois_skew_example(2, 2))
    assert obj["structure"][0] == [0, 0, 0, 0, [1, 0]]
    obj["structure"][0][4] = [0, 1]
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(obj))
    assert main(["check", str(path), "--property", "valid"]) == 1
    capsys.readouterr()
    for prop in ("crossed-product", "crossed-controlled"):
        assert main(["check", str(path), "--property", prop]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: stored unit lost its invertibility\n"


def test_check_unknown_property_usage_error(m3_path):
    with pytest.raises(SystemExit) as exc:
        main(["check", m3_path, "--property", "bogus"])
    assert exc.value.code == 2


# --------------------------------------------------------------------------
# determinism
# --------------------------------------------------------------------------


def test_json_reports_byte_identical(m3_path, gf4_path, capsys):
    for path, prop in (
        (m3_path, "controlled"),
        (m3_path, "crossed-product"),
        (gf4_path, "subrings"),
        (gf4_path, "necessary"),
    ):
        main(["check", path, "--property", prop, "--json", "--seed", "3"])
        first = capsys.readouterr().out
        main(["check", path, "--property", prop, "--json", "--seed", "3"])
        assert capsys.readouterr().out == first


def test_build_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["build", "galois-skew", "--p", "3", "--n", "2", "--out", str(a)])
    main(["build", "galois-skew", "--p", "3", "--n", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------------------
# oracle subcommand
# --------------------------------------------------------------------------


def test_oracle_sub_bimodules(gf4_path, capsys):
    assert main(["oracle", gf4_path, "--what", "sub-bimodules", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["count"] == 4


def test_oracle_ideals_m3_sections(m3_path, capsys):
    assert main(["oracle", m3_path, "--what", "ideals", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ring"]["count"] == 2
    inner_dims = sorted(i["dim"] for i in obj["identity_component"]["ideals"])
    assert inner_dims == [0, 1, 4, 5]


def test_oracle_controlled_agrees_with_check(m3_path, gf4_path, tmp_path):
    z2 = tmp_path / "z2.json"
    main(["build", "group-algebra", "--field", "gf2", "--group", "z2", "--out", str(z2)])
    for path in (m3_path, gf4_path, str(z2)):
        assert main(["oracle", path, "--what", "controlled"]) == main(
            ["check", path, "--property", "controlled"]
        )


def test_oracle_subrings(gf4_path, capsys):
    assert main(["oracle", gf4_path, "--what", "subrings", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dims"] == [2, 4]


def test_oracle_budget_error_exit_2(m3_path, capsys):
    assert main(["oracle", m3_path, "--what", "controlled", "--budget", "4"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("what", ORACLE_WHATS)
def test_oracle_refuses_over_budget_before_building_operators(m3_path, monkeypatch, capsys, what):
    def refuse(self, *args):
        raise AssertionError("operators built before the budget check")

    for name in ("flat_left_ops", "flat_right_ops", "mult_ops"):
        monkeypatch.setattr(GradedAlgebra, name, refuse)
    # 2^9 seed vectors against a budget of 100
    assert main(["oracle", m3_path, "--what", what, "--budget", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_oracle_refuses_rationals(tmp_path, capsys):
    path = tmp_path / "qz2.json"
    main(["build", "group-algebra", "--field", "q", "--group", "z2", "--out", str(path)])
    assert main(["oracle", str(path), "--what", "sub-bimodules"]) == 2
