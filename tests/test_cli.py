"""Command line contract: exit codes, determinism, file round-trips."""
import inspect
import json
import time

import pytest

from gradedrings import builders, cli, oracle
from gradedrings.algebra import GradedAlgebra
from gradedrings.analysis import CheckResult
from gradedrings.bimodule import Verdict
from gradedrings.builders import galois_skew_example, group_algebra
from gradedrings.cli import ORACLE_WHATS, PROPERTIES, main, parse_field, parse_group, run_check
from gradedrings.errors import InvalidInput
from gradedrings.groups import cyclic_group, symmetric_group, trivial_group
from gradedrings.linalg import GF, RATIONALS
from gradedrings.serialize import MAX_TOTAL_DIM, algebra_to_obj, load_algebra, save_algebra


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


@pytest.mark.parametrize("name", ["z2x", "xz2", "z1x", "z2xxz3", "x", ""])
def test_group_names_with_an_empty_factor_exit_2(name, capsys):
    # a name that splits into an empty factor once named a smaller group
    with pytest.raises(InvalidInput):
        parse_group(name)
    with pytest.raises(InvalidInput):
        cli.group_order(name)
    assert main(["build", "group-algebra", "--field", "gf2", "--group", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_group_order_reads_the_name():
    assert cli.group_order("z2xs3") == 12
    assert cli.group_order("v4xtrivial") == 4
    assert cli.group_order("s100000") > MAX_TOTAL_DIM
    for name in ("z" + "9" * 5000, "z\u00b2"):  # past int()'s digit limit; a digit int() refuses
        with pytest.raises(InvalidInput):
            cli.group_order(name)


@pytest.mark.parametrize(
    "argv",
    [
        ["galois-skew", "--p", "2", "--n", "33"],
        ["group-algebra", "--field", "gf2", "--group", "z100000"],
        ["group-algebra", "--field", "q", "--group", "s9"],
        ["group-algebra", "--field", "gf2", "--group", "x".join(["z2"] * 11)],
    ],
    ids=["galois-skew", "cyclic", "symmetric", "product"],
)
def test_build_refuses_oversize_before_building(argv, monkeypatch, capsys):
    def built(*args, **kwargs):
        raise AssertionError("an oversize request built something")

    for name in ("cyclic_group", "symmetric_group", "group_algebra", "galois_skew_example"):
        monkeypatch.setattr(cli, name, built)
    monkeypatch.setattr(builders, "cyclic_group", built)
    start = time.perf_counter()
    assert main(["build", *argv]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"over the limit of {MAX_TOTAL_DIM}" in err


def test_build_skew_group_refuses_oversize_before_building(tmp_path, monkeypatch, capsys):
    # base dimension 4 times |Z/300| = 1200; sigma is never read
    base_path = tmp_path / "base.json"
    save_algebra(group_algebra(GF(2), cyclic_group(4)), base_path)
    monkeypatch.setattr(cli, "cyclic_group", lambda n: pytest.fail("built a group"))
    for kind in ("skew-group", "crossed-product"):
        argv = ["build", kind, "--base", str(base_path), "--group", "z300", "--sigma", "unread.json"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: build {kind} would have total dimension 1200, over the limit of {MAX_TOTAL_DIM}\n"
        )


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


def _set(key, value):
    def edit(obj):
        obj[key] = value
    return edit


def _set_names(value):
    def edit(obj):
        obj["group"]["names"] = value
    return edit


def _set_p(value):
    def edit(obj):
        obj["field"]["p"] = value
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
        # 5 and null raised TypeError; a string or an object was read as its
        # characters or keys, and [0, 1] as the names "0" and "1"
        (_set_names(5), "group names must be a list of strings"),
        (_set_names(None), "group names must be a list of strings"),
        (_set_names("01"), "group names must be a list of strings"),
        (_set_names({"0": 0, "1": 1}), "group names must be a list of strings"),
        (_set_names([0, 1]), "group names must be a list of strings"),
        (_set("meta", [1, 2]), "meta must be a JSON object"),
        (_set("meta", "x"), "meta must be a JSON object"),
        (_set("meta", 5), "meta must be a JSON object"),
        # read as "no products", {} would give an algebra that fails `valid`
        (_set("structure", {}), "structure must be a list"),
        # a name outside the group was dropped, and the rest read as valid
        (_set("components", {"0": 1, "1": 1, "2": 0}), "'2', which is no group element"),
        # refused by its size, before any trial division
        (_set_p(100000000000000003), "prime < 2**31"),
    ],
    ids=[
        "dim-string", "dim-float", "dim-bool", "dim-negative", "total-dim-over-cap",
        "index-float", "index-bool", "index-negative",
        "table-string", "table-float", "table-bool",
        "names-int", "names-null", "names-string", "names-object", "names-ints",
        "meta-list", "meta-string", "meta-int", "structure-object", "components-extra-name",
        "p-huge",
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


MALFORMED_SCALARS = [
    (field, value, where)
    for field, values in (
        ("gf2", [1.5, True, "1", None, [1]]),
        ("q", [0.5, "1/0", "abc", True, None]),
    )
    for value in values
    for where in ("structure", "unit")
]


@pytest.mark.parametrize(
    "field,value,where",
    MALFORMED_SCALARS,
    ids=[f"{f}-{json.dumps(v)}-{w}" for f, v, w in MALFORMED_SCALARS],
)
def test_malformed_scalars_rejected_exit_2(tmp_path, capsys, field, value, where):
    # the load path only decodes rational strings; the GradedAlgebra
    # constructor checks every scalar, in structure rows and unit alike
    obj = algebra_to_obj(group_algebra(parse_field(field), cyclic_group(2)))
    vec = obj["structure"][0][4] if where == "structure" else obj["unit"]
    vec[0] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["check", str(path), "--property", "valid"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def _build_from_files(tmp_path, field, sigma, alpha=None):
    """Exit code of `build skew-group`, or of `build crossed-product` when
    alpha is given, over the one-dimensional base `field` and Z/2."""
    base_path = tmp_path / "base.json"
    save_algebra(group_algebra(parse_field(field), trivial_group()), base_path)
    (tmp_path / "sigma.json").write_text(json.dumps(sigma))
    kind = "skew-group" if alpha is None else "crossed-product"
    argv = ["build", kind, "--base", str(base_path), "--group", "z2"]
    argv += ["--sigma", str(tmp_path / "sigma.json")]
    if alpha is not None:
        (tmp_path / "alpha.json").write_text(json.dumps(alpha))
        argv += ["--alpha", str(tmp_path / "alpha.json")]
    return main(argv)


FILE_SCALARS = [(field, value) for field, value, where in MALFORMED_SCALARS if where == "unit"]


@pytest.mark.parametrize("option", ["sigma", "alpha"])
@pytest.mark.parametrize(
    "field,value", FILE_SCALARS, ids=[f"{f}-{json.dumps(v)}" for f, v in FILE_SCALARS]
)
def test_malformed_sigma_and_alpha_scalars_rejected_exit_2(tmp_path, capsys, option, field, value):
    # sigma and alpha values are decoded as algebra files are, and Matrix or
    # GradedAlgebra.element checks them: one error line, in the same words
    obj = algebra_to_obj(group_algebra(parse_field(field), cyclic_group(2)))
    obj["unit"][0] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["check", str(path), "--property", "valid"]) == 2
    want = capsys.readouterr().err
    if option == "sigma":
        code = _build_from_files(tmp_path, field, {"1": [[value]]})
    else:
        code = _build_from_files(tmp_path, field, {"1": [[1]]}, {"1,1": [value]})
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.err == want


@pytest.mark.parametrize("value", ["10", None, [1, 0]], ids=["string", "null", "too-long"])
def test_cocycle_value_not_a_list_of_base_scalars_exit_2(tmp_path, capsys, value):
    assert _build_from_files(tmp_path, "gf2", {"1": [[1]]}, {"1,1": value}) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "cocycle value for '1,1' must be a list of 1 scalars" in captured.err


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


def test_inverse_outside_the_inverse_component_exit_4(tmp_path, capsys):
    # the table has an identity and two-sided inverses but no Latin rows:
    # b a = e while b^-1 = b.  The unit y of R_b has inverse x, in R_a
    obj = {
        "field": {"type": "GF", "p": 2},
        "group": {"names": ["e", "a", "b"], "table": [[0, 1, 2], [1, 0, 2], [2, 0, 0]]},
        "components": {"e": 1, "a": 1, "b": 1},
        "structure": [
            [0, 0, 0, 0, [1]], [0, 0, 1, 0, [1]], [0, 0, 2, 0, [1]], [1, 0, 0, 0, [1]],
            [2, 0, 0, 0, [1]], [1, 0, 1, 0, [1]], [2, 0, 1, 0, [1]], [2, 0, 2, 0, [1]],
            [1, 0, 2, 0, [0]],
        ],
        "unit": [1],
    }
    path = tmp_path / "not-latin.json"
    path.write_text(json.dumps(obj))
    for prop in ("crossed-product", "crossed-controlled"):
        assert main(["check", str(path), "--property", prop]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: inverse of a homogeneous unit is not homogeneous\n"


def test_valid_names_the_first_non_associative_group_triple(tmp_path, capsys):
    # a table with an identity and inverses that is not associative:
    # (a a) b = b but a (a b) = e
    obj = {
        "field": {"type": "GF", "p": 2},
        "group": {"names": ["e", "a", "b"], "table": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "components": {"e": 1, "a": 0, "b": 0},
        "structure": [[0, 0, 0, 0, [1]]],
        "unit": [1],
    }
    path = tmp_path / "not-a-group.json"
    path.write_text(json.dumps(obj))
    assert main(["check", str(path), "--property", "valid", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["verdict"] == "false"
    assert report["method"] == "group-axioms"
    assert report["detail"] == "associativity fails at (a, a, b)"


@pytest.mark.parametrize("field", ["gf2", "q"])
@pytest.mark.parametrize("prop", ["simple", "graded-simple", "controlled", "necessary", "subrings"])
def test_zero_structure_is_answered_not_crashed(tmp_path, capsys, field, prop):
    # R_e of dim 2 and R_1 of dim 1 with every product 0: no file of this
    # shape is a graded algebra, and every bimodule action on it has the
    # envelope 0, where is_simple leaves the decision to the spin search
    obj = algebra_to_obj(group_algebra(parse_field(field), cyclic_group(2)))
    obj.update(components={"0": 2, "1": 1}, structure=[], unit=[1, 0])
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(obj))
    code = main(["check", str(path), "--property", prop, "--json"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if prop == "subrings":
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: subring correspondence needs a controlled gradation (got false)\n"
        )
    else:
        assert code == 1 and captured.err == ""
        assert json.loads(captured.out)["verdict"] == "false"


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

    for name in ("flat_left_ops", "flat_right_ops", "mult_ops", "_ops"):
        monkeypatch.setattr(GradedAlgebra, name, refuse)
    # 2^9 seed vectors against a budget of 100
    assert main(["oracle", m3_path, "--what", what, "--budget", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("what", ORACLE_WHATS)
def test_oracle_refuses_what_its_codes_cannot_address(tmp_path, monkeypatch, capsys, what):
    # GF(3)[S4] has 3^24 seed vectors, past the 2^32 codes of the sweep's
    # arrays, so a budget above them is refused before the envelope is built
    path = tmp_path / "gf3-s4.json"
    save_algebra(group_algebra(GF(3), symmetric_group(4)), str(path))

    def refuse(*args):
        raise AssertionError("sweep rows built before the budget check")

    monkeypatch.setattr(oracle, "_row_format", refuse)
    assert main(["oracle", str(path), "--what", what, "--budget", "99999999999999999999"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("what", ORACLE_WHATS)
def test_oracle_refuses_a_memo_past_its_cap(tmp_path, monkeypatch, capsys, what):
    # GF(2)[Z/25]: 2^25 codes, one step past the memo cap of 2^24, at a
    # budget above them both, is refused before any sweep row is built
    path = tmp_path / "gf2-z25.json"
    save_algebra(group_algebra(GF(2), cyclic_group(25)), str(path))

    def refuse(*args):
        raise AssertionError("sweep rows built before the memo cap check")

    monkeypatch.setattr(oracle, "_row_format", refuse)
    assert main(["oracle", str(path), "--what", what, "--budget", str(2**26)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "memo cap" in err


def test_oracle_refuses_rationals(tmp_path, capsys):
    path = tmp_path / "qz2.json"
    main(["build", "group-algebra", "--field", "q", "--group", "z2", "--out", str(path)])
    assert main(["oracle", str(path), "--what", "sub-bimodules"]) == 2
