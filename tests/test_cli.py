import argparse
import hashlib
import inspect
import json
import shlex
from pathlib import Path

import pytest

from sphere_forge.cli import (
    _build_parser,
    main,
    run_build,
    run_degree,
    run_verify_disc_signs,
    run_verify_minimality,
)
from sphere_forge.errors import CheckFailed, PreconditionFailed, SphereForgeError
from sphere_forge.formats import (
    bundle_to_json,
    complex_to_json,
    map_to_text,
)
from sphere_forge import (
    IntegerMatrix,
    build_join_cone_sphere,
    build_stacked_sphere,
    errors,
    identity_map,
    standard_sphere,
    swap_map,
)


def test_build_writes_bundle(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    rc = main(
        [
            "build",
            "--construction",
            "join-cone",
            "--n",
            "3",
            "--d",
            "4",
            "--out",
            str(out),
        ]
    )
    captured = capsys.readouterr().out
    assert rc == 0
    assert "degree 4, 14 vertices" in captured
    payload = json.loads(out.read_text())
    assert len(payload["source"]["facets"]) == 32


def test_build_stacked_summary(capsys):
    rc = main(["build", "--construction", "stacked", "--n", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "8 vertices, 12 facets" in out


def test_build_bad_parameters(capsys):
    rc = main(["build", "--construction", "join-cone", "--n", "1", "--d", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "n >= 2" in err


@pytest.mark.parametrize(
    "construction",
    [
        ["join-cone", "--n", "2", "--d", "0"],
        ["double-cone", "--n", "3", "--d", "0", "--variant", "odd"],
        ["facet-cone", "--n", "3", "--k", "0"],
    ],
    ids=["join-cone", "double-cone", "facet-cone"],
)
def test_build_refuses_degree_zero_in_one_line(construction, capsys):
    rc = main(["build", "--construction", *construction])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_build_negative_degree_verifies_through_the_cli(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    build = ["build", "--construction", "join-cone", "--n", "3", "--d", "-2"]
    rc = main([*build, "--out", str(out)])
    assert rc == 0
    assert "join-cone n=3 d=-2: degree -2, 8 vertices" in capsys.readouterr().out
    assert main(["verify", "bundle", "--in", str(out)]) == 0
    assert "[pass] expected_degree: expected -2" in capsys.readouterr().out
    assert main(["degree", "--bundle", str(out), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counting"]["degree"] == payload["cycle"] == -2


def test_build_missing_flag(capsys):
    rc = main(["build", "--construction", "join-cone", "--n", "3"])
    assert rc == 2


def test_build_delta_out(tmp_path):
    out = tmp_path / "disc.json"
    rc = main(["build", "--construction", "delta", "--d", "5", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["facets"]) == 13
    assert sum(1 for s in payload["orientation"].values() if s == 1) == 9


def test_degree_bundle_both(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    out.write_text(bundle_to_json(build_join_cone_sphere(3, 4)))
    rc = main(["degree", "--bundle", str(out), "--method", "both"])
    text = capsys.readouterr().out
    assert rc == 0
    assert "degree = 4 (counting)" in text
    assert "degree = 4 (cycle)" in text
    assert "methods agree" in text


def test_degree_swap_bundle(tmp_path, capsys):
    out = tmp_path / "swap.json"
    out.write_text(bundle_to_json(swap_map(4)))
    rc = main(["degree", "--bundle", str(out), "--method", "counting"])
    text = capsys.readouterr().out
    assert rc == 0
    assert "degree = -1 (counting)" in text


def test_degree_complex_plus_map(tmp_path, capsys):
    bundle = build_join_cone_sphere(2, 3)
    cplx = tmp_path / "K.json"
    cplx.write_text(complex_to_json(bundle.source))
    mp = tmp_path / "f.map"
    mp.write_text(map_to_text(bundle.vertex_map))
    rc = main(["degree", "--in", str(cplx), "--map", str(mp), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert abs(payload["counting"]["degree"]) == 3
    assert payload["counting"]["degree"] == payload["cycle"]


def test_degree_corrupt_map(tmp_path, capsys):
    bundle = build_join_cone_sphere(2, 2)
    cplx = tmp_path / "K.json"
    cplx.write_text(complex_to_json(bundle.source))
    mp = tmp_path / "broken.map"
    mp.write_text("u1_1 v1 v2\n")
    rc = main(["degree", "--in", str(cplx), "--map", str(mp)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["counting", "cycle", "both"])
def test_degree_map_line_for_stray_vertex(tmp_path, capsys, method):
    bundle = build_join_cone_sphere(2, 2)
    cplx = tmp_path / "K.json"
    cplx.write_text(complex_to_json(bundle.source))
    mp = tmp_path / "f.map"
    mp.write_text(map_to_text(bundle.vertex_map) + "zz v1\n")
    rc = main(["degree", "--in", str(cplx), "--map", str(mp), "--method", method])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: map entry for vertex zz, which is not in the source\n"


def test_degree_missing_args():
    assert main(["degree"]) == 2


def test_verify_disc_signs(capsys):
    rc = main(["verify", "disc-signs", "--d", "12"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "23 positive, 11 negative" in out


def test_verify_sphere(tmp_path, capsys):
    bundle = build_join_cone_sphere(3, 4)
    path = tmp_path / "K.json"
    path.write_text(complex_to_json(bundle.source))
    rc = main(["verify", "sphere", "--in", str(path), "--n", "3", "--level", "certify"])
    assert rc == 0
    assert "[pass]" in capsys.readouterr().out


def test_verify_sphere_negative_n_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "K.json"
    path.write_text(complex_to_json(standard_sphere(2)))
    assert main(["verify", "sphere", "--in", str(path), "--n", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: sphere check needs n >= 0, got -1\n")


def test_verify_sphere_failure(tmp_path, capsys):
    path = tmp_path / "disc.json"
    from fixtures import complex_of, DELTA4_TRIANGLES

    path.write_text(complex_to_json(complex_of(DELTA4_TRIANGLES)))
    rc = main(["verify", "sphere", "--in", str(path), "--n", "2"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_bundle(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_text(bundle_to_json(build_join_cone_sphere(2, 2)))
    rc = main(["verify", "bundle", "--in", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dual_oracle_agreement" in out


def test_verify_bundle_wrong_degree(tmp_path, capsys):
    bundle = build_join_cone_sphere(2, 2)
    obj = json.loads(bundle_to_json(bundle))
    obj["expected_degree"] = 5
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(obj))
    rc = main(["verify", "bundle", "--in", str(path)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_bundle_wrong_vertex_count(tmp_path, capsys):
    obj = json.loads(bundle_to_json(build_join_cone_sphere(2, 2)))
    obj["expected_vertices"] += 1
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(obj))
    rc = main(["verify", "bundle", "--in", str(path)])
    assert rc == 1
    assert "[FAIL] vertex_count" in capsys.readouterr().out


def test_verify_bundle_vertex_mapped_twice(tmp_path, capsys):
    obj = json.loads(bundle_to_json(build_join_cone_sphere(2, 2)))
    obj["map"].insert(0, ["u1_1", "v4"])
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(obj))
    rc = main(["verify", "bundle", "--in", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: vertex u1_1 mapped twice\n"


TETRAHEDRON = [["v1", "v2", "v3"], ["v1", "v2", "v4"], ["v1", "v3", "v4"], ["v2", "v3", "v4"]]


@pytest.mark.parametrize(
    "facets, images",
    [
        # two disjoint tetrahedron boundaries
        (
            TETRAHEDRON + [[t.replace("v", "u") for t in f] for f in TETRAHEDRON],
            {f"u{i}": f"v{i}" for i in range(1, 5)},
        ),
        # a tetrahedron boundary with a dangling edge: not pure
        (TETRAHEDRON + [["u1", "v1"]], {"u1": "v2"}),
    ],
)
def test_verify_bundle_non_sphere_source_fails_sphere_check(tmp_path, capsys, facets, images):
    obj = json.loads(bundle_to_json(identity_map(2)))
    obj["source"] = {"facets": facets}
    obj["map"] += [[src, dst] for src, dst in images.items()]
    del obj["expected_vertices"]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(obj))
    rc = main(["verify", "bundle", "--in", str(path)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    assert captured.out.endswith("  [FAIL] sphere_check: level certify_low_dim\n")
    assert main(["verify", "bundle", "--in", str(path), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_verify_minimality_restricted(capsys):
    rc = main(["verify", "minimality", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["census_sizes"] == {"4": 1, "5": 1, "6": 2, "7": 5}


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--n", "3"], "verify minimality covers n = 2 only"),
        (["--n", "1"], "verify minimality covers n = 2 only"),
        (["--d", "3"], "unrecognized arguments: --d 3"),
        (["--in", "sphere.json"], "unrecognized arguments: --in sphere.json"),
    ],
)
def test_verify_minimality_refuses_options_it_does_not_use(capsys, extra, message):
    """The sweep is over 2-spheres only; an option it would ignore is a
    usage error, not a silent pass."""
    assert main(["verify", "minimality", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        ("verify disc-signs --d 3 --n 5 --in nothing.json", "--n 5 --in nothing.json"),
        ("verify minimality --level certify", "--level"),
        ("verify bundle --in b.json --level certify", "--level"),
        ("verify sphere --in K.json --d 4", "--d"),
        ("build --construction stacked --n 2 --d 7", "--d"),
        ("build --construction delta --d 2 --n 9 --variant odd", "--n"),
        ("degree --bundle b.json --map nothing.map", "--map"),
    ],
)
def test_option_the_command_does_not_read_is_a_usage_error(
    tmp_path, monkeypatch, capsys, argv, option
):
    """Each of these ran and exited 0 while ignoring the named option."""
    bundle = build_join_cone_sphere(2, 2)
    (tmp_path / "b.json").write_text(bundle_to_json(bundle))
    (tmp_path / "K.json").write_text(complex_to_json(bundle.source))
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert option in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["verify", "sphere"],
        ["build", "--construction", "nope"],
        ["degree", "--method", "x"],
    ],
)
def test_parser_usage_error_is_one_line_and_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "usage:" not in captured.err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "sphere", "--help"])
    assert exit_info.value.code == 0
    assert "--level" in capsys.readouterr().out


def test_verify_minimality_accepts_n_2(capsys):
    assert main(["verify", "minimality", "--n", "2"]) == 0
    assert "census sizes: v=4: 1, v=5: 1, v=6: 2, v=7: 5" in capsys.readouterr().out


def test_round_trip_build_read_verify(tmp_path):
    out = tmp_path / "bundle.json"
    assert (
        main(
            [
                "build",
                "--construction",
                "facet-cone",
                "--n",
                "4",
                "--k",
                "3",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    first = out.read_text()
    result = run_degree(bundle_path=str(out))
    assert result.exit_code == 0
    # rewrite and compare bytes
    from sphere_forge.formats import bundle_from_json

    assert bundle_to_json(bundle_from_json(first)) == first


def test_missing_file_is_exit_2(capsys):
    assert main(["degree", "--bundle", "/nonexistent/x.json"]) == 2
    assert main(["verify", "sphere", "--in", "/nonexistent/x.json"]) == 2


def _bind(namespace):
    """Bind a parsed namespace to its runner's signature, as main does."""
    kwargs = vars(namespace)
    run = kwargs.pop("run")
    del kwargs["command"], kwargs["format"]
    inspect.signature(run).bind(**kwargs)


def _leaf_commands(parser, prefix=()):
    """The word paths of every parser that has no subcommands."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield prefix
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaf_commands(child, prefix + (name,))


def test_every_subcommand_binds_to_its_runner():
    parser = _build_parser()
    required = {
        ("build",): ["--construction", "stacked"],
        ("degree",): [],
        ("verify", "sphere"): ["--in", "K.json"],
        ("verify", "disc-signs"): ["--d", "3"],
        ("verify", "minimality"): [],
        ("verify", "bundle"): ["--in", "b.json"],
    }
    assert set(required) == set(_leaf_commands(parser))
    for command, args in required.items():
        _bind(parser.parse_args([*command, *args, "--format", "json"]))


def test_readme_cli_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("sphere-forge ")]
    assert len(lines) >= 8
    parser = _build_parser()
    for line in lines:
        _bind(parser.parse_args(shlex.split(line)[1:]))


def test_run_helpers_return_results():
    result = run_build("stacked", n=3)
    assert result.exit_code == 0 and "degree 4" in result.text
    report = run_verify_disc_signs(d=4)
    assert report.exit_code == 0


def test_program_key_error_is_not_an_input_error(monkeypatch):
    def broken_runner(**kwargs):
        raise KeyError("a program bug")

    monkeypatch.setattr("sphere_forge.cli.run_build", broken_runner)
    with pytest.raises(KeyError):
        main(["build", "--construction", "stacked", "--n", "2"])


@pytest.mark.parametrize(
    "facets, images, failed",
    [
        (
            TETRAHEDRON + [[t.replace("v", "u") for t in f] for f in TETRAHEDRON],
            {f"u{i}": f"v{i}" for i in range(1, 5)},
            "not connected",
        ),
        (TETRAHEDRON + [["u1", "v1"]], {"u1": "v2"}, "not pure, not connected"),
    ],
)
def test_degree_on_non_pseudomanifold_source_names_the_failure(
    tmp_path, capsys, facets, images, failed
):
    obj = json.loads(bundle_to_json(identity_map(2)))
    obj["source"] = {"facets": facets}
    obj["map"] += [[src, dst] for src, dst in images.items()]
    del obj["expected_vertices"]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(obj))
    assert main(["degree", "--bundle", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "{" not in err
    assert err.rstrip().endswith(f": {failed}")


@pytest.mark.parametrize("method", ["counting", "both"])
def test_degree_on_the_empty_complex_names_it(tmp_path, capsys, method):
    """The empty complex passes the pseudomanifold check (closed and
    connected), so the orientation refuses it by name."""
    obj = json.loads(bundle_to_json(identity_map(2)))
    obj["source"] = obj["target"] = {"facets": [[]]}
    obj["map"] = []
    obj["source_base"] = obj["target_base"] = []
    del obj["expected_vertices"]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(obj))
    assert main(["degree", "--bundle", str(path), "--method", method]) == 2
    assert capsys.readouterr().err == (
        "error: orientation needs a nonempty complex, got the empty complex\n"
    )


@pytest.mark.parametrize(
    "argv,refused_by",
    [
        (["degree", "--method", "cycle", "--bundle"], "cycle degree"),
        (["verify", "bundle", "--in"], "bundle verification"),
    ],
)
def test_cycle_degree_and_bundle_check_name_the_empty_complex(
    tmp_path, capsys, argv, refused_by
):
    """Neither path orients the source first, so each refuses the empty
    complex itself, before any boundary matrix or sphere check."""
    obj = json.loads(bundle_to_json(identity_map(2)))
    obj["source"] = obj["target"] = {"facets": [[]]}
    obj["map"] = []
    obj["source_base"] = obj["target_base"] = []
    del obj["expected_vertices"]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(obj))
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {refused_by} needs a nonempty source, got the empty complex\n"
    )


@pytest.mark.parametrize(
    "argv,refused_by",
    [
        (["verify", "sphere", "--in", "K.json"], "sphere check needs --n or a nonempty complex"),
        (["degree", "--in", "K.json", "--map", "f.map"], "degree needs a nonempty complex"),
    ],
    ids=["verify sphere", "degree with a map file"],
)
def test_complex_file_commands_name_the_empty_complex(
    tmp_path, monkeypatch, capsys, argv, refused_by
):
    """The empty complex has dimension -1: the sphere battery has no
    dimension to take from it, and no standard sphere matches it."""
    monkeypatch.chdir(tmp_path)
    Path("K.json").write_text(json.dumps({"facets": [[]]}))
    Path("f.map").write_text("")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {refused_by}, got the empty complex\n"


def test_sphere_check_of_the_empty_complex_in_a_given_dimension_fails_its_item(
    tmp_path, capsys
):
    path = tmp_path / "K.json"
    path.write_text(json.dumps({"facets": [[]]}))
    assert main(["verify", "sphere", "--in", str(path), "--n", "2"]) == 1
    assert capsys.readouterr().out == (
        "sphere check (n = 2, level = necessary)\n"
        "  [FAIL] dimension: dim = -1, expected 2\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["degree", "--method", "cycle", "--bundle"],
        ["degree", "--method", "counting", "--bundle"],
        ["degree", "--method", "both", "--bundle"],
        ["verify", "bundle", "--in"],
    ],
)
def test_base_that_is_not_a_facet_is_an_input_error(tmp_path, capsys, argv):
    obj = json.loads(bundle_to_json(build_join_cone_sphere(2, 2)))
    obj["target_base"] = ["v1", "v2", "v9"]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(obj))
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr().err == "error: base [v1 v2 v9] is not a facet\n"


def test_cycle_degree_refuses_non_pure_source(tmp_path, capsys):
    # a dangling edge leaves the top kernel a line, so only the purity
    # check stops the cycle oracle
    cplx = tmp_path / "K.json"
    cplx.write_text(json.dumps({"facets": TETRAHEDRON + [["v4", "v5"]]}))
    mp = tmp_path / "f.map"
    mp.write_text("v1 v1\nv2 v2\nv3 v3\nv4 v4\nv5 v1\n")
    rc = main(["degree", "--in", str(cplx), "--map", str(mp), "--method", "cycle"])
    assert rc == 2
    assert capsys.readouterr().err == "error: cycle degree needs a pure source\n"


HIGH_DIM_NOTE = "certification is unavailable for n = 4 >= 4; only the necessary battery ran"


def test_verify_sphere_certify_above_three_reports_necessary(tmp_path, capsys):
    path = tmp_path / "K.json"
    path.write_text(complex_to_json(standard_sphere(4)))
    rc = main(["verify", "sphere", "--in", str(path), "--level", "certify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("sphere check (n = 4, level = necessary)\n")
    assert out.endswith(f"  note: {HIGH_DIM_NOTE}\n")


def test_verify_bundle_above_three_reports_necessary(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_text(bundle_to_json(build_join_cone_sphere(5, 2)))
    rc = main(["verify", "bundle", "--in", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    sphere = payload["sphere_check"]
    assert sphere["level"] == "necessary"
    assert sphere["notes"] == [HIGH_DIM_NOTE.replace("n = 4", "n = 5")]
    detail = {c["name"]: c["detail"] for c in payload["checks"]}
    assert detail["sphere_check"] == "level necessary"


@pytest.mark.parametrize("method", ["counting", "cycle", "both"])
def test_degree_map_missing_a_vertex_of_the_first_facet(tmp_path, capsys, method):
    bundle = build_join_cone_sphere(2, 2)
    left_out = bundle.source.facets[0].vertices[0]
    assignment = dict(bundle.vertex_map)
    del assignment[left_out]
    cplx = tmp_path / "K.json"
    cplx.write_text(complex_to_json(bundle.source))
    mp = tmp_path / "f.map"
    mp.write_text("".join(f"{a} {b}\n" for a, b in assignment.items()))
    rc = main(["degree", "--in", str(cplx), "--map", str(mp), "--method", method])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: map misses vertices ['{left_out}']\n"


def test_degree_text_lists_degenerate_facets(tmp_path, capsys):
    cplx = tmp_path / "K.json"
    cplx.write_text(json.dumps({"facets": TETRAHEDRON}))
    mp = tmp_path / "f.map"
    mp.write_text("v1 v1\nv2 v2\nv3 v3\nv4 v3\n")
    rc = main(["degree", "--in", str(cplx), "--map", str(mp), "--method", "counting"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "degree = 0 (counting)" in out
    assert "  degenerate facets: [v1 v3 v4], [v2 v3 v4]\n" in out


@pytest.mark.parametrize("method", ["counting", "both"])
def test_counting_degree_on_a_source_with_boundary_is_a_failed_check(tmp_path, capsys, method):
    cplx = tmp_path / "K.json"
    cplx.write_text(json.dumps({"facets": [["a1", "b1", "c1"]]}))
    mp = tmp_path / "f.map"
    mp.write_text("a1 v1\nb1 v2\nc1 v3\n")
    rc = main(["degree", "--in", str(cplx), "--map", str(mp), "--method", method])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "check failed: counting degree needs a closed source\n"


@pytest.mark.parametrize("method", ["counting", "both"])
def test_counting_degree_on_a_single_point_is_a_failed_check(tmp_path, capsys, method):
    cplx = tmp_path / "K.json"
    cplx.write_text(json.dumps({"facets": [["a"]]}))
    mp = tmp_path / "f.map"
    mp.write_text("a v1\n")
    rc = main(["degree", "--in", str(cplx), "--map", str(mp), "--method", method])
    assert rc == 1
    assert capsys.readouterr() == ("", "check failed: counting degree needs a closed source\n")


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        pytest.param(cls, 1, "check failed", id=cls.__name__)
        for cls in (CheckFailed, *CheckFailed.__subclasses__())
    ]
    + [pytest.param(PreconditionFailed, 2, "error", id="PreconditionFailed")],
)
def test_the_error_family_alone_sets_the_exit_code(monkeypatch, capsys, error, code, prefix):
    def failing_runner(**kwargs):
        raise error("the message")

    monkeypatch.setattr("sphere_forge.cli.run_build", failing_runner)
    assert main(["build", "--construction", "stacked", "--n", "2"]) == code
    assert capsys.readouterr() == ("", f"{prefix}: the message\n")


def test_every_library_error_belongs_to_one_of_two_families():
    for cls in vars(errors).values():
        if isinstance(cls, type) and issubclass(cls, SphereForgeError):
            assert cls in (SphereForgeError, PreconditionFailed) or issubclass(
                cls, CheckFailed
            ), cls


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: run_build("join-cone", n=2), "--d is required for join-cone"),
        (lambda: run_build("stacked", n=2, d=3), "--d is not used by stacked"),
        (lambda: run_degree("b.json", map_path="f.map"), "--map is not used with --bundle"),
        (lambda: run_degree(complex_path="K.json"), "need --bundle, or both --in and --map"),
        (lambda: run_verify_minimality(n=3), "verify minimality covers n = 2 only"),
        (lambda: _build_parser().parse_args(["build"]), "the following arguments are required"),
        (lambda: standard_sphere(-1), "^standard_sphere needs n >= 0$"),
        (lambda: swap_map(0), "^swap_map needs n >= 1$"),
        (lambda: IntegerMatrix.from_rows([[1, 2], [3]]), "^ragged matrix rows$"),
    ],
    ids=[
        "missing-flag",
        "unused-flag",
        "bundle-with-map",
        "no-input",
        "minimality-n",
        "parser",
        "standard-sphere-n",
        "swap-map-n",
        "ragged-rows",
    ],
)
def test_usage_errors_are_precondition_failures(call, message):
    """So ``main`` needs only the two error families for its exit code."""
    with pytest.raises(PreconditionFailed, match=message):
        call()


# sha256 of the name, exit code, stdout and stderr of each JSON report
# below, recorded while the report records built their own JSON
REPORT_JSON_DIGEST = "5322da9827140990d35a27dbf2c021b2e971ebdf8ea203cd2902401f9e9db7ef"
REPORT_GRID = [(build_join_cone_sphere, (n, d)) for n in (2, 3) for d in (-2, 1, 3)] + [
    (build_stacked_sphere, (n,)) for n in (2, 3)
]


def test_report_json_digest(tmp_path, monkeypatch, capsys):
    """The sphere battery at both levels, the bundle battery and the
    three degree methods keep the bytes of their JSON reports."""
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for build, args in REPORT_GRID:
        bundle = build(*args)
        Path("b.json").write_text(bundle_to_json(bundle))
        Path("K.json").write_text(complex_to_json(bundle.source))
        for argv in (
            "verify sphere --in K.json --level necessary",
            "verify sphere --in K.json --level certify",
            "verify bundle --in b.json",
            "degree --bundle b.json --method counting",
            "degree --bundle b.json --method cycle",
            "degree --bundle b.json --method both",
        ):
            code = main([*shlex.split(argv), "--format", "json"])
            out, err = capsys.readouterr()
            digest.update(f"{bundle.label}: {argv} -> {code}\n{out}{err}".encode())
    assert digest.hexdigest() == REPORT_JSON_DIGEST
