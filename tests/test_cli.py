import json

from sphere_forge.cli import main, run_build, run_degree, run_verify
from sphere_forge.formats import (
    bundle_to_json,
    complex_to_json,
    map_to_text,
)
from sphere_forge import build_join_cone_sphere, swap_map


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


def test_verify_minimality_restricted(capsys):
    rc = main(["verify", "minimality", "--max-v", "5", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["census_sizes"] == {"4": 1, "5": 1}


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


def test_run_helpers_return_results():
    result = run_build("stacked", n=3)
    assert result.exit_code == 0 and "degree 4" in result.text
    report = run_verify("disc-signs", d=4)
    assert report.exit_code == 0
