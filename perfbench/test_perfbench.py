"""Self-tests of the benchmark: counters against hand counts, failure
accounting, and BENCHMARK.json against the metric catalogue.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads
from metrics import END_TO_END, PER_LAYER, REPORT_ONLY, WORKLOADS, layer_metrics
from sphere_forge import homology, minimality
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_counters_match_hand_counts_on_join_cone_2_2():
    """join-cone n=2 d=2 is a 2-sphere with f = (7, 15, 10)."""
    with Tracer() as tracer:
        bundle = workloads.C.build_join_cone_sphere(2, 2)
        assert workloads.verify(bundle, 7) == 2
    values, missing = layer_metrics(tracer, Counter())
    assert missing == {}
    # one 10-facet build
    assert values["constructions.facets_built"] == 10
    # the top check, 7 vertex links (cycles), then 2 * 15 = 30 links of
    # their vertices (pairs of points, which stop the recursion)
    assert values["homology.sphere_check_calls"] == 1 + 7 + 30
    assert values["homology.link_checks"] == 7 + 30
    assert values["complex_core.link_calls"] == 7 + 30
    # homology: 2 matrices for K and 1 per vertex link; then one top
    # matrix each for the kernels of K and L in degree_by_cycle and for
    # the kernel of K in the battery
    assert values["homology.boundary_matrix_calls"] == 2 + 7 + 3
    assert values["homology.boundary_matrix_useful_ratio"] == (2 + 7 + 1) / 12
    assert values["homology.smith_normal_form_calls"] == 2 + 7
    # ranks: 6 + 9 for K, (m - 1) for a link cycle on m vertices
    assert values["homology.snf_rank_total"] == 6 + 9 + (30 - 7)
    assert values["homology.snf_input_nnz"] == 2 * 15 + 3 * 10 + 2 * 30
    assert values["homology.kernel_basis_calls"] == 3
    # build, top check, 7 link checks, source and target orientation in
    # degree_by_counting, source orientation in the battery
    assert values["complex_core.pseudomanifold_check_useful_ratio"] == (1 + 7 + 1) / 12
    assert values["orientation.coherent_orientation_calls"] == 3
    assert values["simplicial_map.check_simplicial_calls"] == 2
    assert homology.sphere_check.__name__ == "sphere_check"
    assert not hasattr(homology.sphere_check, "__wrapped__")


def test_wrong_answers_and_crashes_count_as_failures(monkeypatch):
    build = workloads.C.build_join_cone_sphere
    monkeypatch.setattr(
        workloads.C,
        "build_join_cone_sphere",
        lambda *args: dataclasses.replace(build(*args), expected_degree=5),
    )
    rng = random.Random(7)
    todo = [
        workloads.Item("wrong", workloads.bundle_item("build_join_cone_sphere", (2, 2), rng)),
        workloads.Item("raises", workloads.bundle_item("build_join_cone_sphere", (1, 2), rng)),
        workloads.Item("right", workloads.bundle_item("build_double_cone_sphere", (3, 1, "odd"), rng)),
    ]
    outcomes = workloads.run_items(todo)
    assert [o.name for o in outcomes] == ["wrong", "raises", "right"]
    assert outcomes[0].layer == "simplicial_map"
    assert "expected 5" in outcomes[0].detail
    assert outcomes[1].layer == "constructions"
    assert outcomes[1].detail.startswith("PreconditionFailed")
    assert outcomes[2].layer is None


def test_counter_the_program_no_longer_exposes_is_missing(monkeypatch):
    monkeypatch.delattr(minimality, "worker_count")
    with Tracer() as tracer:
        pass
    values, missing = layer_metrics(tracer, Counter())
    assert "minimality.survey_workers" not in values
    assert missing == {"minimality.survey_workers": "sphere_forge.minimality has no worker_count"}


def test_counter_the_program_cannot_give_is_missing_not_a_failure(monkeypatch):
    """A matrix with no dense ``entries`` (as a sparse engine would pass)
    leaves the call and the other counters intact."""

    @dataclasses.dataclass(frozen=True)
    class Sparse:
        rows: int
        cols: int

    def snf(M):
        return homology.SNFResult((1,), 1)

    monkeypatch.setattr(homology, "smith_normal_form", snf)
    with Tracer() as tracer:
        assert homology.smith_normal_form(Sparse(2, 3)) == homology.SNFResult((1,), 1)
        K = workloads.C.build_join_cone_sphere(2, 2).source
        homology.boundary_matrix(K=K, k=1)  # arguments by keyword are read too
    values, missing = layer_metrics(tracer, Counter())
    assert list(missing) == ["homology.snf_input_nnz"]
    assert "AttributeError" in missing["homology.snf_input_nnz"]
    assert values["homology.smith_normal_form_calls"] == 1
    assert values["homology.snf_rank_total"] == 1
    assert values["homology.boundary_matrix_cells"] == 7 * 15
    assert values["homology.boundary_matrix_useful_ratio"] == 1.0


def test_sampler_keeps_its_own_time_out_of_the_clock():
    with hostspeed.Sampler() as sampler:
        start, stolen, begun = sampler.clock(), sampler.stolen, perf_counter()
        while perf_counter() - begun < 0.35:
            pass
        measured = sampler.clock() - start
        sampling = sampler.stolen - stolen
    assert len(sampler.samples) >= 3  # one on entry, then one every 0.1 s
    assert sampling > 0
    assert abs(measured + sampling - (perf_counter() - begun)) < 0.05
    assert sampler.scale() > 0


def test_seed_fixes_inputs():
    def names(seed):
        return [item.name for item in workloads.items("sweep", random.Random(seed))]

    assert names(3) == names(3)
    assert names(3) != names(4)
    assert len(names(3)) == 76


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _how in PER_LAYER if name not in REPORT_ONLY
    ]


def test_run_refuses_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no sphere_forge sources" in proc.stderr
