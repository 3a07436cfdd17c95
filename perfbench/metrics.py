"""Metric catalogue: every metric the benchmark reports, with its unit,
its direction and how it is computed.

BENCHMARK.json lists the same end-to-end and per-layer metrics; a
self-test keeps the two in step.
"""

from __future__ import annotations

from collections import Counter

from tracer import LAYERS, TRACED

WORKLOADS = ("sweep", "large", "minimality")

# (name, unit, better); measured with tracing off, times at reference
# host speed (hostspeed.py)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("item_gmean_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_BUILDERS = tuple(f"constructions.{name}" for name in TRACED["constructions"])

# (name, unit, better, how).  how is one of
#   ("self", function...)          summed self time
#   ("calls", function)            number of calls
#   ("count", key, function...)    a tracer counter read from those calls
#   ("useful", key, function)      distinct inputs (counter key) per call
#   ("errors", layer)              failed items blamed on the layer
PER_LAYER = (
    # Smith normal form
    ("homology.smith_normal_form_s", "s", "lower", ("self", "homology.smith_normal_form")),
    ("homology.smith_normal_form_calls", "count", "lower", ("calls", "homology.smith_normal_form")),
    ("homology.snf_rank_total", "count", "lower", ("count", "homology.snf_rank_total", "homology.smith_normal_form")),
    ("homology.snf_input_nnz", "count", "lower", ("count", "homology.snf_input_nnz", "homology.smith_normal_form")),
    # boundary matrices and repeated work
    ("homology.boundary_matrix_s", "s", "lower", ("self", "homology.boundary_matrix")),
    ("homology.boundary_matrix_cells", "count", "lower", ("count", "homology.boundary_matrix_cells", "homology.boundary_matrix")),
    ("homology.boundary_matrix_calls", "count", "lower", ("calls", "homology.boundary_matrix")),
    ("homology.boundary_matrix_useful_ratio", "ratio", "higher", ("useful", "homology.boundary_matrix_inputs", "homology.boundary_matrix")),
    ("complex_core.pseudomanifold_check_useful_ratio", "ratio", "higher", ("useful", "complex_core.pseudomanifold_check_inputs", "complex_core.pseudomanifold_check")),
    # kernels and homology groups
    ("homology.kernel_basis_s", "s", "lower", ("self", "homology.kernel_basis")),
    ("homology.kernel_basis_calls", "count", "lower", ("calls", "homology.kernel_basis")),
    ("homology.homology_groups_s", "s", "lower", ("self", "homology.homology_groups")),
    # sphere battery and links
    ("homology.sphere_check_s", "s", "lower", ("self", "homology.sphere_check")),
    ("homology.sphere_check_calls", "count", "lower", ("calls", "homology.sphere_check")),
    ("homology.link_checks", "count", "lower", ("count", "homology.link_checks", "homology.sphere_check")),
    ("complex_core.link_s", "s", "lower", ("self", "complex_core.link")),
    ("complex_core.link_calls", "count", "lower", ("calls", "complex_core.link")),
    # orientation and the degree oracles
    ("orientation.coherent_orientation_s", "s", "lower", ("self", "orientation.coherent_orientation")),
    ("orientation.coherent_orientation_calls", "count", "lower", ("calls", "orientation.coherent_orientation")),
    ("orientation.fundamental_cycle_s", "s", "lower", ("self", "orientation.fundamental_cycle")),
    ("simplicial_map.degree_by_counting_s", "s", "lower", ("self", "simplicial_map.degree_by_counting")),
    ("simplicial_map.degree_by_cycle_s", "s", "lower", ("self", "simplicial_map.degree_by_cycle")),
    ("simplicial_map.check_simplicial_s", "s", "lower", ("self", "simplicial_map.check_simplicial")),
    ("simplicial_map.check_simplicial_calls", "count", "lower", ("calls", "simplicial_map.check_simplicial")),
    # construction
    ("constructions.build_s", "s", "lower", ("self",) + _BUILDERS),
    ("constructions.facets_built", "count", "lower", ("count", "constructions.facets_built") + _BUILDERS),
    ("disc_delta.build_delta_s", "s", "lower", ("self", "disc_delta.build_delta")),
    ("complex_core.make_complex_s", "s", "lower", ("self", "complex_core.make_complex")),
    ("complex_core.boundary_complex_s", "s", "lower", ("self", "complex_core.boundary_complex")),
    ("complex_core.join_s", "s", "lower", ("self", "complex_core.join")),
    ("complex_core.pseudomanifold_check_s", "s", "lower", ("self", "complex_core.pseudomanifold_check")),
    # formats
    ("formats.bundle_to_json_s", "s", "lower", ("self", "formats.bundle_to_json")),
    ("formats.bundle_from_json_s", "s", "lower", ("self", "formats.bundle_from_json")),
    ("formats.bundle_json_bytes", "count", "lower", ("count", "formats.bundle_json_bytes", "formats.bundle_to_json")),
    # minimality
    ("minimality.enumerate_2spheres_s", "s", "lower", ("self", "minimality.enumerate_2spheres")),
    ("minimality.census_classes", "count", "lower", ("count", "minimality.census_classes", "minimality.enumerate_2spheres")),
    ("minimality.degree_survey_s", "s", "lower", ("self", "minimality.degree_survey")),
    ("minimality.degree_survey_calls", "count", "lower", ("calls", "minimality.degree_survey")),
    ("minimality.survey_workers", "count", "lower", ("count", "minimality.survey_workers", "minimality.worker_count")),
) + tuple((f"{layer}.errors", "count", "lower", ("errors", layer)) for layer in LAYERS)

# Times that are exactly zero on some workload by design (no link
# recursion at n = 5; no census or survey outside `minimality`).  They
# are printed in the traced report but kept out of the result line,
# whose times must never read the same on every run.
REPORT_ONLY = frozenset(
    {
        "complex_core.link_s",
        "minimality.enumerate_2spheres_s",
        "minimality.degree_survey_s",
    }
)


def _needs(how) -> tuple[str, ...]:
    """Traced functions and tracer counters a metric is read from."""
    kind, *rest = how
    return () if kind == "errors" else tuple(rest)


def layer_metrics(tracer, blamed: Counter) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, and the metrics the program no
    longer exposes with the reason."""
    self_times = tracer.self_times()
    values: dict = {}
    missing: dict = {}
    for name, _unit, _better, how in PER_LAYER:
        gone = [fn for fn in _needs(how) if fn in tracer.missing]
        if gone:
            missing[name] = "; ".join(tracer.missing[fn] for fn in gone)
            continue
        kind, *rest = how
        if kind == "self":
            values[name] = sum(self_times[fn] for fn in rest)
        elif kind == "calls":
            values[name] = tracer.counts[rest[0] + ".calls"]
        elif kind == "count":
            values[name] = tracer.counts[rest[0]]
        elif kind == "useful":
            calls = tracer.counts[rest[1] + ".calls"]
            values[name] = tracer.distinct(rest[0]) / calls if calls else 1.0
        else:
            values[name] = blamed[rest[0]]
    return values, missing


def layer_self_times(tracer) -> dict:
    """Self time per layer module, summed over its traced functions."""
    totals = Counter()
    for name, seconds in tracer.self_times().items():
        totals[name.split(".", 1)[0]] += seconds
    return {layer: totals[layer] for layer in LAYERS}
