"""sphere-forge benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Each pass runs one whole workload in a fresh interpreter (child.py), so
nothing cached in one pass carries into the next.  Passes repeat until
``--seconds`` have gone by; every metric is the median over the run's
passes.  Pass times are rescaled to a reference host speed sampled
during the pass (hostspeed.py); the measured times are printed beside
them.  With ``--trace 0`` the result line holds the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate on
equal inputs and the result line holds the per-layer metrics.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when a
result was printed, even if some items failed; 2 when the program or
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import zlib
from pathlib import Path
from statistics import geometric_mean, median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER, REPORT_ONLY, WORKLOADS  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_SAMPLES = 5  # import-only interpreters before the first pass, after one warm-up
SETUP_SAMPLES_PER_PASS = 3  # and after every pass, so set-up is sampled across the run
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(seed_text: str) -> dict:
    env = dict(os.environ)
    env.pop("SPHERE_FORGE_THREADS", None)  # the default worker count runs
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up reads cached bytecode, as installs do
    env["PYTHONPATH"] = str(SRC)
    # string hashing (and so set order) follows the seed, not the clock
    env["PYTHONHASHSEED"] = str(zlib.crc32(seed_text.encode()))
    return env


def run_child(args: list[str], seed_text: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=child_env(seed_text),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        OUT.mkdir(exist_ok=True)
    run_child(["--import-only"], "warm-up")  # compiles bytecode once
    setup = []

    def sample_setup(count: int) -> None:
        for _ in range(count):
            setup.append(run_child(["--import-only"], f"setup/{seed}/{len(setup)}")["setup_s"])

    sample_setup(SETUP_SAMPLES)
    plain, traced = [], []
    start = perf_counter()
    index = 0
    last = 0.0
    # stop when the next pass would end more than half a pass past the
    # time limit, so a run measures for about `seconds` on every workload
    while index == 0 or perf_counter() - start + last / 2 < seconds:
        began = perf_counter()
        common = ["--workload", workload, "--seed", str(seed), "--pass-index", str(index)]
        seed_text = f"{workload}/{seed}/{index}"
        plain.append(run_child(common, seed_text))
        if trace:
            spans = OUT / f"{workload}-seed{seed}-pass{index}.spans.jsonl"
            traced.append(run_child(common + ["--spans", str(spans)], seed_text))
        sample_setup(SETUP_SAMPLES_PER_PASS)
        last = perf_counter() - began
        index += 1
    setup += [p["setup_s"] for p in plain + traced]
    return {"setup": setup, "plain": plain, "traced": traced}


def report(workload: str, seed: int, seconds: float, trace: bool, runs: dict) -> dict:
    plain, traced = runs["plain"], runs["traced"]
    items = [item for p in plain + traced for item in p["items"]]
    failures = [item for item in items if item[2]]
    # times in reference-host seconds, each pass's by the host speed
    # sampled during it.  Each item's median over the passes, then the
    # geometric mean over items: every item counts, from 5 ms to 5 s
    by_item: dict[str, list[float]] = {}
    for p in plain:
        for name, item_s, _layer, _detail in p["items"]:
            by_item.setdefault(name, []).append(item_s * p["host_scale"] * 1000)
    item_ms = {name: median(times) for name, times in sorted(by_item.items())}
    end_to_end = {
        "wall_s": median([p["wall_s"] * p["host_scale"] for p in plain]),
        "item_gmean_ms": geometric_mean(item_ms.values()),
        "setup_s": median(runs["setup"]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
    }
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(
        f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
        f"passes={len(plain)}{f'+{len(traced)} traced' if trace else ''} "
        f"nproc={cpus} python={platform.python_version()}"
    )
    units = {name: unit for name, unit, _ in END_TO_END}
    counts = {
        "wall_s": f"median of {len(plain)} untraced passes, at reference host speed",
        "item_gmean_ms": f"geometric mean over {len(item_ms)} items of each one's median of {len(plain)}",
        "setup_s": f"median of {len(runs['setup'])} imports",
        "peak_rss_mb": f"median of {len(plain)} passes",
    }
    for name, value in end_to_end.items():
        print(f"  {name:<14} {value:12.4f} {units[name]:<3} ({counts[name]})")
    walls = " ".join(f"{p['wall_s'] * p['host_scale']:.3f}" for p in plain)
    print(f"  pass wall_s    {walls}")
    walls = " ".join(f"{p['wall_s']:.3f}" for p in plain)
    print(f"  measured       {walls}  (median {median([p['wall_s'] for p in plain]):.4f} s)")
    scales = " ".join(f"{p['host_scale']:.3f}" for p in plain)
    samples = median([p["spin_samples"] for p in plain])
    print(f"  host scale     {scales}  (median {samples:g} speed samples a pass)")
    print(f"  item median    {median(item_ms.values()):.4f} ms over the items' medians")
    if len(item_ms) <= 8:
        for name, ms in item_ms.items():
            print(f"  item {name}: median {ms:.1f} ms")
    print(f"  failed_frac    {len(failures)}/{len(items)} = {len(failures) / len(items):.4f}")
    for name, _seconds, layer, detail in failures[:10]:
        print(f"    FAILED {name} [{layer}]: {detail}")

    metrics = {name: (value, units[name]) for name, value in end_to_end.items()}
    if trace:
        metrics = traced_report(plain, traced)
    return {
        "correct": not failures,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def traced_report(plain: list[dict], traced: list[dict]) -> dict:
    overhead = median([t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)])
    print(
        f"  traced wall_s {median([t['wall_s'] for t in traced]):.4f} s, "
        f"tracing overhead {overhead:+.4f} s per pass"
    )
    print(
        f"  share of traced wall time no span covers: "
        f"{median([t['uncovered_share'] for t in traced]):.4%}"
    )
    print("  self time per layer (s):")
    for layer in LAYERS:
        print(f"    {layer:<16} {median([t['layer_self_s'][layer] for t in traced]):10.4f}")
    missing = {name: why for t in traced for name, why in t["missing"].items()}
    metrics = {}
    print("  per-layer metrics (median over traced passes):")
    for name, unit, _better, _how in PER_LAYER:
        if name in missing:
            print(f"    {name:<48} missing: {missing[name]}")
            continue
        value = median([t["layers"][name] for t in traced])
        note = "  (report only)" if name in REPORT_ONLY else ""
        print(f"    {name:<48} {value:14.6f} {unit}{note}")
        if name not in REPORT_ONLY:
            metrics[name] = (value, unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sphere_forge" / "__init__.py").is_file():
        print(f"perfbench: no sphere_forge sources under {SRC}", file=sys.stderr)
        return 2
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = report(args.workload, args.seed, args.seconds, bool(args.trace), runs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
