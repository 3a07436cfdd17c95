"""One pass of one workload in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
Prints one JSON object on its last line of output.  Usage:

    python3 perfbench/child.py --import-only
    python3 perfbench/child.py --workload sweep --seed 1 --pass-index 0 [--spans FILE]

With ``--spans`` the pass is traced and its spans are written to FILE.
Otherwise host speed is sampled during the pass (hostspeed.py), and the
result carries the factor that rescales its times to a reference host.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    start = perf_counter()
    import sphere_forge
    import sphere_forge.cli  # noqa: F401  (the CLI's start-up is part of set-up)

    setup_s = perf_counter() - start
    if Path(sphere_forge.__file__).resolve().parent != SRC / "sphere_forge":
        print(f"imported sphere_forge from {sphere_forge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.import_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import hostspeed
    import workloads
    from metrics import layer_metrics, layer_self_times
    from tracer import Tracer

    rng = random.Random(f"{args.workload}/{args.seed}/{args.pass_index}")
    todo = workloads.items(args.workload, rng)
    tracer = Tracer() if args.spans else None
    sampler = None if tracer else hostspeed.Sampler()
    clock = sampler.clock if sampler else perf_counter
    with tracer or sampler:
        start = clock()
        outcomes = workloads.run_items(todo, clock)
        wall_s = clock() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": [[o.name, o.seconds, o.layer, o.detail] for o in outcomes],
    }
    if sampler:
        result["host_scale"] = sampler.scale()
        result["spin_samples"] = len(sampler.samples)
    if tracer:
        blamed = Counter(o.layer for o in outcomes if o.layer)
        values, missing = layer_metrics(tracer, blamed)
        result["layers"] = values
        result["missing"] = missing
        result["layer_self_s"] = layer_self_times(tracer)
        result["uncovered_share"] = 1 - tracer.covered() / wall_s
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
