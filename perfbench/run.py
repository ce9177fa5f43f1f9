"""Dispatch benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload scenarios-full --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seconds 15            # all three workloads, one process

A run sets up, makes one untimed warm-up pass, then makes timed passes until
``--seconds`` have gone, all in one process with ``jobs=1``.  The outcome of
every solve is checked after the timed passes (see ``workloads.py``).  With
``--trace 0`` the metrics are end to end; with ``--trace 1`` untraced and
traced passes alternate and the metrics are per layer, taken from spans
around calls into each module (see ``tracing.py``).

``setup_s`` is the median over several fresh processes, each importing the
package and ``scipy.optimize``, loading and validating the case and
building the workload's inputs.  ``peak_rss_mb`` is the peak of the whole
process, so with all workloads in one process it carries over between them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each result, with the
machine, versions, case hash, seed and options, is also written to
``perfbench/out/``, and a traced run writes its spans there as well.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# Solves run one at a time (jobs=1); one BLAS/OpenMP thread keeps them from
# competing with each other on a small shared machine.  Set before numpy
# loads, here and in the set-up probes, which inherit the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, SRC)

WORKLOADS = ("scenarios-full", "sweep-lambda", "perturbed-milp")
SETUP_PROBES = 5

END_TO_END = {
    "wall_s": "s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_ratio": "ratio",
}
PER_LAYER = {
    "branch_bound.solve_s": "s",
    "branch_bound.nodes": "count",
    "branch_bound.ms_per_node": "ms",
    "branch_bound.first_incumbent_node": "count",
    "branch_bound.incumbent_updates": "count",
    "branch_bound.root_gap_rel": "ratio",
    "milp_ir.cols": "count",
    "milp_ir.rows": "count",
    "milp_ir.binaries": "count",
    "milp_ir.nnz": "count",
    "milp_ir.to_dense_s": "s",
    "dispatch.build_s": "s",
    "dispatch.extract_s": "s",
    "dispatch.verify_s": "s",
    "dispatch.verify_checks": "count",
    "backends.scipy_milp_s": "s",
    "backends.scipy_milp_nodes": "count",
    "model_core.load_validate_s": "s",
    "model_core.transform_s": "s",
    "cli.overhead_s": "s",
    "cli.bytes_written": "bytes",
    "setup.import_pkg_s": "s",
    "setup.import_scipy_s": "s",
    "trace.overhead_s": "s",
}
SETUP_PARTS = {
    "setup.import_pkg_s": "import_pkg_s",
    "setup.import_scipy_s": "import_scipy_s",
    "model_core.load_validate_s": "load_validate_s",
    "model_core.transform_s": "transform_s",
}


def setup(name: str, seed: int):
    """Import the package and scipy.optimize, then build the workload's inputs."""
    t0 = time.perf_counter()
    # Imported here, not at the top, so that the import is timed.
    import workloads  # noqa: PLC0415  (imports the iesdispatch package)
    t1 = time.perf_counter()
    import scipy.optimize  # noqa: F401, PLC0415  (the package defers it to the first solve)
    t2 = time.perf_counter()
    origin = os.path.abspath(sys.modules["iesdispatch"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise SystemExit(f"iesdispatch was imported from {origin}, not from {SRC}")
    wl, parts = workloads.make(name, seed, OUT)
    parts.update(import_pkg_s=t1 - t0, import_scipy_s=t2 - t1, setup_s=time.perf_counter() - T0)
    return wl, parts


def probe_setup(name: str, seed: int) -> dict:
    """Set-up times of one fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  Below 100 samples that
    percentile falls under p90, so p90 is given, with fewer than ten beyond.
    """
    s = sorted(samples)
    rank = max(len(s) - 10, math.ceil(0.9 * len(s)))
    return s[rank - 1], 100.0 * rank / len(s), len(s) - rank


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(wl, seed: int) -> dict:
    import numpy  # noqa: PLC0415
    import scipy  # noqa: PLC0415
    from iesdispatch.model_core import case_hash  # noqa: PLC0415

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "case_hash": case_hash(wl.case),
        "seed": seed,
        "options": asdict(wl.options),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure(wl, seconds: float, traced: bool) -> dict:
    """Timed passes until `seconds` have gone, at least one of each kind.

    With tracing, an untraced pass and a traced pass alternate on the same
    inputs; only the untraced passes give end-to-end times.
    """
    import tracing  # noqa: PLC0415  (wraps the package's functions only when tracing)

    walls = {False: [], True: []}
    solves, layers, spans = [], [], []
    elapsed = 0.0
    index = 0
    while True:
        for with_trace in ((False, True) if traced else (False,)):
            tracer = tracing.Tracer() if with_trace else contextlib.nullcontext()
            with tracer:
                t0 = time.perf_counter()
                result = wl.run_pass(index)
                wall = time.perf_counter() - t0
            elapsed += wall
            walls[with_trace].append(wall)
            solves.extend(result.solves)
            if with_trace:
                layers.append(dict(tracing.layer_metrics(tracer.spans),
                                   **{"cli.bytes_written": result.bytes_written}))
                spans.extend(tracer.spans)
        index += 1
        if elapsed >= seconds:
            break
    return {"walls": walls[False], "traced_walls": walls[True], "solves": solves,
            "layers": layers, "spans": spans}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl, _parts = setup(name, seed)
    probes = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    env = environment(wl, seed)
    t0 = time.perf_counter()
    wl.warm_up()
    warm_up_s = time.perf_counter() - t0
    m = measure(wl, seconds, traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    solves = m["solves"]
    wl.check(solves)  # outside the timed passes
    failed = sum(1 for rec in solves if rec.error is not None)
    ok_seconds = [rec.seconds for rec in solves if rec.error is None]
    notes = {"passes": len(m["walls"]) + len(m["traced_walls"]), "warm_up_s": warm_up_s,
             "pass_walls_s": m["walls"], "traced_pass_walls_s": m["traced_walls"]}
    if traced:
        values = {k: statistics.median(row[k] for row in m["layers"]) for k in m["layers"][0]}
        for metric, part in SETUP_PARTS.items():
            values[metric] = statistics.median(p[part] for p in probes)
        values["trace.overhead_s"] = statistics.median(m["traced_walls"]) - statistics.median(m["walls"])
        units = PER_LAYER
    else:
        p50 = statistics.median(ok_seconds) if ok_seconds else 0.0
        tail_s, pct, beyond = tail(ok_seconds) if ok_seconds else (0.0, 0.0, 0)
        notes["solve_tail"] = f"p{pct:.1f} of {len(ok_seconds)} verified solves, {beyond} beyond it"
        values = {
            "wall_s": statistics.median(m["walls"]),
            "solve_p50_s": p50,
            "solve_tail_s": tail_s,
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": peak_rss_mb,
            "verified_ratio": (len(solves) - failed) / len(solves),
        }
        units = END_TO_END
    notes["fail_ratio"] = failed / len(solves)
    result = {
        "workload": name,
        "trace": int(traced),
        "environment": env,
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "notes": notes,
        "setup_probes": probes,
        "failures": sorted({rec.error for rec in solves if rec.error is not None}),
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    if traced:
        import tracing  # noqa: PLC0415

        with open(os.path.join(OUT, f"trace-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in m["spans"]],
                       "solves": tracing.solve_counts(m["spans"])}, fh)
    return result


def report(result: dict) -> None:
    env = result["environment"]
    print(f"== {result['workload']} (trace {result['trace']}), seed {env['seed']}")
    print(f"   machine: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} threads={env['thread_caps']['OMP_NUM_THREADS']}")
    print(f"   case_hash={env['case_hash']} options={env['options']}")
    notes = result["notes"]
    print(f"   warm-up {notes['warm_up_s']:.3f} s; timed passes " +
          ", ".join(f"{w:.3f}" for w in notes["pass_walls_s"]) + " s")
    for k, m in result["metrics"].items():
        extra = f"  ({notes['solve_tail']})" if k == "solve_tail_s" else ""
        print(f"   {k:36s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"   fail_ratio {notes['fail_ratio']:.6g} ({result['failed']} of {result['attempted']} solves)")
    for err in result["failures"][:5]:
        print(f"   failure: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        _wl, parts = setup(args.workload, args.seed)
        print(json.dumps(parts))
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for r in results:
        report(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
