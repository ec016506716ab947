"""Benchmark for lmhd: end-to-end and per-module figures on four workloads.

Run from the repository root (numpy must be importable; nothing is built):

    python3 bench/bench.py                  # every workload, untraced then traced
    python3 bench/bench.py --workload sweep-64 --seed 1 --seconds 20 --trace 0
    python3 bench/bench.py --selftest       # every workload at toy size

A single-workload run sets up its inputs three times (setup_s is the median),
then runs whole rounds of the workload's operations until --seconds have
passed, checks every output, and prints as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-module ones from spans recorded
around calls into lmhd. Results and traces are written under bench/out/.
See bench/README.md for the workloads and what each metric should move.
"""

import os

# BLAS and OpenMP pools are held at one thread; this must precede numpy's import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# bound before any tracing wraps numpy.fft, so the reference is never traced
_FFTN, _IFFTN = np.fft.fftn, np.fft.ifftn

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 3
# milliseconds per reference_kernel repetition at nominal machine speed
# (2-core x86-64 virtual machine, numpy 2.4.6; see README)
REFERENCE_MS = {64: 0.80, 128: 3.2}
ROUND_SPAN = "bench.round"
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import lmhd\n"
    "print(time.perf_counter() - t)\n"
)


def import_lmhd() -> None:
    """Import lmhd from this checkout's src/, never from anywhere else."""
    if not (SRC / "lmhd" / "__init__.py").is_file():
        sys.exit(f"bench: no lmhd sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import lmhd

    if Path(lmhd.__file__).resolve().parent != (SRC / "lmhd").resolve():
        sys.exit(f"bench: imported lmhd from {lmhd.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Time to import lmhd in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def reference_kernel(points: int, reps: int) -> float:
    """Seconds for a fixed numpy loop shaped like a pseudo-spectral step.

    Each repetition takes four points x points fields to physical space,
    multiplies them pointwise, transforms back, masks and damps, as the
    solver does. It uses no lmhd code, so no change to the program moves
    it. On a shared host a virtual machine's speed drifts by 10-30% over
    seconds; timed just before and after an operation, the kernel slows by
    about the same factor as the operation, so times divided by that
    slowdown stay steady while a change in the program still shows in full.
    """
    rng = np.random.default_rng(0)
    fields = [rng.standard_normal((points, points)) + 1j * rng.standard_normal((points, points))
              for _ in range(4)]
    mask = rng.random((points, points)) > 0.3
    scale = float(points * points)
    t0 = time.perf_counter()
    for _ in range(reps):
        phys = [_IFFTN(c).real * scale for c in fields]
        products = [phys[i] * phys[(i + 1) % 4] + phys[i] for i in range(4)]
        for p in products:
            out = _FFTN(p) / scale * mask
            np.exp(-0.01 * np.abs(out)) * out
    return time.perf_counter() - t0


def result_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"result-{workload}-seed{seed}-trace{trace}.json"


def measure(name: str, seed: int, seconds: float, trace: int, toy: bool) -> int:
    import checks
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](toy)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-seed{seed}-trace{trace}-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer() if trace else None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            t0 = time.perf_counter()
            workload.setup(workdir, seed)
            setup_times.append(imported + time.perf_counter() - t0)
        workload.prepare()

        if tracer:
            tracer.install()
        attempted = failed = 0
        problems: list[str] = []
        walls: list[float] = []  # raw round times
        scaled_walls: list[float] = []  # round times at nominal speed
        nominal = 1e-3 * REFERENCE_MS[workload.ref_points] * workload.ref_reps
        reference = [reference_kernel(workload.ref_points, workload.ref_reps)]
        check_walls: list[float] = []
        start = time.perf_counter()
        while not walls or (time.perf_counter() - start < seconds and not problems):
            ops = workload.ops(len(walls))
            succeeded, wall, scaled_wall, check_wall = 0, 0.0, 0.0, 0.0
            with tracer.span(ROUND_SPAN) if tracer else nullcontext():
                for op in ops:
                    attempted += 1
                    t0 = time.perf_counter()
                    try:
                        with tracer.span(f"bench.{op.label}") if tracer else nullcontext():
                            out = op.fn()
                    except ValueError as exc:
                        out = exc
                    elapsed = time.perf_counter() - t0
                    # the host's slowdown around this operation, from the
                    # reference timed just before and just after it
                    reference.append(reference_kernel(workload.ref_points, workload.ref_reps))
                    scaled_wall += elapsed * 2.0 * nominal / (reference[-2] + reference[-1])
                    wall += elapsed
                    if op.label.startswith("check-"):
                        check_wall += elapsed
                    if isinstance(out, Exception):
                        failed += 1
                        if op.known_fault is None or op.known_fault not in str(out):
                            problems.append(f"{op.label}: unexpected {type(out).__name__}: {out}")
                        continue
                    succeeded += 1
                    try:
                        op.check(out)
                    except (checks.CheckFailed, KeyError, ValueError) as exc:
                        problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
            if succeeded == len(ops):
                try:
                    workload.check_round()
                except checks.CheckFailed as exc:
                    problems.append(f"round: {exc}")
            walls.append(wall)
            scaled_walls.append(scaled_wall)
            check_walls.append(check_wall / max(1, sum(op.label.startswith("check-") for op in ops)))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # every reported time is scaled to nominal machine speed
    slowdown = statistics.median(reference) / nominal
    wall_s = statistics.median(scaled_walls)
    if tracer:
        metrics = tracer.metrics(len(walls), wall_s, slowdown)
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_times) / slowdown,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    # figures that are not defined on every workload; printed and saved, not gated
    extra = {"rounds": len(walls), "slowdown": slowdown, "raw_round_walls_s": walls,
             "raw_wall_s_quartiles": list(np.percentile(walls, [25, 75])),
             "raw_setup_s": setup_times, "raw_reference_s": reference}
    if workload.stepping:
        extra["steps_per_s"] = workload.steps_per_round / wall_s
        extra["sim_time_per_s"] = workload.sim_time_per_round / wall_s
    else:
        extra["check_s"] = statistics.median(check_walls) / slowdown
    for problem in problems:
        print(f"bench: {name}: {problem}", file=sys.stderr)

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "toy": toy,
              **result, "extra": extra, "problems": problems}
    if tracer:
        record["layers"] = tracer.layer_table()
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps({"workload": name, "seed": seed,
                                          "span_fields": ["name", "parent", "start_us", "end_us"],
                                          "first_round_spans": tracer.first_round(ROUND_SPAN),
                                          "layers": record["layers"], "metrics": metrics}))
    result_path(name, seed, trace).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


def run_child(name: str, seed: int, seconds: float, trace: int, toy: bool) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--toy"] if toy else [])
    path = result_path(name, seed, trace)
    path.unlink(missing_ok=True)
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    try:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        line = {}
    return {"returncode": proc.returncode, "line": line,
            "record": json.loads(path.read_text()) if path.exists() else {}}


def environment() -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip() or None
    except OSError:
        revision = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy_version, "git_revision": revision}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, one process at a time; prints every metric."""
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    summary = {"environment": environment(), "seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        plain = run_child(name, seed, seconds, 0, False)
        traced = run_child(name, seed, seconds, 1, False)
        status |= plain["returncode"] | traced["returncode"]
        p, t = plain["record"], traced["record"]
        if not p or not t:
            print(f"{name}: no result")
            status = 1
            continue
        overhead = t["metrics"]["trace.wall_s"]["value"] - p["metrics"]["wall_s"]["value"]
        print(f"\n== {name}: correct={p['correct'] and t['correct']} "
              f"attempted={p['attempted']} failed={p['failed']} rounds={p['extra']['rounds']}")
        for metric, entry in p["metrics"].items():
            print(f"  {metric:46s} {entry['value']:14.6g} {entry['unit']}")
        units = {"steps_per_s": "1/s", "sim_time_per_s": "1/s", "check_s": "s"}
        for metric, unit in units.items():
            if metric in p["extra"]:
                print(f"  {metric:46s} {p['extra'][metric]:14.6g} {unit}")
        print(f"  {'trace.overhead_s':46s} {overhead:14.6g} s")
        for metric, entry in t["metrics"].items():
            print(f"  {metric:46s} {entry['value']:14.6g} {entry['unit']}")
        summary["workloads"][name] = {"untraced": p, "traced": {k: v for k, v in t.items()
                                                                if k != "layers"},
                                      "trace_overhead_s": overhead}
    (OUT / f"summary-seed{seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nwritten: {OUT / f'summary-seed{seed}.json'}")
    return status


def selftest() -> int:
    """Each workload at toy size, untraced and traced; checks the output contract."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            child = run_child(name, 0, 0, trace, True)
            line = child["line"]
            good = (child["returncode"] == 0 and line.get("correct") is True
                    and set(line) == {"correct", "attempted", "failed", "metrics"}
                    and line["attempted"] >= 1 and set(line["metrics"]) == wanted[trace])
            ok &= good
            print(f"selftest {name} trace={trace}: {'ok' if good else 'FAIL'} "
                  f"attempted={line.get('attempted')} failed={line.get('failed')}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="run one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy-size inputs (used by --selftest)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    import_lmhd()
    from workloads import WORKLOADS

    if args.selftest:
        return selftest()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return measure(args.workload, args.seed, args.seconds, args.trace, args.toy)


if __name__ == "__main__":
    sys.exit(main())
