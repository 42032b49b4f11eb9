"""Benchmark of the bear command line, end to end and per layer.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Each workload builds its inputs from ``--seed``, then calls
``bear.cli.main(argv)`` in this process, round after round, until
``--seconds`` are spent, checking every output. The last line printed is
one JSON object: ``correct``, ``attempted`` and ``failed`` count the CLI
calls and their output checks, and ``metrics`` holds the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced pass
(``--trace 1``). ``--workload all`` runs every workload, each in a fresh
process. Work files go to ``.bench_work/<workload>/`` at the repository
root; the traced pass also writes its spans there as ``trace.json``.
"""

import os
import sys

# Pinned before numpy loads; numpy's elementwise work is single-threaded anyway.
BLAS_THREADS = 1
BLAS_WHY = "lower run-to-run spread: 2 threads gave 3.78-5.11 encode images/s on 2 cores, 1 thread 3.80-4.10"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# No transparent huge pages for numpy's large arrays: whether the host can
# hand out huge pages varies from minute to minute, and with them the same
# k-means call took 1.15-1.68 s, without them 1.41-1.70 s.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import machine  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Latent, Op  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SECONDS = 20

END_TO_END = {"items_per_s": "items/s", "op_s_p50": "s", "objective": "loss", "setup_s": "s", "peak_rss_mb": "MB"}
TRACED = ("items_per_s", "op_s_p50", "objective")  # end-to-end metrics a traced pass measures again

# Times are reported at reference speed: each is multiplied by this over the
# reference time (machine.reference_seconds, timed in a child process so its
# arrays stay out of the measured memory) measured around it. On a shared
# machine whose speed drifts by a quarter over minutes, that cut the spread of
# 20-second blocks of desk training by 40%. 0.060 s is the reference's
# typical time on the 2-core Xeon the bounds were set on.
REFERENCE_S = 0.060

SETUP_PROBES = 5
BACKWARD_REPS = 3


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_bear() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bear.cli
    except ImportError as exc:
        log(f"cannot import bear from {src}: {exc}")
        raise SystemExit(2) from None
    if Path(bear.cli.__file__).resolve().parent != src / "bear":
        log(f"imported bear from {bear.cli.__file__}, not from {src}")
        raise SystemExit(2)


class Session:
    """Runs CLI calls in-process, timing each and keeping its output."""

    log = staticmethod(log)

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.tracer: tracing.Tracer | None = None

    def call(self, label: str, argv: list[str]) -> Op:
        if self.tracer is not None:
            self.tracer.begin_call(label)
        main = sys.modules["bear.cli"].main  # looked up per call, so a traced pass sees the wrapper
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = -1
        op = Op(label, time.perf_counter() - start, rc, out.getvalue())
        if rc != 0:
            log(f"{label}: exit code {rc}")
        self.ops.append(op)
        return op


def at_reference_speed(before: float, after: float) -> float:
    """Factor that rescales a time measured between two reference timings
    to what it would have been with the machine at reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)


def run_rounds(workload, session: Session, seconds: float, reference: machine.Reference) -> dict:
    """Repeat rounds until the next one would end past ``seconds``.

    The reference is timed before and after every round, and the round's
    time samples (keys ending in ``_s``) are rescaled to reference speed.
    """
    samples: dict = defaultdict(list)
    start = time.perf_counter()
    rounds, last = 0, 0.0
    before = reference.seconds()
    samples["reference"].append(before)
    while rounds < workload.min_rounds or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        current: dict = defaultdict(list)
        workload.round(session, current)
        last = time.perf_counter() - began
        after = reference.seconds()
        samples["reference"].append(after)
        scale = at_reference_speed(before, after)
        for key, values in current.items():
            samples[key] += [v * scale for v in values] if key.endswith("_s") else values
        before = after
        rounds += 1
    return samples


def safe_metrics(workload, samples: dict) -> dict:
    try:
        return workload.metrics(samples)
    except (statistics.StatisticsError, ZeroDivisionError):
        log(f"{workload.name}: no successful samples for some end-to-end metric")
        return {name: 0.0 for name in TRACED}


def setup_seconds(workload, session: Session, reference: machine.Reference) -> float:
    """Median over fresh processes of ``import bear`` plus program set-up,
    at reference speed."""
    values = []
    before = reference.seconds()
    for _ in range(SETUP_PROBES):
        command = [sys.executable, str(HERE / "setup_probe.py"), *workload.setup_call()]
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
        op = Op("setup-probe", time.perf_counter() - start, proc.returncode, proc.stdout)
        session.ops.append(op)
        if proc.returncode != 0:
            log(proc.stderr)
            continue
        values.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    scale = at_reference_speed(before, reference.seconds())
    return statistics.median(values) * scale if values else 0.0


def kmeans_peak_alloc_mb(workload, tracer: tracing.Tracer) -> float:
    """tracemalloc peak of one k-means call on the workload's embeddings."""
    latent = sys.modules["bear.latent"]
    try:
        embeddings = latent.read_embeddings(workload.csv)
        tracemalloc.start()
        latent.kmeans(embeddings, workload.k, seed=0, restarts=1)
        return tracemalloc.get_traced_memory()[1] / 2**20
    except Exception as exc:  # k-means no longer takes these arguments
        tracer.hook_errors["latent.kmeans.alloc"] = repr(exc)
        tracer.absent.append("latent.kmeans.alloc")
        return 0.0
    finally:
        tracemalloc.stop()


def measure(workload, session: Session, seconds: float, reference: machine.Reference) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, and its samples."""
    setup_s = setup_seconds(workload, session, reference)
    samples = run_rounds(workload, session, seconds, reference)
    e2e = safe_metrics(workload, samples)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["setup_s"] = setup_s
    return {key: {"value": float(e2e[key]), "unit": unit} for key, unit in END_TO_END.items()}, samples


def measure_traced(workload, session: Session, seconds: float, reference: machine.Reference, record: dict):
    """Per-layer metrics: half the time untraced, half traced, then the
    isolated measurements. Returns the metrics, the absent names, the
    untraced samples and the tracer."""
    samples = run_rounds(workload, session, seconds / 2, reference)
    untraced = safe_metrics(workload, samples)
    tracer = tracing.Tracer()
    tracer.install()
    session.tracer = tracer
    try:
        traced = safe_metrics(workload, run_rounds(workload, session, seconds / 2, reference))
    finally:
        session.tracer = None
        tracer.uninstall()
    extra = {
        "bwd_ms": tracer.isolated_backward_ms(BACKWARD_REPS) if workload.cfg else {},
        "sgemm_gflops": record["sgemm_gflops"][f"{BLAS_THREADS}_threads"]["pfe"],
        "kmeans_peak_alloc_mb": kmeans_peak_alloc_mb(workload, tracer) if isinstance(workload, Latent) else 0.0,
        "overhead": {key: (traced[key] - untraced[key], END_TO_END[key]) for key in TRACED},
    }
    metrics, absent = tracing.layer_metrics(tracer, workload.arch, extra)
    return metrics, absent, samples, tracer


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    work = ROOT / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    import_bear()
    workload = WORKLOADS[name](work, seed)
    workload.prepare()
    session = Session()
    workload.warmup(session)
    record = machine.record(BLAS_THREADS, BLAS_WHY)
    absent: list[str] = []
    with machine.Reference() as reference:
        if traced:
            metrics, absent, samples, tracer = measure_traced(workload, session, seconds, reference, record)
            trace_file = {"workload": name, "seed": seed, **tracer.export(), "metrics": metrics, "absent": absent}
            (work / "trace.json").write_text(json.dumps(trace_file), encoding="utf-8")
        else:
            metrics, samples = measure(workload, session, seconds, reference)

    failed = sum(not op.ok for op in session.ops)
    result = {"correct": failed == 0, "attempted": len(session.ops), "failed": failed, "metrics": metrics}
    details = {"workload": name, "seed": seed, "trace": int(traced), "machine": record, "absent": absent,
               "reference_seconds": samples["reference"]}
    (work / "result.json").write_text(json.dumps({**details, **result}, indent=1), encoding="utf-8")
    print("machine " + json.dumps(record))
    if absent:
        print("absent " + " ".join(absent))
    for key, metric in metrics.items():
        print(f"{key:42s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
