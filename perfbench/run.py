#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the spinqpe CLI.

Run from the repository root:

    python3 perfbench/run.py --workload exact-n16 --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
exact-n16, sweep-n10-cold, leaky-n12. Each is a closed loop with one
client: requests are issued one after another from one process, and each
is checked for correctness (checks.py) before the next one starts.

--trace 0 measures the end-to-end metrics, with no tracing installed.
Their timings are in reference seconds (see `reference_seconds`): on a
shared host the CPU clock moves between base and turbo speeds from minute
to minute, so wall seconds, which the report also lists, do not repeat
from run to run.
--trace 1 runs the same request list twice in process, untraced and then
traced (tracer.py), and reports the per-layer split plus the tracing
overhead; both passes must produce identical outputs.

The program is imported from ./src of the checkout this script sits in,
never from an installed copy. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable report. A full report, the exact-mode outputs of the digest
prefix (compare two with compare_exact.py) and, with --trace 1, every span
are written under ./.perfbench/.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import checks, workloads
from perfbench.tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: interpreter launches per run whose median is setup_s
SETUP_RUNS = 7
SETUP_CODE = ("import time, spinqpe.cli as cli; cli.build_parser(); "
              "print(time.monotonic())")

#: a timing in reference seconds is wall seconds x REF_S / the reference
#: kernel's wall seconds measured around it, i.e. wall seconds on a clock at
#: which the kernel takes REF_S; REF_S is about its time on a 2.0 GHz Xeon
#: (Sapphire Rapids) at base clock, so there the two scales agree
REF_S = 0.003
REF_LOOP = 20000
REF_COPIES = 5
REF_REPEATS = 3
_REF_SRC = np.ones(1 << 17, dtype=np.complex128)  # 2 MiB, like a 17-qubit state
_REF_DST = np.empty_like(_REF_SRC)

#: the console command (`spinqpe.cli:entry`) plus an exit hook that writes the
#: process's peak resident set to the file named first. VmHWM, unlike
#: ru_maxrss, leaves out the pages of the parent a child is spawned from.
CHILD_CODE = """
import atexit, sys
path = sys.argv.pop(1)
def record():
    with open('/proc/self/status') as status, open(path, 'w') as out:
        out.write(next(l for l in status if l.startswith('VmHWM:')).split()[1])
atexit.register(record)
from spinqpe.cli import entry
entry()
"""

#: request_tail_s is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10

#: a subprocess request is killed after this long, and no request starts
#: after HARD_STOP_S, so a run always ends well within three minutes
REQUEST_TIMEOUT_S = 30
HARD_STOP_S = 120


@dataclass
class Outcome:
    """One timed request: what the CLI returned and what the checks made of it."""

    seconds: float  # wall
    code: int | None
    stdout: str
    stderr: str
    rss_kb: int = 0  # subprocess requests only
    error: str | None = None
    sha: str = ""
    checked: object = None  # checks.Checked for the digest prefix
    failure: str | None = None
    ref_s: float = REF_S  # reference kernel seconds around the request

    @property
    def ref_seconds(self) -> float:
        return self.seconds * REF_S / self.ref_s


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _getconf(name: str):
    try:
        done = subprocess.run(["getconf", name], capture_output=True, text=True,
                              timeout=10, check=True)
        return int(done.stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None  # a plain checkout, not a git repository
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=True)
        return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment(seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "seed": seed,
    }


def reference_seconds() -> float:
    """Wall seconds of a fixed kernel that does the two kinds of work the
    workloads spend their time on, interpreted Python and 2 MiB array
    copies, without allocating. Measured around every timed interval, it
    tracks the host's clock so timings can be put on one scale. It is the
    fastest of REF_REPEATS runs, so a stall that hits one run, which says
    nothing about the clock, does not count."""
    best = math.inf
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP):
            total += i * i % 7
        for _ in range(REF_COPIES):
            np.copyto(_REF_DST, _REF_SRC)
        best = min(best, time.perf_counter() - start)
    return best


def measure_setup(env: dict) -> tuple:
    """Wall seconds from launching an interpreter until spinqpe.cli is
    imported and its parser built, once per launch (CLOCK_MONOTONIC is
    system-wide), and the reference kernel's seconds before each launch."""
    walls, refs = [], []
    for _ in range(SETUP_RUNS):
        refs.append(reference_seconds())
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        walls.append(float(done.stdout) - start)
    return walls, refs


def peak_rss_kb() -> int:
    """This process's peak resident set in KiB (VmHWM; see CHILD_CODE)."""
    with open("/proc/self/status") as status:
        return int(next(l for l in status if l.startswith("VmHWM:")).split()[1])


def call_in_process(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))  # looked up per call, so a tracer sees it
    except SystemExit as exc:  # argparse rejects a malformed request this way
        code = exc.code
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Outcome(seconds, code, out.getvalue(), err.getvalue(), error=error)


def call_subprocess(argv, env: dict, stem: Path) -> Outcome:
    """The console command with ARGV in a fresh interpreter (CHILD_CODE);
    output goes to `stem`.stdout and .stderr, not to a pipe that a large
    output could fill."""
    out_path, err_path = Path(f"{stem}.stdout"), Path(f"{stem}.stderr")
    hwm_path = Path(f"{stem}.hwm")
    hwm_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD_CODE, str(hwm_path), *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        # a pidfd wakes select the moment the child exits; Popen.wait(timeout)
        # would poll with sleeps of up to 50 ms
        pidfd = os.pidfd_open(proc.pid)
        try:
            finished = bool(select.select([pidfd], [], [], REQUEST_TIMEOUT_S)[0])
        finally:
            os.close(pidfd)
        if not finished:
            proc.kill()
        proc.wait()
        seconds = time.perf_counter() - start
    # decode the bytes as they are: read_text() would turn the CSV's \r\n into \n
    return Outcome(seconds, proc.returncode, out_path.read_bytes().decode(),
                   err_path.read_bytes().decode(),
                   rss_kb=int(hwm_path.read_text()) if hwm_path.exists() else 0,
                   error=None if finished else f"timed out after {REQUEST_TIMEOUT_S} s")


def evaluate(outcome: Outcome, request, keep: bool, validator, closed_form: bool) -> None:
    """Run the correctness checks, then drop the output text; `keep` keeps
    the checked values a digest-prefix request contributes."""
    outcome.sha = hashlib.sha256(outcome.stdout.encode()).hexdigest()
    try:
        if outcome.error:
            raise checks.CheckFailed(outcome.error)
        if outcome.code != 0 or outcome.stderr:
            raise checks.CheckFailed(f"exit {outcome.code}: {outcome.stderr.strip()}")
        if request.kind == "sweep":
            checked = checks.check_sweep_csv(outcome.stdout, request)
        else:
            checked = checks.check_record(outcome.stdout, request, validator, closed_form)
        outcome.checked = checked if keep else None
    except Exception as exc:  # any failed check fails this request only
        outcome.failure = f"{type(exc).__name__}: {str(exc)[:300]}"
    outcome.stdout = outcome.stderr = ""


def run_loop(requests, execute, check, seconds: float, at_least: int) -> tuple:
    """Issue requests until `seconds` have passed and at least `at_least`
    have completed; returns (requests, outcomes, wall seconds)."""
    issued, outcomes = [], []
    start = time.perf_counter()
    ref_before = reference_seconds()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(outcomes) >= at_least) or elapsed >= HARD_STOP_S:
            break
        request = next(requests)
        gc.collect()  # every request starts from the same collector state
        outcome = execute(request)
        ref_after = reference_seconds()
        outcome.ref_s = min(ref_before, ref_after)
        ref_before = ref_after
        check(outcome, request, len(outcomes))
        issued.append(request)
        outcomes.append(outcome)
    return issued, outcomes, time.perf_counter() - start


def tail(times: list) -> tuple:
    """(value, percentile) of the highest percentile of `times` with at
    least TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def summarize(requests, outcomes, prefix: int) -> dict:
    """Timings in reference seconds, with the wall-second figures beside them."""
    times = [o.ref_seconds for o in outcomes]
    wall = [o.seconds for o in outcomes]
    failed = sum(o.failure is not None for o in outcomes)
    circuits = sum(r.circuits for r, o in zip(requests, outcomes) if o.failure is None)
    kept = [o.checked for o in outcomes[:prefix] if o.checked is not None]
    errors = [e for c in kept for e in c.errors]
    value, percentile = tail(times)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "prefix_complete": len(kept) == prefix,
        "request_p50_s": statistics.median(times),
        "request_tail_s": value,
        "tail_percentile": percentile,
        "circuits_per_s": circuits / sum(times),
        "wall_request_p50_s": statistics.median(wall),
        "wall_request_tail_s": tail(wall)[0],
        "wall_circuits_per_s": circuits / sum(wall),
        "estimate_err_rms": math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else 0.0,
        "error_rate": failed / len(outcomes),
        "sampled_digest": checks.sampled_digest(kept),
        "output_digest": hashlib.sha256(
            "".join(o.sha for o in outcomes[:prefix]).encode()).hexdigest(),
        "exact": checks.exact_arrays(kept),
        "failures": sorted({o.failure for o in outcomes if o.failure})[:5],
    }


def layer_metrics(tracer, requests: int) -> dict:
    """Per-layer figures per traced request (counts, self and total seconds),
    plus failure counts summed over the run."""
    spans = tracer.summary()

    def per(x):
        return x / requests

    m = {}
    for name in ("statevector.apply_controlled", "statevector.apply_single", "qpe.run_qpe"):
        m[f"{name}.calls"] = per(spans[name]["calls"])
    m["gates.calls"] = per(spans["gates"]["calls"])
    for name in ("statevector.apply_controlled", "statevector.apply_single",
                 "statevector.exact_histogram", "statevector.sample", "gates",
                 "iqft.build_iqft", "iqft.apply_iqft", "qpe.run_qpe", "qpe.decode",
                 "precession", "extraction.full_pipeline", "angles.parse_angle",
                 "records.payload", "records.serialize", "cli.main"):
        m[f"{name}.self_s"] = per(spans[name]["self_s"])
    for name in ("iqft.apply_iqft", "qpe.run_qpe"):
        m[f"{name}.total_s"] = per(spans[name]["total_s"])
    for name in ("statevector.bytes_computed", "statevector.hist_entries",
                 "iqft.plan_ops", "extraction.warnings", "records.bytes_out"):
        m[name] = per(tracer.counts[name])
    m["qpe.decode.coverage_min"] = (tracer.coverage_min
                                    if spans["qpe.decode"]["calls"] else 0.0)
    for layer in LAYERS:
        m[f"{layer}.failures"] = tracer.failures[layer]
    m["trace.absent"] = len(tracer.absent)
    return m


def layer_shares(tracer, requests, outcomes) -> dict:
    """Self time per layer as a share of traced request time, separately
    for exact and sampled requests; "other" is time outside every span."""
    _, own = tracer.durations()
    name = np.frombuffer(tracer.span_name, dtype=np.int32)
    request = np.frombuffer(tracer.span_request, dtype=np.int32)
    layer = np.array([LAYERS.index(n.split(".")[0]) for n in tracer.names], dtype=np.int64)
    shares = {}
    for mode in ("exact", "sampled"):
        picked = [i for i, r in enumerate(requests) if (r.shots is None) == (mode == "exact")]
        if not picked:
            continue
        mask = np.isin(request, picked)
        by_layer = np.bincount(layer[name[mask]], weights=own[mask], minlength=len(LAYERS))
        wall = sum(outcomes[i].seconds for i in picked)
        shares[mode] = dict(zip(LAYERS, (by_layer / wall).tolist()))
        shares[mode]["other"] = 1.0 - sum(shares[mode].values())
    return shares


def measure_end_to_end(workload, stream, execute, check, seconds: float, env: dict) -> tuple:
    """Untraced closed loop: (stats, metric values, correct, report extras)."""
    setup_walls, setup_refs = measure_setup(env)
    execute(next(stream))  # warm-up: lazy imports and caches, not timed
    requests, outcomes, wall = run_loop(stream, execute, check, seconds,
                                        max(workload.prefix, TAIL_BEYOND + 1))
    stats = summarize(requests, outcomes, workload.prefix)
    if workload.in_process:
        peak_kb = peak_rss_kb()
    else:
        peak_kb = max(o.rss_kb for o in outcomes)
    values = {name: stats[name] for name in (
        "request_p50_s", "request_tail_s", "circuits_per_s", "estimate_err_rms", "error_rate")}
    # launches are too short to rescale one by one; rescale their median
    wall_setup = statistics.median(setup_walls)
    values.update(setup_s=wall_setup * REF_S / statistics.median(setup_refs),
                  peak_rss_mb=peak_kb / 1024.0)
    correct = stats["failed"] == 0 and stats["prefix_complete"]
    extras = {"setup_runs_s": setup_walls, "setup_reference_s": setup_refs,
              "wall_setup_s": wall_setup,
              "wall_s": wall, "request_s": [o.seconds for o in outcomes],
              "reference_s": [o.ref_s for o in outcomes]}
    return stats, values, correct, extras


def measure_layers(workload, stream, execute, check, seconds: float, stem: Path) -> tuple:
    """The same requests untraced, then traced: (stats, metric values,
    correct, report extras). Correct requires identical outputs. Per-layer
    times are wall seconds; trace.request_s and trace.overhead_s, which
    compare two passes made minutes apart, are reference seconds."""
    execute(next(stream))  # warm-up, as in the untraced run
    requests, plain, _ = run_loop(stream, execute, check, seconds / 2, workload.prefix)
    tracer = Tracer()

    def traced_execute(request):
        tracer.request += 1
        return execute(request)

    tracer.install()
    try:
        _, traced, _ = run_loop(iter(requests), traced_execute, check, 0.0, len(requests))
    finally:
        tracer.uninstall()
    stats = summarize(requests, traced, workload.prefix)
    plain_stats = summarize(requests, plain, workload.prefix)
    reproduced = ([o.sha for o in plain] == [o.sha for o in traced]
                  and plain_stats["sampled_digest"] == stats["sampled_digest"]
                  and checks.max_abs_diff(plain_stats["exact"], stats["exact"]) == 0.0)
    n = len(requests)
    plain_s = sum(o.ref_seconds for o in plain)
    values = layer_metrics(tracer, n)
    values["trace.request_s"] = plain_s / n
    values["trace.overhead_s"] = (sum(o.ref_seconds for o in traced) - plain_s) / n
    values["run.error_rate"] = (stats["failed"] + plain_stats["failed"]) / (2 * n)
    values["run.estimate_err_rms"] = stats["estimate_err_rms"]
    stats["attempted"] += plain_stats["attempted"]
    stats["failed"] += plain_stats["failed"]
    correct = stats["failed"] == 0 and stats["prefix_complete"] and reproduced
    tracer.save(f"{stem}-spans.npz")
    extras = {"traced_reproduces_untraced": reproduced, "absent": tracer.absent,
              "self_share": layer_shares(tracer, requests, traced),
              "spans": len(tracer.span_start), "vector_bytes": 16 << (requests[0].n + 1)}
    return stats, values, correct, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinqpe" / "__init__.py").is_file():
        _fail(f"no spinqpe sources under {SRC}; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    import spinqpe
    import spinqpe.cli as cli

    if Path(spinqpe.__file__).resolve().parent != SRC / "spinqpe":
        _fail(f"imported spinqpe from {spinqpe.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    env = _child_env()
    validator = jsonschema.Draft202012Validator(spinqpe.RUN_RECORD_SCHEMA)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def check(outcome, request, index):
        evaluate(outcome, request, index < workload.prefix, validator,
                 workload.closed_form)

    def execute(request):
        if workload.in_process or args.trace:
            return call_in_process(cli, request.argv)
        return call_subprocess(request.argv, env, stem)

    stream = workloads.requests(args.workload, args.seed)
    reference_seconds()  # warm-up, so the interpreter has specialised its loop
    if args.trace:
        stats, values, correct, extras = measure_layers(
            workload, stream, execute, check, args.seconds, stem)
        declared = spec["per_layer"]
    else:
        stats, values, correct, extras = measure_end_to_end(
            workload, stream, execute, check, args.seconds, env)
        declared = spec["end_to_end"]

    np.savez_compressed(f"{stem}-exact.npz", **stats.pop("exact"))
    report = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed),
              **stats, **extras, "values": values, "correct": correct}
    Path(f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(report, workload, declared, values)
    result = {
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


def print_report(report: dict, workload, declared: list, values: dict) -> None:
    info = report["environment"]
    print(f"spinqpe benchmark: workload {workload.name}, seed {info['seed']}, "
          f"trace {report['trace']}")
    print("environment: " + json.dumps(info))
    how = "in process" if workload.in_process or report["trace"] else "one process per request"
    passes = ", untraced plus traced" if report["trace"] else ""
    print(f"{report['attempted']} requests{passes}, {report['failed']} failed; "
          f"closed loop with one client, {how}")
    units = {m["name"]: m["unit"] for m in declared}
    if not report["trace"]:
        units.update(estimate_err_rms="1", error_rate="ratio")
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:.6g} {unit}")
    if not report["trace"]:
        print(f"  setup_s is the median of {len(report['setup_runs_s'])} launches")
        print(f"  timings are in reference seconds, on a clock at which the reference "
              f"kernel takes {REF_S} s; here it took "
              f"{statistics.median(report['reference_s']):.6g} s (median)")
        print(f"  in wall seconds: setup_s {report['wall_setup_s']:.6g} s, request_p50_s "
              f"{report['wall_request_p50_s']:.6g} s, request_tail_s "
              f"{report['wall_request_tail_s']:.6g} s, circuits_per_s "
              f"{report['wall_circuits_per_s']:.6g} 1/s")
        print(f"  request_tail_s is p{report['tail_percentile']:.1f} of "
              f"{report['attempted']} requests")
        print(f"  estimate_err_rms covers the first {workload.prefix} requests")
    else:
        print(f"  traced outputs reproduce untraced: {report['traced_reproduces_untraced']}; "
              f"absent targets: {report['absent'] or 'none'}")
        for mode, shares in report["self_share"].items():
            split = ", ".join(f"{k} {v:.1%}" for k, v in shares.items() if abs(v) >= 0.0005)
            print(f"  self time share of {mode} request time: {split}")
        vector, l3 = report["vector_bytes"], info["l3_bytes"]
        where = ("fits in L3, so they move at cache, not DRAM, bandwidth"
                 if l3 and vector <= l3 else "does not fit in L3")
        print("  statevector.bytes_computed is computed as 2 x 16 B x 2^qubits per gate "
              f"call; the {vector} B state vector {where} ({l3} B)")
    print(f"digests: sampled {report['sampled_digest']}, output {report['output_digest']}")
    for failure in report["failures"]:
        print(f"failure: {failure}")


if __name__ == "__main__":
    sys.exit(main())
