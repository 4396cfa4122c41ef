"""Seeded, layered benchmark for hyperf.

Usage, from the repository root:

    python3 perfbench/run.py --workload flow-dense --seed 3 --seconds 25 --trace 0

One process, one closed-loop client, no extra threads: the next request
starts when the previous one has finished.  Requests are built from
``--seed`` during set-up, in whole cycles of the workload's size schedule.
The loop runs each request once, in order, and stops at the first cycle
boundary after ``--seconds`` spent in requests, once at least 100 are done
(a workload that is not clocked runs its whole list).  Every request's
time is a latency sample.  Each answer is checked right after its request,
outside the request's time, and then dropped.
Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
requests of the workload once untraced and once with every library
function wrapped, requires identical answers, and reports per-layer
metrics from the spans; see README.md.
"""

import time

SETUP_START = time.perf_counter()  # set-up time counts from here, before hyperf is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
ANSWERS = HERE / "answers_seed1.json"
SETUP_SAMPLES = 5  # this process plus four set-up-only children
MIN_REQUESTS = 100  # so that at least 10 latency samples lie beyond p90
HEADROOM = 1.6  # a clocked run has requests for a host this much faster than nominal
WORKLOAD_NAMES = ("flow-dense", "search-gnp", "sparse-wide", "cli-verify")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up, print the seconds and exit (used internally)")
    ap.add_argument("--record-answers", action="store_true",
                    help=f"rewrite {ANSWERS.name} from seed {DEFAULT_SEED}, for --workload "
                         "or for every workload")
    args = ap.parse_args()
    if args.workload is None and not args.record_answers:
        ap.error("--workload is required")
    return args


def load_workloads():
    """Import the workloads, and with them hyperf from this checkout's src/."""
    if not (ROOT / "src" / "hyperf" / "__init__.py").is_file():
        sys.exit(f"hyperf sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


# ------------------------------------------------------------------ running


def request_count(wl, seconds, tiny):
    """Requests to build: whole cycles, at least MIN_REQUESTS, and about
    `seconds` of work at the nominal speed, or HEADROOM times that if the
    run ends on the clock."""
    if tiny:
        return wl.cycle
    work = seconds * (HEADROOM if wl.clocked else 1)
    cycles = max(math.ceil(MIN_REQUESTS / wl.cycle), round(work / (wl.cycle * wl.nominal_s)))
    return cycles * wl.cycle


def run_all(wl, requests, tracer=None, seconds=None, judge=None):
    """Run requests in order; returns [(result, error, seconds)].

    With `seconds`, stop at the first cycle boundary once that much time
    has been spent in requests and MIN_REQUESTS are done.  With `judge`,
    each result is replaced by judge(index, result, error) as soon as its
    request has been timed, so results are not kept: memory does not grow
    with the number of requests a fast host gets through.
    """
    out = []
    busy = 0.0
    for i, req in enumerate(requests):
        if seconds is not None and i % wl.cycle == 0 and i >= MIN_REQUESTS and busy >= seconds:
            break
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            res, err = wl.run(req, tracer), None
        except Exception as exc:  # a failed request is counted, and the run goes on
            res, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        busy += elapsed
        if tracer is not None:
            tracer.request = None
        if judge is not None:
            res = judge(i, res, err)
        out.append((res, err, elapsed))
    return out


def problems(wl, req, res, err, expected):
    """What is wrong with one request: an error, a failed check, or
    another answer than the recorded one (`expected`, None if none)."""
    if err is not None:
        return [err]
    try:
        found = wl.check(req, res)
        if expected is not None and wl.value(req, res) != expected:
            found.append(f"answer {wl.value(req, res)} != recorded {expected}")
    except Exception as exc:  # malformed output fails its check
        found = [f"check raised {type(exc).__name__}: {exc}"]
    return found


def expected_answer(recorded, i):
    return recorded[i] if recorded and i < len(recorded) else None


def failures(wl, requests, results, recorded):
    """{request index: problems} for every request with any."""
    out = {}
    for i, (req, (res, err, _)) in enumerate(zip(requests, results)):
        found = problems(wl, req, res, err, expected_answer(recorded, i))
        if found:
            out[i] = found
    return out


def describe(bad):
    return [f"request {i}: {msg}" for i, problems in sorted(bad.items())
            for msg in problems][:20]


def recorded_answers(name, seed, tiny):
    if seed != DEFAULT_SEED or tiny or not ANSWERS.is_file():
        return None
    return json.loads(ANSWERS.read_text(encoding="utf-8")).get(name)


def setup_samples(args):
    """Set-up seconds of fresh processes doing this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    cmd += ["--tiny"] if args.tiny else []
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def emit(lines, correct, attempted, failed, metrics):
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def end_to_end(args, wl, requests, setup_s):
    recorded = recorded_answers(args.workload, args.seed, args.tiny)

    def judge(i, res, err):
        return problems(wl, requests[i], res, err, expected_answer(recorded, i))

    gc.collect()
    results = run_all(wl, requests, seconds=args.seconds if wl.clocked else None, judge=judge)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-verify" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    bad = {i: found for i, (found, _, _) in enumerate(results) if found}
    attempted = len(results)
    failed = len(bad)
    latencies = [t for _, _, t in results]
    busy = sum(latencies)
    setups = [setup_s] + setup_samples(args)
    qs = (statistics.quantiles(latencies, n=10, method="inclusive") if attempted > 1
          else latencies * 9)
    lines = describe(bad) + [
        f"workload {args.workload} seed {args.seed}: {attempted} of {len(requests)} requests, "
        f"{busy:.3f} s in requests",
        f"failed_frac {failed / attempted} ratio (failed {failed} of {attempted} attempted)",
        f"latency samples {attempted}; "
        f"set-up samples {' '.join(f'{x:.4f}' for x in setups)}",
    ]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "throughput_per_s": metric((attempted - failed) / busy, "1/s"),
        "latency_p50_ms": metric(qs[4] * 1000, "ms"),
        "latency_p90_ms": metric(qs[8] * 1000, "ms"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }
    emit(lines, failed == 0, attempted, failed, metrics)


def traced(args, wl, requests):
    from hyperf import verify
    from tracer import Tracer, layer_metrics
    from workloads import SUITE_NAMES

    requests = requests[:wl.trace_count]
    gc.collect()
    plain = run_all(wl, requests)
    tracer = Tracer()
    tracer.install()
    try:
        spans = run_all(wl, requests, tracer)
    finally:
        tracer.uninstall()
    bad = failures(wl, requests, spans, recorded_answers(args.workload, args.seed, args.tiny))
    for i, ((a, err_a, _), (b, err_b, _)) in enumerate(zip(plain, spans)):
        if err_a is not None:
            bad.setdefault(i, []).append(f"untraced run: {err_a}")
        elif err_b is None and not wl.same(a, b):
            bad.setdefault(i, []).append("traced answer differs from untraced")
    failed = len(bad)
    wall_plain = sum(r[2] for r in plain)
    wall_traced = sum(r[2] for r in spans)
    out_dir = ROOT / ".perfbench_traces"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(span_file)
    suites = {name: getattr(verify.SUITES.get(name), "__name__", "") for name in SUITE_NAMES}
    metrics = layer_metrics(tracer, suites)
    metrics["trace.overhead_frac"] = metric(wall_traced / wall_plain - 1, "ratio")
    lines = describe(bad) + [
        f"workload {args.workload} seed {args.seed}: {len(requests)} requests traced, "
        f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}",
        f"untraced {wall_plain:.3f} s, traced {wall_traced:.3f} s; "
        f"failed {failed} of {len(requests)}",
    ]
    emit(lines, failed == 0, len(requests), failed, metrics)


def record(wls, names, seconds):
    """Rewrite the recorded answers of the named workloads at the default seed."""
    answers = json.loads(ANSWERS.read_text(encoding="utf-8")) if ANSWERS.is_file() else {}
    for name in names:
        wl = wls.WORKLOADS[name]()
        workdir = ROOT / ".perfbench_work" / f"record-{name}-{os.getpid()}"
        try:
            requests = wl.build(DEFAULT_SEED, request_count(wl, seconds, False), False, workdir)
            runs = run_all(wl, requests)
            bad = failures(wl, requests, runs, None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if bad:
            sys.exit("\n".join(describe(bad)))
        answers[name] = [wl.value(req, res) for req, (res, _, _) in zip(requests, runs)]
        print(f"{name}: {len(runs)} answers")
    ANSWERS.write_text(json.dumps(answers, separators=(",", ":")) + "\n", encoding="utf-8")


def main():
    args = parse_args()
    wls = load_workloads()
    if args.record_answers:
        return record(wls, [args.workload] if args.workload else WORKLOAD_NAMES, args.seconds)
    wl = wls.WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        requests = wl.build(args.seed, request_count(wl, args.seconds, args.tiny), args.tiny,
                            workdir)
        setup_s = time.perf_counter() - SETUP_START
        if args.setup_only:
            print(setup_s)
        elif args.trace:
            traced(args, wl, requests)
        else:
            end_to_end(args, wl, requests, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
