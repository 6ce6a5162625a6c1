"""The padicdist benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout (the directory that holds
``src/padicdist``); elsewhere it exits with status 2 and prints no result.
Workloads: ``heis-cold``, ``heis-warm``, ``pro2-law``, ``lgroup-stream``
(see ``workloads.py``).  Each run is a closed loop with one caller, in
fresh single-threaded Python processes (``worker.py``) started one at a
time: ``SETUP_PROBES`` processes that only set up, then the measuring
process, which sets up and repeats the workload's pass (the same inputs
each time, fresh set-up between passes) for ``--seconds`` and at least
twice.

The machine this was written on changes speed by up to 2x within
minutes as other tenants load it, so every timed interval is scaled to
a reference machine speed: ``opclock.OpClock`` times a fixed pure-Python
probe around and inside each interval, leaves the probe time out, and
each interval is multiplied by PROBE_REFERENCE_S over the mean probe
time.  The unscaled values go to the result file (``uncalibrated``).

Metrics with ``--trace 0``: ``run_s`` is the fastest pass;
``op_p50_ms`` and ``op_p95_ms`` are quantiles over the ops of a pass
of each op's fastest repeat; ``setup_s`` is the median, over all processes
of the run, of the time from process start to ready; ``peak_rss_mb`` is
the measuring process's peak resident memory.  With ``--trace 1`` the
first half of the time runs untraced and the second half traced
(``tracing.py``), and the per-layer metrics of a traced pass are printed
instead; ``trace.overhead_s`` is the calibrated traced pass time less
the calibrated untraced one.

Every pass is gated against ``reference.json``: the seed-independent
shape of its output (record names and outcomes, request outcomes,
certificates) always, and the full output digest for the seeds listed
there.  A mismatch or a crash makes the run incorrect (exit status 1);
it never counts as a slow run.  The last line of standard output is the
JSON result; a fuller record with the run's context goes to
``.perfbench/results/``.  ``--smoke`` runs reduced-size inputs, for the
benchmark's own test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# workload -> committed reference it is gated against; the two heis
# workloads run the same job, so their reports must be identical
REFERENCE_KEY = {
    "heis-cold": "heis",
    "heis-warm": "heis",
    "pro2-law": "pro2",
    "lgroup-stream": "lgroup",
}
END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 5
# The time ``opclock.calibration_probe`` takes on a quiet machine of the
# kind the benchmark was written on: timed values are scaled to it.
PROBE_REFERENCE_S = 0.0055
DEADLINE_S = 170.0


def per_layer_unit(name):
    if name.endswith(".calls") or name in ("mahler.rows_built", "quotient.steps",
                                           "quotient.levels"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "s"


def quantile(values, q):
    """The q-quantile (q a whole percent), interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def calibrated(p):
    """A pass's (time, op latencies) at the reference machine speed.

    Each op is scaled by PROBE_REFERENCE_S over the mean time of the
    probes around and during it; the time between ops by the pass's
    median scale.
    """
    scales = [PROBE_REFERENCE_S / t for t in p["probes"]]
    ops = [t * k for t, k in zip(p["ops"], scales)]
    between = p["wall_s"] - sum(p["ops"])
    return sum(ops) + between * statistics.median(scales), ops


def timings(passes):
    """run_s and op quantiles from (pass time, op latencies) pairs.

    Interference only ever adds time, so the pass is timed by its fastest
    run and each op (repeated once per pass) by its fastest run.
    """
    ops = [min(times) for times in zip(*(o for _, o in passes))]
    return {
        "run_s": min(t for t, _ in passes),
        "op_p50_ms": 1000 * quantile(ops, 0.5),
        "op_p95_ms": 1000 * quantile(ops, 0.95),
    }


class Worker:
    """A worker process.

    ``setup_s`` is the time from its start to its ready line, less the
    calibration probes run meanwhile; ``setup_probe_s`` their mean time.
    """

    def __init__(self, root, args, timeout):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONHASHSEED"] = "0"
        cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
        self.timed_out = False
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                     text=True)

        def kill():
            self.timed_out = True
            self.proc.kill()

        watchdog = threading.Timer(max(timeout, 1.0), kill)
        watchdog.start()
        try:
            ready = self.proc.stdout.readline()
            t_ready = time.perf_counter()
            self.setup_s = self.setup_probe_s = None
            if ready.startswith("ready "):
                info = json.loads(ready[len("ready "):])
                self.setup_s = t_ready - t0 - info["stolen_s"]
                self.setup_probe_s = info["probe_s"]
            rest, _ = self.proc.communicate()
        finally:
            watchdog.cancel()
            self.proc.wait()
        lines = rest.strip().splitlines()
        self.result = None
        if self.proc.returncode == 0 and lines:
            try:
                self.result = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass


def source_context(root):
    """Digest and line count of src/padicdist (the checkout has no git data)."""
    digest = hashlib.sha256()
    lines = 0
    pkg = os.path.join(root, "src", "padicdist")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(path, pkg).encode() + b"\0" + data)
                lines += data.count(b"\n")
    return digest.hexdigest(), lines


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def warm_table(root, state, source_digest, smoke, deadline):
    """The directory holding a filled table cache, built once per source tree."""
    tag = ("smoke-" if smoke else "") + source_digest[:16]
    target = os.path.join(state, f"table-{tag}")
    if os.path.isdir(target) and os.listdir(target):
        return target
    tmp = tempfile.mkdtemp(prefix="table-fill-", dir=state)
    args = ["--workload", "heis-warm", "--make-table", tmp] + (["--smoke"] if smoke else [])
    worker = Worker(root, args, deadline - time.perf_counter())
    if worker.proc.returncode != 0 or not os.listdir(tmp):
        shutil.rmtree(tmp, ignore_errors=True)
        raise RuntimeError("could not fill the structure-constant table cache")
    shutil.rmtree(target, ignore_errors=True)
    os.rename(tmp, target)
    return target


def gate(reference, passes, seed):
    """Problems with the passes' outputs, as a list of strings."""
    problems = []
    exact = reference["digests"].get(str(seed))
    for i, p in enumerate(passes):
        if "error" in p:
            problems.append(f"pass {i} crashed: {p['error']}")
            continue
        if p["shape"] != reference["shape"]:
            problems.append(f"pass {i}: record outcomes differ from the reference")
        if exact is not None and p["digest"] != exact:
            problems.append(f"pass {i}: output differs from the seed-{seed} reference")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REFERENCE_KEY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "padicdist", "__init__.py")):
        print("perfbench: run from a checkout root that holds src/padicdist",
              file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        key = REFERENCE_KEY[args.workload] + ("-smoke" if args.smoke else "")
        reference = json.load(fh)[key]

    state = os.path.join(root, ".perfbench")
    scratch = os.path.join(state, "tmp")
    results = os.path.join(state, "results")
    for d in (scratch, results):
        os.makedirs(d, exist_ok=True)
    source_digest, src_lines = source_context(root)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scratch", scratch] + (["--smoke"] if args.smoke else [])
    if args.workload == "heis-warm":
        try:
            table = warm_table(root, state, source_digest, args.smoke, deadline)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        common += ["--warm-table", table]

    setups = []  # (time to ready, mean calibration probe time during it)
    for _ in range(SETUP_PROBES):
        probe = Worker(root, common + ["--setup-only"], deadline - time.perf_counter())
        if probe.setup_s is not None and probe.proc.returncode == 0:
            setups.append((probe.setup_s, probe.setup_probe_s))
    main_run = Worker(root, common + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)],
                      deadline - time.perf_counter())
    if main_run.setup_s is not None:
        setups.append((main_run.setup_s, main_run.setup_probe_s))

    result = main_run.result
    passes = result["passes"] if result else []
    problems = gate(reference, passes, args.seed)
    if result is None:
        problems.append("the measuring process died" +
                        (" (time limit)" if main_run.timed_out else ""))
    if len(setups) < SETUP_PROBES + 1:
        problems.append("a set-up probe failed")
    ops_per_pass = reference["ops"]
    attempted = sum(p["attempted"] for p in passes if "error" not in p)
    failed = sum(p["failed"] for p in passes if "error" not in p)
    for p in passes:
        if "error" in p:  # a crash fails every op the pass did not complete
            attempted += ops_per_pass
            failed += ops_per_pass - p["completed"]
    if not passes:
        attempted, failed = ops_per_pass, ops_per_pass

    good = [p for p in passes if "error" not in p]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    metrics = {}
    raw = {}
    if args.trace == 0 and untraced and setups:
        raw = dict(timings([(p["wall_s"], p["ops"]) for p in untraced]),
                   setup_s=statistics.median(t for t, _ in setups))
        metrics = dict(
            timings([calibrated(p) for p in untraced]),
            setup_s=statistics.median(t * PROBE_REFERENCE_S / c for t, c in setups),
            peak_rss_mb=result["peak_rss_kb"] / 1024,
        )
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    elif args.trace == 1 and traced and untraced and result["trace"]["metrics"]:
        layer = dict(result["trace"]["metrics"])
        layer["trace.overhead_s"] = (
            statistics.median(p["wall_s"] * PROBE_REFERENCE_S * len(p["probes"])
                              / sum(p["probes"]) for p in traced)
            - statistics.median(calibrated(p)[0] for p in untraced))
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layer.items()}
    if not metrics:
        problems.append("no metrics were measured")

    correct = not problems
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": source_digest,  # sha256 of src/padicdist; checkouts carry no git data
        "src_lines": src_lines,
        "reference": "exact" if str(args.seed) in reference["digests"] else "shape",
        "passes": len(passes), "ops_per_pass": [p.get("attempted") for p in good],
        "failed_share": failed / attempted,
        "setup_samples_s": setups,
        "uncalibrated": raw,
        "wall_s": time.perf_counter() - started,
    }
    spans = result["trace"]["spans"] if result and result["trace"] else []
    record = {"context": context, "correct": correct, "problems": problems,
              "metrics": metrics, "passes": passes, "spans": spans,
              "targets": tracing.TARGETS if args.trace else None}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh)
    shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print(f"perfbench: INVALID RUN: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} ops, {failed} failed; reference {context['reference']}; "
          f"result file .perfbench/results/{name}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
