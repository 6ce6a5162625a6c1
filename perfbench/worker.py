"""One benchmark process: set up a workload, then run timed passes.

Started by ``run.py`` with ``src`` on PYTHONPATH.  The op clock and its
calibration probes start before padicdist is imported.  The worker
prints ``ready`` and a JSON object (probe time taken out of set-up, mean
probe time during it) once set-up is done; the parent times process
start to that line.  Unless ``--setup-only``, it then prints one JSON
line with the passes: time, op latencies and the probe times during
them (at the ends of a traced pass), output digests, and for a traced run the per-layer metrics and
spans.  ``--make-table DIR`` instead fills the structure-constant cache
of the heisenberg job in DIR and exits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import opclock

# A run repeats its pass at least this often, so that every op has a
# repeat to take its fastest time from.
MIN_PASSES = 2


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _passes(workload, clock, traced, until, out, first, least=1):
    """Run passes until ``until`` (perf_counter time) and at least ``least``."""
    done = 0
    while True:
        if not first:
            workload.setup()
        first = False
        start = len(clock.samples)
        stolen = clock.stolen
        # a traced pass runs without the op clock's probes; probes at its
        # ends give the machine speed to scale it by
        before = opclock.probe_time(time.perf_counter) if traced else None
        t0 = time.perf_counter()
        try:
            text, attempted, failed = workload.run_pass()
        except Exception as exc:  # a crash ends the run; the parent fails the rest
            out.append({"error": f"{type(exc).__name__}: {exc}",
                        "completed": len(clock.samples) - start, "traced": traced})
            return False
        t1 = time.perf_counter()
        if traced:
            pass_probes = [before, opclock.probe_time(time.perf_counter)]
        else:
            pass_probes = clock.probes[start:]
        workload.cleanup()
        out.append({
            "wall_s": t1 - t0 - (clock.stolen - stolen),
            "ops": clock.samples[start:],
            "probes": pass_probes,
            "attempted": attempted,
            "failed": failed,
            "digest": _digest(text),
            "shape": _digest(workload.shape(text)),
            "traced": traced,
        })
        done += 1
        if done >= least and time.perf_counter() >= until:
            return True


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--warm-table")
    parser.add_argument("--scratch")
    parser.add_argument("--make-table")
    args = parser.parse_args(argv)

    if args.make_table:
        import workloads

        workloads.fill_table(args.smoke, args.make_table)
        return 0
    # the clock and its probes start before padicdist is imported, so
    # set-up is timed and calibrated whole
    clock = opclock.OpClock(time.perf_counter)
    clock.run()
    import workloads

    workload = workloads.make(args.workload, args.seed, smoke=args.smoke,
                              warm_table=args.warm_table, scratch=args.scratch)
    workload.setup()
    _, probe_s = clock.split()
    print("ready", json.dumps({"stolen_s": clock.stolen, "probe_s": probe_s}), flush=True)
    if args.setup_only:
        clock.stop()
        workload.cleanup()
        return 0

    workload.install_clock(clock)
    passes = []
    begin = time.perf_counter()
    trace = None
    untraced_until = begin + (args.seconds / 2 if args.trace else args.seconds)
    ok = _passes(workload, clock, False, untraced_until, passes, first=True,
                 least=1 if args.trace else MIN_PASSES)
    if ok and args.trace:
        import tracing

        clock.stop()  # probes would land inside the traced spans
        tracer = tracing.Tracer()
        modules = [m for name, m in sys.modules.items()
                   if name == "padicdist" or name.startswith("padicdist.")]
        tracer.install(modules + [workloads])
        _passes(workload, clock, True, begin + args.seconds, passes, first=False)
        n = sum(1 for p in passes if p["traced"] and "error" not in p)
        trace = {"metrics": tracer.metrics(n) if n else None, "spans": tracer.spans()}
    clock.stop()
    workload.cleanup()
    print(json.dumps({"passes": passes, "peak_rss_kb": peak_rss_kb(), "trace": trace}))
    return 0


def peak_rss_kb():
    """This process's peak resident set since exec, in KiB.

    ``ru_maxrss`` also counts the parent's memory copied in by fork, so
    the kernel's per-image high-water mark is read when there is one.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.exit(main())
