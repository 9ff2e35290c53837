#!/usr/bin/env python3
"""The performance ledger: six workloads, end-to-end metrics, and a time
tree per layer.

    python benchmarks/ledger/run.py --seed 0            # the whole suite
    python benchmarks/ledger/run.py --smoke             # same paths, tiny
    python benchmarks/ledger/run.py --workload gcn_full --seed 3 \\
        --seconds 10 --trace 0                          # one pass

Every pass of every workload runs in a fresh subprocess, one after
another.  The untraced pass (``--trace 0``) drives the program through
its public entry points with library defaults and yields the end-to-end
metrics; the traced pass (``--trace 1``) has the benchmark's own driver
call each layer's public functions inside the benchmark's own spans and
yields the per-layer metrics.  Metric names, units and bounds live in
``BENCHMARK.json`` at the root of the checkout; sizes in
``suite/sizes.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
DEFAULT_OUT = os.path.join(HERE, "out")
PASS_TIMEOUT = 170.0     # seconds before a pass is killed
SCHEMA = "repro.ledger/1"


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Child: one pass of one workload, in this process
# ----------------------------------------------------------------------
def child_main(args) -> int:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from suite import sizes
    from suite.measure import Ctx
    from suite.spans import Tracer
    from suite.workloads import WORKLOADS

    table = sizes.SMOKE if args.smoke else sizes.FULL
    ctx = Ctx(
        workload=args.workload,
        cfg=table[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        workdir=args.workdir,
        setup_repeats=(sizes.SMOKE_SETUP_REPEATS if args.smoke
                       else sizes.SETUP_REPEATS),
        ref_ops=sizes.SMOKE_REF_OPS if args.smoke else sizes.REF_OPS,
        tracer=Tracer(args.workload) if args.trace else None,
        enforce_timing=args.enforce_timing,
    )
    module = WORKLOADS[args.workload]
    result = (module.traced if args.trace else module.untraced)(ctx)
    if ctx.tracer is not None:
        ctx.tracer.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result.to_dict(), fh)
    return 0


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
def run_pass(workload: str, seed: int, seconds: float, traced: bool,
             smoke: bool, spans_dir: str | None, enforce_timing: bool) -> dict:
    """Run one pass in a fresh subprocess; returns its result dict with
    the numbers only the parent can take (RSS and CPU of the child's
    whole process tree, read from ``wait4`` after it has exited)."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    result_path = os.path.join(workdir, "result.json")
    spans_path = os.path.join(spans_dir or workdir, f"spans-{workload}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(traced)),
           "--workdir", workdir, "--result", result_path,
           "--spans", spans_path]
    if smoke:
        cmd.append("--smoke")
    if enforce_timing:
        cmd.append("--enforce-timing")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        status, usage = _wait(proc, PASS_TIMEOUT)
        wall = time.perf_counter() - t0
        if status != 0 or not os.path.exists(result_path):
            return {"metrics": {}, "samples": {}, "spread": {}, "losses": [],
                    "attempted": 1, "failed": 1, "notes": {},
                    "violations": [f"pass exited with status {status}"]}
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        _kill_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = result["metrics"]
    cpu = usage.ru_utime + usage.ru_stime
    if traced:
        metrics["proc.cpu_util"] = cpu / wall
    else:
        # Linux reports ru_maxrss in KiB: the largest resident set of
        # any one process in the child's tree.
        metrics["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["notes"]["pass_wall_s"] = wall
    return result


def _wait(proc, timeout: float):
    """``(exit status, rusage)`` of the child and its reaped descendants;
    kills the child's process group when it overruns ``timeout``."""
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.perf_counter() > deadline:
            _kill_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        time.sleep(0.02)


def _kill_group(pid: int) -> None:
    """The child leads its own session: whatever it left running dies
    with its group (a no-op after a clean exit)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def finish(result: dict, names: list[str]) -> None:
    """Keep exactly the metrics ``BENCHMARK.json`` names for this pass:
    an unknown name is a violation, a metric the workload does not
    exercise reads 0."""
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        result["violations"].append(f"metrics not in BENCHMARK.json: {unknown}")
    result["metrics"] = {name: metrics.get(name, 0.0) for name in names}


def cross_pass_checks(untraced: dict, traced: dict) -> list[str]:
    """Same seed, same arithmetic: the two passes' losses agree bitwise
    on the operations both ran."""
    a, b = untraced["losses"], traced["losses"]
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            return [f"untraced vs traced pass: loss differs at operation "
                    f"{i}: {a[i]!r} vs {b[i]!r}"]
    return []


def print_pass(workload: str, label: str, result: dict, units: dict) -> None:
    print(f"== {workload} [{label}]  attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, value in result["metrics"].items():
        n = result["samples"].get(name)
        beside = f"  (n={n})" if n else ""
        print(f"  {name:<36} {value:>16.6g} {units[name]}{beside}")
    for key, value in result["notes"].items():
        print(f"  note: {key} = {value}")
    for v in result["violations"]:
        print(f"  VIOLATION: {v}")
    sys.stdout.flush()


def host_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "platform": platform.platform()}
    for mod in ("numpy", "scipy"):
        try:
            facts[mod] = __import__(mod).__version__
        except ImportError:
            facts[mod] = None
    return facts


def contract_line(result: dict, units: dict) -> str:
    return json.dumps({
        "correct": not result["violations"],
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seconds", type=float,
                        help="timed section of each pass "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced pass only; 1: traced pass only")
    parser.add_argument("--untraced-only", action="store_const", const=0,
                        dest="trace")
    parser.add_argument("--traced-only", action="store_const", const=1,
                        dest="trace")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same code paths and checks; "
                             "numbers are not worth recording")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for results.json and the spans")
    for hidden in ("--workdir", "--result", "--spans"):
        parser.add_argument(hidden, help=argparse.SUPPRESS)
    for hidden in ("--child", "--enforce-timing"):
        parser.add_argument(hidden, action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program under test is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; have {names}")
    seconds = args.seconds
    if seconds is None:
        sys.path.insert(0, HERE)
        from suite.sizes import SMOKE_SECONDS
        seconds = SMOKE_SECONDS if args.smoke else float(manifest["run_seconds"])
    e2e = [m["name"] for m in manifest["end_to_end"]]
    layer = [m["name"] for m in manifest["per_layer"]]
    units = {m["name"]: m["unit"]
             for m in manifest["end_to_end"] + manifest["per_layer"]}
    single = args.workload is not None and args.trace is not None
    spans_dir = None
    if not single:
        os.makedirs(args.out, exist_ok=True)
        spans_dir = args.out

    report = {"schema": SCHEMA, "seed": args.seed, "smoke": args.smoke,
              "seconds": seconds, "host": host_facts(), "workloads": {}}
    last = None
    for workload in ([args.workload] if args.workload else names):
        entry = report["workloads"][workload] = {}
        for traced in ((0, 1) if args.trace is None else (args.trace,)):
            label = "traced" if traced else "untraced"
            # A threshold on one measured ratio (tracing overhead <= 10%,
            # unattributed <= 15%) fails the suite at full size.  It is
            # only a note under --smoke, where fixed overheads are the
            # result, and in the driver's single-pass form, where host
            # noise of +-10% on one ratio must not read as incorrect.
            result = run_pass(workload, args.seed, seconds, bool(traced),
                              args.smoke, spans_dir,
                              enforce_timing=not (args.smoke or single))
            finish(result, layer if traced else e2e)
            entry[label] = last = result
        if len(entry) == 2:
            entry["traced"]["violations"] += cross_pass_checks(
                entry["untraced"], entry["traced"])
        for label, result in entry.items():
            print_pass(workload, label, result, units)

    passes = [r for e in report["workloads"].values() for r in e.values()]
    correct = not any(r["violations"] for r in passes)
    if single:
        print(contract_line(last, units))
    else:
        path = os.path.join(args.out, "results.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1)
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r["attempted"] for r in passes),
            "failed": sum(r["failed"] for r in passes),
            "metrics": {}, "results": os.path.relpath(path),
        }))
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    return 0 if correct and not any(r["failed"] for r in passes) else 1


if __name__ == "__main__":
    sys.exit(main())
