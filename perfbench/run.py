"""Run one benchmark workload against the ``ordinal`` sources in ``src/``.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Prints one line per metric with its unit and sample count, then, as the
last line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. The full result, with the seed,
Python version and CPU count, goes to ``perfbench/out/``; a traced run also
writes its spans there. Exits 1 when an outcome is wrong in a way no known
defect explains, and 2 when the sources or arguments are missing.

``--workload all`` runs the four workloads in turn, each in a fresh process.

``--negative-control`` replaces the first operation's expectation with a
wrong one, to show that the harness reports a wrong answer instead of
timing it.

``--setup-only DIR`` builds the workload's inputs in DIR, prints ``ready``
and exits; a run starts itself this way to time set-up from process start.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("certify", "audit", "quantify", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true")
    parser.add_argument("--setup-only", type=Path, metavar="DIR",
                        help="build the inputs in DIR, print 'ready' and exit")
    return parser.parse_args(argv)


def run_all(argv) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    codes = []
    for name in WORKLOADS:
        child = [a if a != "all" else name for a in argv]
        codes.append(subprocess.run([sys.executable, __file__, *child]).returncode)
    return max(codes)


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(argv)
    if not (SRC / "ordinal" / "__init__.py").is_file():
        print(f"perfbench: no ordinal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    workload = importlib.import_module(f"workloads.{args.workload}")
    if args.setup_only:
        args.setup_only.mkdir(parents=True)
        workload.setup(args.seed, args.setup_only)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    harness.pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    run = harness.Run(bool(args.trace))
    setup = harness.SetupClock(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-only"], OUT / f"{tag}-setup", run.host,
        samples=0 if args.trace else harness.SETUP_SAMPLES)
    try:
        ops = workload.setup(args.seed, workdir)
        import ordinal
        if Path(ordinal.__file__).resolve().parent != SRC / "ordinal":
            print(f"perfbench: imported ordinal from {ordinal.__file__}", file=sys.stderr)
            return 2
        if args.negative_control:
            ops[0] = dataclasses.replace(ops[0], expect=harness.Raised("WrongOnPurpose"),
                                         defect=None, defect_sig=None)
        run.measure(ops, args.seconds, setup)
    finally:
        run.host.close()
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s, setup_raw_s = setup.seconds(), setup.seconds(reference=False)
    e2e = run.end_to_end(setup_s)
    raw = run.end_to_end(setup_raw_s, reference=False)
    env = harness.environment(args.seed)
    tally = run.tally
    attempted = len(run.windows)
    failed = tally["defect"] + tally["wrong"]
    correct = tally["wrong"] == 0
    print(f"workload={args.workload} seed={env['seed']} python={env['python']} "
          f"nproc={env['nproc']} trace={args.trace} cycles={len(run.cycles)} "
          f"ops={attempted} ({len(ops)} per cycle) measured={run.elapsed:.2f} s")
    print("times in reference-host seconds (raw in brackets)")
    print(f"setup_s      {setup_s:.4f} s  [{setup_raw_s:.4f}]  "
          f"(median of {setup.samples} fresh processes)")
    print(f"ops_per_s    {e2e['ops_per_s']:.3f} 1/s  [{raw['ops_per_s']:.3f}]  "
          f"({attempted} ops)")
    print(f"op_p50_ms    {e2e['op_p50_ms']:.4f} ms  [{raw['op_p50_ms']:.4f}]  "
          f"(n={attempted}, {attempted // 2} above)")
    print(f"op_p90_ms    {e2e['op_p90_ms']:.4f} ms  [{raw['op_p90_ms']:.4f}]  "
          f"(n={attempted}, {attempted // 10} above)")
    print(f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"error_rate   {failed / attempted:.6f}  ({failed} of {attempted} ops)")
    for name, count in sorted(tally["defects"].items()):
        print(f"  known defect x{count}: {name}")
    if tally["wrong"]:
        print(f"  WRONG outcomes: {tally['wrong']}; first: {run.mismatches[0]}")

    if args.trace:
        values = run.per_layer()
        chosen = spec["per_layer"]
        run.tracer.dump(OUT / f"{tag}-spans.json", [op.kind for op in ops])
        print(f"per-layer, per traced cycle "
              f"({sum(t for t, _, _ in run.cycles)} of {len(run.cycles)} cycles traced):")
        for item in chosen:
            print(f"  {item['name']:40s} {values.get(item['name'], 0.0):.6g} {item['unit']}")
    else:
        chosen = spec["end_to_end"]
        values = e2e
    metrics = {item["name"]: {"value": values.get(item["name"], 0.0), "unit": item["unit"]}
               for item in chosen}
    record = {"env": env, "workload": args.workload, "trace": args.trace,
              "cycles": len(run.cycles), "ops_per_cycle": len(ops),
              "measured_s": run.elapsed, "error_rate": failed / attempted,
              "known_defects": tally["defects"], "mismatches": run.mismatches,
              "end_to_end": e2e, "end_to_end_raw": raw, "metrics": metrics,
              "setup_samples_s": setup.scaled, "setup_samples_raw_s": setup.raw,
              "probe_median_s": statistics.median(run.host.seconds),
              "op_ms_by_kind": run.median_ms_by_kind([op.kind for op in ops])}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
