"""resloc benchmark: runs one workload of CLI checks and prints its metrics.

    python3 perfbench/run.py --workload torus-full --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; resloc is imported from ``src/``.
One process generates the seed's inputs, then calls ``resloc.cli.main`` for
each op of the workload ("a pass"), one after another, passing until the
time is used up (closed loop, one client).  The first pass warms up and is not
timed.  Every report is checked against ``reference.json``.  The speed probe
(``probe.py``) samples the host's speed during every op and every set-up
sample, and each time is stated at the probe's nominal speed, because the
host's own speed drifts.
With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of traced passes, which
alternate with untraced ones.  Details of the run (per-op report sha256s, raw
times and probe times, set-up samples, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import NOMINAL_S, Sampler, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

SETUP_PROBES = 9
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


class NoSources(Exception):
    """The checkout has no resloc sources to benchmark."""


def import_resloc():
    """Import resloc from this checkout's src/, never from anywhere else."""
    package = ROOT / "src" / "resloc"
    if not (package / "__init__.py").is_file():
        raise NoSources(f"no resloc sources at {package}")
    sys.path.insert(0, str(package.parent))
    import resloc

    if Path(resloc.__file__).resolve().parent != package:
        raise NoSources(f"resloc was imported from {resloc.__file__}, not {package}")
    return resloc


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a name from workloads.WORKLOADS")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the mean probe sample and exit; the parent "
                        "times this as one set-up sample")
    return p.parse_args(argv)


# -- set-up ------------------------------------------------------------------------


def set_up(workload: str, seed: int):
    """Generate and write the seed's inputs into the current directory and load
    each op's input once.  Returns the ops and the sha256 of every input."""
    from resloc.datasets import BUNDLED, load_dataset

    import families
    from workloads import generated_inputs, workload_ops

    inputs = generated_inputs(workload, seed)
    for stem, ds in inputs.items():
        families.write_dataset(ds, f"{stem}.json")
    ops = workload_ops(workload, seed, inputs)
    digests = {}
    for source in dict.fromkeys(op.source for op in ops):
        load_dataset(source)
        path = (ROOT / "src" / "resloc" / "data" / f"{source}.json"
                if source in BUNDLED else Path(source))
        digests[source] = hashlib.sha256(path.read_bytes()).hexdigest()
    return ops, digests


def time_set_up(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh process that imports resloc and sets up, and the
    mean probe sample taken in that process."""
    start = time.perf_counter()
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                            "--workload", workload, "--seed", str(seed)],
                           cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    return time.perf_counter() - start, float(child.stdout.split()[-1])


def validate_inputs(ops) -> list[str]:
    """``validate`` must PASS on every generated input.  Inputs that a
    ``validate`` op of the workload covers are left to that op."""
    from resloc import cli

    covered = {op.source for op in ops if op.argv[0] == "validate"}
    problems = []
    for source in dict.fromkeys(op.source for op in ops):
        if not source.endswith(".json") or source in covered:
            continue
        rc = cli.main(["validate", source, "--output", "validate.out"])
        if rc != 0:
            problems.append(f"validate {source}: exit {rc}")
    return problems


# -- ops and passes ------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def reference_key(op, input_digest: str) -> str:
    return f"{' '.join(op.argv)} @{input_digest[:16]}"


def check_report(op, rc, report, input_digest: str, reference: dict) -> str | None:
    """None when the op passed; otherwise why it failed."""
    if rc != 0:
        return f"exit status {rc}"
    if not report.get("pass"):
        return "report says FAIL"
    got = [[c["name"], c["pass"], c["detail"]] for c in report["checks"]]
    exact = reference["exact"].get(reference_key(op, input_digest))
    if exact is not None:
        return None if got == exact else f"checks differ from the reference: {got}"
    # No reference was recorded for this seed's input: the check names are
    # seed-independent, and every check must pass.
    names = reference["names"][op.label]
    if [g[0] for g in got] != names or not all(g[1] for g in got):
        return f"checks differ from the reference names: {got}"
    return None


def run_op(op, digests: dict, reference: dict) -> dict:
    from resloc import cli

    out = "report.out"
    if os.path.exists(out):
        os.remove(out)
    sampler = Sampler()
    try:
        with sampler:
            rc = cli.main(list(op.argv) + ["--output", out])
        error = None
    except (Exception, SystemExit) as exc:
        rc, error = None, f"{type(exc).__name__}: {exc}"
    raw = Path(out).read_bytes() if os.path.exists(out) else b""
    if error is None:
        try:
            error = check_report(op, rc, json.loads(raw), digests[op.source], reference)
        except (ValueError, KeyError) as exc:
            error = f"unreadable report: {exc}"
    return {"label": op.label, "seconds": sampler.seconds, "probe_s": sampler.probe_s,
            "sha256": hashlib.sha256(raw).hexdigest(), "error": error}


def run_pass(ops, digests, reference, tracer=None, warmup=False) -> dict:
    gc.collect()
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        results.append(run_op(op, digests, reference))
    return {"traced": tracer is not None, "warmup": warmup, "ops": results,
            "wall_s": sum(r["seconds"] for r in results)}


def run_passes(ops, digests, reference, seconds: float, trace: bool):
    """An untimed warm-up pass, then timed passes, alternating with traced
    ones when ``trace`` is set, until the next pass would end after
    ``seconds``.  Returns the passes, the per-layer metrics of each traced
    pass, the first traced pass's spans and the trace targets that this
    resloc lacks."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer() if trace else None
    passes = [run_pass(ops, digests, reference, warmup=True)]
    layers, spans = [], None
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        if traced:
            tracer.reset()
            with tracer:
                p = run_pass(ops, digests, reference, tracer)
            layers.append(layer_metrics(tracer))
            if spans is None:
                spans = tracer.spans()
        else:
            p = run_pass(ops, digests, reference)
        passes.append(p)
        elapsed = time.perf_counter() - start
        enough = (len(passes) - 1 >= MIN_PASSES and
                  (not trace or len(layers) >= MIN_TRACED_PASSES))
        if enough and elapsed + p["wall_s"] > seconds:
            return passes, layers, spans, (tracer.missing if trace else [])


# -- metrics -------------------------------------------------------------------------


def timed(passes, traced: bool) -> list[dict]:
    return [p for p in passes if not p["warmup"] and p["traced"] == traced]


def scaled_ops(p) -> list[float]:
    """Each op's time in one pass, at the probe's nominal speed.  The host's
    speed drifts, and moves an op and the probe samples taken while it runs
    alike (see README.md)."""
    return [scaled(r["seconds"], r["probe_s"]) for r in p["ops"]]


def pass_slowdown(p) -> float:
    """How much slower than nominal the host ran during one pass."""
    return statistics.mean(r["probe_s"] for r in p["ops"]) / NOMINAL_S


def end_to_end(passes, setup_samples) -> dict:
    plain = [scaled_ops(p) for p in timed(passes, traced=False)]
    return {
        "setup_s": (statistics.median(scaled(s, pr) for s, pr in setup_samples), "s"),
        "wall_s": (statistics.median(map(sum, plain)), "s"),
        "slowest_op_s": (statistics.median(map(max, plain)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(passes, layers) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced passes: the median of each time, at
    the probe's nominal speed, and each count, which must repeat exactly
    between traced passes."""
    from tracing import metric_names, metric_unit

    slowdowns = [pass_slowdown(p) for p in timed(passes, traced=True)]
    out, unsteady = {}, []
    for name in metric_names():
        unit = metric_unit(name)
        values = [m[name] for m in layers]
        if unit == "s":
            out[name] = (statistics.median(v / f for v, f in zip(values, slowdowns)), unit)
            continue
        if len(set(values)) > 1:
            unsteady.append(f"{name} differs between traced passes: {values}")
        out[name] = (values[0], unit)
    plain = timed(passes, traced=False)
    out["trace.overhead"] = (
        statistics.median(sum(scaled_ops(p)) for p in timed(passes, traced=True))
        / statistics.median(sum(scaled_ops(p)) for p in plain) - 1, "ratio")
    # the raw clock and the probe, to show how fast the host ran
    out["raw.wall_s"] = (statistics.median(p["wall_s"] for p in plain), "s")
    out["probe.slowdown"] = (statistics.median(map(pass_slowdown, plain)), "ratio")
    return out, unsteady


def digest_problems(passes) -> list[str]:
    """Every op must write the same report bytes in every pass, traced or not."""
    problems = []
    for i, first in enumerate(passes[0]["ops"]):
        seen = {p["ops"][i]["sha256"] for p in passes}
        if len(seen) > 1:
            problems.append(f"{first['label']}: report bytes differ between passes")
    return problems


def write_details(args, ops, digests, setup_samples, passes, metrics, problems, spans,
                  missing):
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "seed": args.seed, "seconds": args.seconds,
                        "passes": len(passes)},
        "inputs": digests,
        "ops": [{"label": op.label, "argv": list(op.argv),
                 "report_sha256": passes[0]["ops"][i]["sha256"],
                 "seconds": [p["ops"][i]["seconds"] for p in passes],
                 "probe_s": [p["ops"][i]["probe_s"] for p in passes],
                 "traced": [p["traced"] for p in passes],
                 "warmup": [p["warmup"] for p in passes]}
                for i, op in enumerate(ops)],
        "setup_samples_s": [s for s, _ in setup_samples],
        "setup_probe_s": [pr for _, pr in setup_samples],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_quartiles_s": (statistics.quantiles([p["wall_s"] for p in passes], n=4)
                                  if len(passes) > 1 else None),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "not_traced": missing,
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    if spans is not None:
        with gzip.open(f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": spans}, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    sampler = Sampler().start() if args.setup_only else None
    try:
        import_resloc()
    except NoSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    rundir = OUT / f"run-{os.getpid()}"
    rundir.mkdir(parents=True)
    os.chdir(rundir)
    try:
        ops, digests = set_up(args.workload, args.seed)
        if args.setup_only:
            sampler.stop()
            print(sampler.probe_s)
            return 0
        reference = load_reference()
        problems = validate_inputs(ops)
        setup_samples = ([] if args.trace else
                         [time_set_up(args.workload, args.seed) for _ in range(SETUP_PROBES)])
        passes, layers, spans, missing = run_passes(ops, digests, reference,
                                                    args.seconds, bool(args.trace))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(rundir)

    failures = [f"{r['label']}: {r['error']}" for p in passes for r in p["ops"] if r["error"]]
    problems += failures + digest_problems(passes)
    if args.trace:
        metrics, unsteady = per_layer(passes, layers)
        problems += unsteady
    else:
        metrics = end_to_end(passes, setup_samples)
    write_details(args, ops, digests, setup_samples, passes, metrics, problems, spans,
                  missing)

    for p in passes:
        kind = "warmup" if p["warmup"] else "traced" if p["traced"] else "plain"
        times = " ".join(f"{r['label']}={r['seconds']:.3f}s" for r in p["ops"])
        print(f"pass {kind:6s} {p['wall_s']:.3f}s  {times}")
    for i, op in enumerate(ops):
        print(f"op {op.label}: sha256 {passes[0]['ops'][i]['sha256']}  {' '.join(op.argv)}")
    for problem in problems:
        print(f"problem: {problem}")
    for name in missing:
        print(f"not traced, missing from this resloc: {name}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p["ops"]) for p in passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
