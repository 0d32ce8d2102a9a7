"""One workload in one process: set up, run whole passes, check, report.

Started by run.py with the thread environment fixed and the source tree on
the path. The last line of standard output is the JSON result; lines
before it start with '#' and are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from speed import WINDOW_S, SpeedProbe
from tracing import LAYERS, Tracer
from workloads import CHECK_KINDS, WORKLOADS, Outcome

SETUP_REPEATS = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# span names whose self time is reported on their own
SELF_S = (
    "core.Circuit.init",
    "core.ScheduledCircuit.init",
    "core.validate_on",
    "core.Circuit.depth",
    "core.generic_depth",
    "core.layers",
    "core.parse_circuit",
    "core.emit_circuit",
    "skeleton.SkeletonSpec.init",
    "skeleton.staged_schedule",
    "skeleton.schedule_lnn",
    "qft.qft_lnn",
    "qft.qft_flat",
    "linsynth.GF2Matrix.inverse",
    "linsynth.gauss_jordan",
    "linsynth.rearrange",
    "linsynth.schedule_parts",
    "linsynth.synthesize_lnn",
    "linsynth.expand_circuit_to_cnot",
    "linsynth.parse_gf2",
    "stabilizer.schedule_stabilizer",
    "stabilizer.stabilizer_flat",
    "stabilizer.tableau_of",
    "stabilizer.parse_stab",
    "css.css_schedule_lnn",
    "css.css_flat",
    "css.parse_css",
    "oracle.simulate",
    "oracle.circuit_unitary",
    "oracle.matrices_equiv",
    "oracle.permutation_matrix",
    "oracle.gf2_action",
    "bounds.classify_layers",
    "bounds.stage_audit",
    "cli.main",
)


@dataclass
class PassRecord:
    intervals: list[tuple[float, float]] = field(default_factory=list)  # perf_counter, per instance
    raw_wall: float = 0.0
    latencies: list[float] = field(default_factory=list)  # at reference speed
    wall: float = 0.0  # at reference speed
    attempted: int = 0
    failed: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    quality: dict[str, int] = field(default_factory=dict)


def import_program(root: Path):
    """Import the package afresh from the checkout's source tree."""
    for name in [k for k in sys.modules if k == "chainforge" or k.startswith("chainforge.")]:
        del sys.modules[name]
    pkg = importlib.import_module("chainforge")
    src = (root / "src").resolve()
    if Path(pkg.__file__).resolve().parent.parent != src:
        raise SystemExit(f"chainforge was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"chainforge.{m}") for m in LAYERS})


def run_pass(cf, instances) -> PassRecord:
    rec = PassRecord(failed={k: 0 for k in (*CHECK_KINDS, "error")})
    quality = dict.fromkeys(("depth_total", "generic_depth_total", "cnot_depth_total", "gate_total"), 0)
    clock = time.perf_counter
    for inst in instances:
        t0 = t1 = clock()
        try:
            if inst.prepare is not None:
                inst.prepare()
            t0 = clock()
            outcome = inst.run(cf)
            t1 = clock()
        except Exception as exc:  # a crash is a failed instance, never a skipped one
            t1 = clock()
            outcome = Outcome()
            outcome.check("error", False, f"{type(exc).__name__}: {exc}")
        rec.intervals.append((t0, t1))
        for kind, ok, what in outcome.checks:
            rec.attempted += 1
            if not ok:
                rec.failed[kind] += 1
                rec.failures.append(f"{inst.label}: {kind} check failed: {what}")
        quality["depth_total"] += outcome.depth
        quality["generic_depth_total"] += outcome.generic_depth
        quality["cnot_depth_total"] += outcome.cnot_depth
        quality["gate_total"] += outcome.gates
    # preparation between instances is the benchmark's own work, not timed
    rec.raw_wall = sum(t1 - t0 for t0, t1 in rec.intervals)
    rec.quality = quality
    return rec


def scale(passes: list[PassRecord], probe: SpeedProbe) -> None:
    for rec in passes:
        rec.latencies = [probe.scaled(t0, t1) for t0, t1 in rec.intervals]
        rec.wall = sum(rec.latencies)


def run_untraced(cf, instances, seconds: float) -> list[PassRecord]:
    passes: list[PassRecord] = []
    elapsed = 0.0
    while True:
        passes.append(run_pass(cf, instances))
        elapsed += passes[-1].raw_wall
        if elapsed + passes[-1].raw_wall > seconds:
            return passes


def run_traced(cf, instances, seconds: float) -> tuple[list[PassRecord], list[tuple[PassRecord, Tracer]]]:
    """Alternate an untraced and a traced pass of the same instances."""
    plain: list[PassRecord] = []
    traced: list[tuple[PassRecord, Tracer]] = []
    elapsed = 0.0
    while True:
        plain.append(run_pass(cf, instances))
        tracer = Tracer()
        tracer.install(cf)
        try:
            rec = run_pass(cf, instances)
        finally:
            tracer.uninstall()
        traced.append((rec, tracer))
        pair = plain[-1].raw_wall + rec.raw_wall
        elapsed += pair
        if elapsed + pair > seconds:
            return plain, traced


def end_to_end(passes: list[PassRecord], setups: list[float]) -> dict[str, tuple[float, str]]:
    lat_ms = sorted(1000.0 * t for p in passes for t in p.latencies)
    attempted = sum(p.attempted for p in passes)
    failed = sum(sum(p.failed.values()) for p in passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "instances_per_s": (len(lat_ms) / sum(p.wall for p in passes), "1/s"),
        "instance_p50_ms": (statistics.median(lat_ms), "ms"),
        "instance_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "check_pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # schedule quality comes from the first pass; every pass runs the same instances
    for key, value in passes[0].quality.items():
        metrics[key] = (value, "count")
    return metrics


def per_layer(plain: list[PassRecord], traced: list[tuple[PassRecord, Tracer]]) -> dict[str, tuple[float, str]]:
    per_pass = []
    for rec, tracer in traced:
        self_s, incl_s = tracer.span_times()
        calls: dict[str, int] = {}
        for name, *_ in tracer.spans:
            calls[name] = calls.get(name, 0) + 1
        for name, cell in tracer.counts.items():
            calls[name] = cell[0]
        delivered = rec.quality["gate_total"]
        tableau_gates = tracer.units["stabilizer.tableau_of"]
        slots_present, slots_total = tracer.slots
        layer_self = {m: sum(t for k, t in self_s.items() if k.split(".", 1)[0] == m) for m in LAYERS}
        speed = rec.wall / rec.raw_wall  # spans are raw perf_counter times

        def rate(name: str) -> float:
            return tracer.units[name] / (incl_s[name] * speed) if incl_s.get(name) else 0.0

        timed = {f"{name}.self_s": self_s.get(name, 0.0) * speed for name in SELF_S}
        timed.update(
            {
                "core.parse_circuit.gates_per_s": rate("core.parse_circuit"),
                "linsynth.expand_circuit_to_cnot.gates_per_s": rate("linsynth.expand_circuit_to_cnot"),
                "stabilizer.tableau_of.gates_per_s": rate("stabilizer.tableau_of"),
                "trace.covered_share": sum(layer_self.values()) / rec.raw_wall,
            }
        )
        for m in LAYERS:
            timed[f"layer.{m}.self_s"] = layer_self[m] * speed
            timed[f"layer.{m}.share"] = layer_self[m] / rec.raw_wall
        counted = {
            "core.validate_gate.calls": calls.get("core.validate_gate", 0),
            "core.validate_gate.per_gate": calls.get("core.validate_gate", 0) / delivered,
            "core.gate_helpers.calls": calls.get("core.gate_helpers", 0),
            "skeleton.slot_fill_ratio": slots_present / slots_total if slots_total else 0.0,
            "linsynth.expand.fold_ratio": tracer.fold_ratio(),
            "stabilizer.apply_gate.per_gate": (
                calls.get("stabilizer.apply_gate", 0) / tableau_gates if tableau_gates else 0.0
            ),
            "oracle.apply_gate.calls": calls.get("oracle.apply_gate", 0),
            "cli.main.calls": calls.get("cli.main", 0),
        }
        per_pass.append((timed, counted))

    metrics: dict[str, tuple[float, str]] = {}
    for key in per_pass[0][0]:
        unit = "s" if key.endswith("self_s") else "gates/s" if key.endswith("gates_per_s") else "ratio"
        metrics[key] = (statistics.median(t[key] for t, _ in per_pass), unit)
    first = per_pass[0][1]
    for key, value in first.items():
        if any(c[key] != value for _, c in per_pass[1:]):
            print(f"# warning: {key} differs between traced passes", file=sys.stderr)
        unit = "count" if key.endswith(".calls") else "calls/gate" if key.endswith("per_gate") else "ratio"
        metrics[key] = (value, unit)
    for kind in CHECK_KINDS:
        total = sum(p.failed[kind] for p in plain) + sum(r.failed[kind] for r, _ in traced)
        metrics[f"checks.{kind}.failed"] = (total, "count")
    untraced_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(r.wall for r, _ in traced)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return metrics


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(root: Path, seed: int, probe: SpeedProbe) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "chainforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(root),
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "probe_job_ms": 1000 * statistics.median(x.cpu for x in probe.samples),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    root = Path(args.root)
    workload = WORKLOADS[args.workload]
    scratch = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        with SpeedProbe() as probe:
            setup_intervals = []
            for k in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                cf = import_program(root)
                inputs = workload.setup(args.seed, scratch / f"setup{k}")
                setup_intervals.append((t0, time.perf_counter()))
            instances = workload.instances(inputs)
            if args.trace:
                plain, traced = run_traced(cf, instances, args.seconds)
                passes = plain + [r for r, _ in traced]
            else:
                passes = run_untraced(cf, instances, args.seconds)
            time.sleep(WINDOW_S)  # let the probe sample past the last interval
        scale(passes, probe)
        if args.trace:
            metrics = per_layer(plain, traced)
        else:
            metrics = end_to_end(passes, [probe.scaled(*iv) for iv in setup_intervals])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"# {key} {value} {unit}")
    walls = " ".join(f"{p.wall:.3f}" for p in passes)
    print(f"# {len(passes[0].latencies) * len(passes)} instances in {len(passes)} passes of {walls} s")
    if len(instances) <= 20:
        for inst, ms in zip(instances, passes[0].latencies):
            print(f"# first pass: {inst.label} {1000 * ms:.1f} ms")
    if args.trace:
        shares = sorted(((v, k) for k, (v, _) in metrics.items() if k.endswith(".share")), reverse=True)
        listed = ", ".join(f"{k.split('.')[1]} {100 * v:.1f}%" for v, k in shares)
        print(f"# layers by self time, as share of traced wall: {listed}")
    print("# meta " + json.dumps(machine_record(root, args.seed, probe), sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
