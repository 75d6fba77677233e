"""liecenter benchmark: time to exact verdicts over fixed configuration sets.

    python3 perfbench/run.py --workload f4-nil --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --write-pins

Run it from the root of a source checkout; it uses ``src/`` directly, so
nothing needs installing.  Each workload is a closed loop with one client:
one fresh ``liecenter verify`` process per configuration, one at a time,
because every user invocation pays a cold start with empty memos.  The seed
only shuffles the order of configurations within a pass; the configurations
themselves are the paper's fixed claims.

``--trace 0`` sets every configuration up several times in fresh processes
(``setup_s``), then runs whole passes over the workload, each after one more
set-up round, until ``--seconds`` is used up, and reports medians over the
passes and the set-up rounds.  ``--trace 1`` runs every
configuration untraced and then traced (``trace_child.py``), pass after
pass, and reports per-layer self times and call counts.  Every report is
checked against ``pins.json``: the exit code, the claim counts by status and
the sha256 of the report bytes.  A mismatch counts as a failed configuration
and makes the exit code 1.
``--write-pins`` records ``pins.json`` from the code in ``src/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from trace_child import EXIT_MISSING_TARGET, KERNELS, SUITES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = BENCH / "pins.json"
SPEC = ROOT / "BENCHMARK.json"

# Set-up is timed in rounds: at least SETUP_ROUNDS, and more while the
# rounds so far took less than SETUP_MIN_S, so that short set-ups are
# timed over more samples; then one more round before every pass.
SETUP_ROUNDS = 3
SETUP_MIN_S = 1.5
CHILD_TIMEOUT_S = 170.0

# Each configuration is the argument list of one `liecenter verify` run.
WORKLOADS = {
    "f4-nil": (
        ("--algebra", "f4-nil", "--char", "0"),
        ("--algebra", "f4-nil", "--char", "3"),
    ),
    "sweep": (
        ("--algebra", "g2-borel", "--char", "0"),
        ("--algebra", "g2-borel", "--char", "5"),
        ("--algebra", "g2-nil", "--char", "7"),
        ("--algebra", "cn-borel", "--n", "2", "--char", "0"),
        ("--algebra", "cn-borel", "--n", "3", "--char", "0"),
        ("--algebra", "cn-borel", "--n", "3", "--char", "5"),
        ("--algebra", "cn-nil", "--n", "3", "--char", "3"),
        ("--algebra", "cn-borel", "--n", "4", "--char", "3"),
        (
            "--algebra", "f4-borel",
            "--suites", "jacobi,invariance,chains,triangle,weights,jacobians",
        ),
        (
            "--algebra", "f4-nil", "--char", "5",
            "--suites", "jacobi,invariance,chains,triangle,frobenius,jacobians",
        ),
    ),
}

# The console script `liecenter` runs exactly this.
VERIFY = ("-c", "import sys; from liecenter.cli import main; sys.exit(main())", "verify")


class BenchError(Exception):
    """The benchmark cannot produce a result; no result line is printed."""


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mib: float
    stderr: Path


def config_key(config) -> str:
    return " ".join(config)


def spawn(argv: list[str], name: str) -> Child:
    """Run one child to completion; CPU and peak RSS come from its own rusage."""
    err_path = WORK / f"{name}.stderr"
    with open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    return Child(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stderr=err_path,
    )


def verify_argv(config, report: Path, spans: Path | None) -> list[str]:
    tail = [*config, "--format", "json", "--out", str(report)]
    if spans is None:
        return [*VERIFY, *tail]
    return [str(BENCH / "trace_child.py"), str(spans), "verify", *tail]


def check(pin: dict, child: Child, report: Path) -> str | None:
    """Why this run does not match its pin, or None when it does."""
    if child.code != pin["exit"]:
        tail = child.stderr.read_text(errors="replace").strip().splitlines()[-3:]
        return f"exit code {child.code}, pinned {pin['exit']}: {' | '.join(tail)}"
    try:
        data = report.read_bytes()
        summary = json.loads(data)["summary"]
    except (OSError, ValueError, KeyError) as exc:
        return f"report unreadable: {exc}"
    if summary != pin["summary"]:
        return f"claim counts {summary}, pinned {pin['summary']}"
    digest = hashlib.sha256(data).hexdigest()
    if digest != pin["sha256"]:
        return f"report sha256 {digest}, pinned {pin['sha256']}"
    return None


@dataclass
class Pass:
    wall: float
    cpu: float
    max_rss_mib: float
    attempted: int
    failed: int
    seconds: dict
    counts: dict


def run_pass(configs, pins: dict, tag: str, modes: tuple[bool, ...]) -> list[Pass]:
    """One verify process per configuration and mode (False: untraced, True:
    traced), in order, so that the runs of one configuration are adjacent in
    time; one Pass per mode, checked after timing."""
    runs: dict[bool, list] = {mode: [] for mode in modes}
    for i, config in enumerate(configs):
        for traced in modes:
            name = f"{tag}-{i}-{int(traced)}"
            report, spans = WORK / f"{name}.json", WORK / f"{name}.spans.json"
            report.unlink(missing_ok=True)
            child = spawn(verify_argv(config, report, spans if traced else None), name)
            if traced and child.code == EXIT_MISSING_TARGET:
                raise BenchError(child.stderr.read_text(errors="replace").strip())
            runs[traced].append((config, child, report, spans))
    return [summarize(runs[mode], pins, mode) for mode in modes]


def summarize(runs: list, pins: dict, traced: bool) -> Pass:
    """Check one mode's runs against their pins and total them into a Pass."""
    failed = 0
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    for config, child, report, spans in runs:
        problem = check(pins[config_key(config)], child, report)
        if problem:
            failed += 1
            print(f"FAILED {config_key(config)}: {problem}", file=sys.stderr)
        elif traced:
            data = json.loads(spans.read_text())
            for k, v in data["seconds"].items():
                seconds[k] = seconds.get(k, 0.0) + v
            for k, v in data["counts"].items():
                counts[k] = counts.get(k, 0) + v
    children = [child for _, child, _, _ in runs]
    return Pass(
        wall=sum(c.wall for c in children),
        cpu=sum(c.cpu for c in children),
        max_rss_mib=max(c.rss_mib for c in children),
        attempted=len(children),
        failed=failed,
        seconds=seconds,
        counts=counts,
    )


def setup_round(configs, tag: str) -> float:
    """Summed wall seconds of one fresh set-up process per configuration."""
    total = 0.0
    for i, config in enumerate(configs):
        child = spawn([str(BENCH / "setup_child.py"), "verify", *config], f"{tag}-{i}")
        if child.code != 0:
            tail = child.stderr.read_text(errors="replace").strip()
            raise BenchError(f"set-up of {config_key(config)} exited {child.code}: {tail}")
        total += child.wall
    return total


def repeat_until(deadline: float, step) -> list:
    """Call step() at least once, and again while at least half of the next
    call, taken to last as long as the last one, falls before the deadline (a
    perf_counter time).  A run then ends within half a step of the deadline
    on either side, and long steps are not cut to one sample."""
    results = []
    while True:
        t0 = perf_counter()
        results.append(step(len(results)))
        last = perf_counter() - t0
        if perf_counter() + last / 2 > deadline:
            return results


def layer_metrics(seconds: dict, counts: dict) -> dict[str, float]:
    """Per-layer values of one traced pass, named as in BENCHMARK.json."""
    values = {f"{m}.s": seconds.get(m, 0.0) for m in SUITES}
    values.update({f"{m}.s": seconds.get(m, 0.0) for m in KERNELS if m != "invariants.oracle"})
    sat_calls = counts.get("linalg.saturates_mod", 0)
    values.update(
        {
            "pbw.symmetrize.calls": counts.get("pbw.symmetrize", 0),
            "pbw.symmetrize.out_terms": counts.get("pbw.symmetrize.out_terms", 0),
            "pbw.commutator_with_basis.calls": counts.get("pbw.commutator_with_basis", 0),
            "invariants.oracle.self_s": seconds.get("invariants.oracle", 0.0),
            "invariants.oracle.calls": counts.get("invariants.oracle", 0),
            "invariants.oracle.dense_entries": counts.get("invariants.oracle.dense_entries", 0),
            "invariants.oracle.nonzeros": counts.get("invariants.oracle.nonzeros", 0),
            "linalg.saturates_mod.calls": sat_calls,
            "linalg.saturates_mod.settled_ratio": (
                counts.get("linalg.saturates_mod.settled", 0) / sat_calls if sat_calls else 0.0
            ),
            "poisson.ad_apply.calls": counts.get("poisson.ad_apply", 0),
        }
    )
    return values


def measure(
    configs, pins: dict, seconds: float, trace: bool, units: dict
) -> tuple[dict, int, int, list[str]]:
    """Metric values, attempted, failed, and a human-readable summary.
    Set-up rounds and passes together take about ``seconds``."""
    deadline = perf_counter() + seconds
    if not trace:
        setups = []
        while len(setups) < SETUP_ROUNDS or sum(setups) < SETUP_MIN_S:
            setups.append(setup_round(configs, f"setup{len(setups)}"))

        def step(i: int) -> Pass:
            # one more set-up round per pass spreads the set-up samples over the run
            setups.append(setup_round(configs, f"setup{len(setups)}"))
            return run_pass(configs, pins, f"pass{i}", (False,))[0]

        passes = repeat_until(deadline, step)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        values = {
            "wall_s": statistics.median(p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "max_rss_mb": statistics.median(p.max_rss_mib for p in passes),
            "setup_s": statistics.median(setups),
        }
        lines = [
            f"wall_s      {values['wall_s']:.3f} s    median of {len(passes)} passes",
            f"cpu_s       {values['cpu_s']:.3f} s    median of {len(passes)} passes",
            f"max_rss_mb  {values['max_rss_mb']:.1f} MiB  median of {len(passes)} passes",
            f"setup_s     {values['setup_s']:.3f} s    median of {len(setups)} set-up rounds",
            f"failed_frac {failed / attempted:.4f}      {failed} of {attempted} configurations",
        ]
        return values, attempted, failed, lines

    pairs = repeat_until(deadline, lambda i: run_pass(configs, pins, f"pass{i}", (False, True)))
    traced = [t for _, t in pairs]
    attempted = sum(p.attempted for pp in pairs for p in pp)
    failed = sum(p.failed for pp in pairs for p in pp)
    per_pass = [layer_metrics(t.seconds, t.counts) for t in traced]
    values = {}
    for name in per_pass[0]:
        samples = [v[name] for v in per_pass]
        if units[name] != "s":  # counts and ratios of counts repeat exactly
            if len(set(samples)) != 1:
                raise BenchError(f"count {name} differs between traced passes: {samples}")
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    values["trace.overhead_s"] = statistics.median(t.wall - p.wall for p, t in pairs)
    lines = [f"{name:40s} {values[name]}" for name in sorted(values)]
    lines.append(f"traced passes {len(traced)}, failed {failed} of {attempted} configurations")
    return values, attempted, failed, lines


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_pins() -> int:
    configs = {config_key(c): c for group in WORKLOADS.values() for c in group}
    pins = {}
    for i, (key, config) in enumerate(sorted(configs.items())):
        report = WORK / f"pin{i}.json"
        child = spawn(verify_argv(config, report, None), f"pin{i}")
        data = report.read_bytes()
        pins[key] = {
            "exit": child.code,
            "summary": json.loads(data)["summary"],
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        print(f"{key}: exit {child.code}, {child.wall:.2f} s", flush=True)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true", help="record pins.json and exit")
    args = parser.parse_args()
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "liecenter" / "cli.py").is_file():
        print(f"no liecenter sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    try:
        compileall.compile_dir(str(SRC), quiet=1)  # byte-compile outside the timed region
        if args.write_pins:
            return write_pins()
        pins = json.loads(PINS.read_text())
        spec = json.loads(SPEC.read_text())
        group = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[group]}
        configs = list(WORKLOADS[args.workload])
        missing = [config_key(c) for c in configs if config_key(c) not in pins]
        if missing:
            raise BenchError(f"no pin for {missing}; run --write-pins")
        random.Random(args.seed).shuffle(configs)

        env = {
            "commit": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "load_1m_start": os.getloadavg()[0],
        }
        values, attempted, failed, lines = measure(configs, pins, args.seconds, bool(args.trace), units)
        env["load_1m_end"] = os.getloadavg()[0]
        if set(values) != set(units):
            raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match {SPEC.name}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print("  " + line)
    print(json.dumps({"env": env}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(units)},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
