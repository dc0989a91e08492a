#!/usr/bin/env python3
"""Cold-process benchmark of the `gc` command line.

Run from the repository root:

    python3 bench/run.py --workload ring-sweep --seed 1 --seconds 25 --trace 0

Every command of a workload (bench/workloads.json) runs as its own
`python3 -m groupconvex` process with the checkout's `src` on PYTHONPATH,
one at a time from this single process: a closed loop with one client and
no warm caches, as scripts and CI run `gc`.  Each command's exit code and
stdout are compared with the committed expectation; a mismatch, a crash or a
tripped guard counts as a failed command and makes the exit code 1.

Set-up time (`setup_s`) is measured first, several times.  Then whole passes
over the command list repeat until `--seconds` would be exceeded; each pass
gives every `search` its own seed, derived from `--seed`.  Every child's
times are scaled by a calibration timed around it (see CALIBRATION_REF_S),
and the end-to-end metrics come from per-command medians over the passes.
With `--trace 1` every pass is followed by a pass through bench/tracer.py,
which times the public functions of each layer, and the per-layer metrics
named in BENCHMARK.json are reported instead.  A record of the run
(metrics, every pass, calibrations, Python version, commit, nproc and the
command lists) goes to bench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
LAYERS = ("cli", "theorems", "convexity", "endo", "groups", "scalars")

# Set-up is repeated at least SETUP_MIN times and, while it has taken less
# than SETUP_SECONDS, up to SETUP_MAX times; cheap sessions get more samples.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 4.0
# Guards on every child: CPU seconds (a hang or runaway enumeration is
# killed by SIGXCPU) and address space (a memory blow-up ends in
# MemoryError).  Either way the command counts as failed.
CHILD_CPU_S = 60
CHILD_ADDRESS_SPACE = 1 << 30
# The shared machines this runs on change speed by up to 2x for seconds to
# minutes at a time.  Around every child, a calibration child (a fresh
# interpreter running a fixed loop of tuple, dict and Fraction work) is
# timed too, and the child's times are scaled by CALIBRATION_REF_S over the
# mean of the calibration times just before and just after it.  A time thus
# reads as on a machine where the calibration takes CALIBRATION_REF_S, its
# median time on the 2-vCPU Xeon (2.1 GHz, Python 3.11.7) the benchmark was
# sized on.
CALIBRATION_CODE = """
from fractions import Fraction
table, total = {}, Fraction(0)
for k in range(60_000):
    key = (k % 7, k % 11)
    table[key] = table.get(key, 0) + k
    if k % 50 == 0:
        total += Fraction(k, 3)
"""
CALIBRATION_REF_S = 0.07


def calibration_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", CALIBRATION_CODE], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - start


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_S, CHILD_CPU_S + 1))
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def run_child(argv: list[str], env: dict) -> tuple[float, int, str, str, float]:
    """Run one cold process to completion.

    Returns wall seconds, exit code (negative for a signal), stdout, stderr
    and the child's peak resident set in MB (from `os.wait4`).
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, preexec_fn=_limit_child,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (
            wall, proc.returncode, out.read().decode(errors="replace"),
            err.read().decode(errors="replace"), usage.ru_maxrss / 1024,
        )


def command_argv(spec: dict, seed: int) -> list[str]:
    argv = list(spec["argv"])
    if argv[0] == "search":
        argv += ["--seed", str(seed)]
    return argv


def check(spec: dict, code: int, stdout: str, stderr: str, label: str) -> bool:
    ok = code == spec["exit"] and stdout == spec["stdout"] + "\n"
    if not ok:
        print(
            f"FAILED {label}: exit {code} (expected {spec['exit']}), "
            f"stdout {stdout[:200]!r}, stderr {stderr[-300:]!r}",
            file=sys.stderr,
        )
    return ok


def session_zero(path: str) -> str:
    group = json.loads((ROOT / path).read_text())["group"]
    dim = len(group["moduli"]) if group["kind"] == "finite" else int(group["dim"])
    return ",".join(["0"] * dim)


class Runner:
    """Runs one workload's passes and keeps the tally of checked commands."""

    def __init__(self, commands: list[dict]):
        self.commands = commands
        self.attempted = 0
        self.failed = 0
        self.calibrations = [calibration_s()]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )

    def _run(self, spec: dict, argv: list[str], prefix: list[str]):
        """Run and check one child; return its scaled wall time, scale and peak RSS."""
        wall, code, stdout, stderr, rss = run_child(prefix + argv, self.env)
        self.calibrations.append(calibration_s())
        scale = CALIBRATION_REF_S / statistics.mean(self.calibrations[-2:])
        self.attempted += 1
        if not check(spec, code, stdout, stderr, " ".join(argv)):
            self.failed += 1
        return wall * scale, scale, rss

    def setup_once(self) -> list[float]:
        """Wall time of a cold `norm SESSION 0` for each of the workload's sessions."""
        sessions = dict.fromkeys(spec["argv"][1] for spec in self.commands)
        walls = []
        for path in sessions:
            spec = {"argv": ["norm", path, session_zero(path)], "exit": 0, "stdout": "0"}
            wall, _, _ = self._run(spec, spec["argv"], [sys.executable, "-m", "groupconvex"])
            walls.append(wall)
        return walls

    def plain_pass(self, seed: int) -> dict:
        walls, rss = [], []
        for spec in self.commands:
            wall, _, peak = self._run(
                spec, command_argv(spec, seed), [sys.executable, "-m", "groupconvex"]
            )
            walls.append(wall)
            rss.append(peak)
        return {"seed": seed, "workload_s": sum(walls), "command_s": walls, "rss_mb": rss}

    def traced_pass(self, seed: int, keep_spans: bool) -> dict:
        stats, walls = [], []
        for index, spec in enumerate(self.commands):
            path = OUT / f"trace-{os.getpid()}-{index}.json"
            wall, scale, _ = self._run(
                spec, command_argv(spec, seed),
                [sys.executable, str(BENCH / "tracer.py"), str(path)],
            )
            walls.append(wall)
            if not path.exists():
                continue  # killed before writing; already counted as failed
            record = json.loads(path.read_text())
            path.unlink()
            record["import_s"] *= scale
            for counters in record["functions"].values():
                counters[1] *= scale
            if not keep_spans:
                record["spans"] = None
            stats.append(record)
        return {"workload_s": sum(walls), "stats": stats}


def column_medians(rows: list[list[float]]) -> list[float]:
    return [statistics.median(column) for column in zip(*rows)]


def end_to_end(commands: list[dict], setups: list[list[float]], passes: list[dict]) -> dict:
    """End-to-end metrics from per-command medians over the run's passes.

    The median of each command's wall time (and of each session's set-up
    time) is taken before summing, so one slow moment of the machine moves
    one term instead of a whole pass.
    """
    walls = column_medians([p["plain"]["command_s"] for p in passes])
    # Throughput counts the search commands; a workload without any counts
    # each command as one instance.
    counted = [i for i, spec in enumerate(commands) if spec.get("instances")]
    counted = counted or range(len(commands))
    return {
        "workload_s": sum(walls),
        "setup_s": sum(column_medians(setups)),
        "instances_per_s": sum(commands[i].get("instances", 1) for i in counted)
        / sum(walls[i] for i in counted),
        "peak_rss_mb": max(max(p["plain"]["rss_mb"]) for p in passes),
    }


def layer_metric(name: str, stats: list[dict], plain_s: float, traced_s: float) -> float:
    """Resolve one per-layer metric name of BENCHMARK.json on a traced pass."""
    def total(field: int, key: str) -> float:
        if stats and key not in stats[0]["functions"]:
            raise KeyError(f"{key} is not a traced function")
        return sum(s["functions"][key][field] for s in stats)

    def cache(key: str) -> tuple[int, int]:
        return (sum(s["caches"][key][0] for s in stats), sum(s["caches"][key][1] for s in stats))

    verify_calls = total(0, "theorems.verify")
    checked = verify_calls - total(2, "theorems.verify")
    if name == "startup.import_s":
        return sum(s["import_s"] for s in stats)
    if name == "trace.overhead_ratio":
        return traced_s / plain_s
    if name == "trace.accounted_ratio":
        # share of the traced pass's wall time spent importing or inside a
        # layer; the rest is process spawn and interpreter start-up
        layers = sum(v[1] for s in stats for v in s["functions"].values())
        return (layers + sum(s["import_s"] for s in stats)) / traced_s
    if name == "theorems.Instance.built":
        return total(0, "theorems.Instance.__init__") / checked if checked else 0.0
    if name == "theorems.search.useful_ratio":
        return checked / verify_calls if verify_calls else 0.0
    if name == "endo.cache_entries":
        return max(
            (sum(c[2] for k, c in s["caches"].items() if k.startswith("endo.")) for s in stats),
            default=0,
        )
    key, _, field = name.rpartition(".")
    if field == "self_s" and key in LAYERS:
        return sum(
            v[1] for s in stats for k, v in s["functions"].items() if k.split(".")[0] == key
        )
    if field == "calls":
        return total(0, key)
    if field == "self_s":
        return total(1, key)
    if field == "hit_ratio":
        hits, misses = cache(key)
        return hits / (hits + misses) if hits + misses else 0.0
    raise KeyError(f"no rule for per-layer metric {name}")


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((BENCH / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "groupconvex" / "__main__.py").is_file():
        print(f"error: no groupconvex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    commands = workloads[args.workload]["commands"]
    runner = Runner(commands)
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_MIN or (
        len(setups) < SETUP_MAX and time.perf_counter() - start < SETUP_SECONDS
    ):
        setups.append(runner.setup_once())

    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        # Each pass draws its searches from its own seed, derived from
        # --seed, so a run's medians average over several draws.
        seed = args.seed * 1000 + len(passes)
        record = {"plain": runner.plain_pass(seed)}
        if args.trace:
            record["traced"] = runner.traced_pass(seed, keep_spans=not passes)
        passes.append(record)
        # stop before a pass that would end past the measuring window
        if time.perf_counter() + (time.perf_counter() - began) > start + args.seconds:
            break

    if args.trace:
        metrics = {
            m["name"]: (statistics.median([
                layer_metric(m["name"], p["traced"]["stats"], p["plain"]["workload_s"],
                             p["traced"]["workload_s"])
                for p in passes
            ]), m["unit"])
            for m in config["per_layer"]
        }
    else:
        measured = end_to_end(commands, setups, passes)
        metrics = {m["name"]: (measured[m["name"]], m["unit"]) for m in config["end_to_end"]}

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    ratio = runner.failed / runner.attempted
    print(f"{args.workload} failed_ratio = {ratio:.6g} ratio "
          f"({runner.failed} of {runner.attempted} commands, {len(passes)} passes)")

    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **source_identity(),
        # every search also gets `--seed <its pass's seed>`
        "commands": [[sys.executable, "-m", "groupconvex"] + c["argv"] for c in commands],
        "setup_s": setups,
        "passes": passes,
        # times are scaled; calibrations k and k+1 bracket the k-th child
        "calibration_s": runner.calibrations,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "failed_ratio": ratio,
    }, indent=1))

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
