"""Benchmark of the sorklie CLI.

Usage, from the root of a sorklie checkout:

    python3 bench/run.py --workload {sork_ladder,nu_corpus,audit} --seed N \
        --seconds S --trace {0,1}

One client in a closed loop: each op is a fresh ``python -m sorklie.cli``
process (``PYTHONPATH=src``), started only after the previous one exited,
so every process starts with cold caches, as a user's does. A pass runs
the workload's op list once, in an order shuffled from the seed; passes
repeat while the next one still fits in S seconds (at least one runs).
Every op's output is checked against the committed references in
``bench/data``.

``--trace 0`` reports the end-to-end metrics, scaled to a fixed machine
speed by ``reference.py`` (see REFERENCE_S); ``--trace 1`` alternates an
untraced pass with a pass whose ops run under ``traced_cli.py`` and
reports the per-layer metrics plus the tracing overhead. The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with its
unit and sample count. The spans of a traced run are written to
``.bench_out/`` at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import KNOWN_DEFECT, OK, WORKLOADS, Op, Result

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
CLI = (sys.executable, "-m", "sorklie.cli")
TRACED = (sys.executable, str(BENCH / "traced_cli.py"))
REFERENCE = (sys.executable, "-I", str(BENCH / "reference.py"))

# End-to-end times are reported at a fixed machine speed. reference.py,
# which runs no sorklie code, is timed before every SETUP_EVERY-th op; each
# CLI process is scaled by REFERENCE_S / (median of the reference times
# taken just before, at and after its own probe). On a shared 2-vCPU VM at
# 2.1 GHz, CLI times drift by +-20% within seconds to minutes, all in step,
# and reference.py takes 0.09-0.19 s.
REFERENCE_S = 0.1

SETUP_EVERY = 5  # a CLI start and reference.py are timed before every fifth op
OP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many ops beyond it

# Per-layer metrics: self time of the named spans summed over a pass,
# except sork.lexmin_s, which includes the clique search it calls.
SELF_TIME = {
    "roots.build": "roots.build_s",
    "sork.graph": "sork.graph_s",
    "sork.clique": "sork.clique_s",
    "sork.lexmin": "sork.extract_s",
    "sork.verify": "sork.verify_s",
    "realforms.nu_simple": "realforms.nu_simple_s",
    "groups.parse": "groups.parse_s",
    "groups.eval": "groups.eval_s",
    "tables.audit": "tables.audit_s",
    "matrixcheck.random": "matrixcheck.random_s",
    "matrixcheck.symbolic": "matrixcheck.symbolic_s",
    "matrixcheck.intersection": "matrixcheck.intersection_s",
}
COUNTS = ("roots.build_calls", "roots.roots_built", "sork.graph_vertices",
          "sork.graph_edges", "sork.extract_probes", "sork.verify_calls",
          "realforms.nu_simple_calls", "groups.exprs", "groups.factors",
          "tables.rows")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Let the CLI keep its bytecode cache, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


ENV = child_env()


def run_child(cmd: tuple[str, ...], trace_fd: bool = False):
    """Run one process to completion. Returns its Result, wall seconds,
    max RSS in MB (from wait4) and, if ``trace_fd``, what it wrote to the
    extra pipe whose write end it inherits as its first argument."""
    extra = []
    if trace_fd:
        read_end, write_end = os.pipe()
        cmd = (*cmd[:2], str(write_end), *cmd[2:])
        extra = [read_end]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            pass_fds=(write_end,) if trace_fd else ())
    if trace_fd:
        os.close(write_end)
    read_fds = [proc.stdout.fileno(), proc.stderr.fileno(), *extra]
    chunks = {fd: [] for fd in read_fds}
    deadline = start + OP_TIMEOUT_S
    try:
        with selectors.DefaultSelector() as sel:
            for fd in read_fds:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        for fd in extra:
            os.close(fd)
    out = [b"".join(chunks[fd]) for fd in read_fds]
    res = Result(proc.returncode, out[0], out[1])
    return res, wall, usage.ru_maxrss / 1024, (out[2] if trace_fd else None)


def time_setup() -> float:
    """Wall time of a CLI process that imports the package and exits."""
    res, wall, _, _ = run_child((*CLI, "--help"))
    if res.exit != 0 or not res.stdout.startswith(b"usage: sorklie"):
        raise SystemExit(f"bench: the CLI does not start: {res.stderr[-500:]!r}")
    return wall


def time_reference() -> float:
    res, wall, _, _ = run_child(REFERENCE)
    if res.exit != 0:
        raise SystemExit(f"bench: reference.py failed: {res.stderr[-500:]!r}")
    return wall


class Tally:
    """Counts of the verdicts of every op run."""

    def __init__(self):
        self.attempted = self.failed = self.known_defects = 0
        self.failures: list[str] = []

    def add(self, op: Op, res: Result) -> str:
        verdict = op.check(res)
        self.attempted += 1
        if verdict == KNOWN_DEFECT:
            self.known_defects += 1
        elif verdict != OK:
            self.failed += 1
            self.failures.append(f"{' '.join(op.argv)}: {verdict}")
        return verdict


def layer_totals(traced_ops: list[dict]) -> dict:
    """Per-layer self times and counters summed over the ops of one pass."""
    totals = defaultdict(float)
    imports = []
    for op in traced_ops:
        payload = op["trace"]
        imports.append(payload["import_s"])
        spans = payload["spans"]
        covered = defaultdict(float)
        for sid, parent, name, t0, t1 in spans:
            if parent is not None:
                covered[parent] += t1 - t0
        top = 0.0
        for sid, parent, name, t0, t1 in spans:
            totals[SELF_TIME[name]] += (t1 - t0) - covered[sid]
            if name == "sork.lexmin":
                totals["sork.lexmin_s"] += t1 - t0
            if parent is None:
                top += t1 - t0
        totals["cli.overhead_s"] += op["wall"] - top
        totals["cli.stdout_bytes"] += op["stdout_bytes"]
        totals["cli.known_defects"] += op["verdict"] == KNOWN_DEFECT
        for name, value in payload["counts"].items():
            totals[name] += value
    calls = totals["realforms.nu_simple_calls"]
    totals["groups.factor_reuse_ratio"] = (
        totals.pop("realforms.nu_simple_reused", 0) / calls if calls else 0.0)
    totals["cli.import_s"] = statistics.median(imports)
    return totals


def op_stats(walls_by_op: dict[int, list[float]]) -> tuple[float, float, float]:
    """Median and tail of the per-op median wall times, and the tail's
    percentile: the highest with TAIL_BEYOND ops of one pass beyond it."""
    per_op = sorted(statistics.median(w) for w in walls_by_op.values())
    n = len(per_op)
    k = max(n - 1 - TAIL_BEYOND, 0)
    return statistics.median(per_op), per_op[k], 100.0 * (k + 1) / n


def parse_args(argv: list[str] | None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """Everything one benchmark run measures."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.tally = Tally()
        self.setup: list[float] = []
        self.reference: list[float] = []
        self.samples: list[tuple[int, int, float, int]] = []  # pass, op, wall, probe
        self.pass_walls: dict[bool, list[float]] = {False: [], True: []}
        self.pass_rss: list[float] = []
        self.layer_passes: list[dict] = []
        self.trace_log: list[dict] = []

    def run_pass(self, order: list[int], tracing: bool, probe_setup: bool) -> None:
        """Run every op once in ``order``. The pass wall is the sum of the op
        walls, so the set-up probes timed in between are not part of it."""
        total = rss = 0.0
        traced_ops = []
        for n, i in enumerate(order):
            if probe_setup and n % SETUP_EVERY == 0:
                self.setup.append(time_setup())
                self.reference.append(time_reference())
            op = self.ops[i]
            cmd = (*TRACED, *op.argv) if tracing else (*CLI, *op.argv)
            res, wall, op_rss, trace = run_child(cmd, trace_fd=tracing)
            verdict = self.tally.add(op, res)
            total += wall
            rss = max(rss, op_rss)
            if not tracing:
                self.samples.append((len(self.pass_rss), i, wall, len(self.reference) - 1))
                continue
            try:
                payload = json.loads(trace)
            except ValueError:  # the process died before writing its spans
                payload = {"import_s": 0.0, "spans": [], "counts": {}}
            traced_ops.append({"op": i, "argv": op.argv, "wall": wall, "verdict": verdict,
                               "stdout_bytes": len(res.stdout), "trace": payload})
        self.pass_walls[tracing].append(total)
        if tracing:
            self.layer_passes.append(layer_totals(traced_ops))
            self.trace_log.append({"pass": len(self.layer_passes), "ops": traced_ops})
        else:
            self.pass_rss.append(rss)

    def end_to_end(self) -> tuple[dict, dict]:
        ref = self.reference
        speed = [REFERENCE_S / statistics.median(ref[max(j - 1, 0):j + 2])
                 for j in range(len(ref))]
        walls_by_op, raw_by_op = defaultdict(list), defaultdict(list)
        pass_walls = defaultdict(float)
        for p, i, wall, j in self.samples:
            walls_by_op[i].append(wall * speed[j])
            raw_by_op[i].append(wall)
            pass_walls[p] += wall * speed[j]
        p50, tail, pct = op_stats(walls_by_op)
        raw_p50, raw_tail, _ = op_stats(raw_by_op)
        n_ops, n_pass = len(self.ops), len(self.pass_walls[False])
        metrics = {
            "wall_s": (statistics.median(pass_walls.values()), "s"),
            "op_p50_s": (p50, "s"),
            "op_tail_s": (tail, "s"),
            "setup_s": (statistics.median(s * f for s, f in zip(self.setup, speed)), "s"),
            "peak_rss_mb": (statistics.median(self.pass_rss), "MB"),
        }
        raw = {"wall_s": statistics.median(self.pass_walls[False]), "op_p50_s": raw_p50,
               "op_tail_s": raw_tail, "setup_s": statistics.median(self.setup)}
        notes = {
            "wall_s": f"median of {n_pass} passes",
            "op_p50_s": f"median of {n_ops} per-op medians, {n_pass} samples each",
            "op_tail_s": f"p{pct:.1f} of {n_ops} per-op medians ({TAIL_BEYOND} ops "
                         f"beyond it), {n_pass * n_ops} samples",
            "setup_s": f"median of {len(self.setup)} `sorklie --help` processes",
            "peak_rss_mb": f"median over {n_pass} passes of the largest child max-RSS",
        }
        for name, value in raw.items():
            notes[name] += f"; {value:.6g} s as measured"
        return metrics, notes

    def per_layer(self) -> tuple[dict, dict]:
        def median(name):
            return statistics.median(p[name] for p in self.layer_passes)

        metrics = {name: (median(name), "s") for name in (
            *SELF_TIME.values(), "sork.lexmin_s", "cli.overhead_s", "cli.import_s")}
        for name in COUNTS:
            metrics[name] = (median(name), "count")
        metrics["cli.stdout_bytes"] = (median("cli.stdout_bytes"), "bytes")
        metrics["cli.known_defects"] = (median("cli.known_defects"), "count")
        metrics["groups.factor_reuse_ratio"] = (median("groups.factor_reuse_ratio"), "1")
        traced = statistics.median(self.pass_walls[True])
        untraced = statistics.median(self.pass_walls[False])
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        notes = {name: f"median of {len(self.layer_passes)} traced passes" for name in metrics}
        notes["cli.import_s"] = "median per process, " + notes["cli.import_s"]
        notes["trace.untraced_wall_s"] = f"median of {len(self.pass_walls[False])} untraced passes"
        return metrics, notes

    def write_trace(self, workload: str, seed: int) -> Path:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace_{workload}_seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "span_fields": ["id", "parent", "name", "start", "end"],
                       "passes": self.trace_log}, fh)
        return path


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sorklie" / "cli.py").is_file():
        print(f"bench: no sorklie sources under {ROOT / 'src'}; run from the "
              f"root of a sorklie checkout", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload](args.seed))
    rng = random.Random(args.seed)
    traced = bool(args.trace)

    time_setup()  # fills the bytecode cache; not counted
    started = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced passes, untraced first.
        tracing = traced and len(run.pass_walls[False]) > len(run.pass_walls[True])
        order = list(range(len(run.ops)))
        rng.shuffle(order)
        pass_start = time.perf_counter()
        run.run_pass(order, tracing, probe_setup=not traced)
        now = time.perf_counter()
        if traced and not run.pass_walls[True]:
            continue
        if (now - started) + (now - pass_start) > args.seconds:
            break

    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(run.ops)} ops per pass, {len(run.pass_walls[False])} untraced and "
             f"{len(run.pass_walls[True])} traced passes; closed loop, one client, "
             f"a fresh CLI process per op"]
    if run.reference:
        lines.append(f"reference.py: median {statistics.median(run.reference):.6g} s "
                     f"of {len(run.reference)}; times below are scaled to {REFERENCE_S} s")
    if traced:
        metrics, notes = run.per_layer()
        path = run.write_trace(args.workload, args.seed)
        lines.append(f"spans written to {path.relative_to(ROOT)}")
        by_self = sorted(((metrics[m][0], m) for m in SELF_TIME.values()), reverse=True)
        lines.append("self time by layer (s): " + ", ".join(
            f"{m} {v:.4f}" for v, m in by_self if v > 0))
    else:
        metrics, notes = run.end_to_end()
    lines += [f"{name} {value:.6g} {unit} ({notes[name]})"
              for name, (value, unit) in metrics.items()]
    tally = run.tally
    share = (tally.failed + tally.known_defects) / tally.attempted
    lines.append(f"failed_ratio {share:.6g} 1 ({tally.failed} failed and "
                 f"{tally.known_defects} known defects of {tally.attempted} ops)")
    print("\n".join(lines))
    for failure in tally.failures[:20]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
