"""Benchmark of the eventnouns CLI, defined by BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/run.py --workload extract-en-short --seed 1 --seconds 20 --trace 0

The program runs from ``src/`` as it is; nothing is installed. The
benchmark generates the workload's inputs from ``--seed``, then runs a
closed loop: one operation (the workload's CLI commands, each in a fresh
child process) at a time, until ``--seconds`` have passed. Every operation's
output files are checked against an oracle and must be byte-identical to
the first operation's.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
medians over operations of wall time, CPU time, lemma throughput and peak
RSS (read per child with ``os.wait4``), and ``setup_s``, the median
start-up time of a fresh interpreter that imports the CLI, builds its
parser and loads the built-in cue set.

With ``--trace 1`` each repetition runs one untraced operation, then
replays the same commands with ``replay.py``, each in a fresh child started
as the CLI's are, with a span around every call into a layer, and reports
the per-layer metrics. ``cli.traced_wall_s`` is the replay children's wall
time, ``cli.unattributed_s`` that wall time minus the spans recorded in
those processes (start-up, imports, glue), and ``cli.trace_overhead_s`` the
traced wall time minus the untraced operation's of the same repetition.

Every metric is printed with its unit and direction, and so is
``failed_ops``: the share of runs attempted (set-up probes, operations and
replays) that exited non-zero or failed a check. The full result, with the
seed, Python version, CPU count, load average at start, every operation
and, when traced, every span, goes to ``.perfbench/results/``. The last
line of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from tracer import duration
from workloads import WORKLOADS, Inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
REPLAY = os.path.join(HERE, "replay.py")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
# a run must end within 180 s; no operation starts that could end later
HARD_LIMIT_S = 170.0
# set-up is timed in short bursts between operations, so that its median
# spans the whole run like the operations' medians do
SETUP_RUNS = 5
CLI_CODE = "from eventnouns.cli import main_entry; main_entry()"
SETUP_CODE = ("from eventnouns.cli import build_parser; "
              "from eventnouns.cues import builtin_cue_set; "
              "build_parser(); builtin_cue_set({language!r})")


@dataclass
class Child:
    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Op:
    children: list[Child]
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


@dataclass
class Replay:
    """One traced repetition: the replay children and the spans of each."""
    setup_spans: list[dict] = field(default_factory=list)
    children: list[Child] = field(default_factory=list)
    spans: list[list[dict]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


class Runner:
    """Runs child processes one at a time and keeps the failure tally."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, argv: list[str]) -> Child:
        """Run one command to completion through ``launch.py``, which
        reports the command's own wall time and rusage."""
        if os.path.exists("child.usage"):
            os.remove("child.usage")
        with open("child.out", "w+", encoding="utf-8") as out, \
                open("child.err", "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", LAUNCH, "child.usage", *argv],
                stdout=out, stderr=err, env=self.env, start_new_session=True)
            watchdog = threading.Timer(max(self.remaining(), 1.0), kill_group, (proc.pid,))
            watchdog.start()
            try:
                proc.wait()
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        if proc.returncode != 0 or not os.path.exists("child.usage"):
            return Child(argv, wall, 0.0, 0.0, proc.returncode or -1, stdout,
                         stderr + f"\nlauncher exited {proc.returncode}")
        with open("child.usage", encoding="utf-8") as fh:
            code, wall, cpu, rss_kb = fh.read().split()
        return Child(argv, float(wall), float(cpu), int(rss_kb) / 1024, int(code),
                     stdout, stderr)

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)

    def setup(self, language: str) -> Child:
        child = self.child([sys.executable, "-c", SETUP_CODE.format(language=language)])
        self.record("setup", [] if child.returncode == 0
                    else [f"exit {child.returncode}: {child.stderr[-500:]}"])
        return child

    def op(self, workload, inputs, seed: int, reference: dict) -> Op:
        """One operation: the workload's commands, then the output checks."""
        shutil.rmtree("out", ignore_errors=True)
        os.makedirs("out")
        op = Op([])
        for command in workload.commands(seed, "out"):
            child = self.child([sys.executable, "-c", CLI_CODE, *command])
            op.children.append(child)
            if child.returncode != 0:
                op.errors.append(f"{command[0]} exited {child.returncode}: "
                                 f"{child.stderr[-500:]}")
                break
        if not op.errors:
            try:
                op.errors = workload.check(inputs, "out", [c.stdout for c in op.children])
                hashes = tree_hashes("out")
                reference.setdefault("out", hashes)
                if hashes != reference["out"]:
                    op.errors.append("outputs differ from the first operation's")
            except Exception as exc:  # a missing or malformed output file
                op.errors.append(f"output check raised {exc!r}")
        self.record(workload.name, op.errors)
        return op

    def replay(self, workload, inputs, seed: int, op: Op, reference: dict) -> Replay:
        """Replay a set-up probe and the commands of ``op`` with spans, each
        in a fresh child, then check the replay against the operation."""
        shutil.rmtree("replay", ignore_errors=True)
        os.makedirs("replay")
        rep = Replay()
        try:
            for command in [["setup", workload.language], *workload.commands(seed, "replay")]:
                if os.path.exists("spans.json"):
                    os.remove("spans.json")
                child = self.child([sys.executable, REPLAY, "spans.json", *command])
                if child.returncode != 0:
                    rep.errors.append(f"replay of {command[0]} exited {child.returncode}: "
                                      f"{child.stderr[-500:]}")
                    break
                with open("spans.json", encoding="utf-8") as fh:
                    traced = json.load(fh)
                if command[0] == "setup":
                    rep.setup_spans = traced["spans"]
                else:
                    rep.children.append(child)
                    rep.spans.append(traced["spans"])
                rep.counts.update(traced["counts"])
            if not rep.errors:
                if tree_hashes("replay") != reference.get("out"):
                    rep.errors.append("replayed outputs differ from the CLI's")
                if not op.errors:
                    expected = workload.expected_counts(
                        inputs, [c.stdout for c in op.children])
                    if any(rep.counts.get(k) != v for k, v in expected.items()):
                        rep.errors.append(f"counts {rep.counts} do not match {expected}")
                if rep.counts != reference.setdefault("counts", rep.counts):
                    rep.errors.append("counts differ from the first repetition's")
        except Exception as exc:  # a missing or malformed spans or output file
            rep.errors.append(f"replay check raised {exc!r}")
        self.record(f"{workload.name} traced", rep.errors)
        return rep


def kill_group(pid: int) -> None:
    """Kill a launcher and the command it started."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def tree_hashes(top: str) -> dict[str, str]:
    hashes = {}
    for folder, _, files in os.walk(top):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, top)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def end_to_end(runner: Runner, workload, inputs, args) -> tuple[dict, dict]:
    setups, ops, reference = [], [], {}
    loop_start = time.perf_counter()
    while True:
        setups += [runner.setup(workload.language).wall_s for _ in range(SETUP_RUNS)]
        ops.append(runner.op(workload, inputs, args.seed, reference))
        elapsed = time.perf_counter() - loop_start
        if elapsed >= args.seconds or ops[-1].wall_s > runner.remaining():
            break
    setups += [runner.setup(workload.language).wall_s for _ in range(SETUP_RUNS)]
    metrics = {
        "wall_s": statistics.median(op.wall_s for op in ops),
        "cpu_s": statistics.median(op.cpu_s for op in ops),
        "lemmas_per_s": statistics.median(rate(inputs.lemmas, op.wall_s) for op in ops),
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
        "setup_s": statistics.median(setups),
    }
    return metrics, {"setup_s": setups, "ops": [op_record(op) for op in ops]}


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer call of one replay process: the spans directly
    under its pipeline span, and its own ``bench.*`` bookkeeping."""
    pipeline = {s["id"] for s in spans if s["name"] == "pipeline"}
    times = defaultdict(float)
    for span in spans:
        if span["parent"] in pipeline or span["name"].startswith("bench."):
            times[span["name"]] += duration(span)
    return times


def layer_metrics(rep: Replay, wall: float) -> dict:
    """Per-layer figures of one traced repetition; ``wall`` is the untraced
    operation's wall time."""
    layer = defaultdict(float)
    for spans in rep.spans:
        for name, seconds in layer_times(spans).items():
            layer[name] += seconds
    # timed inside features.extract, so not a layer span of its own
    match = sum(span.get("match_s", 0.0) for spans in rep.spans for span in spans)
    extract = layer["features.extract"]
    tokens = rep.counts.get("corpus.tokens", 0)
    hits = rep.counts.get("cues.hits", 0)
    traced = sum(c.wall_s for c in rep.children)
    return {
        "corpus.parse_s": layer["corpus.parse"],
        "corpus.tokens_per_s": rate(tokens, layer["corpus.parse"]),
        "corpus.sentences": rep.counts.get("corpus.sentences", 0),
        "corpus.tokens": tokens,
        "cues.load_s": layer_times(rep.setup_spans)["cues.load"],
        "cues.match_s": match,
        "cues.match_tokens_per_s": rate(tokens, match),
        "cues.hits": hits,
        "cues.target_hit_ratio": rep.counts.get("cues.target_hits", 0) / hits if hits else 0.0,
        "features.extract_s": extract,
        "features.aggregate_s": extract - match,
        "features.attach_labels_s": layer["features.attach_labels"],
        "features.csv_write_s": layer["features.csv_write"],
        "features.csv_read_s": layer["features.csv_read"],
        "dtree.train_s": layer["dtree.train"],
        "dtree.classify_s": layer["dtree.classify"],
        "dtree.model_io_s": layer["dtree.model_io"],
        "dtree.nodes": rep.counts.get("dtree.nodes", 0),
        "dtree.depth": rep.counts.get("dtree.depth", 0),
        "evaluation.cv_s": layer["evaluation.cv"],
        "evaluation.report_s": layer["evaluation.report"],
        "data.load_gold_s": layer["data.load_gold"],
        "cli.args_s": layer["cli.args"],
        "cli.wall_s": wall,
        "cli.traced_wall_s": traced,
        "cli.unattributed_s": traced - sum(layer.values()),
        "cli.trace_overhead_s": traced - wall,
    }


def traced(runner: Runner, workload, inputs, args) -> tuple[dict, dict]:
    reps, reference = [], {}
    loop_start = time.perf_counter()
    while True:
        op = runner.op(workload, inputs, args.seed, reference)
        reps.append((op, runner.replay(workload, inputs, args.seed, op, reference)))
        elapsed = time.perf_counter() - loop_start
        # the next repetition, an operation and its replay, must end in time
        if elapsed >= args.seconds or 3 * op.wall_s > runner.remaining():
            break
    per_rep = [layer_metrics(rep, op.wall_s) for op, rep in reps]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    return metrics, {"ops": [op_record(op) for op, _ in reps],
                     "replays": [replay_record(rep) for _, rep in reps]}


def child_record(child: Child) -> dict:
    return {"argv": child.argv[3:], "wall_s": child.wall_s, "cpu_s": child.cpu_s,
            "peak_rss_mb": child.rss_mb, "returncode": child.returncode}


def op_record(op: Op) -> dict:
    return {"wall_s": op.wall_s, "cpu_s": op.cpu_s, "peak_rss_mb": op.rss_mb,
            "errors": op.errors, "children": [child_record(c) for c in op.children]}


def replay_record(rep: Replay) -> dict:
    return {"errors": rep.errors, "counts": rep.counts, "setup_spans": rep.setup_spans,
            "children": [{**child_record(c), "spans": spans}
                         for c, spans in zip(rep.children, rep.spans)]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "eventnouns", "cli.py")):
        print(f"error: no eventnouns sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    meta = {
        "workload": workload.name, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(), "loop": "closed, one client",
    }

    run_dir = os.path.join(WORK, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.chdir(run_dir)
    try:
        runner = Runner(started)
        synth = runner.child([sys.executable, os.path.join(HERE, "make_inputs.py"),
                              workload.name, str(args.seed)])
        if synth.returncode != 0:
            print(f"error: input generation failed: {synth.stderr}", file=sys.stderr)
            return 1
        inputs = Inputs.load("oracle.json")
        runner.setup(workload.language)  # warm the bytecode cache
        if args.trace:
            values, detail = traced(runner, workload, inputs, args)
            values["data.synth_s"] = synth.wall_s
        else:
            values, detail = end_to_end(runner, workload, inputs, args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)

    if values.keys() != declared.keys():
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": declared[name]["unit"]}
               for name in declared}
    for name, metric in declared.items():
        print(f"{name} = {values[name]:.6g} {metric['unit']} "
              f"({metric['better']} is better)")
    print(f"failed_ops = {runner.failed / max(runner.attempted, 1):g} "
          f"({runner.failed} of {runner.attempted} runs attempted)")
    for error in runner.errors:
        print(f"FAILED {error}")
    summary = {"correct": runner.failed == 0, "attempted": runner.attempted,
               "failed": runner.failed, "metrics": metrics}

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    result_path = os.path.join(
        results, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({**meta, **summary, "directions": {n: m["better"] for n, m in declared.items()},
                   "errors": runner.errors, **detail}, fh, indent=1)
    print(f"result file: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
