"""Benchmark of nestfill: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload gf-construct --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the result holds the end-to-end metrics
(``setup_s``, ``cold_s``, ``warm_s``, ``peak_rss_mib``); with ``--trace 1``
the per-layer metrics of a traced run.  The last line of standard output is
the result; files go to ``bench/out/`` (see README.md).

This process only starts interpreters, times them and checks what they
produced; it never imports nestfill.  Interpreters run one at a time, each
single-threaded, so the figures are of single-threaded work.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402

WORKLOADS = ["gf-construct", "verify-large", "cli-bundle", "small-families"]
SETUP_SAMPLES = 5  # set-up-only interpreters per untraced run
MIN_ROUNDS = 2  # fresh interpreters per untraced run, at the least
TRACE_ROUNDS = 2  # untraced and traced interpreters per traced run
RUN_LIMIT_S = 170  # a run, hung interpreters included, ends within this
PER_LAYER = [
    "algebra.scalar_calls", "algebra.scalar_s", "algebra.table_s", "algebra.table_misses",
    "algebra.field_make_calls", "algebra.field_make_s", "algebra.projection_calls", "algebra.projection_s",
    "algebra.parse_calls", "algebra.parse_s", "constructions.calls", "constructions.self_s",
    "arrays.check_oa_calls", "arrays.check_oa_s", "arrays.check_oa_pairs",
    "arrays.check_dm_calls", "arrays.check_dm_s", "arrays.check_dm_pairs",
    "arrays.check_nested_calls", "arrays.check_nested_s", "arrays.checks_per_output",
    "arrays.kronecker_s", "arrays.collapse_s", "arrays.subrows_s",
    "arrays.save_bundle_s", "arrays.load_bundle_s", "arrays.cells_written", "arrays.cells_read",
    "arrays.bytes_written", "arrays.bytes_read", "mixed.self_s",
    "nsfd.relabel_s", "nsfd.oa_lhd_s", "nsfd.to_design_s", "nsfd.strat_counts_s", "nsfd.strat_counts_calls",
    "catalog.get_s", "catalog.misses",
    "cli.start_s", "cli.construct_s", "cli.verify_s", "cli.lhd_s", "cli.info_s",
    "bench.trace_overhead_s",
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Run:
    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.dir = os.path.join(root, "bench", "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.setup_s: list[float] = []
        self.passes: list[dict] = []  # every pass of every interpreter, with its role
        self.problems: list[str] = []
        self.n = 0
        self.t0 = time.perf_counter()

    def time_left(self) -> float:
        return max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.t0))

    # -- processes -------------------------------------------------------

    def worker(self, role: str, dump: bool = False) -> list[dict]:
        """Start one worker interpreter and wait for it; record its set-up time."""
        self.n += 1
        work = os.path.join(self.dir, f"w{self.n}")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--role", role, "--work", work]
        if role == "traced" and dump:
            cmd += ["--dump", self.dir]
        elif dump:
            cmd += ["--dump", os.path.join(self.dir, "dump")]
            os.makedirs(os.path.join(self.dir, "dump"), exist_ok=True)
        os.makedirs(work, exist_ok=True)
        with open(os.path.join(work, "stderr.txt"), "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            try:
                first = proc.stdout.readline()
                ready = time.perf_counter() - t0
                rest, _ = proc.communicate(timeout=self.time_left())
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError(f"{role} worker did not finish within {RUN_LIMIT_S} s of the run's start")
        if proc.returncode != 0 or (role != "thm7" and first.strip() != "READY"):
            with open(os.path.join(work, "stderr.txt")) as fh:
                raise BenchError(f"{role} worker failed (exit {proc.returncode}): {fh.read()[-2000:]}")
        if role != "thm7":
            self.setup_s.append(ready)
        lines = ([first] if role == "thm7" else []) + rest.splitlines()
        out = [json.loads(ln) for ln in lines if ln.startswith("{")]
        for rec in out:
            if "pass" in rec:
                rec["role"] = role
                self.passes.append(rec)
        return out

    def catalog_list(self) -> float:
        """``nestfill catalog list`` as one process: the CLI's set-up time."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "nestfill.cli", "catalog", "list"], cwd=self.root,
                                  env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  timeout=self.time_left())
        except subprocess.TimeoutExpired:
            raise BenchError(f"nestfill catalog list did not finish within {RUN_LIMIT_S} s of the run's start")
        dt = time.perf_counter() - t0
        names = proc.stdout.split()
        if proc.returncode != 0 or not names or names != sorted(names):
            raise BenchError(f"nestfill catalog list failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
        return dt

    # -- results ---------------------------------------------------------

    def median(self, label: str, role: str | None = None) -> dict[str, float]:
        """Per operation, the median time of the passes named ``label``.

        The median, not the fastest: on a shared 2-vCPU machine single
        timings have a long tail on both sides, and the fastest of a few
        varied about twice as much from run to run as the median did."""
        times: dict[str, list[float]] = {}
        for rec in self.passes:
            if rec["pass"] == label and (role is None or rec["role"] == role):
                for op, t in rec["times"].items():
                    if op not in rec["errors"]:
                        times.setdefault(op, []).append(t)
        return {op: statistics.median(ts) for op, ts in times.items()}

    def counts(self) -> tuple[int, int]:
        attempted = sum(len(rec["times"]) for rec in self.passes)
        failed = sum(len(rec["errors"]) for rec in self.passes)
        return attempted, failed

    def check(self, defect_rows=None) -> None:
        """Reference checks of the dumped outputs, then the digest of every
        output of every pass against the checked one."""
        for rec in self.passes:
            for op, msg in rec["errors"].items():
                self.problems.append(f"{rec['role']} {rec['pass']} {op}: {msg}")
        w = self.args.workload
        try:
            if w == "cli-bundle":
                first = next(os.path.join(self.dir, f"w{k}") for k in range(1, self.n + 1)
                             if os.path.exists(os.path.join(self.dir, f"w{k}", "b.csv")))
                self.problems += checks.cli_bundle(first)
            elif w == "verify-large":
                self.problems += checks.verify_large(os.path.join(self.dir, "dump"), defect_rows)
            else:
                fn = {"gf-construct": checks.gf_construct, "small-families": checks.small_families}[w]
                self.problems += fn(os.path.join(self.dir, "dump"))
        except (OSError, ValueError, KeyError, StopIteration) as e:
            self.problems.append(f"outputs could not be checked: {type(e).__name__}: {e}")
        seen: dict[str, str] = {}
        for rec in self.passes:
            for op, d in rec["digests"].items():
                if seen.setdefault(op, d) != d:
                    self.problems.append(f"{op}: output of {rec['role']} {rec['pass']} pass differs from the first")

    def finish(self, metrics: dict) -> dict:
        attempted, failed = self.counts()
        result = {"correct": not self.problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        with open(os.path.join(self.dir, "result.json"), "w") as fh:
            json.dump({**result, "problems": self.problems, "passes": self.passes,
                       "setup_samples_s": self.setup_s}, fh, indent=1)
        for k in range(1, self.n + 1):
            shutil.rmtree(os.path.join(self.dir, f"w{k}"), ignore_errors=True)
        shutil.rmtree(os.path.join(self.dir, "dump"), ignore_errors=True)
        return result


def untraced(run: Run) -> dict:
    """Set-up samples, then fresh interpreters until the time is up; each
    gives one cold and one warm time per operation."""
    args, is_cli = run.args, run.args.workload == "cli-bundle"
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    if is_cli:
        cli_setup = [run.catalog_list() for _ in range(SETUP_SAMPLES)]
    else:
        for _ in range(SETUP_SAMPLES):
            run.worker("setup")
    durations, defect = [], None
    while len(durations) < MIN_ROUNDS or time.perf_counter() + statistics.median(durations) <= deadline:
        t0 = time.perf_counter()
        for rec in run.worker("measure", dump=not durations):
            defect = rec.get("defect_rows", defect)
        durations.append(time.perf_counter() - t0)
    run.check(defect)
    cold, warm = run.median("cold"), run.median("warm")
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {
        "setup_s": {"value": statistics.median(cli_setup if is_cli else run.setup_s), "unit": "s"},
        "cold_s": {"value": sum(cold.values()), "unit": "s"},
        "warm_s": {"value": sum(warm.values()), "unit": "s"},
        "peak_rss_mib": {"value": peak, "unit": "MiB"},
    }


def traced(run: Run) -> dict:
    """Untraced and traced interpreters in turn, each over the same two
    passes; the per-layer figures are those of the first traced one, and the
    difference between the median traced and untraced times is the tracing
    overhead."""
    args, is_cli = run.args, run.args.workload == "cli-bundle"
    defect, traces = None, []
    for k in range(TRACE_ROUNDS):
        for rec in run.worker("measure", dump=k == 0):
            defect = rec.get("defect_rows", defect)
        traces += [rec["layers"] for rec in run.worker("traced", dump=k == 0) if "layers" in rec]
    layers = traces[0]
    for name, value in layers.items():
        if _unit(name) != "s" and any(t[name] != value for t in traces):
            run.problems.append(f"{name} differs between two traced interpreters: {[t[name] for t in traces]}")
    extra = {"trace_file": os.path.relpath(os.path.join(run.dir, "trace.json"), run.root)}
    plain = ("prewarm", "warm") if is_cli else ("cold", "warm")
    untraced_s = sum(sum(run.median(label, "measure").values()) for label in plain)
    traced_s = sum(sum(run.median(label, "traced").values()) for label in ("cold", "warm"))
    layers["bench.trace_overhead_s"] = traced_s - untraced_s
    cold = run.median("cold", "measure")
    if is_cli:
        layers["cli.start_s"] = statistics.median(run.catalog_list() for _ in range(3))
        for verb in ("construct", "verify", "lhd", "info"):
            layers[f"cli.{verb}_s"] = cold.get(verb, 0.0)
        thm7 = run.worker("thm7")[0]
        extra["construct_thm7_verifier_calls"] = thm7["verifier_calls"]
        if thm7["rc"] != 0:
            run.problems.append(f"construct thm7 exited {thm7['rc']}")
    else:
        for name in ("start", "construct", "verify", "lhd", "info"):
            layers[f"cli.{name}_s"] = 0.0
    with open(os.path.join(run.dir, "trace.json")) as fh:
        trace = json.load(fh)
    extra["verifier_calls"] = trace["verifier_calls"]
    if args.workload == "small-families":
        # one check of the input, then one per 4-row subset of the 16 rows
        tried = trace["verifier_calls"]["search_gf16_to_gf4"]["cold"].get("check_dm", 0) - 1
        if tried != 1820:
            run.problems.append(f"search_nested_rows tried {tried} subsets, not all 1820")
    with open(os.path.join(run.dir, "trace_summary.json"), "w") as fh:
        json.dump({"layers": layers, **extra}, fh, indent=1)
    run.check(defect)
    return {name: {"value": layers[name], "unit": _unit(name)} for name in PER_LAYER}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("arrays.bytes"):
        return "B"
    return "ratio" if name.endswith("per_output") else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], required=True,
                    help="one workload, or all four in turn (one result line each)")
    ap.add_argument("--seed", type=int, required=True,
                    help="drives the planted defect of verify-large and the design jitter")
    ap.add_argument("--seconds", type=int, default=30, help="measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "nestfill", "__init__.py")):
            raise BenchError("run from the root of a nestfill checkout: src/nestfill is missing")
        problems = reference.self_check()
        if problems:
            raise BenchError("the reference checks fail their own self-check: " + "; ".join(problems))
        if args.workload == "all":
            return run_all(args)
        run = Run(args, root)
        result = run.finish(traced(run) if args.trace else untraced(run))
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    for p in run.problems:
        print(f"bench: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that ``peak_rss_mib`` counts
    only the processes of that workload."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        print(json.dumps({"workload": workload, **json.loads(lines[-1])}), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
