"""Benchmark for abicreg: the CLI end to end, and its layers when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload select --seed 1 --seconds 40 --trace 0

Every operation is a call to ``abicreg.cli.main(argv)`` in this process,
so interpreter start-up is not timed. Set-up writes the workload's
problem files with the ``generate`` subcommand, from the seed. A run then
repeats whole rounds (one pass over the workload's fixed list of
operations) until ``--seconds`` have passed, checks every output against
the independent reference in ``reference.py``, and prints one JSON object
as its last line of standard output.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics; see
``tracing.py`` and README.md.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))
import reference as refmod  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
BRACKET = (-12.0, 12.0)
REL_TOL = 1e-6


def import_package():
    """Import abicreg from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import abicreg
    import abicreg.cli

    location = Path(abicreg.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"abicreg was imported from {location}, not from {SRC}")
    return abicreg


# -- workloads -------------------------------------------------------------
#
# An input is (name, generate flags, spectrum decay or None, sigma2).
# Sizes follow the ROADMAP baseline table.

SELECT_INPUTS = (
    ("phillips64", ["--kind", "phillips", "--n", "64"], None, 1e-4),
    ("phillips256", ["--kind", "phillips", "--n", "256"], None, 1e-4),
    ("spectrum400x100", ["--kind", "spectrum", "--n", "400", "--t", "100", "--decay", "6"], 6.0, 1e-6),
    ("spectrum2000x200", ["--kind", "spectrum", "--n", "2000", "--t", "200", "--decay", "6"], 6.0, 1e-6),
)
KAPPA_INPUTS = (
    ("spectrum48x12", ["--kind", "spectrum", "--n", "48", "--t", "12", "--decay", "4"], 4.0, 1e-6),
    ("phillips32", ["--kind", "phillips", "--n", "32"], None, 1e-4),
)
KAPPA_REPLICATES = 200
SIGMA2_INPUTS = (
    ("phillips32", ["--kind", "phillips", "--n", "32"], None, 1e-4),
    ("spectrum400x100", ["--kind", "spectrum", "--n", "400", "--t", "100", "--decay", "6"], 6.0, 1e-6),
)
# (kappa, replicates) per sigma2-study input. Phillips 32 at R=20000 is the
# ROADMAP baseline row. Most of the round goes to spectrum 400x100, whose
# noise draws, n x R arrays and batched product lean on numpy and BLAS
# more than on the interpreter, so the round time drifts less with the
# machine's interpreter speed.
SIGMA2_SETTINGS = {"phillips32": (1e-3, 20000), "spectrum400x100": (1e-4, 30000)}


class Workload:
    """Inputs and the fixed list of operations derived from one seed."""

    def __init__(self, name, seed, work):
        self.name = name
        self.seed = seed
        self.work = work
        inputs = {"select": SELECT_INPUTS, "kappa-study": KAPPA_INPUTS, "sigma2-study": SIGMA2_INPUTS}[name]
        self.inputs = []
        for index, (label, flags, decay, sigma2) in enumerate(inputs):
            out = work / "inputs" / label
            argv = ["generate", *flags, "--sigma2", repr(sigma2), "--seed", str(8 * seed + index),
                    "--mu-mode", "zero", "--out", str(out)]
            self.inputs.append({"label": label, "argv": argv, "dir": out, "decay": decay, "sigma2": sigma2})
        self.ops = list(getattr(self, "_ops_" + name.replace("-", "_"))())

    def _op(self, name, argv, **check):
        out = self.work / "ops" / name
        return {"name": name, "argv": [*argv, "--out", str(out)], "out": out, **check}

    def _ops_select(self):
        for item in self.inputs:
            problem = str(item["dir"] / "problem.json")
            for case in (1, 2):
                yield self._op(
                    f"select-case{case}-{item['label']}",
                    ["select-kappa", "--problem", problem, "--case", str(case)],
                    kind="select", input=item, case=case,
                )
            yield self._op(f"sweep-{item['label']}", ["sweep", "--problem", problem], kind="sweep", input=item)

    def _ops_kappa_study(self):
        for case, item in zip((1, 2), self.inputs):
            yield self._op(
                f"kappa-case{case}-{item['label']}",
                ["bias-study", "--study", "kappa", "--problem", str(item["dir"] / "problem.json"),
                 "--truth", str(item["dir"] / "truth.json"), "--sigma2", repr(item["sigma2"]),
                 "--case", str(case), "--replicates", str(KAPPA_REPLICATES), "--seed", str(self.seed)],
                kind="kappa", input=item, case=case,
            )

    def _ops_sigma2_study(self):
        for item in self.inputs:
            kappa, replicates = SIGMA2_SETTINGS[item["label"]]
            for mode in ("true", "zero"):
                yield self._op(
                    f"sigma2-{mode}-{item['label']}",
                    ["bias-study", "--study", "sigma2", "--problem", str(item["dir"] / "problem.json"),
                     "--truth", str(item["dir"] / "truth.json"), "--sigma2", repr(item["sigma2"]),
                     "--kappa", repr(kappa), "--mu-mode", mode, "--replicates", str(replicates),
                     "--seed", str(self.seed)],
                    kind="sigma2", input=item, kappa=kappa, mode=mode, replicates=replicates,
                )


# -- measuring -------------------------------------------------------------


def run_setup(cli, workload):
    started = time.perf_counter()
    for item in workload.inputs:
        code = cli.main(item["argv"])
        if code != 0:
            raise RuntimeError(f"generate failed for {item['label']} with exit code {code}")
    return time.perf_counter() - started


def output_files(op):
    names = ["result.json", "config.json"] + (["sweep.csv"] if op["kind"] == "sweep" else [])
    return {name: (op["out"] / name) for name in names}


def run_round(cli, workload):
    """One pass over the operations: (round seconds, per-op seconds, exit codes)."""
    times, codes = [], []
    started = time.perf_counter()
    for op in workload.ops:
        t0 = time.perf_counter()
        code = cli.main(op["argv"])
        times.append(time.perf_counter() - t0)
        codes.append(code)
    return time.perf_counter() - started, times, codes


class Outputs:
    """Byte-identity of every operation's outputs across rounds."""

    def __init__(self):
        self.first = {}
        self.failures = []

    def collect(self, workload, codes, round_index):
        size = 0
        for op, code in zip(workload.ops, codes):
            if code != 0:
                continue
            for name, path in output_files(op).items():
                data = path.read_bytes()
                size += len(data)
                key = (op["name"], name)
                if key not in self.first:
                    self.first[key] = data
                elif data != self.first[key]:
                    self.failures.append(f"identity: {op['name']} {name} changed in round {round_index}")
        return size


def check_outputs(abicreg, workload):
    """Every check of the workload's last outputs against the reference."""
    fails = []
    refs = {}
    for item in workload.inputs:
        ref = refmod.Reference(item["dir"] / "problem.json")
        refs[item["label"]] = ref
        fails += refmod.check_weights(ref, item["label"])
        if item["decay"] is not None:
            fails += refmod.check_spectrum(ref, item["decay"], item["label"])
    for op in workload.ops:
        result_path = op["out"] / "result.json"
        if not result_path.exists():
            continue
        result = json.loads(result_path.read_text(encoding="utf-8"))
        ref = refs[op["input"]["label"]]
        truth = op["input"]["dir"] / "truth.json"
        if op["kind"] == "select":
            fails += refmod.check_selection(ref, result, op["case"], ref.sigma2, BRACKET, REL_TOL, op["name"])
        elif op["kind"] == "sweep":
            csv_text = (op["out"] / "sweep.csv").read_text(encoding="utf-8")
            fails += refmod.check_sweep(ref, result, csv_text, BRACKET, op["name"])
        elif op["kind"] == "kappa":
            exact = refmod.load_exact(truth)
            recomputed = refmod.kappa_study_reference(
                ref, exact, abicreg.bias.replicate_stream, op["input"]["sigma2"], workload.seed,
                KAPPA_REPLICATES, op["case"], BRACKET, REL_TOL,
            )
            fails += refmod.check_kappa_study(result, recomputed, BRACKET, KAPPA_REPLICATES, op["name"])
        else:
            exact = refmod.load_exact(truth)
            fails += refmod.check_sigma2_study(
                ref, exact, result, op["input"]["sigma2"], op["kappa"], op["mode"],
                op["replicates"], workload.seed, op["name"],
            )
    return fails


def workspace_micro(abicreg, workload):
    """(summed median evaluation seconds, peak workspace MB) over the inputs.

    Evaluation is one operators(kappa) plus quad_form plus logdet on a
    reused workspace, the median over the 97 grid values of kappa.
    """
    marginal = abicreg.marginal
    eval_total, peak_mb = 0.0, 0.0
    for item in workload.inputs:
        loaded = abicreg.model.load_problem(item["dir"] / "problem.json")
        tracemalloc.start()
        workspace = marginal.MarginalWorkspace(loaded.problem, loaded.prior.w_beta)
        peak_mb = max(peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()
        residual = workspace.residual(loaded.prior)
        times = []
        for log_kappa in refmod.grid(BRACKET):
            t0 = time.perf_counter()
            try:
                ops = workspace.operators(10.0 ** float(log_kappa))
                ops.quad_form(residual)
                ops.logdet
            except abicreg.errors.AbicregError:
                continue
            times.append(time.perf_counter() - t0)
        eval_total += statistics.median(times)
    return eval_total, peak_mb


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["select", "kappa-study", "sigma2-study"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    abicreg = import_package()
    import_s = time.perf_counter() - PROCESS_T0
    cli = abicreg.cli
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(abicreg, cli, args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(abicreg, cli, args, work, import_s):
    workload = Workload(args.workload, args.seed, work)
    tracer = tracing.Tracer(abicreg) if args.trace else None
    phases = []

    def traced(label, fn):
        """Run fn with the tracer installed; keep its totals as one phase."""
        tracer.reset_totals()
        first = len(tracer.spans)
        tracer.install()
        try:
            value = fn()
        finally:
            tracer.uninstall()
        phases.append({"phase": label, "spans": [first, len(tracer.spans)],
                       "layer_self_s": dict(tracer.self_time)})
        return value, dict(tracer.time)

    setup_times, gen_times, write_times = [], [], []
    for rep in range(SETUP_REPEATS):
        if tracer is None:
            setup_times.append(run_setup(cli, workload))
        else:
            _, totals = traced(f"setup{rep}", lambda: run_setup(cli, workload))
            gen_times.append(totals.get("problems.generate_problem", 0.0)
                             + totals.get("problems.synthesize_observations", 0.0))
            write_times.append(totals.get("model.save_problem", 0.0))

    outputs = Outputs()
    attempted = failed = 0
    plain_rounds, traced_rounds, layer_rounds = [], [], []
    op_times = [[] for _ in workload.ops]
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        use_trace = tracer is not None and index % 2 == 1
        if use_trace:
            (round_s, times, codes), _ = traced(f"round{index}", lambda: run_round(cli, workload))
        else:
            round_s, times, codes = run_round(cli, workload)
        print(f"round {index}{' traced' if use_trace else ''}: {round_s:.4f} s", file=sys.stderr)
        attempted += len(codes)
        failed += sum(1 for code in codes if code != 0)
        size = outputs.collect(workload, codes, index)
        if use_trace:
            traced_rounds.append(round_s)
            layer_rounds.append(tracing.layer_metrics(tracer, size))
        elif index > 0:
            # round 0 is a warm-up: first reads of the problem files, first
            # large allocations. Its outputs are checked but not timed.
            plain_rounds.append(round_s)
            for slot, dt in zip(op_times, times):
                slot.append(dt)
        index += 1
        if time.perf_counter() >= deadline and plain_rounds and (tracer is None or traced_rounds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fails = outputs.failures + check_outputs(abicreg, workload)
    for message in fails:
        print("CHECK FAILED", message, file=sys.stderr)

    if tracer is None:
        medians = [statistics.median(slot) for slot in op_times]
        for op, med in zip(workload.ops, medians):
            print(f"op {op['name']}: median {med:.6f} s over {len(op_times[0])} rounds")
        metrics = {
            "round_s": (statistics.median(plain_rounds), "s"),
            "op_geomean_s": (geomean(medians), "s"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {
            name: (statistics.median(r[name][0] for r in layer_rounds), unit)
            for name, (_, unit) in layer_rounds[0].items()
        }
        if "problems.generate_problem" in tracer.present:
            metrics["problems.generate_s"] = (statistics.median(gen_times), "s")
        if "model.save_problem" in tracer.present:
            metrics["serialize.problem_write_s"] = (statistics.median(write_times), "s")
        eval_s, peak_mb = workspace_micro(abicreg, workload)
        metrics["marginal.eval_s"] = (eval_s, "s")
        metrics["marginal.workspace_peak_mb"] = (peak_mb, "MB")
        metrics["trace.overhead_s"] = (
            statistics.median(traced_rounds) - statistics.median(plain_rounds), "s")
        write_spans(tracer, phases, args, traced_rounds, plain_rounds)

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name}: {value:.6g} {unit}")
    report = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


def write_spans(tracer, phases, args, traced_rounds, plain_rounds):
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "columns": ["id", "parent", "name", "start", "end", "self_s"],
        "phases": phases,
        "traced_round_s": traced_rounds,
        "untraced_round_s": plain_rounds,
        "spans": tracer.spans,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    try:
        code = main()
    except ImportError as exc:
        print(f"cannot import abicreg from {SRC}: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)
