"""Show that every workload check fails on a wrong answer.

Usage, from the root of a checkout:

    python3 perfbench/mutations.py [--seed 3]

For each workload this sets up the inputs, runs one round of operations,
confirms that the unaltered outputs pass every check, and then alters
one output at a time (kappa_hat moved by one grid step, sigma2_hat off
by 1%, mc_mean moved by 5 standard errors, ...). Each altered output
must fail the check named next to it. Prints one line per alteration and
exits 1 if any alteration goes unnoticed.
"""

import argparse
import copy
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference as refmod  # noqa: E402
import run  # noqa: E402

GRID_STEP = 10.0 ** ((run.BRACKET[1] - run.BRACKET[0]) / (refmod.GRID_POINTS - 1))


def _load(op):
    return json.loads((op["out"] / "result.json").read_text(encoding="utf-8"))


def _scaled(result, key, factor):
    bad = copy.deepcopy(result)
    bad["result"][key] *= factor
    return bad


def select_mutations(workload):
    """(description, expected check, failures) for the select workload."""
    out = []
    refs = {item["label"]: refmod.Reference(item["dir"] / "problem.json") for item in workload.inputs}
    for op in workload.ops:
        ref = refs[op["input"]["label"]]
        result = _load(op)
        if op["kind"] == "sweep":
            csv_text = (op["out"] / "sweep.csv").read_text(encoding="utf-8")
            lines = csv_text.split("\n")
            for column, name in ((1, "quad_term"), (2, "logdet_term")):
                fields = lines[41].split(",")
                fields[column] = repr(float(fields[column]) * 1.01)
                bad_csv = "\n".join(lines[:41] + [",".join(fields)] + lines[42:])
                out.append((f"{op['name']}: {name} of one row off by 1%", "sweep",
                            refmod.check_sweep(ref, result, bad_csv, run.BRACKET, op["name"])))
            continue

        def check(bad):
            return refmod.check_selection(ref, bad, op["case"], ref.sigma2, run.BRACKET, run.REL_TOL, op["name"])

        res = result["result"]
        if res["boundary_flag"] == "interior":
            for factor, word in ((GRID_STEP, "up"), (1 / GRID_STEP, "down")):
                bad = copy.deepcopy(result)
                bad["result"]["kappa_hat"] *= factor
                bad["result"]["sigma_beta2_hat"] = res["sigma2_hat"] / bad["result"]["kappa_hat"]
                out.append((f"{op['name']}: kappa_hat one grid step {word}", "minimizer", check(bad)))
            bad = copy.deepcopy(result)
            bad["result"]["boundary_flag"] = "upper-edge"
            out.append((f"{op['name']}: interior result flagged upper-edge", "boundary_flag", check(bad)))
        else:
            bad = copy.deepcopy(result)
            bad["result"]["boundary_flag"] = "interior"
            out.append((f"{op['name']}: edge result flagged interior", "boundary_flag", check(bad)))
        bad = _scaled(result, "sigma2_hat", 1.01)
        bad["result"]["sigma_beta2_hat"] = bad["result"]["sigma2_hat"] / res["kappa_hat"]
        out.append((f"{op['name']}: sigma2_hat off by 1%", "sigma2_hat", check(bad)))
        out.append((f"{op['name']}: sigma_beta2_hat off by 1%", "sigma_beta2_hat",
                    check(_scaled(result, "sigma_beta2_hat", 1.01))))
        bad = copy.deepcopy(result)
        bad["result"]["objective_at_min"] += 1e-3 * (1 + abs(res["objective_at_min"]))
        out.append((f"{op['name']}: objective_at_min off", "objective", check(bad)))
    for item in workload.inputs:
        ref = refs[item["label"]]
        if item["decay"] is not None:
            scaled = copy.copy(ref)
            scaled.s = ref.s * 1.01
            out.append((f"{item['label']}: singular values 1% high", "spectrum",
                        refmod.check_spectrum(scaled, item["decay"], item["label"])))
        weighted = copy.copy(ref)
        weighted.weight_keys = ["W"]
        out.append((f"{item['label']}: file carries W", "weights", refmod.check_weights(weighted, item["label"])))
    return out


def kappa_mutations(workload, abicreg):
    out = []
    for op in workload.ops:
        ref = refmod.Reference(op["input"]["dir"] / "problem.json")
        exact = refmod.load_exact(op["input"]["dir"] / "truth.json")
        recomputed = refmod.kappa_study_reference(
            ref, exact, abicreg.bias.replicate_stream, op["input"]["sigma2"], workload.seed,
            run.KAPPA_REPLICATES, op["case"], run.BRACKET, run.REL_TOL,
        )
        result = _load(op)

        def check(bad):
            return refmod.check_kappa_study(bad, recomputed, run.BRACKET, run.KAPPA_REPLICATES, op["name"])

        for mode in ("true_mu", "zero_mu"):
            summary = result["result"][mode]
            bad = copy.deepcopy(result)
            bad["result"][mode]["kappa_hat"]["q50"] = summary["kappa_hat"]["q50"] * GRID_STEP
            out.append((f"{op['name']} {mode}: median kappa_hat one grid step up", "quantiles", check(bad)))
            for q in ("q25", "q75"):
                bad = copy.deepcopy(result)
                bad["result"][mode]["kappa_hat"][q] *= 1.01
                out.append((f"{op['name']} {mode}: kappa_hat {q} off by 1%", "quantiles", check(bad)))
            if op["case"] == 1:
                bad = copy.deepcopy(result)
                bad["result"][mode]["sigma2_hat"]["q50"] *= 1.01
                out.append((f"{op['name']} {mode}: median sigma2_hat off by 1%", "quantiles", check(bad)))
            # the check allows one replicate per ambiguous edge decision
            shift = recomputed[mode]["ambiguous"] + 1
            want = recomputed[mode]["edges"]
            wrong = [m for m in (want + shift, want - shift) if 0 <= m <= run.KAPPA_REPLICATES]
            description = f"{op['name']} {mode}: edge count off by {shift}"
            if wrong:
                bad = copy.deepcopy(result)
                bad["result"][mode]["boundary_fraction"] = wrong[0] / run.KAPPA_REPLICATES
                out.append((description, "edges", check(bad)))
            else:
                out.append((description + " (no such count: every count is within the ambiguity)", "edges", None))
            bad = copy.deepcopy(result)
            bad["result"][mode]["failures"] = 1
            out.append((f"{op['name']} {mode}: one failed replicate", "failures", check(bad)))
            bad = copy.deepcopy(result)
            bad["result"][mode]["kappa_hat"]["q05"] = summary["kappa_hat"]["q95"] * 2
            out.append((f"{op['name']} {mode}: quantiles out of order", "quantiles", check(bad)))
    return out


def sigma2_mutations(workload):
    out = []
    for op in workload.ops:
        ref = refmod.Reference(op["input"]["dir"] / "problem.json")
        exact = refmod.load_exact(op["input"]["dir"] / "truth.json")
        result = _load(op)

        def check(bad):
            return refmod.check_sigma2_study(
                ref, exact, bad, op["input"]["sigma2"], op["kappa"], op["mode"],
                op["replicates"], workload.seed, op["name"],
            )

        res = result["result"]
        bad = copy.deepcopy(result)
        bad["result"]["mc_mean"] = res["analytic_expectation"] + 5 * res["mc_std_error"]
        out.append((f"{op['name']}: mc_mean 5 standard errors from analytic", "monte_carlo", check(bad)))
        out.append((f"{op['name']}: analytic_expectation off by 1%", "analytic",
                    check(_scaled(result, "analytic_expectation", 1.01))))
        out.append((f"{op['name']}: analytic_expectation off by 1e-6", "analytic",
                    check(_scaled(result, "analytic_expectation", 1 + 1e-6))))
    return out


def identity_mutation(workload):
    outputs = run.Outputs()
    codes = [0] * len(workload.ops)
    outputs.collect(workload, codes, 0)
    op = workload.ops[0]
    path = op["out"] / "result.json"
    data = path.read_bytes()
    path.write_bytes(data.replace(b"e-", b"E-", 1) if b"e-" in data else data + b" ")
    outputs.collect(workload, codes, 1)
    path.write_bytes(data)
    return [(f"{op['name']}: result.json differs in a later round", "identity", outputs.failures)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    abicreg = run.import_package()
    missed = 0
    for name in ("select", "kappa-study", "sigma2-study"):
        work = run.WORK / f"mutations-{name}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            workload = run.Workload(name, args.seed, work)
            run.run_setup(abicreg.cli, workload)
            _, _, codes = run.run_round(abicreg.cli, workload)
            clean = run.check_outputs(abicreg, workload)
            status = "pass" if not clean and not any(codes) else "FAIL"
            print(f"{name}: unaltered outputs {status} {clean}")
            missed += status != "pass"
            if name == "select":
                cases = select_mutations(workload) + identity_mutation(workload)
            elif name == "kappa-study":
                cases = kappa_mutations(workload, abicreg)
            else:
                cases = sigma2_mutations(workload)
            for description, expected, failures in cases:
                if failures is None:
                    print(f"  n/a for {expected}: {description}")
                    continue
                caught = any(message.startswith(expected + ":") for message in failures)
                missed += not caught
                print(f"  {'caught' if caught else 'MISSED'} by {expected}: {description}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("every alteration caught" if not missed else f"{missed} problems")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
