"""Independent reference for every workload check.

Nothing here calls the package's numerical code. Problem files are read
with the standard ``json`` module and every quantity comes from one thin
SVD of the design, valid because the benchmark's files carry identity
weights (W = W_beta = I, checked on load). With A = U S V^T, r = y - A mu
and c = U^T r:

    quad(kappa)   = |r_perp|^2 + sum kappa c_i^2 / (s_i^2 + kappa)
    logdet(kappa) = sum log1p(s_i^2 / kappa)

where r_perp = r - U c (mathematically |r|^2 - |c|^2, computed without
the cancellation). The only package function used is the public
``replicate_stream``, to redraw the noise of a kappa study.

Each check returns a list of failure messages, each prefixed with the
name of the check that raised it, so that a deliberately wrong answer
can be shown to fail the check meant to catch it.
"""

import json
import math

import numpy as np

GRID_POINTS = 97
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
MAX_REFINE_STEPS = 200
FINE_PER_CELL = 24
RTOL_ANALYTIC = 1e-9
MC_SIGMAS = 4.0
RTOL_SINGULAR = 1e-10


def rtol_quad(kappa):
    """Relative error allowed in the program's quadratic form at kappa.

    The program works through Cholesky factors of I + A^T A / kappa (or
    of E itself for small square problems), which loses accuracy at the
    low end of the default bracket. Measured against this reference over
    12 seeds of each benchmark design, the worst error is 1.2e-4 at
    kappa = 1e-12 (phillips 256), 9e-7 at 1e-10, 4e-11 at 1e-4 and
    2e-15 from kappa = 1 up. This bound is at least 8 times those
    figures at every grid point, and at most 1e-3.
    """
    kappa = np.asarray(kappa, dtype=float)
    return np.minimum(3e-14 + 3e-13 / kappa, 1e-3)


def atol_logdet(kappa, logdet):
    """Error allowed in the program's log-determinant at kappa.

    Worst measured error, relative to 1 + |logdet|: 1e-6 at kappa =
    1e-12, 4e-11 at 1e-5, 3e-14 from kappa = 1 up; the bound is at
    least 10 times that.
    """
    kappa = np.asarray(kappa, dtype=float)
    return (5e-13 + 3e-13 * kappa**-0.75) * (1 + np.abs(logdet))


class Reference:
    """SVD reference for one problem file (identity weights only)."""

    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        self.weight_keys = sorted(k for k in ("W", "W_beta") if k in doc)
        self.a = np.asarray(doc["A"], dtype=float)
        self.y = np.asarray(doc["y"], dtype=float)
        self.n, self.t = self.a.shape
        self.mu = np.asarray(doc["mu"], dtype=float) if "mu" in doc else np.zeros(self.t)
        self.sigma2 = doc.get("sigma2")
        self.u, self.s, _ = np.linalg.svd(self.a, full_matrices=False)
        self.s2 = self.s**2

    def split(self, residual):
        """(c, |r_perp|^2) for one residual vector or an n x R block."""
        c = self.u.T @ residual
        perp = residual - self.u @ c
        return c, np.sum(perp * perp, axis=0)

    def quad(self, kappa, c, perp2):
        kappa = np.asarray(kappa, dtype=float)
        filt = kappa[..., None] / (self.s2 + kappa[..., None])
        return perp2 + filt @ (c * c)

    def logdet(self, kappa):
        kappa = np.asarray(kappa, dtype=float)
        return np.sum(np.log1p(self.s2 / kappa[..., None]), axis=-1)

    def objective(self, kappa, c, perp2, case, sigma2=None):
        quad = self.quad(kappa, c, perp2)
        if case == 1:
            return self.n * np.log(quad) + self.logdet(kappa)
        return quad / sigma2 + self.logdet(kappa)

    def objective_tol(self, kappa, c, perp2, case, sigma2=None):
        """Error allowed in the program's objective at kappa."""
        scale = self.n if case == 1 else self.quad(kappa, c, perp2) / sigma2
        return scale * rtol_quad(kappa) + atol_logdet(kappa, self.logdet(kappa))

    def trace_noise_quad(self, kappa):
        """tr(E^-1) = (n - t) + sum kappa / (s_i^2 + kappa)."""
        return (self.n - self.t) + float(np.sum(kappa / (self.s2 + kappa)))


def load_exact(truth_path):
    with open(truth_path, "r", encoding="utf-8") as handle:
        return np.asarray(json.load(handle)["exact_solution"], dtype=float)


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * abs(b)


def check_weights(ref, label):
    if ref.weight_keys:
        return [f"weights: {label} carries {ref.weight_keys}; the reference needs identity"]
    return []


def check_spectrum(ref, decay, label):
    expected = 10.0 ** (-decay * np.arange(ref.t) / (ref.t - 1))
    err = float(np.max(np.abs(ref.s - expected) / expected))
    if err > RTOL_SINGULAR:
        return [f"spectrum: {label} singular values off by relative {err:.3g}"]
    return []


def grid(bracket):
    return np.linspace(float(bracket[0]), float(bracket[1]), GRID_POINTS)


def grid_kappas(bracket):
    """The program's grid: 10.0 ** g for each point of the log grid."""
    return np.array([10.0 ** float(g) for g in grid(bracket)])


def _golden(f, a, b, width):
    """Golden-section minimum of f on [a, b]: (location, value)."""
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > width:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def acceptable_interval(ref, c, perp2, case, sigma2, bracket, rel_tol):
    """(f_min, lo, hi): the reference minimum over the bracket and the
    log10 kappa interval around its minimizer where the reference
    objective stays within twice the program's allowed objective error
    of that minimum, widened by the refinement tolerance rel_tol on each
    side. Any kappa the program may return as a minimizer lies in
    [lo, hi].
    """
    lo_b, hi_b = float(bracket[0]), float(bracket[1])
    fine = np.linspace(lo_b, hi_b, FINE_PER_CELL * (GRID_POINTS - 1) + 1)
    values = ref.objective(10.0**fine, c, perp2, case, sigma2)
    i = int(np.argmin(values))

    def f(g):
        return float(ref.objective(10.0**g, c, perp2, case, sigma2))

    g_min, f_min = _golden(f, fine[max(i - 1, 0)], fine[min(i + 1, len(fine) - 1)], 1e-12)
    if values[i] <= f_min:
        g_min, f_min = float(fine[i]), float(values[i])
    level = f_min + 2.0 * float(ref.objective_tol(10.0**g_min, c, perp2, case, sigma2))

    def edge(step, limit):
        # walk the fine grid away from the minimizer while inside the level set
        inside = g_min
        k = int(np.searchsorted(fine, g_min, side="right" if step > 0 else "left")) - (step < 0)
        while 0 <= k < len(fine) and values[k] <= level:
            inside = float(fine[k])
            k += step
        if not 0 <= k < len(fine):
            return limit
        outside = float(fine[k])
        for _ in range(40):
            mid = 0.5 * (inside + outside)
            if f(mid) <= level:
                inside = mid
            else:
                outside = mid
        return outside + step * 2.0 * math.log10(1.0 + rel_tol)

    return f_min, max(lo_b, edge(-1, lo_b)), min(hi_b, edge(+1, hi_b))


def check_selection(ref, result, case, sigma2_arg, bracket, rel_tol, label):
    """select-kappa result.json against the reference."""
    fails = []
    res = result["result"]
    c, perp2 = ref.split(ref.y - ref.a @ ref.mu)
    kappa_hat = float(res["kappa_hat"])
    known = None if case == 1 else float(sigma2_arg)
    if not 10.0 ** bracket[0] <= kappa_hat <= 10.0 ** bracket[1]:
        return [f"bracket: {label} kappa_hat {kappa_hat!r} outside the bracket"]
    if case == 1:
        want = float(ref.quad(kappa_hat, c, perp2)) / ref.n
        if not _close(res["sigma2_hat"], want, float(rtol_quad(kappa_hat))):
            fails.append(f"sigma2_hat: {label} {res['sigma2_hat']!r} vs reference {want!r}")
    elif res["sigma2_hat"] != known:
        fails.append(f"sigma2_hat: {label} case 2 should echo sigma2 {known!r}")
    if not _close(res["sigma_beta2_hat"], res["sigma2_hat"] / kappa_hat, 1e-12):
        fails.append(f"sigma_beta2_hat: {label} is not sigma2_hat / kappa_hat")
    f_hat = float(ref.objective(kappa_hat, c, perp2, case, known))
    tol_hat = float(ref.objective_tol(kappa_hat, c, perp2, case, known))
    if not _close(res["objective_at_min"], f_hat, 0.0, tol_hat):
        fails.append(f"objective: {label} objective_at_min {res['objective_at_min']!r} vs reference {f_hat!r}")
    f_min, lo, hi = acceptable_interval(ref, c, perp2, case, known, bracket, rel_tol)
    if not lo <= math.log10(kappa_hat) <= hi:
        fails.append(
            f"minimizer: {label} log10 kappa_hat {math.log10(kappa_hat):.6f} outside the reference"
            f" minimizer interval [{lo:.6f}, {hi:.6f}] (objective excess {f_hat - f_min:.3g})"
        )
    kappas = grid_kappas(bracket)
    values = ref.objective(kappas, c, perp2, case, known)
    tol = 2.0 * ref.objective_tol(kappas, c, perp2, case, known)
    best = int(np.argmin(values))
    flag = res["boundary_flag"]
    if flag == "interior":
        # wrong only if an edge is the grid minimum by more than the error allowance
        inner = 1 + int(np.argmin(values[1:-1]))
        if best in (0, GRID_POINTS - 1) and values[best] < values[inner] - tol[inner]:
            fails.append(f"boundary_flag: {label} says interior but a bracket edge is the grid minimum")
    else:
        edge = 0 if flag == "lower-edge" else GRID_POINTS - 1
        if kappa_hat != kappas[edge]:
            fails.append(f"boundary_flag: {label} {flag} but kappa_hat is not that edge")
        if values[edge] > values[best] + tol[edge]:
            fails.append(f"boundary_flag: {label} {flag} but the reference grid minimum is elsewhere")
    trace_kappas = np.array([k for k, _ in res["trace"]])
    if len(trace_kappas) != GRID_POINTS or not np.array_equal(trace_kappas, kappas):
        fails.append(f"trace: {label} grid is not the documented 97-point log grid")
    return fails


def check_sweep(ref, result, csv_text, bracket, label):
    """sweep.csv (case 1) and its result.json against the reference."""
    fails = []
    c, perp2 = ref.split(ref.y - ref.a @ ref.mu)
    lines = csv_text.strip().split("\n")
    if lines[0] != "kappa,quad_term,logdet_term,objective,case":
        return [f"sweep: {label} unexpected header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    kappas = np.array([float(r[0]) for r in rows])
    if len(rows) != GRID_POINTS or not np.array_equal(kappas, grid_kappas(bracket)):
        return [f"sweep: {label} kappa column is not the 97-point log grid"]
    quad = np.array([float(r[1]) for r in rows])
    logdet = np.array([float(r[2]) for r in rows])
    objective = np.array([float(r[3]) for r in rows])
    ref_quad = ref.quad(kappas, c, perp2)
    ref_logdet = ref.logdet(kappas)
    bad_q = np.abs(quad - ref_quad) > rtol_quad(kappas) * np.abs(ref_quad)
    bad_l = np.abs(logdet - ref_logdet) > atol_logdet(kappas, ref_logdet)
    for bad, name, got, want in ((bad_q, "quad_term", quad, ref_quad), (bad_l, "logdet_term", logdet, ref_logdet)):
        if bad.any():
            i = int(np.argmax(bad))
            fails.append(f"sweep: {label} {name} at kappa {kappas[i]:.3g} is {got[i]!r}, reference {want[i]!r}")
    if not np.allclose(objective, ref.n * np.log(quad) + logdet, rtol=1e-13, atol=1e-9):
        fails.append(f"sweep: {label} objective column is not n ln(quad) + logdet")
    res = result["result"]
    if res["points"] != GRID_POINTS or res["grid_argmin_kappa"] != kappas[int(np.argmin(objective))]:
        fails.append(f"sweep: {label} result.json disagrees with its own CSV")
    return fails


def golden_select(f, bracket, rel_tol):
    """The documented grid-then-golden-section rule on a scalar function.

    f maps log10(kappa) to the objective (inf where undefined). Grid
    ties go to the smaller kappa; an edge minimum is returned unrefined.
    Returns (log10 kappa_hat, flag).
    """
    g = grid(bracket)
    values = [f(float(x)) for x in g]
    idx = min(range(GRID_POINTS), key=lambda i: (values[i], i))
    if idx == 0:
        return float(g[0]), "lower-edge"
    if idx == GRID_POINTS - 1:
        return float(g[-1]), "upper-edge"
    a, b = float(g[idx - 1]), float(g[idx + 1])
    best_log, best_val = float(g[idx]), values[idx]
    width_tol = math.log10(1.0 + rel_tol)
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for point, value in ((c, fc), (d, fd)):
        if value < best_val:
            best_log, best_val = point, value
    steps = 0
    while (b - a) > width_tol and steps < MAX_REFINE_STEPS:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
            if fc < best_val:
                best_log, best_val = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
            if fd < best_val:
                best_log, best_val = d, fd
        steps += 1
    return best_log, "interior"


QUANTILES = ("q05", "q25", "q50", "q75", "q95")
QUANTILE_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)


def kappa_study_reference(ref, exact, replicate_stream, sigma2, seed, replicates, case, bracket, rel_tol):
    """Recompute a kappa study from redrawn noise on the reference objective.

    Each replicate gets the documented rule's answer on the reference
    objective and the interval of kappa the program may return (see
    acceptable_interval). A replicate is ambiguous when that interval
    holds a bracket edge and its neighbouring grid point, so that
    rounding may decide whether the program reports the edge.

    Returns {mode: {"kappa_lo", "kappa_hi", "sigma2_lo", "sigma2_hi":
    per-replicate bounds, "edges": count, "ambiguous": count}}.
    """
    noise = np.empty((ref.n, replicates))
    for r in range(replicates):
        noise[:, r] = replicate_stream(seed, r).standard_normal(ref.n)
    y = (ref.a @ exact)[:, None] + math.sqrt(sigma2) * noise
    g = grid(bracket)
    known = None if case == 1 else sigma2
    out = {}
    for mode, mu in (("true_mu", exact), ("zero_mu", np.zeros(ref.t))):
        c_all, perp_all = ref.split(y - (ref.a @ mu)[:, None])
        bucket = {key: [] for key in ("kappa_lo", "kappa_hi", "sigma2_lo", "sigma2_hi")}
        bucket.update(edges=0, ambiguous=0)
        for r in range(replicates):
            c, perp2 = c_all[:, r], float(perp_all[r])

            def f(log_kappa):
                value = float(ref.objective(10.0**log_kappa, c, perp2, case, known))
                return value if math.isfinite(value) else math.inf

            log_k, flag = golden_select(f, bracket, rel_tol)
            _, lo, hi = acceptable_interval(ref, c, perp2, case, known, bracket, rel_tol)
            lo, hi = min(lo, log_k), max(hi, log_k)
            bucket["kappa_lo"].append(10.0**lo)
            bucket["kappa_hi"].append(10.0**hi)
            if case == 1:
                # sigma2_hat = quad(kappa) / n rises with kappa
                quad_lo, quad_hi = ref.quad(10.0 ** np.array([lo, hi]), c, perp2) / ref.n
                bucket["sigma2_lo"].append(float(quad_lo * (1 - rtol_quad(10.0**lo))))
                bucket["sigma2_hi"].append(float(quad_hi * (1 + rtol_quad(10.0**lo))))
            else:
                bucket["sigma2_lo"].append(float(sigma2))
                bucket["sigma2_hi"].append(float(sigma2))
            bucket["edges"] += flag != "interior"
            bucket["ambiguous"] += (lo <= g[0] and hi >= g[1]) or (lo <= g[-2] and hi >= g[-1])
        out[mode] = bucket
    return out


def check_kappa_study(result, recomputed, bracket, replicates, label):
    """bias-study --study kappa result.json against the recomputed study."""
    fails = []
    res = result["result"]
    lo_b, hi_b = 10.0 ** bracket[0], 10.0 ** bracket[1]
    for mode in ("true_mu", "zero_mu"):
        got = res[mode]
        want = recomputed[mode]
        if got["failures"] != 0:
            fails.append(f"failures: {label} {mode} reports {got['failures']} failed replicates")
        for key in ("kappa_hat", "sigma2_hat", "sigma_beta2_hat"):
            qs = [got[key][q] for q in QUANTILES]
            if any(b < a for a, b in zip(qs, qs[1:])):
                fails.append(f"quantiles: {label} {mode} {key} quantiles are not ordered")
        if not all(lo_b <= got["kappa_hat"][q] <= hi_b for q in QUANTILES):
            fails.append(f"bracket: {label} {mode} kappa_hat quantile outside the bracket")
        boundary = round(got["boundary_fraction"] * (replicates - got["failures"]))
        if abs(boundary - want["edges"]) > want["ambiguous"]:
            fails.append(
                f"edges: {label} {mode} {boundary} replicates on an edge, reference {want['edges']}"
                f" ({want['ambiguous']} ambiguous)"
            )
        for key, lo_key, hi_key in (("kappa_hat", "kappa_lo", "kappa_hi"), ("sigma2_hat", "sigma2_lo", "sigma2_hi")):
            lows = np.quantile(np.asarray(want[lo_key]), QUANTILE_LEVELS)
            highs = np.quantile(np.asarray(want[hi_key]), QUANTILE_LEVELS)
            for q, low, high in zip(QUANTILES, lows, highs):
                value = got[key][q]
                if not low * (1 - 1e-12) <= value <= high * (1 + 1e-12):
                    fails.append(
                        f"quantiles: {label} {mode} {key} {q} {value!r} outside the reference range"
                        f" [{low!r}, {high!r}]"
                    )
    return fails


def check_sigma2_study(ref, exact, result, sigma2, kappa, mu_mode, replicates, seed, label):
    """bias-study --study sigma2 result.json against the closed form."""
    fails = []
    res = result["result"]
    if mu_mode == "true":
        analytic = float(sigma2)
    else:
        c, perp2 = ref.split(ref.a @ exact)
        analytic = (float(ref.quad(kappa, c, perp2)) + sigma2 * ref.trace_noise_quad(kappa)) / ref.n
    if not _close(res["analytic_expectation"], analytic, RTOL_ANALYTIC):
        fails.append(
            f"analytic: {label} analytic_expectation {res['analytic_expectation']!r} vs reference {analytic!r}"
        )
    gap = abs(res["mc_mean"] - analytic)
    if not res["mc_std_error"] > 0 or gap > MC_SIGMAS * res["mc_std_error"]:
        fails.append(
            f"monte_carlo: {label} |mc_mean - analytic| = {gap:.3g} exceeds {MC_SIGMAS:g} x "
            f"standard error {res['mc_std_error']:.3g}"
        )
    echo = {"replicates": replicates, "seed": seed, "kappa_used": kappa, "mu_mode": mu_mode}
    for key, value in echo.items():
        if res[key] != value:
            fails.append(f"echo: {label} {key} is {res[key]!r}, expected {value!r}")
    return fails
