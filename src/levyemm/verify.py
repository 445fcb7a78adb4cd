"""Monte Carlo verification harness.

Every test reduces to a StatReport whose verdict is a deterministic
function of (estimate, standard error, rule). Thresholds are 3 standard
errors two-sided, Bonferroni-adjusted across simultaneous probes, and
chi-square at the 1 percent level; nothing passes on a hard-coded
absolute delta except exact discrete-arithmetic oracles. One path gives
no standard error, so the tests that judge by one call it inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy

CHI2_LEVEL = 0.01
PIT_MIN_MARKS = 50  # 5 expected per decile
MIN_BIN_COUNT = 5.0  # expected count of a merged chi-square bin
DOUBLINGS = 4  # halvings of the sample in the doubling diagnostics


def bonferroni_crit(n_probes: int) -> float:
    """z threshold keeping the family level 2 P(N > 3) of the 3-s.e. rule."""
    alpha = 2.0 * scipy.special.ndtr(-3.0)
    return float(-scipy.special.ndtri(alpha / (2.0 * n_probes)))


@dataclass
class StatReport:
    name: str
    estimate: float
    stderr: float
    n_samples: int
    verdict: str  # pass | fail | diverging | inconclusive
    rule: str
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "verdict": self.verdict,
            "rule": self.rule,
            "seed": self.seed,
            "details": self.details,
        }


def mean_se(values) -> tuple[float, float]:
    """Sample mean and its standard error sqrt(var / n), var with ddof 1
    (NaN for a single value, which has no spread); (0.0, inf) for no values."""
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    if n == 0:
        return 0.0, math.inf
    mean = float(np.mean(values))
    var = float(np.sum((values - mean) ** 2)) / (n - 1) if n > 1 else math.nan
    return mean, math.sqrt(var / n)


def weight_diagnostics(z) -> dict:
    """How far to trust the importance weights z: the Kish effective sample
    size (sum z)^2 / sum z^2 and its share of n, the largest weight's share
    of sum z, and the KL estimate mean(z log z) / mean(z) with exp(KL), the
    order of the sample size the weights need (Chatterjee & Diaconis 2018).
    """
    z = np.asarray(z, dtype=float).ravel()
    total = float(np.sum(z))
    if not total > 0.0:
        return {"ess": math.nan, "ess_fraction": math.nan,
                "max_weight_share": math.nan, "kl": math.nan,
                "exp_kl": math.nan}
    ess = total ** 2 / float(np.sum(z * z))
    kl = float(np.sum(scipy.special.xlogy(z, z))) / total
    return {"ess": ess, "ess_fraction": ess / z.size,
            "max_weight_share": float(np.max(z)) / total, "kl": kl,
            "exp_kl": math.exp(kl)}


def _gauss_verdict(estimate, target, stderr, crit):
    if stderr == 0.0:
        return "pass" if abs(estimate - target) <= 1e-12 else "fail"
    return "pass" if abs(estimate - target) <= crit * stderr else "fail"


# ---------------------------------------------------------------------------
# martingale tests
# ---------------------------------------------------------------------------


def mean_density_test(z_values, seed=None) -> StatReport:
    """E[Z_T] = 1 within 3 standard errors."""
    mean, se = mean_se(z_values)
    verdict = _gauss_verdict(mean, 1.0, se, 3.0) if np.size(z_values) > 1 else "inconclusive"
    return StatReport(
        "mean_density", mean, se, int(np.size(z_values)), verdict,
        "|mean - 1| <= 3 s.e.", seed, {"weights": weight_diagnostics(z_values)},
    )


def q_martingale_test(x_at_probes, x0, z_values, probe_times, seed=None) -> StatReport:
    """E[Z_T (X_t - X_0)] = 0 at each probe, Bonferroni across probes."""
    x_at_probes = np.asarray(x_at_probes, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    z = np.asarray(z_values, dtype=float)
    k = x_at_probes.shape[1]
    crit = bonferroni_crit(k)
    probes = []
    for j in range(k):
        mean, se = mean_se(z * (x_at_probes[:, j] - x0))
        ok = _gauss_verdict(mean, 0.0, se, crit) == "pass"
        probes.append({
            "t": float(probe_times[j]), "estimate": mean,
            "stderr": se, "pass": ok,
        })
    # the probe farthest from 0 in s.e.; in value when none has a positive
    # s.e. (one path, or no spread), with its NaN or zero s.e.
    spread = [p for p in probes if p["stderr"] > 0]
    worst = (max(spread, key=lambda p: abs(p["estimate"]) / p["stderr"]) if spread
             else max(probes, key=lambda p: abs(p["estimate"])))
    all_pass = all(p["pass"] for p in probes)
    verdict = "inconclusive" if len(z) < 2 else "pass" if all_pass else "fail"
    return StatReport(
        "q_martingale", worst["estimate"], worst["stderr"], len(z), verdict,
        f"per-probe |mean| <= {crit:.3f} s.e. (Bonferroni over {k})",
        seed, {"probes": probes, "weights": weight_diagnostics(z)},
    )


# ---------------------------------------------------------------------------
# jump law tests
# ---------------------------------------------------------------------------


def _merge_tail_bins(observed, expected):
    """Collapse trailing bins until each expected count is >= MIN_BIN_COUNT."""
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= MIN_BIN_COUNT:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        if exp:
            obs[-1] += acc_o
            exp[-1] += acc_e
        else:
            obs.append(acc_o)
            exp.append(acc_e)
    return np.asarray(obs), np.asarray(exp)


def jump_intensity_test(counts, lam, T, weights=None, seed=None) -> StatReport:
    """Mean count = lam T within 3 s.e. plus chi-square vs Poisson(lam T)."""
    counts = np.asarray(counts, dtype=float)
    n = len(counts)
    mu = lam * T
    rule = "|mean - lam T| <= 3 s.e. and chi-square p >= 0.01"
    if n < 2:
        return StatReport("jump_intensity", math.nan, math.nan, n,
                          "inconclusive", rule, seed, {"target": mu})
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    diag = weight_diagnostics(w)
    wbar = float(np.mean(w))
    est = float(np.mean(w * counts)) / wbar
    resid = w * (counts - est) / wbar
    se = float(np.std(resid, ddof=1)) / math.sqrt(n)
    mean_ok = _gauss_verdict(est, mu, se, 3.0) == "pass"

    n_eff = diag["ess"]
    kmax = int(np.max(counts))
    wsum = float(np.sum(w))
    freq = np.array([float(np.sum(w[counts == k])) / wsum for k in range(kmax + 1)])
    observed = n_eff * freq
    # Poisson(mu) pmf; the open tail beyond kmax (its sf) goes into the last cell
    k = np.arange(kmax + 1)
    pmf = np.exp(scipy.special.xlogy(k, mu) - scipy.special.gammaln(k + 1) - mu)
    expected = n_eff * pmf
    expected[-1] += n_eff * float(scipy.special.pdtrc(kmax, mu))
    obs_m, exp_m = _merge_tail_bins(observed, expected)
    chi2 = float(np.sum((obs_m - exp_m) ** 2 / exp_m))
    df = max(1, len(obs_m) - 1)
    pval = float(scipy.special.chdtrc(df, chi2))
    chi_ok = pval >= CHI2_LEVEL

    details = {"target": mu, "chi2": chi2, "df": df, "p_value": pval,
               "mean_pass": mean_ok, "chi2_pass": chi_ok}
    if weights is not None:
        details["weights"] = diag
    return StatReport(
        "jump_intensity", est, se, n,
        "pass" if (mean_ok and chi_ok) else "fail", rule, seed, details,
    )


def conditional_jump_law_test(y_pre, marks, gk, seed=None) -> StatReport:
    """Tail marks vs the Q law alpha(y, .) F^a / lam at each mark's own
    pre-jump state, by the randomised probability integral transform
    (Czado, Gneiting & Held 2009).

    u_n = F(Z_n- | y_n) + V_n (F(Z_n | y_n) - F(Z_n- | y_n)), with V_n
    uniform from SeedSequence((seed, 1)), is iid U(0, 1) under the law for
    atoms and densities alike; the test is a chi-square over its deciles.
    Fewer than PIT_MIN_MARKS marks give inconclusive. V replays path 1's
    stream, seeded alike: at q-two-atom-zeta05's seed 91, V's first 400
    values hold all 276 doubles of path 1's P jumps.
    """
    y_pre = np.asarray(y_pre, dtype=float)
    marks = np.asarray(marks, dtype=float)
    n = len(marks)
    rule = f"randomised PIT, chi-square over deciles at level {CHI2_LEVEL}"
    if n < PIT_MIN_MARKS:
        return StatReport("conditional_jump_law", math.nan, math.nan, n,
                          "inconclusive", rule, seed,
                          {"bins": [{"bin": 0, "n": n, "skipped": True}]})
    below = gk.mark_mass_below(y_pre, marks)
    at_or_below = gk.mark_mass_below(y_pre, np.nextafter(marks, math.inf))
    ss = np.random.SeedSequence((0 if seed is None else seed, 1))
    v = np.random.default_rng(ss).random(n)
    u = below + v * (at_or_below - below)
    observed = np.bincount(np.clip((u * 10.0).astype(int), 0, 9), minlength=10)
    expected = n / 10.0
    chi2 = float(np.sum((observed - expected) ** 2) / expected)
    pval = float(scipy.special.chdtrc(9, chi2))
    ok = pval >= CHI2_LEVEL
    # details.bins keeps one entry because perfbench/gate.py reads each
    # bin's p_value
    return StatReport(
        "conditional_jump_law", math.nan, math.nan, n,
        "pass" if ok else "fail", rule, seed,
        {"bins": [{"bin": 0, "n": n, "chi2": chi2, "df": 9, "p_value": pval,
                   "pass": ok, "decile_counts": observed.tolist()}]},
    )


# ---------------------------------------------------------------------------
# exponential-moment diagnostics
# ---------------------------------------------------------------------------


def doubling_verdict(estimates) -> str:
    """pass if the running estimates have stabilized, diverging if they
    grow persistently across doublings, inconclusive otherwise."""
    est = [float(e) for e in estimates]
    if any(not math.isfinite(e) for e in est):
        return "diverging"
    last = est[-1]
    tailwin = est[-3:]
    if last > 0 and max(abs(e / last - 1.0) for e in tailwin) <= 0.05:
        return "pass"
    growth = [est[i + 1] / est[i] for i in range(len(est) - 1) if est[i] > 0]
    if growth and sorted(growth)[len(growth) // 2] > 1.2 and last / est[0] > 3.0:
        return "diverging"
    # estimates that never settle and sweep decades signal an infinite mean
    pos = [e for e in est if e > 0]
    if pos and max(pos) / min(pos) > 100.0:
        return "diverging"
    return "inconclusive"


def doubling_estimates(stat) -> tuple[list, list]:
    """Nested prefix sizes n / 2^DOUBLINGS, ..., n / 2, n (at least 8) of
    the samples stat (n,) or (n, k), and the largest column mean on each."""
    n = len(stat)
    sizes = [max(8, n >> (DOUBLINGS - k)) for k in range(DOUBLINGS)] + [n]
    return sizes, [float(np.max(np.mean(stat[:s], axis=0))) for s in sizes]


def finite_expect(p_ensemble, eps, seed=None) -> StatReport:
    """Estimate sup_t E[exp(eps |P_t| log(1 + |P_t|))] across doubling
    sample sizes; pass only when the running estimates stabilize."""
    p = np.abs(np.asarray(p_ensemble, dtype=float))
    if p.ndim == 1:
        p = p[:, None]
    n = p.shape[0]
    with np.errstate(over="ignore"):
        stat = np.exp(eps * p * np.log1p(p))
    sizes, estimates = doubling_estimates(stat)
    verdict = doubling_verdict(estimates)
    _, se = mean_se(stat[:, int(np.argmax(np.mean(stat, axis=0)))])
    return StatReport(
        "finite_expect", estimates[-1], se, n, verdict,
        "doubling-sample stabilization (Cauchy test)", seed,
        {"eps": eps, "estimates": estimates, "sizes": sizes},
    )


# ---------------------------------------------------------------------------
# Gaussian baseline
# ---------------------------------------------------------------------------


def brownian_invariance_test(
    x_paths, times, z_values, probe_pairs, phi0, c, seed=None
) -> StatReport:
    """Weighted increment mean = 0 and second moment = phi0^2 c dt on each
    probe pair, Bonferroni over all 2 * n_pairs probes."""
    x = np.asarray(x_paths, dtype=float)
    times = np.asarray(times, dtype=float)
    z = np.asarray(z_values, dtype=float)
    crit = bonferroni_crit(2 * len(probe_pairs))
    probes = []
    for (i, j) in probe_pairs:
        d = x[:, j] - x[:, i]
        delta = float(times[j] - times[i])
        mean1, se1 = mean_se(z * d)
        ok1 = _gauss_verdict(mean1, 0.0, se1, crit) == "pass"
        target = phi0 * phi0 * c * delta
        mean2, se2 = mean_se(z * d * d)
        ok2 = _gauss_verdict(mean2, target, se2, crit) == "pass"
        probes.append({
            "t0": float(times[i]), "t1": float(times[j]),
            "mean": mean1, "mean_se": se1, "mean_pass": ok1,
            "second_moment": mean2, "target": target,
            "second_moment_se": se2, "var_pass": ok2,
        })
    all_pass = all(p["mean_pass"] and p["var_pass"] for p in probes)
    verdict = "inconclusive" if len(z) < 2 else "pass" if all_pass else "fail"
    return StatReport(
        "brownian_invariance", float("nan"), float("nan"), x.shape[0], verdict,
        f"per-probe {crit:.3f} s.e. (Bonferroni over {2 * len(probe_pairs)})",
        seed, {"probes": probes},
    )
