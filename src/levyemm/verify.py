"""Monte Carlo verification harness.

Every test reduces to a StatReport whose verdict is a deterministic
function of (estimate, standard error, rule). Thresholds are 3 standard
errors two-sided, Bonferroni-adjusted across simultaneous probes, and
chi-square at the 1 percent level; nothing passes on a hard-coded
absolute delta except exact discrete-arithmetic oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as _scistats

from .errors import InsufficientSamples

CHI2_LEVEL = 0.01
_ALPHA_3SE = 2.0 * _scistats.norm.sf(3.0)  # two-sided level of the 3-s.e. rule


def bonferroni_crit(n_probes: int) -> float:
    """z threshold keeping the family level of the 3-s.e. rule."""
    return float(_scistats.norm.isf(_ALPHA_3SE / (2.0 * n_probes)))


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


class RunningStats:
    """Mergeable first/second-moment accumulator (Chan et al. update)."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, values) -> "RunningStats":
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return self
        other = RunningStats()
        other.n = int(values.size)
        other.mean = float(np.mean(values))
        other.m2 = float(np.sum((values - other.mean) ** 2))
        return self.merge(other)

    def merge(self, other: "RunningStats") -> "RunningStats":
        if other.n == 0:
            return self
        if self.n == 0:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2
            return self
        n = self.n + other.n
        delta = other.mean - self.mean
        self.m2 = self.m2 + other.m2 + delta * delta * self.n * other.n / n
        self.mean = self.mean + delta * other.n / n
        self.n = n
        return self

    @property
    def variance(self) -> float:
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance / self.n) if self.n > 0 else math.inf


def _gauss_verdict(estimate, target, stderr, crit):
    if stderr == 0.0:
        return "pass" if abs(estimate - target) <= 1e-12 else "fail"
    return "pass" if abs(estimate - target) <= crit * stderr else "fail"


# ---------------------------------------------------------------------------
# martingale tests
# ---------------------------------------------------------------------------


def mean_density_test(z_values, seed=None) -> StatReport:
    """E[Z_T] = 1 within 3 standard errors."""
    rs = RunningStats().add(z_values)
    verdict = _gauss_verdict(rs.mean, 1.0, rs.stderr, 3.0)
    return StatReport(
        "mean_density", rs.mean, rs.stderr, rs.n, verdict,
        "|mean - 1| <= 3 s.e.", seed,
    )


def q_martingale_test(x_at_probes, x0, z_values, probe_times, seed=None) -> StatReport:
    """E[Z_T (X_t - X_0)] = 0 at each probe, Bonferroni across probes."""
    x_at_probes = np.asarray(x_at_probes, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    z = np.asarray(z_values, dtype=float)
    k = x_at_probes.shape[1]
    crit = bonferroni_crit(k)
    probes = []
    worst = (0.0, math.inf)
    all_pass = True
    for j in range(k):
        rs = RunningStats().add(z * (x_at_probes[:, j] - x0))
        ok = _gauss_verdict(rs.mean, 0.0, rs.stderr, crit) == "pass"
        all_pass = all_pass and ok
        probes.append({
            "t": float(probe_times[j]), "estimate": rs.mean,
            "stderr": rs.stderr, "pass": ok,
        })
        if rs.stderr > 0 and abs(rs.mean) / rs.stderr > abs(worst[0]) / max(worst[1], 1e-300):
            worst = (rs.mean, rs.stderr)
    return StatReport(
        "q_martingale", worst[0], worst[1], len(z),
        "pass" if all_pass else "fail",
        f"per-probe |mean| <= {crit:.3f} s.e. (Bonferroni over {k})",
        seed, {"probes": probes},
    )


# ---------------------------------------------------------------------------
# jump law tests
# ---------------------------------------------------------------------------


def _merge_tail_bins(observed, expected, floor=5.0):
    """Collapse trailing bins until each expected count is >= floor."""
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= floor:
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
        # no sample variance, so no standard error to judge the mean by
        return StatReport("jump_intensity", math.nan, math.nan, n,
                          "inconclusive", rule, seed, {"target": mu})
    if weights is None:
        weights = np.ones(n)
    w = np.asarray(weights, dtype=float)
    wbar = float(np.mean(w))
    est = float(np.mean(w * counts)) / wbar
    resid = w * (counts - est) / wbar
    se = float(np.std(resid, ddof=1)) / math.sqrt(n)
    mean_ok = _gauss_verdict(est, mu, se, 3.0) == "pass"

    n_eff = float(np.sum(w)) ** 2 / float(np.sum(w * w))
    kmax = int(np.max(counts))
    freq = np.array([
        float(np.sum(w[counts == k])) / float(np.sum(w)) for k in range(kmax + 1)
    ])
    observed = n_eff * freq
    pmf = _scistats.poisson.pmf(np.arange(kmax + 1), mu)
    expected = n_eff * pmf
    # the open tail beyond kmax goes into the last cell
    expected[-1] += n_eff * float(_scistats.poisson.sf(kmax, mu))
    obs_m, exp_m = _merge_tail_bins(observed, expected)
    chi2 = float(np.sum((obs_m - exp_m) ** 2 / exp_m))
    df = max(1, len(obs_m) - 1)
    pval = float(_scistats.chi2.sf(chi2, df))
    chi_ok = pval >= CHI2_LEVEL

    return StatReport(
        "jump_intensity", est, se, n,
        "pass" if (mean_ok and chi_ok) else "fail", rule, seed,
        {"target": mu, "chi2": chi2, "df": df, "p_value": pval,
         "mean_pass": mean_ok, "chi2_pass": chi_ok},
    )


def conditional_jump_law_test(
    y_pre, marks, gk, n_state_bins=1, floor=500, seed=None
) -> StatReport:
    """Empirical tail-mark law vs alpha(y, .) F^a / lam within state bins.

    Discrete tails only; marks are matched to the nearest atom. Bins with
    fewer than `floor` marks are skipped; when all are, the verdict is
    inconclusive.
    """
    from .emm_construct import DiscreteTailLaw

    if not isinstance(gk.tail, DiscreteTailLaw):
        raise InsufficientSamples("conditional law test needs a discrete tail")
    atoms = gk.tail.x
    base_p = gk.tail.p
    y_pre = np.asarray(y_pre, dtype=float)
    marks = np.asarray(marks, dtype=float)
    mark_idx = np.argmin(np.abs(marks[:, None] - atoms[None, :]), axis=1)

    edges = np.quantile(y_pre, np.linspace(0.0, 1.0, n_state_bins + 1)) \
        if len(y_pre) else np.zeros(n_state_bins + 1)
    edges[-1] += 1e-12
    bins = []
    usable = 0
    all_pass = True
    for b in range(n_state_bins):
        sel = (y_pre >= edges[b]) & (y_pre < edges[b + 1])
        m = int(np.sum(sel))
        if m < floor:
            bins.append({"bin": b, "n": m, "skipped": True})
            continue
        usable += 1
        y_c = float(np.mean(y_pre[sel]))
        probs = np.asarray(gk.evaluate(y_c, atoms), dtype=float) * base_p
        probs = probs / probs.sum()
        observed = np.bincount(mark_idx[sel], minlength=len(atoms)).astype(float)
        expected = m * probs
        obs_m, exp_m = _merge_tail_bins(observed, expected)
        chi2 = float(np.sum((obs_m - exp_m) ** 2 / exp_m))
        df = max(1, len(obs_m) - 1)
        pval = float(_scistats.chi2.sf(chi2, df))
        ok = pval >= CHI2_LEVEL / max(1, n_state_bins)  # Bonferroni
        all_pass = all_pass and ok
        bins.append({
            "bin": b, "n": m, "y_center": y_c, "chi2": chi2,
            "p_value": pval, "pass": ok,
            "observed_freq": (observed / m).tolist(),
            "expected_freq": probs.tolist(),
        })
    verdict = "inconclusive" if usable == 0 else "pass" if all_pass else "fail"
    return StatReport(
        "conditional_jump_law", float("nan"), float("nan"), len(marks), verdict,
        f"per-bin chi-square at level {CHI2_LEVEL}/{n_state_bins}", seed,
        {"bins": bins},
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


def finite_expect(p_ensemble, eps, doublings=4, seed=None) -> StatReport:
    """Estimate sup_t E[exp(eps |P_t| log(1 + |P_t|))] across doubling
    sample sizes; pass only when the running estimates stabilize."""
    p = np.abs(np.asarray(p_ensemble, dtype=float))
    if p.ndim == 1:
        p = p[:, None]
    n = p.shape[0]
    with np.errstate(over="ignore"):
        stat = np.exp(eps * p * np.log1p(p))
    sizes = [max(8, n >> (doublings - k)) for k in range(doublings)] + [n]
    estimates = [float(np.max(np.mean(stat[:s], axis=0))) for s in sizes]
    verdict = doubling_verdict(estimates)
    rs = RunningStats().add(stat[:, int(np.argmax(np.mean(stat, axis=0)))])
    return StatReport(
        "finite_expect", estimates[-1], rs.stderr, n, verdict,
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
    all_pass = True
    for (i, j) in probe_pairs:
        d = x[:, j] - x[:, i]
        delta = float(times[j] - times[i])
        rs1 = RunningStats().add(z * d)
        ok1 = _gauss_verdict(rs1.mean, 0.0, rs1.stderr, crit) == "pass"
        target = phi0 * phi0 * c * delta
        rs2 = RunningStats().add(z * d * d)
        ok2 = _gauss_verdict(rs2.mean, target, rs2.stderr, crit) == "pass"
        all_pass = all_pass and ok1 and ok2
        probes.append({
            "t0": float(times[i]), "t1": float(times[j]),
            "mean": rs1.mean, "mean_se": rs1.stderr, "mean_pass": ok1,
            "second_moment": rs2.mean, "target": target,
            "second_moment_se": rs2.stderr, "var_pass": ok2,
        })
    return StatReport(
        "brownian_invariance", float("nan"), float("nan"), x.shape[0],
        "pass" if all_pass else "fail",
        f"per-probe {crit:.3f} s.e. (Bonferroni over {2 * len(probe_pairs)})",
        seed, {"probes": probes},
    )
