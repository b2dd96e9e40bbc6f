"""Correctness checks on the program's outputs.

Each check returns a list of failure messages; an empty list is a pass.
Reference values are recomputed here from the model's closed forms and
the generated inputs, without importing circdeconv, for the workload
model: ordinary smoothness a_j = j^-s and mild noise |eps_j| = j^-p.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

S, P = 1.0, 1.0
K_MAX = 10 ** 5
REL_TOL = 1e-9
# The mean of q_hat^2 over a few hundred null replications is right-skewed:
# |z| > 4 has probability about 5e-4 per row, |z| > 6 below 5e-5.
NULL_RISK_Z = 6.0


@lru_cache(maxsize=None)
def kappa_star(n: int) -> int:
    """Smallest k with a_k^4 <= (2 / n^2) sum_{j<=k} |eps_j|^-4."""
    j = np.arange(1, K_MAX + 1, dtype=float)
    hits = np.nonzero(j ** (-4 * S) <= 2.0 * np.cumsum(j ** (4 * P)) / n ** 2)[0]
    return int(hits[0]) + 1


def nu_sq(n: int, k: int) -> float:
    """Null fluctuation scale nu_k^2 = sqrt(2 sum_{j<=k} |eps_j|^-4) / n."""
    j = np.arange(1, k + 1, dtype=float)
    return float(np.sqrt(2.0 * np.sum(j ** (4 * P)))) / n


def q_hat_direct(values: np.ndarray, k: int) -> float:
    """q_hat_k from its definition: each g_hat_j as a mean of
    exp(-2 pi i j y), bias-corrected, weighted by |eps_j|^-2."""
    n = values.size
    total = 0.0
    for j in range(1, k + 1):
        m2 = abs(np.exp(-2j * np.pi * j * values).mean()) ** 2
        total += (m2 - (1.0 - m2) / (n - 1)) * j ** (2 * P)
    return 2.0 * float(total)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1e-12


def check_k(report: dict) -> list:
    """Every row's truncation level equals kappa* for its n."""
    return [
        f"n={r['n']}: k={r['k']} != kappa*={kappa_star(r['n'])}"
        for r in report["rows"]
        if r["k"] != kappa_star(r["n"])
    ]


def null_sq_error_rel_sd(k: int) -> float:
    """Standard deviation of q_hat_k^2 under the null, relative to its mean.

    Under the null the n |g_hat_j|^2 are asymptotically independent Exp(1),
    so q_hat_k is a weighted sum of centred exponentials with weights
    w_j = |eps_j|^-2, whose cumulants give
    Var(q_hat^2) / (E q_hat^2)^2 = 6 sum w^4 / (sum w^2)^2 + 2.
    """
    w = np.arange(1, k + 1, dtype=float) ** (2 * P)
    return float(np.sqrt(6.0 * np.sum(w ** 4) / np.sum(w ** 2) ** 2 + 2.0))


def check_null_risk(report: dict) -> list:
    """Each null row's risk lies within NULL_RISK_Z standard errors of the
    exact null variance 2 nu_k^4 n / (n - 1).

    The standard error comes from the null distribution itself
    (null_sq_error_rel_sd), not from the row's risk_se: at a few hundred
    replications q_hat^2 is so skewed that a sample which misses the rare
    large values has both a low risk and a low risk_se, and |z| against
    risk_se passes 4 for about 0.4% of seeds although the program is right.
    """
    reps = report["metadata"]["config"]["replications"]
    out = []
    for r in report["rows"]:
        if r["scenario"] != "null":
            continue
        n, k = r["n"], r["k"]
        exact = 2.0 * nu_sq(n, k) ** 2 * n / (n - 1)
        z = (r["risk"] - exact) / (exact * null_sq_error_rel_sd(k) / np.sqrt(reps))
        if not abs(z) <= NULL_RISK_Z:
            out.append(f"n={n}: null risk {r['risk']:.6g} is {z:+.2f} SE from {exact:.6g}")
    return out


def check_type1(report: dict, alpha: float) -> list:
    """Empirical type I error is at most alpha + 3 SE."""
    return [
        f"n={r['n']}: type I {r['type1']:.4g} > alpha + 3 SE"
        for r in report["rows"]
        if r["A"] == 0.0 and not r["type1"] <= alpha + 3.0 * r["se"]
    ]


def check_feasible(report: dict) -> list:
    """Each alternative row's feasible flag equals 2 sum theta_j <= 1 for
    the hypercube vertex scaled to q(f) = A^2 rho*^2, whose coefficients
    are theta_j = A rho* |eps_j|^-2 / sqrt(2 sum_{l<=k} |eps_l|^-4)."""
    out = []
    for r in report["rows"]:
        if r["A"] == 0.0:
            continue
        n, k = r["n"], kappa_star(r["n"])
        j = np.arange(1, k + 1, dtype=float)
        rho_sq = max(k ** (-2 * S), nu_sq(n, k))
        theta = r["A"] * np.sqrt(rho_sq) * j ** (2 * P) / np.sqrt(2.0 * np.sum(j ** (4 * P)))
        expected = 2.0 * float(np.sum(theta)) <= 1.0 + 1e-12
        if r["feasible"] != expected:
            out.append(f"n={n}, A={r['A']}: feasible={r['feasible']}, expected {expected}")
    return out


def check_estimate(result: dict, good_values: np.ndarray, q_ref: float, field: str) -> list:
    """n is the number of good lines, k is kappa*(n), and the estimate
    (under key field) equals the direct recompute q_ref."""
    out = []
    if result["n"] != good_values.size:
        out.append(f"n={result['n']} but the file has {good_values.size} good lines")
    if result["k"] != kappa_star(good_values.size):
        out.append(f"k={result['k']} != kappa*={kappa_star(good_values.size)}")
    if not _close(result[field], q_ref):
        out.append(f"{field}={result[field]!r} != recompute {q_ref!r}")
    return out


def check_decision(result: dict) -> list:
    expected = "reject_null" if result["statistic"] >= result["threshold"] else "accept_null"
    if result["decision"] != expected:
        return [f"decision {result['decision']} but statistic vs threshold says {expected}"]
    return []
