"""The four workloads: their inputs, made from the seed, and their checks.

This file does not import vvmf2.  ``make_inputs(seed)`` builds what the
worker process receives; ``check(inputs, result)`` returns a list of
problems with one operation's result (empty when it is correct), using
only ``oracle``.  ``ops_per_round`` is how many operations one worker
round counts: the general-weight round counts the ``ubd_general``
verdict as an operation of its own.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

# checks of `vvmf2 verify-identities`; none may go missing to save time
IDENTITY_CHECKS = (
    "192-divisibility", "D2-G", "E4-J-ratio", "G-parity-form", "G-slash-S-constant",
    "G-theta4-16E", "Kq-integral-unit", "eta-kernel-k=-2", "eta-kernel-k=0",
    "eta-kernel-k=1", "eta-kernel-k=6", "four-squares-counts", "theta-G", "theta-J",
    "theta-J-weight6", "theta-eta", "theta2-J",
)
SWEEP_XI1 = ("0", "1/3", "1/4", "1/6", "2/5")
SWEEP_M = (2, 3, 5, 7)


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_round: int
    make_inputs: Callable[[int], dict]
    check: Callable[[dict, dict], list]


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def check_repeat(reports: list[str]) -> list[str]:
    """Every report of a run must be byte-identical to the first."""
    errors = []
    first = reports[0].encode()
    for i, text in enumerate(reports[1:], 1):
        data = text.encode()
        if data != first:
            same = min(len(data), len(first))
            at = next((j for j, (a, b) in enumerate(zip(data, first)) if a != b), same)
            errors.append(f"report {i} differs from report 0 at byte {at}")
    return errors


def law_errors(seq, M: int, u: int, v: int, label: str) -> list[str]:
    """Inert p_K = u + K*v >= 5 divides den seq[K] and no earlier denominator."""
    errors = []
    for K in range(1, len(seq)):
        p = u + K * v
        if p < 5 or not oracle.is_inert(M, p):
            continue
        if oracle.p_integral(seq[K], p):
            errors.append(f"{label}: inert p={p} does not divide the denominator at K={K}")
        early = [i for i in range(1, K) if not oracle.p_integral(seq[i], p)]
        if early:
            errors.append(f"{label}: inert p={p} already divides the denominator at K={early[0]}")
    return errors


def factor_errors(seq, M: int, u: int, v: int, label: str) -> list[str]:
    """Each prime factor > 3 of den seq[K] is inert (or divides M) and <= p_K."""
    errors = []
    for K in range(1, len(seq)):
        rest = oracle.coordinate_denominator(seq[K])
        top = u + K * v
        for q in range(2, max(top, 3) + 1):
            if q <= 3 or M % q == 0 or oracle.is_inert(M, q):
                while rest % q == 0:
                    rest //= q
        if rest != 1:
            errors.append(f"{label}: den at K={K} has a prime factor that is split or above {top}")
    return errors


# ---------------------------------------------------------------------------
# denoms-m2-k80
# ---------------------------------------------------------------------------


def denoms_inputs(seed: int) -> dict:
    # the report users run; the seed does not change it
    return {"seed_instance": "m2", "kmax": 80, "series_order": 82, "eta_powers": [0]}


def check_denoms(inputs: dict, result: dict) -> list[str]:
    errors = []
    report, extra = json.loads(result["report"]), result["extra"]
    if extra["rc"] != 0:
        errors.append(f"exit code {extra['rc']}")
    if report.get("all_asserted_pass") is not True:
        errors.append("all_asserted_pass is not true")
    kmax = inputs["kmax"]
    params = report["params"]
    M, u, v = params["M"], params["u"], params["v"]
    d = [oracle.parse_value(x) for x in extra["d"]]
    dt = [oracle.parse_value(x) for x in extra["d_tilde"]]
    if len(d) != kmax + 1 or len(dt) != kmax + 1 or len(report["denominators_d"]) != kmax + 1:
        return errors + ["sequences do not run through kmax"]
    if inputs["seed_instance"] == "m2" and d[1] != (256, 0):
        errors.append(f"d(1) = {d[1]}, expected 256")
    if M % 4 in (2, 3):  # Z[sqrt M] is the full ring of integers
        for entry in report["denominators_d"]:
            K = entry["K"]
            if entry["denominator"] != oracle.coordinate_denominator(d[K]):
                errors.append(f"reported denominator at K={K} is not lcm(den a, den b)")
            product = entry["cofactor"]
            for p, e in entry["factors"].items():
                product *= int(p) ** e
            if product != entry["denominator"]:
                errors.append(f"factorization at K={K} does not multiply back")
    errors += law_errors(d, M, u, v, "d") + law_errors(dt, M, -u, v, "d_tilde")
    errors += factor_errors(d, M, u, v, "d") + factor_errors(dt, M, -u, v, "d_tilde")
    return errors


# ---------------------------------------------------------------------------
# identities-o200
# ---------------------------------------------------------------------------


def identities_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    # every n <= 24 and three seeded n up to the order for the four-squares check
    sample = sorted(set(range(1, 25)) | set(rng.sample(range(25, 201), 3)))
    return {
        "order": 200,
        "theta4_n": sample,
        "series_order": 200,
        "eta_powers": [-4, 0, 2, 8, 12],
    }


def check_identities(inputs: dict, result: dict) -> list[str]:
    errors = []
    report, extra = json.loads(result["report"]), result["extra"]
    if extra["rc"] != 0:
        errors.append(f"exit code {extra['rc']}")
    if report.get("order") != inputs["order"]:
        errors.append("report is for another order")
    checks = report.get("checks", {})
    missing = [name for name in IDENTITY_CHECKS if name not in checks]
    if missing:
        errors.append(f"identity checks missing from the report: {missing}")
    failing = [name for name, verdict in checks.items() if verdict != "pass"]
    if failing or report.get("all_passed") is not True:
        errors.append(f"identity checks failing: {failing}")
    for n in inputs["theta4_n"]:
        got = oracle.parse_value(extra["theta4"][str(n)])
        if got != (oracle.four_square_count(n), 0):
            errors.append(f"theta^4 coefficient of q^{n} is {got[0]}, not r4({n})")
    K = extra["K"]
    if Fraction(K["lead"]) != -1 or [oracle.parse_value(c) for c in K["coefficients"]] != [
        (1, 0), (40, 0), (276, 0)
    ]:
        errors.append("K does not begin q^-1 + 40 + 276 q")
    return errors


# ---------------------------------------------------------------------------
# induced-sweep-k20
# ---------------------------------------------------------------------------


def sweep_inputs(seed: int) -> dict:
    grid = [[xi1, M] for xi1 in SWEEP_XI1 for M in SWEEP_M]
    random.Random(seed).shuffle(grid)  # the seed sets the order the instances run in
    return {
        "kmax": 20,
        "k0": 0,
        "window": 2,
        "instances": grid,
        "series_order": 22,
        "eta_powers": [0],
    }


def check_sweep(inputs: dict, result: dict) -> list[str]:
    errors = []
    report = json.loads(result["report"])
    entries = report["instances"]
    want = sorted((Fraction(x), M) for x, M in inputs["instances"])
    got = sorted((Fraction(e["xi1"]), e["M"]) for e in entries)
    if got != want:
        errors.append("the report does not cover every (xi1, M) of the sweep")
    for e in entries:
        label = f"xi1={e['xi1']} M={e['M']}"
        if not e.get("realized"):
            errors.append(f"{label}: not realized")
            continue
        ex = {k: oracle.parse_value(x) for k, x in e["exponents"].items()}
        total = tuple(sum(ex[k][i] for k in ("l1", "l2", "r1", "r2")) for i in (0, 1))
        if total != (Fraction(1, 2), 0):
            errors.append(f"{label}: l1 + l2 + r1 + r2 = {total}, not 1/2")
        if e["all_asserted_pass"] is not True:
            errors.append(f"{label}: all_asserted_pass is not true")
        if not e["asserted"]:
            errors.append(f"{label}: no prime was asserted")
        M, u, v = e["M"], e["u"], e["v"]
        seqs = {name: [oracle.parse_value(x) for x in e[name]] for name in ("d", "h", "d_tilde")}
        for name, K, p, verdict in e["asserted"]:
            expected_p = (-u if name == "d_tilde" else u) + K * v
            if p != expected_p or not oracle.is_inert(M, p):
                errors.append(f"{label}: asserted p={p} at K={K} of {name} is not the inert p_K")
                continue
            seq = seqs[name]
            holds = not oracle.p_integral(seq[K], p) and all(
                oracle.p_integral(seq[i], p) for i in range(1, K)
            )
            if not holds or verdict != "pass":
                errors.append(f"{label}: law fails for p={p} at K={K} of {name} ({verdict})")
    return errors


# ---------------------------------------------------------------------------
# general-v3-k40
# ---------------------------------------------------------------------------

# weight k0 + 8 = 8 and k0 + 6 = 6 monomials G^a E4^b
M1_MONOMIALS = ((4, 0), (2, 1), (0, 2))
M2_MONOMIALS = ((3, 0), (1, 1))


def general_inputs(seed: int, kmax: int = 40) -> dict:
    rng = random.Random(seed)
    digits = [c for c in range(-9, 10) if c]
    return {
        "kmax": kmax,
        "k0": 0,
        "l1": "0",
        "l2": "1/3",
        "r": {"rat": "1/12", "surd": "1", "M": 2},
        "weight": 8,
        # the decompose round trip runs on seeded coefficients
        "m1": [[a, b, rng.choice(digits)] for a, b in M1_MONOMIALS],
        "m2": [[a, b, rng.choice(digits)] for a, b in M2_MONOMIALS],
        # the ubd_general verdict runs on fixed ones, G^4 + E4^2 and G*E4: their
        # constant terms 2 and 1 cancel the leading p-part of no audited prime
        "ubd_m1": [[4, 0, 1], [0, 2, 1]],
        "ubd_m2": [[1, 1, 1]],
        # every S and S~ prime up to 3*kmax is predicted at an index <= kmax
        "prime_bound": 3 * kmax,
        "series_order": kmax + 2,
        "eta_powers": [0],
    }


def dense(series: dict, count: int) -> list:
    """Coefficients of q^0 .. q^(count-1) of a reported integral-step series."""
    lead, step = Fraction(series["lead"]), Fraction(series["step"])
    out = [(Fraction(0), Fraction(0))] * count
    for i, c in enumerate(series["coefficients"]):
        e = lead + i * step
        if e.denominator != 1 or not 0 <= e < count:
            return []
        out[int(e)] = oracle.parse_value(c)
    return out


def check_general(inputs: dict, result: dict) -> list[str]:
    errors = []
    report, extra = json.loads(result["report"]), result["extra"]
    if report["residual_zero"] != [True, True]:
        errors.append(f"MLDE residuals are not zero: {report['residual_zero']}")
    if report["verify_ubd"]["all_asserted_pass"] is not True:
        errors.append("verify_ubd does not pass")

    params = report["params"]
    r = inputs["r"]
    M, u, v, bound = r["M"], params["u"], params["v"], inputs["prime_bound"]
    S, S_tilde = extra["prime_sets"]["S"], extra["prime_sets"]["S_tilde"]
    if set(S) & set(S_tilde):
        errors.append(f"S and S~ share {sorted(set(S) & set(S_tilde))}")
    if S != oracle.progression_primes(M, u, v, bound) or S_tilde != oracle.progression_primes(
        M, -u, v, bound
    ):
        errors.append("prime sets differ from the inert primes of the two progressions")

    count = inputs["kmax"] + 1
    for name in ("m1", "m2"):
        want = oracle.monomial_combination({(a, b): c for a, b, c in inputs[name]}, count)
        got = dense(report["decompose"][name], count)
        if got != [(Fraction(x), 0) for x in want]:
            errors.append(f"decompose does not return the seeded {name}")

    rows = {row["p"]: row for row in report["ubd_general"]["rows"]}
    components = ((S, "first_hit_1", "first_hit_2", 1), (S_tilde, "first_hit_2", "first_hit_1", -1))
    for primes, hit, other, sign in components:
        for p in primes:
            row = rows.get(p)
            if row is None:
                errors.append(f"ubd_general has no row for p={p}")
            elif not row["exempt"] and (row[hit] != (p - sign * u) // v or row[other] is not None):
                errors.append(f"p={p}: hits {row['first_hit_1']}, {row['first_hit_2']}, "
                              f"expected one at K={(p - sign * u) // v} in {hit[-1]}")
    return errors


# why each workload is there: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("denoms-m2-k80", 1, denoms_inputs, check_denoms),
        Workload("identities-o200", 1, identities_inputs, check_identities),
        Workload("induced-sweep-k20", 1, sweep_inputs, check_sweep),
        Workload("general-v3-k40", 2, general_inputs, check_general),
    )
}
