"""Acceptance suite: one test per criterion, printing a pass line each.

The heavyweight shared artifact is the full inner-code search over all
sizes (2..8) under both bias models; it is computed once per session.
"""

import numpy as np
import pytest

from fusioncodes.codes import code_from_progenitor, dual_code_with_map
from fusioncodes.compiler import Mode, count_resources, verify_sequence
from fusioncodes.fusion import ErrorAnalyzer, correctable_region
from fusioncodes.graphs import build_progenitor, enumerate_progenitor_records
from fusioncodes.lpoly import erasure_analysis
from fusioncodes.thresholds import (
    BiasMode,
    ErrorThresholdConfig,
    boost_level_parameters,
    boosted_baseline,
    default_bias_config,
    example_error_threshold_table,
    invert_baseline_threshold,
    search_best_code,
)

import oracles
from oracles import CodeFusionTable, LossPolynomial, consistent_counts, is_normalized, pattern_outcomes
from test_fusion import (
    all_w,
    oracle_pattern_error,
    oracle_success_probability,
)


def say(line):
    print(line, flush=True)


@pytest.fixture(scope="session")
def randomized_scan():
    bias = default_bias_config(BiasMode.RANDOMIZED)
    return {n: search_best_code(n, bias) for n in range(2, 9)}


@pytest.fixture(scope="session")
def passive_scan():
    bias = default_bias_config(BiasMode.PASSIVE)
    return {n: search_best_code(n, bias) for n in range(2, 9)}


def codes_of_size(n):
    return [code_from_progenitor(r.graph, code_id=r.sequence) for r in enumerate_progenitor_records(n)]


def test_a1_baseline_consistent_p_tilde():
    """A1: the working erasure threshold inverts the boosted baseline."""
    p_tilde = invert_baseline_threshold()
    # direct algebraic inversion of 1 - (1 - p_fail/2) eta^photons at the
    # baseline point (p_fail = 1/4, 4 photons, 0.52% loss)
    by_hand = 1.0 - (1.0 - 0.25 / 2.0) * (1.0 - 0.0052) ** 4
    assert p_tilde == pytest.approx(by_hand, abs=1e-15)
    assert p_tilde == pytest.approx(0.14305853148823355, abs=1e-12)
    # the same inversion without the two ancilla photons gives the 0.134
    # figure; that variant fails to reproduce the boosted baseline ladder
    assert invert_baseline_threshold(n_photons=2) == pytest.approx(0.134076, abs=1e-6)
    cfg = default_bias_config()
    assert cfg.p_tilde_randomized == p_tilde
    say(f"[A1] PASS p_tilde derived from boosted baseline: {p_tilde:.8f}")


def test_a2_eight_qubit_threshold(randomized_scan):
    """A2: the best eight-qubit code reaches approximately 4.4% loss."""
    best = randomized_scan[8][0]
    assert best.gamma_star == pytest.approx(0.044, abs=0.005)
    say(f"[A2] PASS n=8 randomized-bias threshold {best.gamma_star:.5f} (code {best.code_id})")


def test_a3_monotonicity_and_bias_winner_coincidence(randomized_scan, passive_scan):
    """A3: thresholds rise strictly with n; both bias models share an optimum."""
    gammas = [randomized_scan[n][0].gamma_star for n in range(2, 9)]
    assert all(g > 0 for g in gammas)
    assert all(b > a for a, b in zip(gammas, gammas[1:])), gammas
    common = {}
    for n in range(2, 9):
        r, p = randomized_scan[n], passive_scan[n]
        r_best = {x.code_id for x in r if x.gamma_star >= r[0].gamma_star - 1e-9}
        p_best = {x.code_id for x in p if x.gamma_star >= p[0].gamma_star - 1e-9}
        shared = r_best & p_best
        assert shared, f"n={n}: no common optimal code between bias models"
        assert p[0].gamma_star >= r[0].gamma_star - 1e-9
        common[n] = sorted(shared)[0]
    say(
        "[A3] PASS gamma* strictly increasing "
        + "->".join(f"{g:.4f}" for g in gammas)
        + f"; common optima per n: {common}"
    )


def test_a4_boosted_baseline_ladder():
    """A4: boosting reproduces 0.52%, then ~1%, then declines."""
    p_tilde = invert_baseline_threshold()
    g = {k: boosted_baseline(*boost_level_parameters(k), p_tilde) for k in (1, 2, 3)}
    assert g[1] == pytest.approx(0.0052, rel=0.2)
    assert g[2] == pytest.approx(0.01, rel=0.2)
    assert g[3] < g[2]
    say(f"[A4] PASS boosted baseline gamma*: {g[1]:.5f}, {g[2]:.5f}, {g[3]:.5f}")


def test_a5_dual_swap_exact_identity():
    """A5: the dual code swaps both success polynomials exactly, n <= 6."""
    checked = 0
    for n in range(1, 7):
        for code in codes_of_size(n):
            dual, swapped = dual_code_with_map(code)
            assert oracles.validate_dual_swap(code, dual, swapped), code.code_id
            checked += 1
    say(f"[A5] PASS exact polynomial dual swap for {checked} codes (all sizes <= 6, all bases)")


def test_a6_oracle_equivalence():
    """A6: analysis matches brute-force oracles for every small code."""
    etas = (0.7, 0.9, 1.0)
    epsilons = (0.0, 0.01, 0.05)
    worst_erasure = 0.0
    worst_error = 0.0
    for n in range(1, 4):
        for code in codes_of_size(n):
            table = CodeFusionTable(code)
            for w in all_w(n):
                report = erasure_analysis(code, w)
                for eta in etas:
                    for basis in ("X", "Z"):
                        want = oracle_success_probability(code, w, eta, 0.5, basis)
                        got = report.success_probability(basis, eta)
                        worst_erasure = max(worst_erasure, abs(got - want))
                        assert abs(got - want) <= 1e-12

                ana = ErrorAnalyzer(code, w)
                sides = oracles.per_row_sides(code, w)
                for eps in epsilons:
                    if eps == 0.0:
                        for eta in etas:
                            rates = ana.rates(eta, 0.0)
                            assert rates["X"] == 0.0 and rates["Z"] == 0.0
                        continue
                    for basis in ("X", "Z"):
                        got_rates = oracles.pattern_error_rates(ana, basis, eps)
                        oracle_rates = np.array(
                            [
                                oracle_pattern_error(
                                    code, pattern_outcomes(table, int(avail)), w, basis, eps
                                )
                                for avail in sides[basis]["idxs"]
                            ]
                        )
                        worst_error = max(worst_error, float(np.max(np.abs(got_rates - oracle_rates), initial=0.0)))
                        assert np.allclose(got_rates, oracle_rates, atol=1e-12)
                        for eta in etas:
                            p = oracles.pattern_probabilities(ana, basis, eta)
                            if p.sum() > 0:
                                want = float(np.dot(p, oracle_rates) / p.sum())
                                got = ana.rates(eta, eps)[basis]
                                assert abs(got - want) <= 1e-12
    say(
        f"[A6] PASS oracle equivalence (max |erasure dev| {worst_erasure:.2e}, "
        f"max |error dev| {worst_error:.2e})"
    )


def _outer_shapes(m):
    """Deterministic representative outer graphs of m vertices."""
    shapes = {"chain": "P" * (m - 1), "star": "L" * (m - 1)}
    if m >= 4:
        mixed = "".join("LP"[(i % 2)] for i in range(m - 1))
        shapes["mixed"] = mixed
    return shapes


def test_a7_compiler_verification():
    """A7: compiled sequences reproduce the concatenated targets."""
    checked = {"statevector": 0, "stabilizer": 0}
    for m in range(2, 11):
        for label, outer_ops in _outer_shapes(m).items():
            outer = build_progenitor(outer_ops)
            for n in range(1, 5):
                inner_seq = enumerate_progenitor_records(n)[0].sequence
                for mode in Mode:
                    seq = oracles.compile_graph(outer, inner_seq, mode)
                    method = "statevector" if m * n <= 12 else "stabilizer"
                    result = verify_sequence(seq, method=method)
                    assert result.ok, (m, label, n, mode, result.message)
                    checked[method] += 1
    # spin-spin gates depend only on the outer target, never on n
    outer = build_progenitor("PLPPLPPLP")
    for mode in Mode:
        counts = {
            count_resources(
                oracles.compile_graph(outer, enumerate_progenitor_records(n)[0].sequence, mode)
            ).spin_spin_gates
            for n in range(1, 9)
        }
        assert len(counts) == 1
    say(
        f"[A7] PASS compiler verification ({checked['statevector']} state-vector, "
        f"{checked['stabilizer']} stabilizer-update checks); spin-spin gates constant in n"
    )


def test_a8_error_region_endpoint(randomized_scan):
    """A8: with the supplied error-threshold table the n=8 region endpoint
    lands at 0.47%; unconditional substitutes hold regardless."""
    best = randomized_scan[8][0]
    err = ErrorThresholdConfig(example_error_threshold_table())
    points = correctable_region(best, err, grid_points=11)
    assert points, "region unexpectedly empty"
    intercept = points[0].epsilon_boundary
    assert intercept == pytest.approx(0.0047, abs=0.001)
    # substitutes: zero error at eps=0, ML dominance, monotone shrinkage
    ana = ErrorAnalyzer(best.code, best.w_star)
    rates0 = ana.rates(1.0 - best.gamma_star / 2, 0.0)
    assert rates0["X"] == 0.0 and rates0["Z"] == 0.0
    for eps in (0.002, 0.005):
        corr = ana.rates(0.99, eps)
        unc = oracles.error_rates(ana, 0.99, eps, corrections=False)
        assert corr["X"] <= unc["X"] + 1e-15 and corr["Z"] <= unc["Z"] + 1e-15
    eps_bounds = [p.epsilon_boundary for p in points]
    assert all(b <= a + 1e-9 for a, b in zip(eps_bounds, eps_bounds[1:]))
    assert eps_bounds[-1] == pytest.approx(0.0, abs=1e-6)
    say(f"[A8] PASS n=8 region intercept {intercept:.5f} (target 0.0047 +/- 0.001)")


def test_a9_normalization_and_exactness(randomized_scan):
    """A9: pattern probabilities sum to one as an exact identity."""
    checked = 0
    for n in range(1, 6):
        for code in codes_of_size(n):
            totals = consistent_counts(code.n_code)
            for mask in range(1 << n):
                assert is_normalized(LossPolynomial.from_counts(n, totals[mask]))
                checked += 1
    # spot the larger sizes: the first code and the scan winner, all bases
    for n in (6, 7, 8):
        ids = {enumerate_progenitor_records(n)[0].sequence, randomized_scan[n][0].code_id}
        for cid in sorted(ids):
            code = code_from_progenitor(build_progenitor(cid), code_id=cid)
            totals = consistent_counts(code.n_code)
            for mask in range(1 << n):
                assert is_normalized(LossPolynomial.from_counts(n, totals[mask]))
                checked += 1
    say(f"[A9] PASS exact normalization for {checked} (code, basis) pairs")
