import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from fusioncodes import thresholds
from fusioncodes.codes import code_from_progenitor, dual_code_with_map
from fusioncodes.fusion import EPSILON_CAP, correctable_region
from fusioncodes.graphs import build_progenitor, enumerate_progenitor_records
from fusioncodes.thresholds import (
    BiasConfig,
    BiasMode,
    ConfigError,
    ErrorThresholdConfig,
    ThresholdResult,
    _bisect,
    boost_level_parameters,
    boosted_baseline,
    bias_ratio,
    default_bias_config,
    default_passive_table,
    example_error_threshold_table,
    invert_baseline_threshold,
    loss_threshold,
    randomized_bias_rate,
    search_best_code,
)

import oracles
from oracles import CodeFusionTable


def code_of(seq):
    return code_from_progenitor(build_progenitor(seq), code_id=seq)


class TestBiasRates:
    def test_average(self):
        assert randomized_bias_rate(0.25, 0.25) == 0.25
        assert randomized_bias_rate(0.1, 0.5) == pytest.approx(0.3)

    def test_bare_qubit_reproduces_standard_fusion_average(self):
        # 1 - (1 - p_fail/2) eta^2 for the unencoded qubit
        from fusioncodes.lpoly import erasure_analysis

        code = code_of("L")
        for eta in (1.0, 0.9, 0.7):
            rep = erasure_analysis(code, (0,))
            avg = randomized_bias_rate(rep.erasure_rate("X", eta), rep.erasure_rate("Z", eta))
            assert avg == pytest.approx(1 - 0.75 * eta**2)

    def test_bias_ratio(self):
        assert bias_ratio(0.25, 0.5) == 0.5
        assert bias_ratio(0.3, 0.3) == 1.0
        assert bias_ratio(0.0, 0.3) == 0.0
        assert bias_ratio(0.0, 0.0) == 1.0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            randomized_bias_rate(-0.1, 0.5)
        with pytest.raises(ValueError):
            bias_ratio(1.5, 0.5)
        with pytest.raises(ValueError, match="3.375"):
            randomized_bias_rate(0.1, 3.375)
        with pytest.raises(ValueError, match="nan"):
            bias_ratio(0.2, math.nan)


class TestBaselineInversion:
    def test_default_value(self):
        # boosted baseline: p_fail 1/4, four photons, 0.52% loss threshold
        assert invert_baseline_threshold() == pytest.approx(0.1430585, abs=1e-6)

    def test_round_trip_through_boosted_baseline(self):
        pt = invert_baseline_threshold()
        assert boosted_baseline(0.25, 2, pt) == pytest.approx(0.0052, abs=1e-6)

    def test_boost_levels(self):
        assert boost_level_parameters(1) == (0.25, 2)
        assert boost_level_parameters(2) == (0.125, 6)
        assert boost_level_parameters(3) == (0.0625, 14)
        with pytest.raises(ValueError, match="boost level starts at 1"):
            boost_level_parameters(0)


class TestLossThreshold:
    def test_bare_qubit_boundary_case(self):
        # at eta=1 the averaged rate is exactly 1/4, so p~=1/4 sits on the boundary
        code = code_of("L")
        res = loss_threshold(code, BiasConfig(BiasMode.RANDOMIZED, 0.25))
        assert res.gamma_star == pytest.approx(0.0, abs=1e-6)
        assert res.diagnostics["feasible_at_zero_loss"]

    def test_bare_qubit_infeasible(self):
        code = code_of("L")
        res = loss_threshold(code, BiasConfig(BiasMode.RANDOMIZED, 0.134))
        assert res.gamma_star == 0.0
        assert not res.diagnostics["feasible_at_zero_loss"]

    @pytest.mark.parametrize("gamma_star", [-0.1, 1.0, math.nan])
    def test_result_gamma_star_in_unit_interval(self, gamma_star):
        res = loss_threshold(code_of("LL"), default_bias_config())
        assert res.code_id == res.code.code_id == "LL" and res.p_fail == 0.5
        with pytest.raises(ValueError, match=re.escape(f"gamma_star out of range: {gamma_star}")):
            ThresholdResult(res.code, res.bias_mode, res.p_fail, res.w_star, gamma_star, res.diagnostics, res.coeffs)

    def test_bisection_brackets_the_feasibility_boundary(self):
        code = code_of("LL")
        bias = BiasConfig(BiasMode.RANDOMIZED, invert_baseline_threshold())
        res = loss_threshold(code, bias)
        g = res.gamma_star
        assert g > 0

        from fusioncodes.lpoly import erasure_analysis

        def avg(gamma):
            rep = erasure_analysis(code, res.w_star)
            return randomized_bias_rate(rep.erasure_rate("X", 1.0 - gamma), rep.erasure_rate("Z", 1.0 - gamma))

        assert avg(g - 1e-6) <= bias.p_tilde_randomized + 1e-12
        assert avg(g + 1e-6) > bias.p_tilde_randomized

    @pytest.mark.parametrize("mode", list(BiasMode))
    def test_thresholds_are_multiples_of_the_bisection_step(self, mode):
        # the tie rule compares thresholds exactly, which needs every one on the 2^-30 grid
        bias = default_bias_config(mode)
        for n in range(1, 7):
            for res in search_best_code(n, bias):
                assert (res.gamma_star * 2**30).is_integer(), res

    def test_two_qubit_code_threshold_value(self):
        # averaged rate in closed form: 1 - eta^2/2 - 3 eta^4/8 = p~
        code = code_of("LL")
        res = loss_threshold(code, BiasConfig(BiasMode.RANDOMIZED, invert_baseline_threshold()))
        y = (-4.0 / 3.0 + math.sqrt(16.0 / 9.0 + 32.0 * (1 - invert_baseline_threshold()) / 3.0)) / 2.0
        assert res.gamma_star == pytest.approx(1.0 - math.sqrt(y), abs=1e-7)

    def test_dual_swap_neutral_under_randomized_bias(self):
        bias = BiasConfig(BiasMode.RANDOMIZED, invert_baseline_threshold())
        for seq in ("LL", "LP", "LLP", "LPL"):
            code = code_of(seq)
            a = loss_threshold(code, bias)
            b = loss_threshold(dual_code_with_map(code)[0], bias)
            assert a.gamma_star == pytest.approx(b.gamma_star, abs=1e-8)

    def test_passive_mode_runs_and_uses_table(self):
        pt = invert_baseline_threshold()
        bias = BiasConfig(BiasMode.PASSIVE, pt, default_passive_table(pt))
        res = loss_threshold(code_of("LLL"), bias)
        assert res.bias_mode is BiasMode.PASSIVE
        assert 0.0 < res.gamma_star < 0.1

    def test_rounding_below_zero_is_not_out_of_range(self):
        # at p_fail = 0.3 the rounded success probability of LLL reaches
        # 1 + 2^-52 at zero loss, so its erasure rate is -2^-52 there
        res = loss_threshold(code_of("LLL"), BiasConfig(BiasMode.RANDOMIZED, invert_baseline_threshold()), 0.3)
        assert 0.0 < res.gamma_star < 0.1

    @pytest.mark.parametrize("mode", list(BiasMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("rates, bad", [((1.5, 0.25), "1.5"), ((0.25, math.nan), "nan")], ids=["1.5", "nan"])
    def test_out_of_range_rate_raises(self, monkeypatch, mode, rates, bad):
        # the feasibility closure checks both rates inline and raises _check_rates's error
        monkeypatch.setattr(thresholds, "_rates", lambda cx, cz, gamma: rates)
        with pytest.raises(ValueError) as exc:
            loss_threshold(code_of("LL"), default_bias_config(mode))
        assert str(exc.value) == f"rate out of range: {bad}"

    def test_success_is_monotone_in_eta_certificate(self):
        # loss_threshold bisects without checking monotonicity; this
        # certifies it exactly for every (code, failure basis) pair up to
        # the size cap, for XX, ZZ and their sum (the randomized average)
        pairs = 0
        for n in range(1, 9):
            for rec in enumerate_progenitor_records(n):
                table = CodeFusionTable(code_from_progenitor(rec.graph, code_id=rec.sequence))
                for p_fail in map(Fraction, ("0", "1/4", "3/10", "1/2", "1")):
                    (bx, bz), q = table.bernstein(p_fail)
                    for label, b in (("X", bx), ("Z", bz), ("X+Z", bx + bz)):
                        bad = np.flatnonzero(oracles.bernstein_violations(b, q))
                        assert not bad.size, (rec.sequence, label, str(p_fail), int(bad[0]))
                pairs += len(bx)
        assert pairs == 43690


class TestAllBasesAgainstOracle:
    @pytest.mark.parametrize("mode", list(BiasMode))
    def test_gamma_and_basis_match_scalar_scan(self, mode):
        bias = default_bias_config(mode)
        for n in range(1, 6):
            for rec in enumerate_progenitor_records(n):
                code = code_of(rec.sequence)
                res = loss_threshold(code, bias)
                gamma, w = oracles.loss_threshold(CodeFusionTable(code), bias)
                assert res.gamma_star == gamma, rec.sequence
                assert res.w_star == tuple((w >> i) & 1 for i in range(n)), rec.sequence

    @pytest.mark.parametrize("mode", ["randomized", "passive", "non-monotone"])
    def test_pruned_search_equals_full_lockstep(self, mode):
        # every code up to the size cap at p_fail 1/2, and up to n = 6 at 0.3
        bias = TestSearch.NON_MONOTONE if mode == "non-monotone" else default_bias_config(BiasMode(mode))
        for p_fail, n_max in ((0.5, 8), (0.3, 6)):
            for n in range(1, n_max + 1):
                codes = [code_of(r.sequence) for r in enumerate_progenitor_records(n)]
                got = [loss_threshold(code, bias, p_fail) for code in codes]
                want = oracles.lockstep_loss_thresholds(codes, bias, p_fail)
                for a, b in zip(got, want, strict=True):
                    assert (a.w_star, a.gamma_star) == (b.w_star, b.gamma_star), (a.code_id, p_fail)
                    assert (a.diagnostics, a.coeffs) == (b.diagnostics, b.coeffs), (a.code_id, p_fail)

    def test_array_interpolation_matches_scalar(self):
        # the lockstep oracle's array lookup, the package's scalar one and a plain scalar oracle
        cfg = default_bias_config(BiasMode.PASSIVE)
        xs = np.array([-0.5, 0.0, 0.01, 0.05, 0.5, 0.73, 0.95, 1.0, 2.0, math.nan])
        got = [cfg.passive_threshold(x) for x in xs.tolist()]
        assert got == oracles.interp_rows(cfg.p_tilde_biased, xs).tolist()
        assert got[:-1] == [oracles.interp_table(cfg.p_tilde_biased, x) for x in xs[:-1].tolist()]


class TestSearch:
    def test_single_qubit_search(self):
        bias = BiasConfig(BiasMode.RANDOMIZED, invert_baseline_threshold())
        res = search_best_code(1, bias)
        assert len(res) == 1
        assert res[0].gamma_star == 0.0

    def test_results_sorted_and_deterministic(self):
        bias = BiasConfig(BiasMode.RANDOMIZED, invert_baseline_threshold())
        a = search_best_code(3, bias)
        b = search_best_code(3, bias)
        assert [(r.code_id, r.gamma_star) for r in a] == [(r.code_id, r.gamma_star) for r in b]
        gammas = [r.gamma_star for r in a]
        assert gammas == sorted(gammas, reverse=True)

    # a written passive table need not fall with the bias ratio
    NON_MONOTONE = BiasConfig(BiasMode.PASSIVE, 0.14, ((0.0, 0.2), (0.3, 0.12), (0.6, 0.19), (1.0, 0.13)))

    @pytest.mark.parametrize(
        "bias, p_fail",
        [
            (default_bias_config(BiasMode.RANDOMIZED), 0.5),
            (default_bias_config(BiasMode.PASSIVE), 0.5),
            (default_bias_config(BiasMode.RANDOMIZED), 0.3),  # object-dtype coefficients
            (default_bias_config(BiasMode.PASSIVE), 0.3),
            (NON_MONOTONE, 0.5),
        ],
        ids=["randomized", "passive", "randomized-0.3", "passive-0.3", "non-monotone"],
    )
    def test_batched_search_equals_one_code_at_a_time(self, bias, p_fail):
        rng = random.Random(15)
        for n in range(1, 9):
            ids = [r.sequence for r in enumerate_progenitor_records(n)]
            batched = {r.code_id: r for r in search_best_code(n, bias, p_fail)}
            for code_id in ids if n <= 6 else rng.sample(ids, 6):
                one = loss_threshold(code_of(code_id), bias, p_fail)
                got = batched[code_id]
                assert (got.gamma_star, got.w_star) == (one.gamma_star, one.w_star), code_id
                assert got.diagnostics == one.diagnostics, code_id
                assert got.coeffs == one.coeffs, code_id

    def test_size_bounds(self):
        bias = BiasConfig(BiasMode.RANDOMIZED, 0.14)
        with pytest.raises(ValueError):
            search_best_code(0, bias)
        with pytest.raises(ValueError):
            search_best_code(9, bias)

    @pytest.mark.parametrize("p_fail", [100.0, 1.5, -0.5, math.nan])
    def test_p_fail_out_of_range(self, p_fail):
        # the transfer counts' packing width is sized for p_fail in [0, 1] only
        bias = BiasConfig(BiasMode.RANDOMIZED, 0.14)
        with pytest.raises(ValueError, match="p_fail out of range"):
            loss_threshold(code_of("LLP"), bias, p_fail)
        with pytest.raises(ValueError, match="p_fail out of range"):
            search_best_code(3, bias, p_fail)
        with pytest.raises(ValueError, match="p_fail out of range"):
            boosted_baseline(p_fail, 2, 0.14)


class TestBoostedBaseline:
    def test_level_ladder(self):
        pt = invert_baseline_threshold()
        g1 = boosted_baseline(*boost_level_parameters(1), pt)
        g2 = boosted_baseline(*boost_level_parameters(2), pt)
        g3 = boosted_baseline(*boost_level_parameters(3), pt)
        assert g1 == pytest.approx(0.0052, rel=0.01)
        assert g2 == pytest.approx(0.01, rel=0.2)
        assert g3 < g2

    def test_closed_form(self):
        pt = 0.14
        want = 1.0 - ((1.0 - pt) / (1.0 - 0.125)) ** 0.25
        assert boosted_baseline(0.25, 2, pt) == pytest.approx(want, abs=1e-8)

    def test_negative_ancilla_count_rejected(self):
        with pytest.raises(ValueError, match="negative ancilla count"):
            boosted_baseline(0.25, -1, 0.14)


class TestRegion:
    def test_zero_epsilon_table_gives_empty_boundary(self):
        code = code_of("LL")
        bias = BiasConfig(BiasMode.RANDOMIZED, invert_baseline_threshold())
        err = ErrorThresholdConfig(((0.0, 0.0), (1.0, 0.0)))
        pts = correctable_region(loss_threshold(code, bias), err, grid_points=5)
        assert pts and all(p.epsilon_boundary == 0.0 for p in pts)

    def test_region_closes_at_loss_threshold(self):
        code = code_of("LL")
        bias = BiasConfig(BiasMode.RANDOMIZED, invert_baseline_threshold())
        err = ErrorThresholdConfig(example_error_threshold_table())
        pts = correctable_region(loss_threshold(code, bias), err, grid_points=9)
        assert pts[-1].epsilon_boundary == pytest.approx(0.0, abs=1e-6)
        assert pts[0].epsilon_boundary > 0.0

    def test_boundary_shrinks_with_loss(self):
        code = code_of("LLL")
        bias = BiasConfig(BiasMode.RANDOMIZED, invert_baseline_threshold())
        err = ErrorThresholdConfig(example_error_threshold_table())
        pts = correctable_region(loss_threshold(code, bias), err, grid_points=9)
        eps = [p.epsilon_boundary for p in pts]
        assert all(b <= a + 1e-9 for a, b in zip(eps, eps[1:]))

    def test_infeasible_code_yields_empty_region(self):
        code = code_of("L")
        bias = BiasConfig(BiasMode.RANDOMIZED, 0.1)
        err = ErrorThresholdConfig(example_error_threshold_table())
        assert correctable_region(loss_threshold(code, bias), err) == []

    def test_contracts_only_in_the_threshold_search(self, monkeypatch):
        # the region reads the winner's coefficient rows off its result
        calls = []
        real = thresholds.basis_numerators

        def counting(code, p_fail):
            calls.append(code.code_id)
            return real(code, p_fail)

        monkeypatch.setattr(thresholds, "basis_numerators", counting)
        code = code_of("LLPL")
        bias = BiasConfig(BiasMode.RANDOMIZED, invert_baseline_threshold())
        err = ErrorThresholdConfig(example_error_threshold_table())
        result = loss_threshold(code, bias)
        assert calls == ["LLPL"]
        calls.clear()
        assert correctable_region(result, err, grid_points=5)
        assert calls == []

    def test_passive_mode_rejected(self):
        pt = invert_baseline_threshold()
        bias = BiasConfig(BiasMode.PASSIVE, pt, default_passive_table(pt))
        err = ErrorThresholdConfig(example_error_threshold_table())
        with pytest.raises(ValueError, match="correctable regions are computed under randomized bias"):
            correctable_region(loss_threshold(code_of("LL"), bias), err)

    @pytest.mark.parametrize("grid_points", [1, 0, -3])
    def test_grid_needs_two_points(self, grid_points):
        # as the CLI refuses them (``cli._grid_size``); the empty region of code L at p~ 0.1 checks its grid too
        err = ErrorThresholdConfig(example_error_threshold_table())
        for seq, p_tilde in (("LL", invert_baseline_threshold()), ("L", 0.1)):
            result = loss_threshold(code_of(seq), BiasConfig(BiasMode.RANDOMIZED, p_tilde))
            with pytest.raises(ValueError, match=f"a grid needs at least 2 points, got {grid_points}"):
                correctable_region(result, err, grid_points)


class TestRegionAgainstOracle:
    """The region against the per-row Walsh decoder, one scalar bisection per grid point."""

    @staticmethod
    def _both(code, p_fail=0.5, grid_points=21, epsilon_m_map=None):
        bias = default_bias_config(BiasMode.RANDOMIZED)
        err = ErrorThresholdConfig(example_error_threshold_table() if epsilon_m_map is None else epsilon_m_map)
        got = correctable_region(loss_threshold(code, bias, p_fail), err, grid_points)
        want = oracles.correctable_region(code, bias, err, p_fail=p_fail, grid_points=grid_points)
        return [(p.gamma, p.epsilon_boundary) for p in got], want

    @pytest.mark.parametrize("p_fail", [0.5, 0.25])
    def test_boundaries_equal_scalar_bisection(self, p_fail):
        seqs = [r.sequence for n in range(1, 5) for r in enumerate_progenitor_records(n)] + ["LLPLPL", "LLPLPP"]
        nonempty = 0
        for seq in seqs:
            got, want = self._both(code_of(seq), p_fail)
            assert got == want, seq
            nonempty += any(eps > 0.0 for _, eps in got)
        assert nonempty >= 3

    @pytest.mark.parametrize(
        "epsilon_m_map, boundary", [(((0.0, 1.0), (1.0, 1.0)), EPSILON_CAP), (((0.0, 0.0), (1.0, 0.0)), 0.0)]
    )
    def test_boundaries_at_the_cap_and_at_zero(self, epsilon_m_map, boundary):
        # epsilon_M = 1 holds at the cap everywhere; epsilon_M = 0 fails every epsilon > 0
        seqs = [r.sequence for n in range(1, 5) for r in enumerate_progenitor_records(n)] + ["LLPLPL"]
        points = 0
        for seq in seqs:
            got, want = self._both(code_of(seq), epsilon_m_map=epsilon_m_map)
            assert got == want, seq
            assert all(eps == boundary for _, eps in got), seq
            points += len(got)
        assert points > 0

    def test_chunk_seam(self):
        # 35 grid points rather than the default 21: a finer spacing of the loss grid
        got, want = self._both(code_of("LLPL"), grid_points=35)
        assert len(got) == 35
        assert got == want

    def test_each_entry_stops_like_a_scalar_bisection(self):
        def scalar(cut, upper):
            lo, hi = 0.0, upper
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if mid <= cut else (lo, mid)
            return lo

        # 16e-9 (1 + 1e-15) halves to widths within rounding of the
        # tolerance, where brackets of equal start width stop apart
        for upper in (0.2, 1.0, 16e-9 * (1 + 1e-15)):
            cuts = np.random.default_rng(5).random(200) * upper
            want = [scalar(c, upper) for c in cuts.tolist()]
            got = oracles.bisect_largest_feasible(lambda v: v <= cuts, len(cuts), upper)
            assert got.tolist() == want, upper
            if upper != 1.0:
                continue
            # the threshold search's scalar bisection: stopped early only where the result is at most ``cut``
            assert [_bisect(lambda v: v <= c) for c in cuts.tolist()] == want
            stopped = 0
            for c, lo, bound in zip(cuts.tolist(), want, np.random.default_rng(6).random(200).tolist()):
                got = _bisect(lambda v: v <= c, cut=bound)
                assert got == lo or (got is None and lo <= bound), (c, bound)
                stopped += got is None
            assert stopped > 50


class TestConfig:
    def test_default_config_valid(self):
        cfg = default_bias_config()
        assert cfg.p_tilde_randomized == pytest.approx(0.1430585, abs=1e-6)
        assert cfg.passive_threshold(1.0) == pytest.approx(cfg.p_tilde_randomized, rel=1e-9)
        assert cfg.passive_threshold(0.0) > cfg.passive_threshold(1.0)

    def test_interpolation(self):
        cfg = BiasConfig(BiasMode.PASSIVE, 0.14, ((0.0, 0.3), (1.0, 0.1)))
        assert cfg.passive_threshold(0.5) == pytest.approx(0.2)
        assert cfg.passive_threshold(-1.0) == 0.3
        assert cfg.passive_threshold(2.0) == pytest.approx(0.1)

    def test_schema_errors(self):
        with pytest.raises(ConfigError):
            BiasConfig(BiasMode.RANDOMIZED, 1.5)
        with pytest.raises(ConfigError):
            BiasConfig(BiasMode.PASSIVE, 0.14, ())
        with pytest.raises(ConfigError):
            BiasConfig(BiasMode.PASSIVE, 0.14, ((0.5, 0.2), (0.1, 0.3)))
        for row in ((1.5, 0.1), (0.5, 1.5), (0.5, 0.0)):  # a bias ratio outside [0, 1], a threshold outside (0, 1)
            with pytest.raises(ConfigError, match=re.escape(f"bad p_tilde_biased row: {row}")):
                BiasConfig(BiasMode.RANDOMIZED, 0.14, (row,))
        with pytest.raises(ConfigError):
            ErrorThresholdConfig(((0.0, -0.1),))

    def test_load_config_errors(self, tmp_path):
        from fusioncodes.thresholds import read_config

        p = tmp_path / "cfg.json"
        p.write_text("{}")
        with pytest.raises(ConfigError, match="p_tilde_randomized"):
            read_config(p)[:3]
        p.write_text("not json")
        with pytest.raises(ConfigError):
            read_config(p)[:3]

    def test_load_config_roundtrip(self, tmp_path):
        import json

        from fusioncodes.thresholds import config_to_json_dict, read_config

        cfg = default_bias_config()
        err = ErrorThresholdConfig(example_error_threshold_table())
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**config_to_json_dict(cfg), "epsilon_M": [list(row) for row in err.epsilon_m_map]}))
        rand, passive, err2 = read_config(p)[:3]
        assert rand.p_tilde_randomized == cfg.p_tilde_randomized
        assert passive.mode is BiasMode.PASSIVE
        assert err2 is not None
        assert err2.epsilon_m(0.0) == pytest.approx(err.epsilon_m(0.0))
