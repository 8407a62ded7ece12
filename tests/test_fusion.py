import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fusioncodes.codes import code_from_progenitor, dual_code_with_map, dual_swap_holds, packed_cosets
from fusioncodes.fusion import ErrorAnalyzer, _descartes, _flip_bias, _walsh
from fusioncodes.graphs import build_progenitor, enumerate_progenitor_records
from fusioncodes.lpoly import (
    _SPREAD,
    FusionSpec,
    basis_numerators,
    erasure_analysis,
    readable_set,
    signed_digits,
    transfer_counts,
)

import oracles
from oracles import (
    CodeFusionTable,
    LossPolynomial,
    Outcome,
    basis_counts,
    consistent_counts,
    dense_graph_state,
    dual_failure_basis,
    enumerate_group,
    eta2_coeffs,
    eta2_float_coeffs,
    eta2_numerators,
    is_normalized,
    joint_flip_distribution,
    measurement_patterns,
    pattern_outcomes,
    pattern_probability,
    pauli_flip_probability,
    pauli_from_string,
    pauli_matrix,
    recoverable,
    sign,
    signed_code,
    signed_logical_set,
)

S, F, L = Outcome.SUCCESS, Outcome.FAIL, Outcome.LOSS


def code_of(seq):
    return code_from_progenitor(build_progenitor(seq), code_id=seq)


def all_w(n):
    return [tuple((m >> i) & 1 for i in range(n)) for m in range(1 << n)]


# ---------------------------------------------------------------------
# independent state-vector oracle for erasure recoverability
# ---------------------------------------------------------------------


def _codeword_states(code):
    """(plus, zero) logical states on the code qubits, dense."""
    g = code.progenitor
    state = dense_graph_state(g.n, g.edges)
    letters = ["I"] * g.n
    letters[g.emitter] = "X"
    plus_full = state + pauli_matrix("".join(letters)) @ state
    plus_full /= np.linalg.norm(plus_full)
    # factor out the input qubit, which is left in |+>
    full = plus_full.reshape([2] * g.n, order="F")
    sel0 = np.take(full, 0, axis=g.emitter)
    plus = (sel0 * np.sqrt(2.0)).reshape(-1, order="F")

    zlift = ["I"] * code.n_code
    for i in range(code.n_code):
        zlift[i] = signed_code(code).logical_z.letter(i)
    zmat = pauli_matrix("".join(zlift), sign(signed_code(code).logical_z))
    zero = plus + zmat @ plus
    zero /= np.linalg.norm(zero)
    return plus, zero


def _paired_letter_matrix(letter_positions, n):
    """Matrix acting with the same letter on qubit i of block A and B."""
    letters = ["I"] * (2 * n)
    for i, ch in letter_positions:
        letters[i] = ch
        letters[n + i] = ch
    return pauli_matrix("".join(letters))


def oracle_recoverable(code, outcomes, w, basis):
    """Brute-force check that the paired logical parity becomes definite.

    Prepares |+bar>_A |0bar>_B, projects every available physical parity
    branch by branch, and demands |<L L>| = 1 on every surviving branch.
    Shares nothing with the package's mask arithmetic.
    """
    n = code.n_code
    plus, zero = _codeword_states(code)
    joint = np.kron(zero, plus)  # A = low qubits, B = high qubits

    ops = []
    for i, out in enumerate(outcomes):
        if out is S:
            ops.append(_paired_letter_matrix([(i, "X")], n))
            ops.append(_paired_letter_matrix([(i, "Z")], n))
        elif out is F:
            ops.append(_paired_letter_matrix([(i, "X" if w[i] else "Z")], n))

    anchor = signed_code(code).logical_x if basis == "X" else signed_code(code).logical_z
    target = _paired_letter_matrix([(i, anchor.letter(i)) for i in range(n) if anchor.letter(i) != "I"], n)

    branches = [joint]
    for op in ops:
        nxt = []
        for st in branches:
            for outcome in (+1, -1):
                proj = 0.5 * (st + outcome * (op @ st))
                if np.vdot(proj, proj).real > 1e-9:
                    nxt.append(proj)
        branches = nxt
    for st in branches:
        st = st / np.linalg.norm(st)
        if abs(abs(np.vdot(st, target @ st))) < 1.0 - 1e-9:
            return False
    return True


def oracle_success_probability(code, w, eta, p_fail, basis):
    total = 0.0
    n = code.n_code
    for outs in itertools.product([S, F, L], repeat=n):
        if not oracle_recoverable(code, outs, w, basis):
            continue
        p = 1.0
        for o in outs:
            p *= (1 - p_fail) * eta**2 if o is S else p_fail * eta**2 if o is F else 1 - eta**2
        total += p
    return total


# ---------------------------------------------------------------------
# independent enumeration oracle for the error decoder
# ---------------------------------------------------------------------


def oracle_joint_flips(eps):
    single = {(0, 0): 1 - eps, (1, 0): eps / 3, (0, 1): eps / 3, (1, 1): eps / 3}
    dist = {}
    for (u1, v1), p1 in single.items():
        for (u2, v2), p2 in single.items():
            key = (u1 ^ u2, v1 ^ v2)
            dist[key] = dist.get(key, 0.0) + p1 * p2
    return dist


def oracle_pattern_error(code, outcomes, w, basis, eps):
    """Exhaustive ML decoding over explicit flip configurations."""
    n = code.n_code
    avail = []
    for i, o in enumerate(outcomes):
        if o is S:
            avail.append("both")
        elif o is F:
            avail.append("xx" if w[i] else "zz")
        else:
            avail.append("none")

    def fits(p):
        for i in range(n):
            letter = p.letter(i)
            if letter == "I":
                continue
            if letter == "X" and avail[i] not in ("both", "xx"):
                return False
            if letter == "Z" and avail[i] not in ("both", "zz"):
                return False
            if letter == "Y" and avail[i] != "both":
                return False
        return True

    rep = next((p for p in signed_logical_set(code, basis) if fits(p)), None)
    if rep is None:
        return None
    stabs = [s for s in enumerate_group(signed_code(code).stabilizers) if fits(s)]

    joint = oracle_joint_flips(eps)
    marg_u = joint[(1, 0)] + joint[(1, 1)]
    marg_v = joint[(0, 1)] + joint[(1, 1)]
    per_qubit = []
    for a in avail:
        if a == "both":
            per_qubit.append([((u, v), joint[(u, v)]) for u in (0, 1) for v in (0, 1)])
        elif a == "xx":
            per_qubit.append([((u, None), marg_u if u else 1 - marg_u) for u in (0, 1)])
        elif a == "zz":
            per_qubit.append([((None, v), marg_v if v else 1 - marg_v) for v in (0, 1)])
        else:
            per_qubit.append([((None, None), 1.0)])

    def flip_of(p, config):
        bit = 0
        for i in range(n):
            letter = p.letter(i)
            u, v = config[i]
            if letter in ("X", "Y"):
                bit ^= u
            if letter in ("Z", "Y"):
                bit ^= v
        return bit

    classes = {}
    for combo in itertools.product(*per_qubit):
        config = [c[0] for c in combo]
        prob = 1.0
        for c in combo:
            prob *= c[1]
        syndrome = tuple(flip_of(sel, config) for sel in stabs)
        b = flip_of(rep, config)
        key = syndrome
        slot = classes.setdefault(key, [0.0, 0.0])
        slot[b] += prob
    return sum(min(v) for v in classes.values())


# ---------------------------------------------------------------------


class TestPatternProbability:
    def test_all_success_two_qubits(self):
        poly = pattern_probability((S, S), FusionSpec(1.0, 0.5, (0, 0)))
        assert poly.eval(1.0, 0.5) == pytest.approx(0.25)
        assert poly.counts == {(2, 0, 0): 1}

    def test_all_loss_single_qubit(self):
        poly = pattern_probability((L,), FusionSpec(0.8, 0.5, (0,)))
        assert poly.eval(0.8, 0.5) == pytest.approx(1 - 0.64)

    def test_patterns_sum_to_one_exactly(self):
        for seq in ("L", "LL", "LP", "LLP"):
            code = code_of(seq)
            totals = consistent_counts(code.n_code)
            for mask in range(1 << code.n_code):
                assert is_normalized(LossPolynomial.from_counts(code.n_code, totals[mask]))


class TestRecoverable:
    def test_identity_always(self):
        assert recoverable(pauli_from_string("II"), (L, L), (0, 0))

    def test_failure_basis_blocks_other_parity(self):
        z0 = pauli_from_string("ZI")
        assert not recoverable(z0, (F, L), (1, 0))  # failure recovered XX only
        assert recoverable(z0, (F, L), (0, 0))

    def test_y_needs_success(self):
        y0 = pauli_from_string("YI")
        assert recoverable(y0, (S, L), (0, 0))
        assert not recoverable(y0, (F, L), (1, 0))


class TestErasureAnalysis:
    def test_bare_code_rates(self):
        # Xbar = Z so its pair needs the ZZ parity: success only when the
        # failure basis recovers XX; Zbar = X rides on XX.
        code = code_of("L")
        rep = erasure_analysis(code, FusionSpec(1.0, 0.5, (1,)))
        assert rep.success_probability("X") == pytest.approx(0.5)
        assert rep.success_probability("Z") == pytest.approx(1.0)
        rep0 = erasure_analysis(code, FusionSpec(1.0, 0.5, (0,)))
        assert rep0.success_probability("X") == pytest.approx(1.0)
        assert rep0.success_probability("Z") == pytest.approx(0.5)

    def test_everything_erased_at_zero_transmission(self):
        for seq in ("L", "LL", "LPL"):
            code = code_of(seq)
            spec = FusionSpec(0.0, 0.5, (0,) * code.n_code)
            rep = erasure_analysis(code, spec)
            assert rep.success_probability("X") == 0.0
            assert rep.success_probability("Z") == 0.0

    def test_star_code_matches_hand_count(self):
        # w = (0,0): ZZ needs z on both pairs -> eta^4; XX via X0 or X1,
        # each available only on success -> eta^2 - eta^4/4.
        code = code_of("LL")
        rep = erasure_analysis(code, FusionSpec(1.0, 0.5, (0, 0)))
        for eta in (1.0, 0.9, 0.6):
            assert rep.success_probability("X", eta) == pytest.approx(eta**4)
            assert rep.success_probability("Z", eta) == pytest.approx(eta**2 - eta**4 / 4)

    def test_monotone_in_eta(self):
        for seq in ("LL", "LPL"):
            code = code_of(seq)
            for w in all_w(code.n_code)[:4]:
                rep = erasure_analysis(code, FusionSpec(1.0, 0.5, w))
                grid = np.linspace(0, 1, 101)
                for basis in ("X", "Z"):
                    vals = [rep.success_probability(basis, e) for e in grid]
                    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
                    assert all(-1e-12 <= v <= 1 + 1e-12 for v in vals)

    @pytest.mark.parametrize("seq", ["L", "LL", "LP"])
    def test_matches_state_vector_oracle(self, seq):
        code = code_of(seq)
        for w in all_w(code.n_code):
            rep = erasure_analysis(code, FusionSpec(1.0, 0.5, w))
            for eta in (0.7, 0.9, 1.0):
                for basis in ("X", "Z"):
                    want = oracle_success_probability(code, w, eta, 0.5, basis)
                    assert abs(rep.success_probability(basis, eta) - want) < 1e-12

    def test_three_qubit_codes_match_oracle_spotwise(self):
        for rec in enumerate_progenitor_records(3):
            code = code_from_progenitor(rec.graph, code_id=rec.sequence)
            for w in [(0, 0, 0), (1, 0, 1)]:
                rep = erasure_analysis(code, FusionSpec(1.0, 0.5, w))
                for basis in ("X", "Z"):
                    want = oracle_success_probability(code, w, 0.9, 0.5, basis)
                    assert abs(rep.success_probability(basis, 0.9) - want) < 1e-12

    def test_measurement_pattern_listing(self):
        code = code_of("L")
        pats = measurement_patterns(code, FusionSpec(1.0, 0.5, (1,)), "Z")
        outcome_sets = {p.outcomes for p, _ in pats}
        assert outcome_sets == {(S,), (F,)}


class TestFlipDistribution:
    def test_flip_probability_endpoints(self):
        assert pauli_flip_probability(0.0) == 0.0
        assert pauli_flip_probability(0.75) == pytest.approx(0.5)

    def test_flip_probability_small_value(self):
        want = 4 * (0.01 / 3 * 0.99 + 0.0001 / 9)
        assert pauli_flip_probability(0.01) == pytest.approx(want, abs=1e-15)

    def test_joint_distribution_reduces_to_marginals(self):
        for eps in (0.001, 0.01, 0.1):
            dist = joint_flip_distribution(eps)
            assert sum(dist.values()) == pytest.approx(1.0)
            p = pauli_flip_probability(eps)
            assert dist[(1, 0)] + dist[(1, 1)] == pytest.approx(p, abs=1e-15)
            assert dist[(0, 1)] + dist[(1, 1)] == pytest.approx(p, abs=1e-15)

    def test_no_noise_means_no_flips(self):
        dist = joint_flip_distribution(0.0)
        assert dist[(0, 0)] == 1.0

    def test_double_flip_leading_order(self):
        # both parities flip via one single-photon Y error: 2 eps/3 (1-eps) + O(eps^2)
        eps = 1e-4
        dist = joint_flip_distribution(eps)
        assert dist[(1, 1)] == pytest.approx(2 * eps / 3, rel=1e-3)

    def test_exact_mode(self):
        dist = joint_flip_distribution(0.25, exact=True)
        assert sum(dist.values()) == Fraction(1)

    def test_closed_form_bias_is_the_enumeration_bit_for_bit(self):
        grid = np.concatenate([np.linspace(0.0, 1.0, 20001), np.geomspace(1e-12, 1e-6, 2001), [5e-324, 1.0 - 2**-53]])
        assert _flip_bias(grid).tobytes() == oracles.flip_bias(grid).tobytes()
        for eps in grid[::37].tolist() + [0.0, 1.0, 1e-7, 0.75]:
            assert _flip_bias(eps).hex() == oracles.flip_bias(eps).hex(), eps


class TestErrorAnalysis:
    @pytest.mark.parametrize(
        "w, p_fail",
        [
            ((2, 0, 0, 0), 0.5),
            ((-1, 0, 0, 0), 0.5),
            ((0.5, 0, 0, 0), 0.5),
            ((True, 0, 0, 0), 0.5),
            ((1, 0, 0, 0), 1.5),
            ((1, 0, 0, 0), -0.5),
        ],
    )
    def test_inputs_checked_as_fusion_spec_checks_them(self, w, p_fail):
        with pytest.raises(ValueError) as spec_error:
            FusionSpec(1.0, p_fail, w)
        with pytest.raises(ValueError) as analyzer_error:
            ErrorAnalyzer(code_of("LLPL"), w, p_fail)
        assert str(analyzer_error.value) == str(spec_error.value)

    def test_zero_epsilon_means_zero_error(self):
        # exactly 0.0 at every eta, which lets a region skip probing epsilon = 0
        rng = random.Random(27)
        for code in small_codes(6) + [code_of("LLPLPLPL")]:
            ana = ErrorAnalyzer(code, tuple(rng.randrange(2) for _ in range(code.n_code)))
            for eta in (0.0, 0.5, 0.9, 1.0):
                assert ana.rates(eta, 0.0) == {"X": 0.0, "Z": 0.0}, (code.code_id, eta)

    @pytest.mark.parametrize(
        "eta, eps", [(-0.5, 0.01), (1.5, 0.01), (math.nan, 0.01), (0.9, -1e-9), (0.9, 1.5), (0.9, math.nan)]
    )
    def test_rates_reject_points_outside_the_unit_interval(self, eta, eps):
        # the sign certificate covers beta in [0, 1], the image of epsilon in [0, 1]
        ana = ErrorAnalyzer(code_of("LPL"), (1, 0, 1))
        with pytest.raises(ValueError) as got:
            ana.rates(eta, eps)
        with pytest.raises(ValueError) as want:
            FusionSpec(eta, 0.5, (1, 0, 1)) if not 0.0 <= eta <= 1.0 else pauli_flip_probability(eps)
        assert str(got.value) == str(want.value)

    def test_bare_code_has_nothing_to_correct(self):
        code = code_of("L")
        eps = 0.02
        ana = ErrorAnalyzer(code, (0,))
        rates = oracles.pattern_error_rates(ana, "X", eps)
        assert rates == pytest.approx(pauli_flip_probability(eps))
        assert ana.rates(1.0, eps)["X"] == pytest.approx(pauli_flip_probability(eps))

    def test_ml_never_exceeds_uncorrected(self):
        for seq in ("LL", "LP", "LLL", "LPL"):
            code = code_of(seq)
            ana = ErrorAnalyzer(code, (0,) * code.n_code)
            for eps in (0.005, 0.01, 0.03, 0.05):
                rates = ana.rates(0.95, eps)
                unc = oracles.error_rates(ana, 0.95, eps, corrections=False)
                assert rates["X"] <= unc["X"] + 1e-15
                assert rates["Z"] <= unc["Z"] + 1e-15
                assert rates["X"] <= 0.5 and rates["Z"] <= 0.5

    def test_correction_strictly_helps_somewhere(self):
        # a 3-qubit code where the syndrome genuinely distinguishes flips
        improved = False
        for rec in enumerate_progenitor_records(3):
            code = code_from_progenitor(rec.graph, code_id=rec.sequence)
            for w in all_w(3):
                ana = ErrorAnalyzer(code, w)
                if ana.rates(1.0, 0.01)["X"] < oracles.error_rates(ana, 1.0, 0.01, corrections=False)["X"] - 1e-9:
                    improved = True
        assert improved

    @pytest.mark.parametrize("seq", ["L", "LL", "LP"])
    def test_pattern_rates_match_enumeration_oracle(self, seq):
        code = code_of(seq)
        n = code.n_code
        table = CodeFusionTable(code)
        for w in all_w(n):
            ana = ErrorAnalyzer(code, w)
            sides = oracles.per_row_sides(code, w)
            for eps in (0.01, 0.05):
                for basis in ("X", "Z"):
                    got = oracles.pattern_error_rates(ana, basis, eps)
                    enumerated = []
                    for row, avail in enumerate(sides[basis]["idxs"]):
                        outcomes = pattern_outcomes(table, int(avail))
                        want = oracle_pattern_error(code, outcomes, w, basis, eps)
                        assert want is not None
                        assert abs(got[row] - want) < 1e-12
                        enumerated.append(want)
                    # the package's rate is the probability-weighted mean of the enumerated pattern rates
                    for eta in (0.9, 1.0):
                        p = oracles.pattern_probabilities(ana, basis, eta)
                        assert abs(ana.rates(eta, eps)[basis] - float(np.dot(p, enumerated) / p.sum())) < 1e-12

    def test_three_qubit_codes_match_oracle_spotwise(self):
        for rec in enumerate_progenitor_records(3):
            code = code_from_progenitor(rec.graph, code_id=rec.sequence)
            w = (1, 0, 0)
            ana = ErrorAnalyzer(code, w)
            table = CodeFusionTable(code)
            sides = oracles.per_row_sides(code, w)
            for basis in ("X", "Z"):
                got = oracles.pattern_error_rates(ana, basis, 0.01)
                enumerated = [
                    oracle_pattern_error(code, pattern_outcomes(table, int(avail)), w, basis, 0.01)
                    for avail in sides[basis]["idxs"]
                ]
                for row in range(0, len(enumerated), 5):
                    assert abs(got[row] - enumerated[row]) < 1e-12
                p = oracles.pattern_probabilities(ana, basis, 0.95)
                assert abs(ana.rates(0.95, 0.01)[basis] - float(np.dot(p, enumerated) / p.sum())) < 1e-12


def small_codes(n_max=5):
    return [code_of(r.sequence) for n in range(1, n_max + 1) for r in enumerate_progenitor_records(n)]


def count_weights(n):
    """``transfer_counts`` weights NONE 1, failure y, BOTH y^(n+1): the y^(s(n+1)+f) coefficient counts patterns."""
    return (1,), (0, 1), (0,) * (n + 1) + (1,)


class TestAllBasesEngine:
    """The all-bases counts and coefficients against one-basis-at-a-time oracles."""

    def test_counts_match_per_basis_scan(self):
        for code in small_codes(4) + [code_of("LLPLPLPL")]:
            table = CodeFusionTable(code)
            n = code.n_code
            for basis in ("X", "Z"):
                rows = oracles.gather_counts(table, basis)
                assert rows.shape == (1 << n, (n + 1) ** 2)
                engine = transfer_counts(table.readable[basis], n, count_weights(n))
                for w in range(1 << n):
                    assert LossPolynomial.from_counts(n, rows[w]).counts == basis_counts(table, basis, w)
                    assert engine[w] + (0,) * n == tuple(rows[w].tolist()), (code.code_id, basis, w)
            for w in range(1 << n):
                assert LossPolynomial.from_counts(n, consistent_counts(n)[w]).counts == basis_counts(table, None, w)

    @pytest.mark.parametrize("p_fail", [0.5, 0.25, 0.3, 0.1234567])
    def test_float_coeffs_bit_identical_to_fraction_oracle(self, p_fail):
        pf = Fraction(p_fail).limit_denominator(1 << 30)
        # 0.1234567 takes the Python-int route; n <= 5 keeps its oracle quick
        codes = small_codes() + ([code_of("LLPLPLPL")] if p_fail != 0.1234567 else [])
        for code in codes:
            table = CodeFusionTable(code)
            n = code.n_code
            nx, nz, den = basis_numerators(code, p_fail)
            for basis, rows, lockstep in zip("XZ", (nx, nz), eta2_float_coeffs(*table.bernstein(p_fail))):
                for w in range(1 << n):
                    want = [float(c) for c in eta2_coeffs(basis_counts(table, basis, w), n, pf)]
                    assert [c / den for c in rows[w]] == want, (code.code_id, basis, w)
                    assert lockstep[w].tolist() == want, (code.code_id, basis, w)

    def test_numerator_dtype_follows_magnitude_bound(self):
        table = CodeFusionTable(code_of("LLPL"))
        assert eta2_numerators(*table.bernstein(0.3))[0].dtype == np.int64
        num, den = eta2_numerators(*table.bernstein(0.1234567))
        assert num.dtype == object and den == Fraction(0.1234567).limit_denominator(1 << 30).denominator ** 4

    @pytest.mark.parametrize("p_fail", [0.5, 0.3, 0.1234567, 0.0, 1.0])
    def test_transfer_numerators_match_bernstein_oracle(self, p_fail):
        # both parities of every code up to the size cap; q^n and every float too
        for n in range(1, 9):
            for rec in enumerate_progenitor_records(n):
                code = code_of(rec.sequence)
                (bx, bz), q = CodeFusionTable(code).bernstein(p_fail)
                nx, nz, den = basis_numerators(code, p_fail)
                for got, b in ((nx, bx), (nz, bz)):
                    want, want_den = eta2_numerators(b, q)
                    assert den == want_den and got == [tuple(map(int, row)) for row in want], (rec.sequence, p_fail)
                    floats = eta2_float_coeffs(b, q).tolist()
                    assert [[c / den for c in row] for row in got] == floats, (rec.sequence, p_fail)

    def test_automaton_has_at_most_two_states_per_cut(self):
        # the distinct nonzero sub-blocks of each readable set, split from the top qubit down
        widest = 0
        for n in range(1, 9):
            for rec in enumerate_progenitor_records(n):
                reps = packed_cosets(code_of(rec.sequence))[1]
                for basis in ("X", "Z"):
                    blocks = {readable_set(reps[basis], n)}
                    for k in range(n - 1, -1, -1):
                        size = 4**k
                        blocks = {b >> d * size & (1 << size) - 1 for b in blocks for d in range(4)} - {0}
                        widest = max(widest, len(blocks))
                        assert len(blocks) <= 2, (rec.sequence, basis, k)
        assert widest == 2

    @pytest.mark.parametrize("bits", [8, 16, 32, 64, 128, 256])
    def test_signed_digits_read_back_packed_coefficients(self, bits):
        # struct reads widths up to 8 bytes and from_bytes the wider ones; both ends of the range included
        rng = random.Random(bits)
        low, high = -(1 << bits - 1), (1 << bits - 1) - 1
        for count in range(1, 41):
            coeffs = [rng.choice((low, high, 0, -1, rng.randint(low, high))) for _ in range(count)]
            t = sum(c << j * bits for j, c in enumerate(coeffs))
            assert signed_digits(t, count, bits) == tuple(coeffs), (bits, count)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_transfer_numerators_exact_on_wide_automata(self, n):
        # random sets, not up-closed and far wider than a code's: the counts stay exact
        rng = np.random.default_rng(20 + n)
        low, spread, key = oracles.trit_patterns(n)
        for _ in range(6):
            bits = rng.random(4**n) < 0.5
            readable = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
            for p_fail in (0.5, 0.3, 0.1234567):
                a, q = Fraction(p_fail).limit_denominator(1 << 30).as_integer_ratio()
                counts = np.empty((1 << n, (n + 1) ** 2), dtype=np.int64)
                for w in range(1 << n):
                    idx = low + (spread & sum(4**i for i in range(n) if (w >> i) & 1))
                    counts[w] = np.bincount(key[bits[idx]], minlength=(n + 1) ** 2)
                want, _ = oracles.count_numerators(counts, n, p_fail)
                got = transfer_counts(readable, n, ((q, -q), (0, a), (0, q - a)))
                assert got == [tuple(map(int, row)) for row in want], p_fail
            got = transfer_counts(readable, n, count_weights(n))
            assert [row + (0,) * n for row in got] == [tuple(row) for row in counts.tolist()]

    def test_bernstein_numerators_match_gather_oracle(self):
        rng = np.random.default_rng(11)
        codes = small_codes(6)
        for n in (7, 8):
            records = enumerate_progenitor_records(n)
            codes += [code_of(records[i].sequence) for i in rng.choice(len(records), size=6, replace=False)]
        for code in codes:
            table = CodeFusionTable(code)
            n = code.n_code
            for p_fail in map(Fraction, ("0", "1/4", "3/10", "1/2", "1")):
                num, den = eta2_numerators(*table.bernstein(p_fail))
                for basis, got in zip("XZ", num):
                    want, want_den = oracles.count_numerators(oracles.gather_counts(table, basis), n, p_fail)
                    assert got.dtype == want.dtype and den == want_den, (code.code_id, str(p_fail))
                    assert np.array_equal(got, want), (code.code_id, basis, str(p_fail))

    def test_packed_sets_match_group_and_logical_set_order(self):
        rng = np.random.default_rng(12)
        codes = small_codes(6)
        for n in (7, 8):
            records = enumerate_progenitor_records(n)
            codes += [code_of(records[i].sequence) for i in rng.choice(len(records), size=6, replace=False)]
        for code in codes:
            table, n = CodeFusionTable(code), code.n_code
            group = signed_code(code).stabilizers
            assert table.stab == [p.x_bits | p.z_bits << n for p in enumerate_group(group)], code.code_id
            for basis in ("X", "Z"):
                want = [p.x_bits | p.z_bits << n for p in signed_logical_set(code, basis)]
                assert table.reps[basis] == want, (code.code_id, basis)

    def test_readable_set_is_the_scan_up_closure(self):
        for code in small_codes(6) + [code_of("LLPLPLPL")]:
            table = CodeFusionTable(code)
            for basis in ("X", "Z"):
                scan = np.packbits(oracles.rep_index_scan(table, basis) >= 0, bitorder="little")
                assert table.readable[basis] == int.from_bytes(scan.tobytes(), "little"), (code.code_id, basis)

    def test_spread_moves_bit_i_to_bit_2i(self):
        assert len(_SPREAD) == 256
        for b in range(256):
            assert _SPREAD[b] == sum(((b >> i) & 1) << 2 * i for i in range(8)), b

    def test_swap_check_rejects_a_wrong_pivot(self):
        rejected = 0
        for rec in enumerate_progenitor_records(3):
            code = code_from_progenitor(rec.graph, code_id=rec.sequence)
            dual, swapped = dual_code_with_map(code)
            rejected += sum(not oracles.validate_dual_swap(code, dual, k) for k in range(3) if k != swapped)
        assert rejected > 0


class TestDecoderArrays:
    """The decoder's packed butterfly, folded integer polynomials and sign
    certificate against the per-row oracles in exact integers, and its float
    rates against the per-row Walsh transform and exact rationals."""

    CASES = [("LL", (0, 0)), ("LPL", (1, 0, 1)), ("LLPL", (1, 0, 0, 1)), ("LLPLPL", (1, 0, 0, 1, 0, 1))]
    EPS = [0.0, 1e-9, 0.0031, 0.05, 0.2, 0.75, 1.0]

    @staticmethod
    def setup_cases():
        """Every code with n <= 4 under every basis, two seeded bases of every code with n = 5, 6, and LLPLPLPL."""
        rng = random.Random(2406)
        cases = [(code, w) for code in small_codes(4) for w in all_w(code.n_code)]
        for n in (5, 6):
            for rec in enumerate_progenitor_records(n):
                code = code_of(rec.sequence)
                cases += [(code, tuple(rng.randrange(2) for _ in range(n))) for _ in range(2)]
        anchor = code_of("LLPLPLPL")
        return cases + [(anchor, (1, 0, 0, 1, 0, 1, 0, 0)), (anchor, tuple(rng.randrange(2) for _ in range(8)))]

    def test_butterfly_matches_block_loop(self):
        # packed-int transforms of random weight rows against the block loop on one-hot integer matrices
        rng = random.Random(7)
        for k in range(1, 9):
            for top in (1, 4, 8):
                row = bytes(rng.randrange(top + 1) for _ in range(1 << k))
                onehot = (np.arange(9)[:, None] == np.frombuffer(row, dtype=np.uint8)[None, :]).astype(np.int64)
                want = oracles.fwht_blocks(onehot).T.tolist()
                assert [list(signed_digits(t, 9, 32)) for t in _walsh(row)] == want, (k, top)

    def test_setup_matches_per_row_oracle(self):
        # pattern counts, lower sides and uncertified differences per (s, f), exactly, against one-hot Walsh pairs
        uncertified = 0
        for code, w in self.setup_cases():
            ana, pairs, sides = ErrorAnalyzer(code, w), oracles.walsh_pairs(code, w), oracles.per_row_sides(code, w)
            for basis in ("X", "Z"):
                fold, (lower, diffs) = ana._folds[basis], oracles.fold_pairs(pairs[basis])
                counts = Counter(zip(sides[basis]["s"].astype(int).tolist(), sides[basis]["f"].astype(int).tolist()))
                assert dict(zip(fold.sf, fold.counts)) == counts, (code.code_id, w, basis)
                # poly is the lower sides' sum divided by 1 - beta
                times = {sf: tuple(a - b for a, b in zip(r + (0,), (0,) + r)) for sf, r in zip(fold.sf, fold.poly)}
                assert times == lower, (code.code_id, w, basis)
                for d, weights in fold.uncertified:
                    assert {sf: c for sf, c in zip(fold.sf, weights) if c} == diffs[d], (code.code_id, w, basis, d)
                uncertified += len(fold.uncertified)
        assert uncertified > 0

    def test_certified_differences_keep_one_sign(self):
        # every difference left out of the uncertified list has no root in (0, 1) by Sturm's count, and is >= 0 there
        seen, rooted = set(), 0
        for code, w in self.setup_cases():
            ana, pairs = ErrorAnalyzer(code, w), oracles.walsh_pairs(code, w)
            for basis in ("X", "Z"):
                diffs = oracles.fold_pairs(pairs[basis])[1]
                listed = {d for d, _ in ana._folds[basis].uncertified}
                for d in set(diffs) - seen:
                    seen.add(d)
                    if d in listed:
                        rooted += oracles.sturm_roots(d) > 0
                        continue
                    assert oracles.sturm_roots(d) == 0, (code.code_id, w, basis, d)
                    assert sum(c * Fraction(1, 2) ** k for k, c in enumerate(d)) >= 0, d
        assert rooted > 0  # the list holds differences that do change sign in range

    def test_roots_in_range_stay_uncertified(self):
        # a simple and a double root at 3/4, at every degree up to 8 and times beta or 1 - beta
        for d in [(-3, 4), (9, -24, 16)]:
            assert oracles.sturm_roots(d) == 1
            for times in [(1,), (0, 1), (1, -1)]:
                p = [0] * (len(d) + len(times) - 1)
                for i, a in enumerate(d):
                    for j, b in enumerate(times):
                        p[i + j] += a * b
                for pad in range(9 - len(p)):
                    assert _descartes(tuple(p) + (0,) * pad)[1] is False, (p, pad)
        # one sign, read just below beta = 1
        assert _descartes((1, -1)) == (1, True)
        assert _descartes((-1, 1, 0)) == (-1, True)
        assert _descartes((1, -2, 1)) == (1, True)
        assert _descartes((0, 0, 0)) == (0, True)

    def test_scalar_rates_match_per_row_formula(self):
        # the folded polynomials sum in another order than the per-row transform: within 1e-15 absolute
        # of the float oracle, and of the exact rationals at the float's own beta and eta
        for seq, w in self.CASES:
            ana = ErrorAnalyzer(code_of(seq), w)
            for eps in self.EPS:
                beta = Fraction(_flip_bias(eps))
                for eta in (0.0, 0.9, 1.0):
                    got = ana.rates(eta, eps)
                    floats, exact = oracles.error_rates(ana, eta, eps), oracles.exact_error_rates(ana, eta, beta)
                    for basis in ("X", "Z"):
                        assert abs(got[basis] - floats[basis]) <= 1e-15, (seq, eps, eta, basis)
                        assert abs(got[basis] - exact[basis]) <= 1e-15, (seq, eps, eta, basis)


class TestDualSwap:
    def test_exact_swap_small_codes(self):
        for n in range(1, 5):
            for rec in enumerate_progenitor_records(n):
                code = code_from_progenitor(rec.graph, code_id=rec.sequence)
                dual, swapped = dual_code_with_map(code)
                assert oracles.validate_dual_swap(code, dual, swapped), rec.sequence

    def test_coset_check_agrees_with_polynomial_oracle(self):
        # the true pivot of every code with n <= 8, every pivot of every code with n <= 5
        pairs = rejected = 0
        for n in range(1, 9):
            for rec in enumerate_progenitor_records(n):
                code = code_from_progenitor(rec.graph, code_id=rec.sequence)
                dual, swapped = dual_code_with_map(code)
                for k in range(n) if n <= 5 else (swapped,):
                    holds = dual_swap_holds(code, dual, k)
                    assert holds == oracles.validate_dual_swap(code, dual, k), (rec.sequence, k)
                    assert holds == (k == swapped), (rec.sequence, k)
                    pairs += 1
                    rejected += not holds
        assert (pairs, rejected) == (129 + 32 + 64 + 128, 98)  # every wrong pivot with n <= 5 rejected

    def test_dual_failure_basis_flips_one_bit(self):
        assert dual_failure_basis((0, 1, 0), 2) == (0, 1, 1)

    def test_double_dual_round_trips_polynomials(self):
        for rec in enumerate_progenitor_records(3):
            code = code_from_progenitor(rec.graph, code_id=rec.sequence)
            dual, s1 = dual_code_with_map(code)
            double, s2 = dual_code_with_map(dual)
            for w in all_w(3):
                w2 = dual_failure_basis(dual_failure_basis(w, s1), s2)
                a = erasure_analysis(code, FusionSpec(1.0, 0.5, w))
                b = erasure_analysis(double, FusionSpec(1.0, 0.5, w2))
                pf = Fraction(1, 2)
                for row_a, row_b in ((a.p_success_xx, b.p_success_xx), (a.p_success_zz, b.p_success_zz)):
                    counts_a, counts_b = (LossPolynomial.from_counts(3, row).counts for row in (row_a, row_b))
                    assert eta2_coeffs(counts_a, 3, pf) == eta2_coeffs(counts_b, 3, pf)
