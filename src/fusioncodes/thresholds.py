"""Bias models, photon-loss thresholds, and inner-code search.

The outer fault-tolerant fusion network is abstracted into configuration
numbers: an erasure threshold for the randomized-bias model, an optional
bias-dependent threshold table for the passive model, and an optional
map from logical erasure rate to the tolerable fusion measurement error.
Those belong to the outer code and are consumed here as inputs; the
default randomized threshold is derived by inverting the boosted-fusion
baseline the logical encodings are compared against.

The search runs in Python floats on ``lpoly``'s exact coefficients, one
scalar bisection per failure basis, and imports neither numpy nor the
ML decoder: ``threshold`` and ``optimize-w`` run without ``fusion``,
where the correctable region and its decoder live.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .codes import GraphCode, code_from_progenitor
from .graphs import PROGENITOR_CAP, enumerate_progenitor_records
from .lpoly import basis_numerators, check_failures
from .pauli import ConfigError

BISECTION_TOL = 1e-9

# Boosted-fusion baseline used to anchor the default erasure threshold:
# one boost level (failure probability 1/4, two ancilla photons) reaches
# a loss threshold of 0.52% on the reference outer code.
BASELINE_P_FAIL = 0.25
BASELINE_PHOTONS = 4
BASELINE_GAMMA = 0.0052


class BiasMode(Enum):
    RANDOMIZED = "randomized"
    PASSIVE = "passive"


# A rate is a probability within rounding of [0, 1]: 1 - P(success) can round below 0
_RATE_LO, _RATE_HI = -1e-12, 1.0 + 1e-12


def _check_rates(*rates: float) -> None:
    for v in rates:
        if not _RATE_LO <= v <= _RATE_HI:
            raise ValueError(f"rate out of range: {v}")


def randomized_bias_rate(p_xx: float, p_zz: float) -> float:
    """Erasure rate after uniformly randomizing the failure bases."""
    _check_rates(p_xx, p_zz)
    return 0.5 * (p_xx + p_zz)


def bias_ratio(p_xx: float, p_zz: float) -> float:
    """min/max of the two erasure rates; both zero counts as unbiased (1)."""
    _check_rates(p_xx, p_zz)
    hi = max(p_xx, p_zz)
    return min(p_xx, p_zz) / hi if hi != 0.0 else 1.0


def invert_baseline_threshold(
    gamma: float = BASELINE_GAMMA,
    p_fail: float = BASELINE_P_FAIL,
    n_photons: int = BASELINE_PHOTONS,
) -> float:
    """Erasure threshold that makes gamma the baseline loss threshold.

    Inverts p_erase = 1 - (1 - p_fail/2) eta^n_photons at eta = 1 - gamma.
    """
    return 1.0 - (1.0 - p_fail / 2.0) * (1.0 - gamma) ** n_photons


def _interp_table(table: tuple[tuple[float, float], ...], x: float) -> float:
    """Piecewise-linear lookup with flat extrapolation."""
    if x <= table[0][0]:
        return table[0][1]
    if not x < table[-1][0]:  # nan too
        return table[-1][1]
    j = bisect_left(table, x, key=itemgetter(0))
    (x0, y0), (x1, y1) = table[j - 1], table[j]
    t = (x - x0) / (x1 - x0)
    return y0 * (1 - t) + y1 * t


class _BiasFields(NamedTuple):
    mode: BiasMode
    p_tilde_randomized: float
    p_tilde_biased: tuple[tuple[float, float], ...] = ()


class BiasConfig(_BiasFields):
    """Outer-code erasure thresholds for the two bias-handling models."""

    __slots__ = ()

    def __new__(cls, mode: BiasMode, p_tilde_randomized: float, p_tilde_biased: tuple[tuple[float, float], ...] = ()):
        if not 0.0 < p_tilde_randomized < 1.0:
            raise ConfigError("p_tilde_randomized must lie in (0, 1)")
        bs = [b for b, _ in p_tilde_biased]
        if bs != sorted(set(bs)):
            raise ConfigError("p_tilde_biased bias values must be sorted and unique")
        for b, p in p_tilde_biased:
            if not 0.0 <= b <= 1.0:
                raise ConfigError(f"bias ratio out of range: {b}")
            if not 0.0 < p < 1.0:
                raise ConfigError(f"threshold out of range: {p}")
        if mode is BiasMode.PASSIVE and not p_tilde_biased:
            raise ConfigError("passive mode needs a p_tilde_biased table")
        return tuple.__new__(cls, (mode, p_tilde_randomized, p_tilde_biased))

    def passive_threshold(self, bias: float) -> float:
        return _interp_table(self.p_tilde_biased, bias)


class _ErrorFields(NamedTuple):
    epsilon_m_map: tuple[tuple[float, float], ...]


class ErrorThresholdConfig(_ErrorFields):
    """Tolerable fusion measurement error vs logical erasure rate."""

    __slots__ = ()

    def __new__(cls, epsilon_m_map: tuple[tuple[float, float], ...]):
        xs = [p for p, _ in epsilon_m_map]
        if xs != sorted(set(xs)):
            raise ConfigError("epsilon_M erasure values must be sorted and unique")
        for p, e in epsilon_m_map:
            if not 0.0 <= p <= 1.0 or e < 0.0:
                raise ConfigError(f"bad epsilon_M row: ({p}, {e})")
        return tuple.__new__(cls, (epsilon_m_map,))

    def epsilon_m(self, p_erase: float) -> float:
        return _interp_table(self.epsilon_m_map, p_erase)


# The placeholder passive table's bonus at bias ratio 0 (strong bias) and
# its number of evenly spaced knots in the bias ratio
PASSIVE_LOW_BIAS_BONUS = 0.05
PASSIVE_KNOTS = 21


def default_passive_table(p_tilde: float) -> tuple[tuple[float, float], ...]:
    """Illustrative stand-in for an outer-code bias-threshold table.

    The real table belongs to the outer code and should be supplied via
    the config file.  This placeholder is anchored to the harmonic curve
    2 p_tilde / (1 + B), for which the worst-rate passive criterion is
    algebraically the same as the randomized average criterion, plus a
    small bonus at strong bias standing in for the layer-restriction
    advantage.  It keeps the documented qualitative behavior: passive
    thresholds slightly above randomized ones, with a common optimal
    code.
    """
    rows = []
    for i in range(PASSIVE_KNOTS):
        b = i / (PASSIVE_KNOTS - 1)
        rows.append((round(b, 6), 2.0 * p_tilde / (1.0 + b) * (1.0 + PASSIVE_LOW_BIAS_BONUS * (1.0 - b))))
    return tuple(rows)


# Example map from logical erasure rate to tolerable fusion error for the
# reference outer code, linear down to zero at the erasure threshold.
# The overall scale is calibrated so that the loss-optimal eight-qubit
# inner code reaches the reference error threshold of 0.47% at zero loss;
# quantitative error-region claims need the real outer-code table.
EXAMPLE_EPSILON_M_AT_ZERO = 0.014554153114464


def example_error_threshold_table(p_tilde: float | None = None) -> tuple[tuple[float, float], ...]:
    pt = invert_baseline_threshold() if p_tilde is None else p_tilde
    return ((0.0, EXAMPLE_EPSILON_M_AT_ZERO), (pt, 0.0))


def default_bias_config(mode: BiasMode = BiasMode.RANDOMIZED) -> BiasConfig:
    p_tilde = invert_baseline_threshold()
    return BiasConfig(
        mode=mode,
        p_tilde_randomized=p_tilde,
        p_tilde_biased=default_passive_table(p_tilde),
    )


def read_config(path) -> tuple[BiasConfig, BiasConfig | None, ErrorThresholdConfig | None, dict]:
    """Parse the JSON config: (randomized, passive, error) configs and the
    parsed JSON object, from one read of the file.  With no ``p_tilde_biased``
    the passive config reads the placeholder table, or is None where that is out of range."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if "p_tilde_randomized" not in raw:
        raise ConfigError("missing key: p_tilde_randomized")
    p_tilde = _number(raw["p_tilde_randomized"], "p_tilde_randomized")
    biased = _pairs(raw.get("p_tilde_biased"), "p_tilde_biased")
    randomized = BiasConfig(BiasMode.RANDOMIZED, p_tilde, biased)
    try:
        passive = BiasConfig(BiasMode.PASSIVE, p_tilde, biased or default_passive_table(p_tilde))
    except ConfigError:  # only the placeholder: a written table passed above
        passive = None
    eps_rows = _pairs(raw.get("epsilon_M"), "epsilon_M")
    err = ErrorThresholdConfig(eps_rows) if eps_rows else None
    return randomized, passive, err, raw


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


def _pairs(rows, what: str) -> tuple[tuple[float, float], ...]:
    if rows is None:  # a missing key or null
        return ()
    if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == 2 for r in rows):
        raise ConfigError(f"{what} must be a list of [x, y] number pairs")
    return tuple((_number(a, what), _number(b, what)) for a, b in rows)


def config_to_json_dict(bias: BiasConfig) -> dict:
    return {
        "p_tilde_randomized": bias.p_tilde_randomized,
        "p_tilde_biased": [list(row) for row in bias.p_tilde_biased],
        "provenance": (
            "p_tilde_randomized inverts the boosted-fusion baseline "
            f"1-(1-{BASELINE_P_FAIL}/2)*eta^{BASELINE_PHOTONS} at gamma={BASELINE_GAMMA}; "
            "p_tilde_biased is an illustrative placeholder for the outer code's "
            "bias-threshold table"
        ),
    }


# -- loss-threshold search ---------------------------------------------


class ThresholdResult:
    """Best failure basis and loss threshold of one code under one bias.

    ``coeffs`` is (cx, cz): w_star's eta^2 coefficients, n+1 floats each,
    for ``fusion.correctable_region``; it is in no output.
    """

    __slots__ = ("code_id", "w_star", "gamma_star", "bias_mode", "diagnostics", "coeffs")

    def __init__(
        self,
        code_id: str,
        w_star: tuple[int, ...],
        gamma_star: float,
        bias_mode: BiasMode,
        diagnostics: dict,
        coeffs: tuple | None = None,
    ):
        if not 0.0 <= gamma_star < 1.0:
            raise ValueError(f"gamma_star out of range: {gamma_star}")
        self.code_id, self.w_star, self.gamma_star = code_id, w_star, gamma_star
        self.bias_mode, self.diagnostics, self.coeffs = bias_mode, diagnostics, coeffs


def _rates(cx: list[float], cz: list[float], gamma: float) -> tuple[float, float]:
    """(p_xx, p_zz) of one failure basis at photon loss gamma: Horner in x = eta^2, top coefficient first."""
    eta = 1.0 - gamma
    x = eta * eta
    sx = sz = 0.0
    for a, b in zip(reversed(cx), reversed(cz)):
        sx = sx * x + a
        sz = sz * x + b
    return 1.0 - sx, 1.0 - sz


def _feasibility(bias: BiasConfig, cx: list[float], cz: list[float]):
    """feasible(gamma) of one failure basis, with the bias rule resolved once.

    The randomized rule bounds ``randomized_bias_rate``, the passive rule the
    worse rate by the table at ``bias_ratio``.  Both are written out here with
    the same float operations, so an evaluation calls ``_rates`` and, in
    passive mode, the table lookup, and nothing else.
    """
    randomized = bias.mode is BiasMode.RANDOMIZED
    p_tilde, threshold = bias.p_tilde_randomized, bias.passive_threshold

    def feasible(gamma: float) -> bool:
        p_xx, p_zz = _rates(cx, cz, gamma)
        if not (_RATE_LO <= p_xx <= _RATE_HI and _RATE_LO <= p_zz <= _RATE_HI):
            _check_rates(p_xx, p_zz)  # raises
        if randomized:
            return 0.5 * (p_xx + p_zz) <= p_tilde
        hi = max(p_xx, p_zz)
        return hi <= threshold(min(p_xx, p_zz) / hi if hi != 0.0 else 1.0)

    return feasible


def _bisect(feasible, top: float = 1.0, cut: float = -1.0) -> float | None:
    """Largest value in [0, top) with feasible(value), feasible at zero and assumed to cross once.

    The bracket halves until it is within ``BISECTION_TOL``.  None as soon as
    its top falls to ``cut`` or below, where the result can no longer exceed ``cut``.
    """
    lo, hi = 0.0, top
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        elif mid <= cut:
            return None
        else:
            hi = mid
    return lo


def loss_threshold(code: GraphCode, bias: BiasConfig, p_fail: float = 0.5) -> ThresholdResult:
    """Largest tolerable photon loss over all 2^n failure bases.

    Ties keep the lowest basis vector read as a binary integer (bit i is
    qubit i): a later one must be strictly better.  ``_bisect`` halves
    [0, 1) down to ``BISECTION_TOL``, so every value it returns or tests
    is a multiple of 2^-30, and comparing two of them exactly needs no
    float margin.  Every erasure rate is nondecreasing in loss, as
    recovery is up-closed in availability; this is proved, and certified
    exactly in the tests.

    The bases bisect one at a time, in order.  A basis stops as soon as
    its bracket's top falls to the best earlier basis's threshold, where
    the tie rule can no longer pick it; the others take every step of a
    full bisection, so the result is that of bisecting every basis to
    the end.
    """
    nx, nz, den = basis_numerators(code, p_fail)
    best, g_best, ok_best, seen = 0, 0.0, False, set()
    for w, key in enumerate(zip(nx, nz)):
        if key in seen:
            continue  # the same rows bisect the same way, and the earlier basis wins ties
        seen.add(key)
        feasible = _feasibility(bias, *([c / den for c in row] for row in key))
        if not feasible(0.0):
            continue  # gamma 0, which no later basis can lose to
        g = _bisect(feasible, cut=g_best if w else -1.0)
        if g is not None and (w == 0 or g > g_best):
            best, g_best, ok_best = w, g, True
    cx, cz = ([c / den for c in row] for row in (nx[best], nz[best]))
    p_xx, p_zz = _rates(cx, cz, g_best)
    diagnostics = {
        "p_erase_xx": p_xx,
        "p_erase_zz": p_zz,
        "averaged": randomized_bias_rate(p_xx, p_zz),
        "bias_ratio": bias_ratio(p_xx, p_zz),
        "feasible_at_zero_loss": ok_best,
    }
    w_star = tuple((best >> i) & 1 for i in range(code.n_code))
    return ThresholdResult(code.code_id, w_star, g_best, bias.mode, diagnostics, (cx, cz))


def search_best_code(n_code: int, bias: BiasConfig, p_fail: float = 0.5) -> list[ThresholdResult]:
    """Loss thresholds of every single-emitter inner code of this size.

    Results are sorted by decreasing threshold, ties broken by code id.
    """
    if n_code < 1 or n_code > PROGENITOR_CAP:
        raise ValueError(f"code size must be between 1 and {PROGENITOR_CAP}")
    records = enumerate_progenitor_records(n_code)
    results = [loss_threshold(code_from_progenitor(r.graph, code_id=r.sequence), bias, p_fail) for r in records]
    results.sort(key=lambda r: (-r.gamma_star, r.code_id))
    return results


def boosted_baseline(p_fail: float, n_ancilla_photons: int, p_tilde: float) -> ThresholdResult:
    """Loss threshold of bare boosted fusion, no code concatenation.

    Any lost photon, fused or ancillary, erases both parities, so the
    randomized-bias erasure rate is 1 - (1 - p_fail/2) eta^(2+n_ancilla).
    """
    check_failures(p_fail)
    if n_ancilla_photons < 0:
        raise ValueError("negative ancilla count")
    n_photons = 2 + n_ancilla_photons

    def feasible(gamma):
        return 1.0 - (1.0 - p_fail / 2.0) * (1.0 - gamma) ** n_photons <= p_tilde

    gamma = _bisect(feasible) if feasible(0.0) else 0.0
    return ThresholdResult(
        code_id=f"boosted-pfail-{p_fail}",
        w_star=(),
        gamma_star=gamma,
        bias_mode=BiasMode.RANDOMIZED,
        diagnostics={"n_photons": n_photons, "p_fail": p_fail},
    )


def boost_level_parameters(level: int) -> tuple[float, int]:
    """(p_fail, ancilla photons) for k nested boosting stages.

    Each stage halves the failure probability and doubles the photons
    consumed per fusion: level k uses 2^(k+1) photons in total.
    """
    if level < 1:
        raise ValueError("boost level starts at 1")
    return 2.0 ** -(level + 1), 2 ** (level + 1) - 2
