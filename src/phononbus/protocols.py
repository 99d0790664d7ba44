"""The three state-transfer protocols, parameter sweeps, and the
quality-factor hierarchy comparison.

All protocols start from the single microwave excitation |100> and score the
fidelity F_e = <001| rho |001> of arrival on the spin.

  1. resonant:      every mode on resonance for the whole horizon.
  2. virtual-phonon: phonon detuned by delta_p; the excitation exchanges
     between transmon and spin at roughly g_scp*g_pe/delta_p while the
     phonon stays nearly empty.
  3. double-rabi:   two timed swaps. First the spin idles at detuning
     delta_i while the transmon and phonon complete a swap (1/(4 g_scp)),
     then the transmon idles at delta_i while the phonon hands the
     excitation to the spin (1/(4 g_pe)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .device import SystemRates, kappa_from_q
from .dynamics import (
    DetuningSchedule,
    Evolution,
    Segment,
    SimOptions,
    Trajectory,
    evolve,
    segment_liouvillian,  # noqa: F401  the benchmark's tracing hook looks it up here
)
from .errors import TransducerError, TransducerWarning
from .qops import basis_ket

RESONANT = "resonant"
VIRTUAL_PHONON = "virtual-phonon"
DOUBLE_RABI = "double-rabi"

PEAK_REFINE_TOL = 1e-12  # s
PEAK_SLACK = 1e-4        # sampled maxima this close to the highest sample are refined
PEAK_TIE = 1e-9          # refined peaks this close to the highest count as equal

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ProtocolResult:
    """Peak spin fidelity, its time, the end-of-run fidelity, and the full trajectory."""

    f_e_max: float
    t_opt: float
    f_e_end: float
    trajectory: Trajectory


@dataclass(frozen=True)
class SweepPoint:
    """One protocol run at one grid value; a failed run has NaN figures and its error."""

    param: float
    f_e_max: float
    t_opt: float
    protocol: str
    f_e_end: float = float("nan")
    error: str | None = None


@dataclass(frozen=True)
class Crossover:
    q_estimate: float
    from_protocol: int
    to_protocol: int


@dataclass(frozen=True)
class HierarchyReport:
    """Per-Q fidelities of the three protocols and the resulting ranking.

    fidelities has shape (3, len(q_grid)), row k for protocol k+1, NaN where
    a run failed. best_protocol holds 1-based indices; ties break toward the
    lower index, and 0 marks a Q where every run failed. points holds the
    grid points Q by Q, protocols 1-3 in turn, each with its error if any.
    """

    q_grid: np.ndarray
    fidelities: np.ndarray
    t_opts: np.ndarray
    best_protocol: np.ndarray
    crossovers: tuple[Crossover, ...]
    points: tuple[SweepPoint, ...]


def _golden_section(f_at, fe: np.ndarray, ts: np.ndarray, k: int) -> tuple[float, float]:
    """Golden-section refinement of the sampled F_e maximum at k to PEAK_REFINE_TOL.

    f_at(t) evaluates F_e at any time t.
    """
    if k == 0 or k == fe.size - 1:
        return float(fe[k]), float(ts[k])
    a, b = float(ts[k - 1]), float(ts[k + 1])
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f_at(x1), f_at(x2)
    while b - a > PEAK_REFINE_TOL:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f_at(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f_at(x2)
    candidates = [(f1, x1), (f2, x2), (float(fe[k]), float(ts[k]))]
    return max(candidates, key=lambda p: p[0])


def _refine_peak(evolution: Evolution, trajectory: Trajectory) -> tuple[float, float]:
    """The earliest F_e peak within PEAK_TIE of the highest, after refinement.

    Every sampled local maximum within PEAK_SLACK of the sampled maximum is
    refined: a lossy run's F_e ripples, so the highest sample need not sit
    at the highest peak. Lossless runs repeat analytically equal peaks; the
    protocol's figure of merit is the first.
    """
    fe, ts = trajectory.f_e, trajectory.times
    rises = np.r_[True, fe[1:] > fe[:-1]]
    falls = np.r_[fe[:-1] >= fe[1:], True]
    maxima = np.flatnonzero(rises & falls & (fe >= fe.max() - PEAK_SLACK))
    f_at = partial(evolution.population, (0, 0, 1))
    peaks = [_golden_section(f_at, fe, ts, k) for k in maxima]
    best = max(f for f, _ in peaks)
    return next(p for p in peaks if p[0] >= best - PEAK_TIE)


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _run_schedule(rates: SystemRates, schedule: DetuningSchedule, options: SimOptions) -> ProtocolResult:
    rho0 = basis_ket((1, 0, 0), options.layout)
    trajectory = evolve(rates, schedule, rho0, options)
    f_max, t_opt = _refine_peak(Evolution(rates, schedule, rho0, options), trajectory)
    return ProtocolResult(
        f_e_max=f_max,
        t_opt=t_opt,
        f_e_end=float(trajectory.f_e[-1]),
        trajectory=trajectory,
    )


def run_resonant(rates: SystemRates, options: SimOptions, horizon: float | None = None) -> ProtocolResult:
    """Uncontrolled on-resonance evolution; peak F_e within the horizon.

    The default horizon is 1.5/min(g_scp, g_pe).
    """
    g_min = min(rates.g_scp, rates.g_pe)
    if g_min <= 0:
        raise ValueError("resonant protocol needs both couplings positive")
    if horizon is not None:
        _check_finite("horizon", horizon)
        if horizon <= 0:
            raise ValueError("horizon must be positive")
    h = horizon if horizon is not None else 1.5 / g_min
    return _run_schedule(rates, DetuningSchedule.constant(h), options)


def run_virtual(
    rates: SystemRates,
    delta_p: float,
    options: SimOptions,
    horizon: float | None = None,
) -> ProtocolResult:
    """Transfer through virtual phonon occupation at phonon detuning delta_p.

    The default horizon 3|delta_p|/(4 g_scp g_pe) is three swap times, or
    1.5 population periods, of the effective exchange g_scp*g_pe/delta_p; if
    the peak lands within 5% of the horizon edge the horizon doubles and the
    run repeats (at most 3 retries).
    """
    _check_finite("delta_p", delta_p)
    if horizon is not None:
        _check_finite("horizon", horizon)
    if delta_p == 0.0:
        raise ValueError("virtual-phonon protocol needs a nonzero delta_p")
    if horizon is not None and horizon <= 0:
        raise ValueError("horizon must be positive")
    g_max = max(rates.g_scp, rates.g_pe)
    if min(rates.g_scp, rates.g_pe) <= 0:
        raise ValueError("virtual-phonon protocol needs both couplings positive")
    if abs(delta_p) < 5.0 * g_max:
        warnings.warn(
            f"phonon detuning {delta_p:.3g} Hz is below 5x the largest coupling "
            f"{g_max:.3g} Hz; the dispersive picture is marginal",
            TransducerWarning,
            stacklevel=2,
        )
    h = horizon if horizon is not None else 3.0 * abs(delta_p) / (4.0 * rates.g_scp * rates.g_pe)
    result = None
    for _ in range(4):
        result = _run_schedule(rates, DetuningSchedule.constant(h, delta_p=delta_p), options)
        if horizon is not None or result.t_opt < 0.95 * h:
            return result
        h *= 2.0
    return result


def run_double_rabi(rates: SystemRates, delta_i: float, options: SimOptions) -> ProtocolResult:
    """Two sequential swaps with the idle mode parked at detuning delta_i.

    Segment 1: delta_sc = 0, delta_e = delta_i for one transmon-phonon swap,
    1/(4 g_scp). Segment 2: delta_sc = delta_i, delta_e = 0 for one
    phonon-spin swap, 1/(4 g_pe). F_e is reported at the protocol end and at
    the peak.
    """
    if delta_i < 0:
        raise ValueError("delta_i must be nonnegative")
    if min(rates.g_scp, rates.g_pe) <= 0:
        raise ValueError("double-rabi protocol needs both couplings positive")
    _check_finite("delta_i", delta_i)
    t1 = 1.0 / (4.0 * rates.g_scp)
    t2 = 1.0 / (4.0 * rates.g_pe)
    schedule = DetuningSchedule(
        (
            Segment(0.0, t1, delta_sc=0.0, delta_e=delta_i),
            Segment(t1, t1 + t2, delta_sc=delta_i, delta_e=0.0),
        )
    )
    return _run_schedule(rates, schedule, options)


def _grid_point(
    protocol: str,
    param: float,
    rates: SystemRates,
    changes: dict,
    control: float | None,
    options: SimOptions,
) -> SweepPoint:
    """Run ``protocol`` (with its delta_p or delta_i ``control``) on ``rates`` updated by ``changes``.

    A TransducerError or ValueError is recorded on the point, with NaN figures, not raised.
    """
    try:
        point_rates = replace(rates, **changes)
        if protocol == RESONANT:
            res = run_resonant(point_rates, options)
        elif protocol == VIRTUAL_PHONON:
            res = run_virtual(point_rates, control, options)
        elif protocol == DOUBLE_RABI:
            res = run_double_rabi(point_rates, control, options)
        else:
            raise ValueError(f"unknown sweep kind '{protocol}'")
    except (TransducerError, ValueError) as exc:
        return SweepPoint(param, math.nan, math.nan, protocol, error=str(exc))
    return SweepPoint(param, res.f_e_max, res.t_opt, protocol, res.f_e_end)


def sweep(kind: str, values: Sequence[float], rates: SystemRates, options: SimOptions) -> list[SweepPoint]:
    """Run one protocol family over a parameter grid, in grid order.

    delta-g sweeps the coupling mismatch g_scp = g_pe + delta_g of the
    resonant protocol; delta-p the virtual-phonon detuning; delta-i the
    double-rabi idle detuning. A failing point, or every point of an unknown
    kind, is recorded with NaN figures and its error, not raised; it names
    the protocol it ran (or the unknown kind).
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("sweep grid is empty")
    protocol = {"delta-g": RESONANT, "delta-p": VIRTUAL_PHONON, "delta-i": DOUBLE_RABI}.get(kind, kind)
    changes = [{"g_scp": rates.g_pe + v} if kind == "delta-g" else {} for v in values]
    return [_grid_point(protocol, v, rates, c, v, options) for v, c in zip(values, changes)]


def protocol_hierarchy(
    rates_base: SystemRates,
    q_grid: Sequence[float],
    options: SimOptions,
    delta_p: float = 30e6,
    delta_i: float = 1e9,
) -> HierarchyReport:
    """Compare the three protocols across mechanical quality factors.

    Per Q the phonon decay is f_p/Q. Protocols 1 and 2 run with the
    couplings matched at min(g_scp, g_pe), the dial-down available by
    weakening the stronger interface; protocol 3 uses the full couplings.
    Every run uses ``options``, its spin decay model included.
    Each (Q, protocol) run is one grid point, failing as a sweep point does:
    its fidelity and time read NaN, it never ranks best (best_protocol is 0
    at a Q where all three fail) and it enters no crossover. Crossover Qs are
    estimated by log-linear interpolation of the fidelity curves between
    adjacent grid points where the ranking changes.
    """
    q_grid = np.asarray([float(q) for q in q_grid])
    if q_grid.size == 0:
        raise ValueError("hierarchy grid is empty")
    if not np.all(q_grid > 0):
        raise ValueError("quality factors must be positive")

    g = min(rates_base.g_scp, rates_base.g_pe)
    points = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransducerWarning)
        for q in q_grid.tolist():
            kappa_p = kappa_from_q(rates_base.f_p, q)
            matched = {"kappa_p": kappa_p, "g_scp": g, "g_pe": g}
            points += [
                _grid_point(RESONANT, q, rates_base, matched, None, options),
                _grid_point(VIRTUAL_PHONON, q, rates_base, matched, delta_p, options),
                _grid_point(DOUBLE_RABI, q, rates_base, {"kappa_p": kappa_p}, delta_i, options),
            ]

    fidelities = np.array([p.f_e_max for p in points]).reshape(-1, 3).T   # (3, nq)
    t_opts = np.array([p.t_opt for p in points]).reshape(-1, 3).T
    failed = np.isnan(fidelities)
    # argmax takes the lowest index on ties; a failed run never ranks
    best = np.argmax(np.where(failed, -np.inf, fidelities), axis=0) + 1
    best[failed.all(axis=0)] = 0

    crossovers = []
    for i in range(q_grid.size - 1):
        a, b = int(best[i]), int(best[i + 1])
        if a == b or 0 in (a, b) or failed[b - 1, i] or failed[a - 1, i + 1]:
            continue
        fa = fidelities[a - 1]
        fb = fidelities[b - 1]
        gap0 = fa[i] - fb[i]
        gap1 = fa[i + 1] - fb[i + 1]
        t = 0.5 if gap0 == gap1 else gap0 / (gap0 - gap1)
        t = min(max(t, 0.0), 1.0)
        logq = math.log10(q_grid[i]) + t * (math.log10(q_grid[i + 1]) - math.log10(q_grid[i]))
        crossovers.append(Crossover(10.0**logq, a, b))

    return HierarchyReport(q_grid, fidelities, t_opts, best, tuple(crossovers), tuple(points))
