import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from phononbus import protocols
from phononbus.device import SystemRates, kappa_from_q
from phononbus.dynamics import SimOptions
from phononbus.errors import IntegrationError, TransducerWarning
from phononbus.protocols import (
    HierarchyReport,
    ProtocolSpec,
    protocol_hierarchy,
    run_double_rabi,
    run_resonant,
    run_virtual,
    sweep,
)

PAPER_KAPPAS = dict(kappa_sc=1e5, kappa_p=43.1e3, kappa_e=1e6)


def rates(g_scp=3e6, g_pe=3e6, lossless=True):
    kappas = dict(kappa_sc=0.0, kappa_p=0.0, kappa_e=0.0) if lossless else PAPER_KAPPAS
    return SystemRates(4.31e9, 4.31e9, 4.31e9, g_scp=g_scp, g_pe=g_pe, **kappas)


OPTS = SimOptions()


def test_resonant_lossless_full_transfer():
    res = run_resonant(rates(), OPTS)
    assert res.f_e_max >= 0.9999
    assert abs(res.t_opt - 1.0 / (2 * np.sqrt(2) * 3e6)) <= 0.5e-9


def test_resonant_mismatch_hurts_fidelity():
    matched = run_resonant(rates(lossless=False), OPTS)
    mismatched = run_resonant(rates(g_scp=10e6, lossless=False), OPTS)
    assert mismatched.f_e_max < matched.f_e_max


def test_resonant_result_echo_and_consistency():
    res = run_resonant(rates(), OPTS)
    assert res.spec_echo.kind == "resonant"
    # the refined peak sits on or just above the sampled fidelity column
    col_max = res.trajectory.f_e.max()
    assert col_max - 1e-12 <= res.f_e_max <= col_max + 1e-4
    assert res.trajectory.times[-1] >= res.t_opt


def test_virtual_lossless_peak_and_phonon_bound():
    g, delta_p = 3e6, 30e6
    res = run_virtual(rates(), delta_p, OPTS)
    assert res.f_e_max >= 0.999
    assert res.trajectory.p_p.max() < 4 * (g / delta_p) ** 2


def test_virtual_detuning_sign_symmetry():
    plus = run_virtual(rates(), 30e6, OPTS)
    minus = run_virtual(rates(), -30e6, OPTS)
    assert plus.f_e_max == pytest.approx(minus.f_e_max, abs=1e-9)


def test_virtual_dispersive_warning():
    with pytest.warns(TransducerWarning):
        run_virtual(rates(), 10e6, OPTS)  # below 5x coupling


def test_virtual_rejects_zero_detuning():
    with pytest.raises(ValueError):
        run_virtual(rates(), 0.0, OPTS)
    with pytest.raises(ValueError):
        ProtocolSpec("virtual-phonon", rates(), delta_p=0.0)


def test_double_rabi_lossless_completes():
    res = run_double_rabi(rates(g_scp=10e6), 1e9, OPTS)
    assert res.f_e_end >= 0.999
    t_total = 1 / (4 * 10e6) + 1 / (4 * 3e6)
    assert res.trajectory.times[-1] == pytest.approx(t_total, rel=1e-12)


def test_double_rabi_first_swap_fills_phonon():
    res = run_double_rabi(rates(g_scp=10e6), 1e9, OPTS)
    t1 = 1 / (4 * 10e6)
    k = int(np.argmin(np.abs(res.trajectory.times - t1)))
    assert res.trajectory.p_p[k] > 0.999


def test_double_rabi_zero_detuning_degrades_to_resonant():
    g1, g2 = 10e6, 3e6
    dr = run_double_rabi(rates(g_scp=g1), 0.0, OPTS)
    t_total = 1 / (4 * g1) + 1 / (4 * g2)
    res = run_resonant(rates(g_scp=g1), OPTS, horizon=t_total)
    assert dr.f_e_end == pytest.approx(res.trajectory.f_e[-1], abs=1e-9)


def test_double_rabi_rejects_negative_detuning():
    with pytest.raises(ValueError):
        run_double_rabi(rates(), -1e6, OPTS)


def test_sweep_singleton_matches_single_run():
    pts = sweep("delta-i", [1e9], rates(g_scp=10e6, lossless=False), OPTS)
    single = run_double_rabi(rates(g_scp=10e6, lossless=False), 1e9, OPTS)
    assert len(pts) == 1
    assert pts[0].f_e_max == single.f_e_max
    assert pts[0].t_opt == single.t_opt
    assert pts[0].protocol == "double-rabi"


def test_sweep_delta_i_monotone_nondecreasing():
    values = [0.1e9, 0.5e9, 1.0e9]
    pts = sweep("delta-i", values, rates(g_scp=10e6, lossless=False), OPTS)
    fes = [p.f_e_end for p in pts]
    assert fes[0] <= fes[1] <= fes[2]


def test_sweep_delta_p_even_in_sign_lossless():
    pts = sweep("delta-p", [-30e6, 30e6], rates(), OPTS)
    assert pts[0].f_e_max == pytest.approx(pts[1].f_e_max, abs=1e-9)


def test_sweep_delta_g_adjusts_coupling():
    pts = sweep("delta-g", [0.0, 7e6], rates(lossless=False), OPTS)
    matched = run_resonant(rates(lossless=False), OPTS)
    assert pts[0].f_e_max == matched.f_e_max
    assert pts[1].f_e_max < pts[0].f_e_max


def test_sweep_records_per_point_failures():
    pts = sweep("delta-p", [0.0, 30e6], rates(), OPTS)
    assert pts[0].error is not None and np.isnan(pts[0].f_e_max)
    assert pts[1].error is None and pts[1].f_e_max > 0.99
    # a failed point names the protocol it ran, not the sweep kind
    assert [p.protocol for p in pts] == ["virtual-phonon"] * 2
    bad_g = sweep("delta-g", [-1e9], rates(), OPTS)[0]
    assert bad_g.protocol == "resonant" and "g_scp" in bad_g.error


def test_grid_runs_use_the_runners_looked_up_at_call_time(monkeypatch):
    calls = []
    real = protocols.run_virtual

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(protocols, "run_virtual", counting)
    sweep("delta-p", [30e6, 40e6], rates(), OPTS)
    protocol_hierarchy(rates(g_scp=10e6, lossless=False), [1e4, 1e5], OPTS, delta_p=25e6)
    assert calls == [30e6, 40e6, 25e6, 25e6]


def _fake_hierarchy(monkeypatch, grid, curves):
    """Runners that return curves[kind][index of Q] as f_e_max; None raises IntegrationError."""

    def runner(kind):
        def run(rates_q, *args, **kwargs):
            f = curves[kind][[kappa_from_q(rates_q.f_p, q) for q in grid].index(rates_q.kappa_p)]
            if f is None:
                raise IntegrationError(f"{kind} failed")
            return SimpleNamespace(f_e_max=f, t_opt=1e-7, f_e_end=f)
        return run

    for name, kind in (("run_resonant", "resonant"), ("run_virtual", "virtual-phonon"),
                       ("run_double_rabi", "double-rabi")):
        monkeypatch.setattr(protocols, name, runner(kind))


def test_hierarchy_failed_runs_never_rank_and_enter_no_crossover(monkeypatch):
    grid = [1e3, 1e4, 1e5, 1e6]
    _fake_hierarchy(monkeypatch, grid, {
        "resonant": [0.5, None, None, 0.1],
        "virtual-phonon": [0.1, 0.1, None, 0.2],
        "double-rabi": [0.2, 0.3, None, 0.6],
    })
    rep = protocol_hierarchy(rates(lossless=False), grid, OPTS)
    assert [(p.param, p.protocol) for p in rep.points if p.error] == [
        (1e4, "resonant"), (1e5, "resonant"), (1e5, "virtual-phonon"), (1e5, "double-rabi")
    ]
    assert np.isnan(rep.fidelities[0, 1]) and np.isnan(rep.t_opts[0, 1])
    assert rep.best_protocol.tolist() == [1, 3, 0, 3]
    # 1 -> 3 between 1e3 and 1e4 would interpolate through the failed resonant run
    assert rep.crossovers == ()


def test_hierarchy_crossover_next_to_a_failed_run(monkeypatch):
    grid = [1e3, 1e4, 1e6]
    _fake_hierarchy(monkeypatch, grid, {
        "resonant": [0.5, 0.4, None],
        "virtual-phonon": [0.1, 0.1, 0.1],
        "double-rabi": [0.2, 0.45, 0.6],
    })
    rep = protocol_hierarchy(rates(lossless=False), grid, OPTS)
    assert rep.best_protocol.tolist() == [1, 3, 3]
    (c,) = rep.crossovers
    assert (c.from_protocol, c.to_protocol) == (1, 3)
    assert c.q_estimate == pytest.approx(10 ** (3 + 0.3 / 0.35), rel=1e-12)


def test_sweep_rejects_empty_grid_and_bad_kind():
    with pytest.raises(ValueError):
        sweep("delta-i", [], rates(), OPTS)
    pts = sweep("no-such-kind", [1.0], rates(), OPTS)
    assert pts[0].error is not None


def test_hierarchy_best_is_argmax_and_structure():
    q_grid = [1e4, 1e6]
    rep = protocol_hierarchy(rates(g_scp=10e6, lossless=False), q_grid, OPTS)
    assert isinstance(rep, HierarchyReport)
    assert rep.fidelities.shape == (3, 2)
    for i in range(len(q_grid)):
        assert rep.best_protocol[i] == int(np.argmax(rep.fidelities[:, i])) + 1
    assert np.all((rep.fidelities >= 0) & (rep.fidelities <= 1 + 1e-9))


def test_hierarchy_honours_spin_decay_model():
    base = rates(g_scp=10e6, lossless=False)
    q_grid = [1e4, 1e5]
    delta_p, delta_i = 30e6, 1e9
    rep = protocol_hierarchy(
        base, q_grid, OPTS, delta_p=delta_p, delta_i=delta_i, spin_decay_model="dephasing"
    )
    for i, q in enumerate(q_grid):
        rates_q = replace(base, kappa_p=kappa_from_q(base.f_p, q))
        matched = replace(rates_q, g_scp=rates_q.g_pe)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TransducerWarning)
            runs = (
                run_resonant(matched, OPTS, spin_decay_model="dephasing"),
                run_virtual(matched, delta_p, OPTS, spin_decay_model="dephasing"),
                run_double_rabi(rates_q, delta_i, OPTS, spin_decay_model="dephasing"),
            )
        for k, res in enumerate(runs):
            assert abs(rep.fidelities[k, i] - res.f_e_max) <= 1e-12
            assert abs(rep.t_opts[k, i] - res.t_opt) <= 1e-12 * res.t_opt

    energy = protocol_hierarchy(base, q_grid, OPTS, delta_p=delta_p, delta_i=delta_i)
    assert np.all(np.abs(rep.fidelities - energy.fidelities) > 1e-3)


def test_hierarchy_rejects_bad_grid():
    with pytest.raises(ValueError):
        protocol_hierarchy(rates(), [], OPTS)
    with pytest.raises(ValueError):
        protocol_hierarchy(rates(), [1e3, -1.0], OPTS)
    with pytest.raises(ValueError, match="quality factors must be positive"):
        protocol_hierarchy(rates(), [1e4, float("nan")], OPTS)


def test_nan_rate_and_quality_factor_are_rejected():
    with pytest.raises(ValueError, match="kappa_p must be nonnegative"):
        replace(rates(), kappa_p=float("nan"))
    with pytest.raises(ValueError, match="f_p must be positive"):
        replace(rates(), f_p=float("nan"))
    with pytest.raises(ValueError):
        kappa_from_q(4.31e9, float("nan"))


def test_virtual_horizon_retry_extends_until_peak_interior():
    # a deliberately short effective coupling: default horizon heuristic
    # still brackets the first swap after retries
    res = run_virtual(rates(), 45e6, OPTS)
    assert res.t_opt < 0.95 * res.trajectory.times[-1]
