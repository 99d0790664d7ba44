"""Open-system evolution of the transducer under piecewise-constant detunings.

The master equation is integrated in the frame rotating at the phonon
frequency. Configured rates are ordinary frequencies (Hz); the angular 2pi
factors enter here and only here:

  - Hamiltonian: H = 2pi [ (d_sc/2) sz_sc + (d_e/2) sz_e + d_p a+a
                           + g_scp (s+_sc a + h.c.) + g_pe (s+_e a + h.c.) ]
  - Dissipators: standard form D[c] rho = c rho c+ - (1/2){c+c, rho} with
    angular rate 2pi*kappa on jumps (s-_sc, a, s-_e), so a lone excitation
    decays as exp(-2pi kappa t).

A run is fixed by its :class:`~phononbus.device.SystemRates`, its
:class:`DetuningSchedule` and one :class:`SimOptions`, which sets the
integrator, the phonon truncation n_ph and the spin dissipator
("energy" above, or "dephasing": sz_e at pi*kappa_e in place of s-_e).

The Hamiltonian conserves the total excitation number and every jump lowers
it (s-_sc, a, s-_e) or keeps it (sz_e), so a state never leaves the block of
basis states that hold no more excitations than the most excited state it
starts with. One kernel, :class:`Evolution`, works on that block for
``evolve`` and the protocols' peak refinement. By default it treats each
constant segment exactly, from one eigendecomposition of the block
Liouvillian (expm where that is ill-conditioned); an adaptive
Runge-Kutta stepper on the same block serves as the cross-check and would
extend to smooth schedules. A single excitation never reaches the second
phonon level, so the truncation n_ph bounds the phonon ladder only for states
with more than one excitation.

The default route needs numpy only. scipy is imported on first use, and only
by the adaptive stepper (``scipy.integrate.solve_ivp``) and by the expm
fallback near exceptional points (``scipy.linalg.expm``), so importing the
package does not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .device import SystemRates
from .errors import IntegrationError, NumericalIntegrityError
from .qops import SpaceLayout, annihilator, embed, hermiticity_defect, sigma_z

TWO_PI = 2.0 * math.pi

TRAJECTORY_CSV_HEADER = "t_s,P_sc,P_p,P_e,F_sc,F_p,F_e,trace_err"

# Sample times evaluated per batch: bounds the work array at (d_block**2, SAMPLE_CHUNK).
SAMPLE_CHUNK = 100

# The most sample_dt steps one run may sample; the default sample_dt takes 2000.
MAX_SAMPLE_STEPS = 1_000_000

# Spin dissipators; see SimOptions.
SPIN_DECAY_MODELS = ("energy", "dephasing")


@dataclass(frozen=True)
class Segment:
    """One constant-detuning interval. Times in s, detunings in Hz."""

    t_start: float
    t_end: float
    delta_sc: float = 0.0
    delta_e: float = 0.0
    delta_p: float = 0.0

    def __post_init__(self):
        if self.t_end < self.t_start:
            raise ValueError(f"segment ends ({self.t_end}) before it starts ({self.t_start})")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class DetuningSchedule:
    """Contiguous, non-overlapping segments starting at t = 0."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("schedule needs at least one segment")
        if segs[0].t_start != 0.0:
            raise ValueError("first segment must start at t = 0")
        for a, b in zip(segs, segs[1:]):
            if not math.isclose(a.t_end, b.t_start, rel_tol=1e-12, abs_tol=1e-18):
                raise ValueError(
                    f"segments are not contiguous: {a.t_end} then {b.t_start}"
                )
        for s in segs:
            if s.duration <= 0.0:
                raise ValueError("segments must have positive duration")
        object.__setattr__(self, "segments", segs)

    @classmethod
    def constant(
        cls, duration: float, delta_sc: float = 0.0, delta_e: float = 0.0, delta_p: float = 0.0
    ) -> "DetuningSchedule":
        return cls((Segment(0.0, duration, delta_sc, delta_e, delta_p),))

    @property
    def duration(self) -> float:
        return self.segments[-1].t_end


@dataclass(frozen=True)
class SimOptions:
    """Integrator options, the phonon truncation and the spin dissipator of a run.

    method: "piecewise-exponential" (exact per constant segment) or
    "adaptive-stepper". rel_tol controls the stepper and the documented
    agreement between the two routes. n_ph is the phonon truncation (exact
    for a single excitation from n_ph = 2 on); it fixes the layout
    (2, n_ph, 2). sample_dt defaults to duration/2000 when omitted.

    spin_decay_model "energy" uses the jump s-_e at angular rate
    2pi*kappa_e. The "dephasing" variant replaces it with sz_e at angular
    rate pi*kappa_e, so the spin coherence decays at 2pi*kappa_e while its
    population persists; populations then only leak through the other
    channels. Intended for sensitivity analysis.
    """

    method: str = "piecewise-exponential"
    rel_tol: float = 1e-8
    n_ph: int = 3
    sample_dt: float | None = None
    spin_decay_model: str = "energy"

    def __post_init__(self):
        if self.method not in ("piecewise-exponential", "adaptive-stepper"):
            raise ValueError(f"unknown integration method '{self.method}'")
        if not 0.0 < self.rel_tol <= 1e-4:
            raise ValueError("rel_tol must lie in (0, 1e-4]")
        if not 2 <= self.n_ph <= 8:
            raise ValueError("phonon truncation n_ph must lie in [2, 8]")
        if self.sample_dt is not None and self.sample_dt <= 0:
            raise ValueError("sample_dt must be positive")
        if self.spin_decay_model not in SPIN_DECAY_MODELS:
            raise ValueError(f"unknown spin decay model '{self.spin_decay_model}'")

    @property
    def layout(self) -> SpaceLayout:
        return SpaceLayout.tripartite(self.n_ph)


@dataclass(frozen=True)
class Trajectory:
    """Sampled populations and fidelities of one evolution.

    p_sc, p_p and p_e are the mean excitation numbers of the three modes;
    f_sc, f_p and f_e the populations of |100>, |010> and |001>.
    """

    times: np.ndarray
    p_sc: np.ndarray
    p_p: np.ndarray
    p_e: np.ndarray
    f_sc: np.ndarray
    f_p: np.ndarray
    f_e: np.ndarray
    trace_errs: np.ndarray
    min_eigenvalues: np.ndarray

    def __post_init__(self):
        for name in ("times", "p_sc", "p_p", "p_e", "f_sc", "f_p", "f_e", "trace_errs", "min_eigenvalues"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def trace_error(self) -> float:
        """max_t |tr rho(t) - 1| over the sampled times."""
        return float(self.trace_errs.max())

    @property
    def min_eigenvalue(self) -> float:
        """Most negative state eigenvalue observed at the sampled times."""
        return float(self.min_eigenvalues.min())

    def to_csv(self, path) -> None:
        columns = (
            self.times, self.p_sc, self.p_p, self.p_e,
            self.f_sc, self.f_p, self.f_e, self.trace_errs,
        )
        write_csv(path, TRAJECTORY_CSV_HEADER, np.column_stack(columns).tolist())


def write_csv(path, header: str, rows) -> None:
    """Write ``header`` and one line per row: floats as %.16e, the rest as str().

    Seventeen significant digits round-trip a double, so equal values give equal bytes.
    """
    templates: dict[tuple, str] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            kinds = tuple(map(type, row))
            if kinds not in templates:
                templates[kinds] = ",".join("%.16e" if issubclass(k, float) else "%s" for k in kinds) + "\n"
            fh.write(templates[kinds] % tuple(row))


def tripartite_operators(layout: SpaceLayout) -> dict[str, np.ndarray]:
    """Embedded mode operators on the composite space."""
    n_ph = layout.dims[1]
    sm = annihilator(2)
    a = annihilator(n_ph)
    ops = {
        "sm_sc": embed(sm, 0, layout),
        "a": embed(a, 1, layout),
        "sm_e": embed(sm, 2, layout),
        "sz_sc": embed(sigma_z(2), 0, layout),
        "sz_e": embed(sigma_z(2), 2, layout),
    }
    ops["n_p"] = ops["a"].conj().T @ ops["a"]
    return ops


def build_rotating_hamiltonian(
    rates: SystemRates, deltas: tuple[float, float, float], layout: SpaceLayout
) -> np.ndarray:
    """Rotating-frame Hamiltonian for detunings (delta_sc, delta_e, delta_p), angular units."""
    d_sc, d_e, d_p = deltas
    ops = tripartite_operators(layout)
    return TWO_PI * (
        0.5 * d_sc * ops["sz_sc"]
        + 0.5 * d_e * ops["sz_e"]
        + d_p * ops["n_p"]
        + rates.g_scp * (ops["sm_sc"].conj().T @ ops["a"] + ops["a"].conj().T @ ops["sm_sc"])
        + rates.g_pe * (ops["sm_e"].conj().T @ ops["a"] + ops["a"].conj().T @ ops["sm_e"])
    )


def jump_operators(rates: SystemRates, options: SimOptions) -> list[tuple[float, np.ndarray]]:
    """(angular rate, operator) pairs of the dissipators on ``options.layout``."""
    ops = tripartite_operators(options.layout)
    jumps = []
    if rates.kappa_sc > 0:
        jumps.append((TWO_PI * rates.kappa_sc, ops["sm_sc"]))
    if rates.kappa_p > 0:
        jumps.append((TWO_PI * rates.kappa_p, ops["a"]))
    if rates.kappa_e > 0:
        if options.spin_decay_model == "energy":
            jumps.append((TWO_PI * rates.kappa_e, ops["sm_e"]))
        else:
            jumps.append((math.pi * rates.kappa_e, ops["sz_e"]))
    return jumps


def liouvillian(h_matrix: np.ndarray, jumps: Iterable[tuple[float, np.ndarray]]) -> np.ndarray:
    """Superoperator generator in column-stacking convention: d vec(rho)/dt = L vec(rho)."""
    d = h_matrix.shape[0]
    eye = np.eye(d, dtype=complex)
    l_super = -1j * (np.kron(eye, h_matrix) - np.kron(h_matrix.T, eye))
    for rate, c in jumps:
        cdc = c.conj().T @ c
        l_super += rate * (
            np.kron(c.conj(), c)
            - 0.5 * np.kron(eye, cdc)
            - 0.5 * np.kron(cdc.T, eye)
        )
    return l_super


def segment_liouvillian(
    rates: SystemRates, segment: Segment, options: SimOptions, block: np.ndarray | None = None
) -> np.ndarray:
    """Generator of one segment on the basis states ``block`` (default: all of them).

    A block of every state up to some excitation number is exact: no jump
    leads out of it, and the dynamics never leave it.
    """
    h = build_rotating_hamiltonian(
        rates, (segment.delta_sc, segment.delta_e, segment.delta_p), options.layout
    )
    jumps = jump_operators(rates, options)
    if block is not None:
        ix = np.ix_(block, block)
        h = h[ix]
        jumps = [(rate, c[ix]) for rate, c in jumps]
    return liouvillian(h, jumps)


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def _densities(states: np.ndarray) -> np.ndarray:
    """Symmetrized density matrices, shape (m, d, d), from column-stacked states (d*d, m)."""
    d = math.isqrt(states.shape[0])
    rhos = states.T.reshape(-1, d, d).transpose(0, 2, 1)
    return 0.5 * (rhos + rhos.conj().transpose(0, 2, 1))


def _spectral_form(l_super: np.ndarray):
    """(w, V, V^-1) with L = V diag(w) V^-1, or None when L is defective or ill-conditioned.

    States from the spectral form carry errors of about cond(V) * 1e-16, so cond(V) must
    stay below 1e5 to hold 1e-10. Nearly degenerate eigenvalues, as in a weakly damped
    two-excitation block, reach cond(V) ~ 1e7 without being defective.
    """
    try:
        w, v = np.linalg.eig(l_super)
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    recon_err = np.abs((v * w) @ vinv - l_super).max()
    scale = max(np.abs(l_super).max(), 1.0)
    if recon_err <= 1e-9 * scale and np.linalg.cond(v) < 1e5:
        return w, v, vinv
    return None


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential, from scipy, which is imported on the first call."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def _adaptive_segment(
    l_super: np.ndarray, v0: np.ndarray, eval_ts: np.ndarray, rel_tol: float
) -> np.ndarray:
    """Integrate dv/dt = L v over [0, eval_ts[-1]], returning v at every eval time.

    The solver is driven two decades below rel_tol so that accumulated global
    error, including the positivity drift of the integrated state, stays
    safely inside the rel_tol agreement documented against the exact route.
    """
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda _t, y: l_super @ y,
        (0.0, float(eval_ts[-1])),
        v0,
        method="DOP853",
        t_eval=eval_ts,
        rtol=max(rel_tol * 1e-2, 1e-13),
        atol=rel_tol * 1e-8,
    )
    if not sol.success:
        raise IntegrationError(f"adaptive stepper failed: {sol.message}")
    return sol.y


class Evolution:
    """rho(t) of one run, on the excitation block that rho0 occupies.

    The Hamiltonian conserves the total excitation number and every jump
    lowers or keeps it, so rho(t) stays on the block of basis states that
    hold no more excitations than the most excited state in the support of
    rho0; outside it rho(t) is exactly 0. Each segment's Liouvillian is built
    on that block and diagonalized once, and states are evaluated from the
    segment start in spectral form. A segment whose eigendecomposition fails
    its reconstruction check or has cond(V) >= 1e5 (near an exceptional point
    or a near-degenerate spectrum) is marched by expm instead, with one
    exponential per distinct step. With method "adaptive-stepper" a DOP853
    stepper integrates the block.

    rho0 is a (dim, dim) density matrix on ``options.layout``: Hermitian and
    of unit trace. Positivity is not checked here; evolve monitors it.
    ``counts`` holds the (n_sc, n_p, n_e) labels of each block state.
    """

    def __init__(self, rates: SystemRates, schedule: DetuningSchedule, rho0: np.ndarray, options: SimOptions):
        m = np.asarray(rho0, dtype=complex)
        layout = options.layout
        dims = layout.dims
        if m.shape != (layout.dim, layout.dim):
            raise ValueError(f"density matrix shape {m.shape} does not match layout {dims}")
        defect = hermiticity_defect(m)
        if defect > 1e-10:
            raise NumericalIntegrityError(f"density matrix is not Hermitian (relative defect {defect:.3e})")
        tr = m.trace()
        if abs(tr - 1.0) > 1e-6:
            raise ValueError(f"density matrix trace {tr} is not 1")
        self.rates = rates
        self.options = options
        self.segments = schedule.segments
        labels = np.indices(dims).reshape(len(dims), -1).T
        excitations = labels.sum(axis=1)
        support = np.any(m != 0, axis=0) | np.any(m != 0, axis=1)
        self.block = np.flatnonzero(excitations <= excitations[support].max())
        self.counts = labels[self.block].astype(float)
        self._generators: list[tuple | None] = [None] * len(self.segments)
        self._starts: list[np.ndarray | None] = [None] * len(self.segments)
        rho = m[np.ix_(self.block, self.block)]
        self._starts[0] = _vec(0.5 * (rho + rho.conj().T))

    def _generator(self, k: int) -> tuple:
        """(L, spectral form or None) of segment k, built on first use."""
        if self._generators[k] is None:
            l_super = segment_liouvillian(self.rates, self.segments[k], self.options, self.block)
            adaptive = self.options.method == "adaptive-stepper"
            self._generators[k] = (l_super, None if adaptive else _spectral_form(l_super))
        return self._generators[k]

    def _start(self, k: int) -> np.ndarray:
        if self._starts[k] is None:
            end = next(self.sampled(k - 1, np.array([self.segments[k - 1].duration])))
            self._starts[k] = _vec(end[0])
        return self._starts[k]

    def sampled(self, k: int, ts: np.ndarray):
        """Yield block density matrices at ``ts``, SAMPLE_CHUNK at a time.

        ``ts`` is ascending and measured from the start of segment k.
        """
        l_super, spectral = self._generator(k)
        v = self._start(k)
        adaptive = self.options.method == "adaptive-stepper"
        if adaptive and ts.size:
            states = _adaptive_segment(l_super, v, ts, self.options.rel_tol)
        exponentials: dict[float, np.ndarray] = {}
        t_prev = 0.0
        for j in range(0, ts.size, SAMPLE_CHUNK):
            t = ts[j : j + SAMPLE_CHUNK]
            if adaptive:
                chunk = states[:, j : j + SAMPLE_CHUNK]
            elif spectral is not None:
                w, vr, vinv = spectral
                chunk = vr @ (np.exp(np.outer(w, t)) * (vinv @ v)[:, None])
            else:
                chunk = np.empty((v.size, t.size), dtype=complex)
                for i, step in enumerate(np.diff(t, prepend=t_prev)):
                    if step not in exponentials:
                        exponentials[step] = expm(l_super * step)
                    v = exponentials[step] @ v
                    chunk[:, i] = v
                t_prev = t[-1]
            if not np.all(np.isfinite(chunk)):
                raise IntegrationError("propagation produced a non-finite state")
            yield _densities(chunk)

    def block_state(self, t: float) -> np.ndarray:
        """Block density matrix at time t, clamped to the schedule."""
        k = next((i for i, seg in enumerate(self.segments) if t <= seg.t_end), len(self.segments) - 1)
        seg = self.segments[k]
        dt = min(max(t - seg.t_start, 0.0), seg.duration)
        if dt == 0.0:
            return _densities(self._start(k)[:, None])[0]
        return next(self.sampled(k, np.array([dt])))[0]

    def _position(self, labels) -> int | None:
        """Index of |labels> within the block, or None outside it."""
        where = np.flatnonzero(self.block == self.options.layout.index(labels))
        return int(where[0]) if where.size else None

    def population(self, labels, t: float) -> float:
        """<labels| rho(t) |labels>; exactly 0 outside the block."""
        j = self._position(labels)
        return 0.0 if j is None else float(self.block_state(t)[j, j].real)


def sample_times(duration: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, 2dt, ... always ending exactly at ``duration``.

    More than MAX_SAMPLE_STEPS steps of dt raise ValueError before anything is allocated.
    """
    steps = duration / dt
    if not steps <= MAX_SAMPLE_STEPS:
        raise ValueError(
            f"sample_dt {dt} s takes more than {MAX_SAMPLE_STEPS} steps over the {duration} s run"
        )
    n_full = int(math.floor(steps + 1e-9))
    ts = dt * np.arange(n_full + 1)
    if ts[-1] > duration or duration - ts[-1] < 1e-9 * dt:
        ts[-1] = duration
    else:
        ts = np.append(ts, duration)
    return ts


def evolve(
    rates: SystemRates, schedule: DetuningSchedule, rho0: np.ndarray, options: SimOptions
) -> Trajectory:
    """Integrate the master equation from the (dim, dim) state rho0 over the schedule.

    Samples every ``options.sample_dt`` (default: duration/2000) through an
    :class:`Evolution`. Each sampled state is symmetrized; trace error and
    the most negative eigenvalue of the full state are monitored, never
    corrected. A fidelity target outside the excitation block of rho0 reads 0.
    """
    evolution = Evolution(rates, schedule, rho0, options)
    duration = schedule.duration
    dt = options.sample_dt if options.sample_dt is not None else duration / 2000.0
    ts = sample_times(duration, dt)
    targets = [evolution._position(labels) for labels in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]

    n_samples = ts.size
    pops = np.empty((n_samples, 3))
    fids = np.zeros((n_samples, 3))
    tr_errs = np.empty(n_samples)
    min_eigs = np.empty(n_samples)

    def record(k: int, rhos: np.ndarray):
        sl = slice(k, k + len(rhos))
        diag = np.real(np.diagonal(rhos, axis1=1, axis2=2))
        pops[sl] = diag @ evolution.counts
        for i, j in enumerate(targets):
            if j is not None:
                fids[sl, i] = diag[:, j]
        tr_errs[sl] = np.abs(diag.sum(axis=1) - 1.0)
        min_eigs[sl] = np.linalg.eigvalsh(rhos)[:, 0]

    record(0, evolution.block_state(0.0)[None])
    k = 1
    for i, segment in enumerate(schedule.segments):
        stop = int(np.searchsorted(ts, segment.t_end + 1e-9 * dt, side="right"))
        for rhos in evolution.sampled(i, ts[k:stop] - segment.t_start):
            record(k, rhos)
            k += len(rhos)
    if evolution.block.size < options.layout.dim:
        np.minimum(min_eigs, 0.0, out=min_eigs)      # the states outside the block hold exactly 0
    return Trajectory(ts, *pops.T, *fids.T, tr_errs, min_eigs)
