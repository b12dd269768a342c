"""Time-domain fluid dynamics of the §2 algorithms.

Two families of differential equations:

* **Window-based** (:func:`integrate_windows`) — the deterministic fluid
  limit of the packet-level algorithms this repository implements:

      dw_r/dt = (w_r / RTT_r) · [ (1-p_r)·inc_r(w) − p_r·dec_r(w) ]

  one kernel (:func:`window_derivative`) parameterised by a *vector law*
  per algorithm, which returns every path's per-ACK (increase, decrease)
  terms in one call.  The ``_LAWS`` table maps registry names to laws —
  every controller except CUBIC, whose window law sits outside this
  fluid family — following the unified model of Peng, Walid, Hwang & Low
  ("Multipath TCP: Analysis, Design and Implementation").  OLIA's
  path-quality sets use the equilibrium inter-loss estimate l_r ≈ 1/p_r,
  which is why laws receive the loss vector; WVEGAS shares the Reno law
  because the fixed-loss validation routes have no queueing delay to
  react to (see ``repro.core.wvegas``).  Trajectories converge to the §2
  equilibria and inherit the RTT bias of windowed control: the
  equilibrium *rate* w/RTT depends on RTT.

* **Rate-based** (:func:`integrate_rates_coupled`) — the Kelly & Voice /
  Han et al. equations the paper adapted COUPLED from ("the rate-based
  equations [15, 10] that inspired COUPLED do not suffer from RTT
  mismatch", §2.3).  In scalable form:

      dx_r/dt = x_r · ( a − β · p_r · x_total )       (x_r ≥ floor)

  whose equilibrium total a/(β·p_min) contains no RTT at all — making
  §2.3's contrast between the two control families executable.

Integration is RK4 with a positivity floor; these systems are
low-dimensional and smooth away from the floor, but they are *stiff* at
extreme RTT ratios: the fastest path's relaxation time scales with its
RTT, so a step sized for the slow path can overshoot the fast path into
negative or astronomically large intermediate windows, and the RK4
stages then amplify that into NaN/overflow.  Every step therefore runs
through :func:`step_windows`'s guard — a blown-up step is retried as two
half-steps (recursively, bounded), and when halving cannot restore
stability the integrator raises :class:`FluidInstabilityError` instead
of silently returning non-finite windows.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

from ..core.alpha import mptcp_increases
from ..core.registry import ALGORITHMS

__all__ = [
    "window_derivative",
    "integrate_windows",
    "integrate_rates_coupled",
    "step_windows",
    "FluidInstabilityError",
    "FLUID_ALGORITHMS",
    "fluid_law",
    "FluidTrajectory",
]


class FluidInstabilityError(ArithmeticError):
    """The fluid ODE integration lost numerical stability.

    Raised by the guarded stepper when a step produces non-finite (or
    physically absurd) state and the step-halving retry bottoms out.
    The remedy is a smaller ``dt`` (or saner parameters); the point of
    the exception is that blow-ups surface as errors, never as silent
    NaN/overflow windows propagating into downstream results.
    """

    def __init__(self, message: str, dt: float, state: Sequence[float]):
        super().__init__(message)
        self.dt = dt
        self.state = list(state)


#: Windows above this are treated as a numerical blow-up, not a state:
#: no modelled flow holds a billion packets in flight.
_WINDOW_CEILING = 1e9

#: Recursive step-halvings tolerated before declaring instability
#: (2^20 reduction covers any physically meaningful stiffness gap).
_MAX_HALVINGS = 20


class FluidTrajectory:
    """Sampled trajectory: times plus per-path state vectors."""

    def __init__(self, times: List[float], states: List[List[float]]):
        self.times = times
        self.states = states

    @property
    def final(self) -> List[float]:
        return self.states[-1]

    def series(self, index: int) -> List[Tuple[float, float]]:
        """(t, value) pairs for one path — plottable directly."""
        return [(t, s[index]) for t, s in zip(self.times, self.states)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FluidTrajectory(points={len(self.times)})"


#: Relative tolerance for OLIA's fluid path sets (mirrors the packet
#: controller's tie handling in repro.core.olia).
_REL_TIE = 1e-9


# Vector laws: (windows, rtts, losses, a) -> every path's per-ACK
# (increases, decreases); what paths share is computed once per call.

def _halves(windows):
    return [w / 2.0 for w in windows]


def _reno_law(windows, rtts, losses, a):
    return [1.0 / w for w in windows], _halves(windows)


def _ewtcp_law(windows, rtts, losses, a):
    weight = a if a is not None else 1.0 / len(windows) ** 2
    return [weight / w for w in windows], _halves(windows)


def _coupled_law(windows, rtts, losses, a):
    total = sum(windows)
    return [1.0 / total] * len(windows), [total / 2.0] * len(windows)


def _semicoupled_law(windows, rtts, losses, a):
    gain = (a if a is not None else 1.0) / sum(windows)
    return [gain] * len(windows), _halves(windows)


def _lia_law(windows, rtts, losses, a):
    # Raises ValueError on a non-positive window: the stiffness guard
    # relies on that when an RK4 stage overshoots a window negative.
    return mptcp_increases(windows, rtts), _halves(windows)


def _olia_law(windows, rtts, losses, a):
    """OLIA's α uses path quality l_r²/RTT_r with the equilibrium
    inter-loss estimate l_r ≈ 1/p_r substituted."""
    n = len(windows)
    # A loss-free path has an unbounded inter-loss interval: its quality
    # is +inf, making it (jointly) best.  The hybrid tier hits p=0 on any
    # uncongested link, so this must not divide by zero.
    qualities = [
        math.inf if p <= 0.0 else 1.0 / (p * p * rtt)
        for p, rtt in zip(losses, rtts)
    ]
    best_q = max(qualities) * (1 - _REL_TIE)  # inf stays inf
    max_w = max(windows) * (1 - _REL_TIE)
    maxw = [r for r, w in enumerate(windows) if w >= max_w]
    collected = [
        r for r, q in enumerate(qualities) if q >= best_q and r not in maxw
    ]
    alphas = [0.0] * n
    if collected:
        for r in collected:
            alphas[r] = 1.0 / (n * len(collected))
        for r in maxw:
            alphas[r] = -1.0 / (n * len(maxw))
    rate_sum = sum(w / rtt for w, rtt in zip(windows, rtts))
    # The packet controller clamps at 1/w (fairness constraint (4)).
    return [
        min((w / (rtt * rtt)) / (rate_sum * rate_sum) + alpha / w, 1.0 / w)
        for w, rtt, alpha in zip(windows, rtts, alphas)
    ], _halves(windows)


def _balia_law(windows, rtts, losses, a):
    rates = [w / rtt for w, rtt in zip(windows, rtts)]
    rate_sum, best = sum(rates), max(rates)
    alphas = [best / x for x in rates]
    return [
        x / (rtt * rate_sum * rate_sum)
        * ((1.0 + alpha) / 2.0) * ((4.0 + alpha) / 5.0)
        for x, rtt, alpha in zip(rates, rtts, alphas)
    ], [w / 2.0 * min(alpha, 1.5) for w, alpha in zip(windows, alphas)]


#: The whole zoo as data: registry name -> vector law.  Aliases are two
#: keys on one function; a registry controller without a row (CUBIC) has
#: no fluid model.
_LAWS = {
    "reno": _reno_law,
    "single": _reno_law,
    "uncoupled": _reno_law,
    # Fixed-loss routes have srtt ≈ base_rtt, so wVegas sits in its
    # Vegas increase phase permanently: per-path Reno.
    "wvegas": _reno_law,
    "ewtcp": _ewtcp_law,
    "coupled": _coupled_law,
    "semicoupled": _semicoupled_law,
    "mptcp": _lia_law,
    "lia": _lia_law,
    "olia": _olia_law,
    "balia": _balia_law,
}

#: Algorithms the window-based fluid family covers.
FLUID_ALGORITHMS = frozenset(_LAWS)


def fluid_law(algorithm: str) -> Callable:
    """The vector law for a registry name; the one place a name is
    checked.  Callers resolve the name up front so the stepper's blow-up
    handling (which treats a stage-level ValueError as an
    overshot-negative-window symptom) can never mask a typo'd name."""
    law = _LAWS.get(algorithm)
    if law is not None:
        return law
    registered = algorithm in ALGORITHMS
    if registered:
        raise ValueError(
            f"{algorithm} has no fluid model (its window law is outside the "
            f"paper's analysis); run {algorithm} flows as packet-level tracers"
        )
    raise ValueError(
        f"unknown fluid algorithm {algorithm!r}; known: "
        f"{', '.join(sorted(_LAWS))}"
    )


def window_derivative(
    algorithm: str,
    windows: Sequence[float],
    losses: Sequence[float],
    rtts: Sequence[float],
    a: float = None,
) -> List[float]:
    """dw/dt of the window-based fluid model at one state point: the
    single kernel — one table lookup, one law call for all paths."""
    incs, decs = fluid_law(algorithm)(windows, rtts, losses, a)
    return [
        (w / rtt) * ((1.0 - p) * inc - p * dec)
        for w, p, rtt, inc, dec in zip(windows, losses, rtts, incs, decs)
    ]


def _rk4(deriv: Callable[[List[float]], List[float]],
         state: List[float], dt: float, floor: float) -> List[float]:
    def add(u, v, scale):
        return [a + scale * b for a, b in zip(u, v)]

    k1 = deriv(state)
    k2 = deriv(add(state, k1, dt / 2))
    k3 = deriv(add(state, k2, dt / 2))
    k4 = deriv(add(state, k3, dt))
    nxt = [
        s + dt / 6.0 * (a + 2 * b + 2 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    ]
    return [max(floor, v) for v in nxt]


def _guarded_step(
    deriv: Callable[[List[float]], List[float]],
    state: List[float],
    dt: float,
    floor: float,
    halvings: int,
) -> List[float]:
    """One RK4 step with blow-up detection and step-halving retry.

    A step is rejected when an RK4 stage divides by a zero window,
    overflows, trips a domain check (e.g. LIA's positivity validation
    after a stage overshoots a window negative — callers validate the
    algorithm name up front so a ValueError here can only be that), or
    lands outside ``[floor, _WINDOW_CEILING]`` after the final clamp;
    rejection retries the interval as two half-steps.
    """
    try:
        nxt = _rk4(deriv, state, dt, floor)
    except (ZeroDivisionError, OverflowError, ValueError):
        nxt = None
    if nxt is not None and all(
        math.isfinite(v) and v <= _WINDOW_CEILING for v in nxt
    ):
        return nxt
    if halvings <= 0:
        raise FluidInstabilityError(
            f"fluid integration unstable: step of {dt:.3g}s from state "
            f"{[round(v, 3) for v in state]} still blows up after "
            f"{_MAX_HALVINGS} step-halvings (reduce dt or check the "
            f"loss/RTT parameters)",
            dt=dt,
            state=state,
        )
    half = dt / 2.0
    mid = _guarded_step(deriv, state, half, floor, halvings - 1)
    return _guarded_step(deriv, mid, half, floor, halvings - 1)


def step_windows(
    algorithm: str,
    windows: Sequence[float],
    losses: Sequence[float],
    rtts: Sequence[float],
    dt: float,
    floor: float = 1.0,
    a: float = None,
) -> List[float]:
    """Advance the window-based fluid state by one guarded ``dt`` step.

    This is the single-step entry point shared by
    :func:`integrate_windows` and the hybrid engine's per-class stepper
    (``repro.hybrid``): RK4 with the stiffness guard, so extreme RTT
    ratios raise :class:`FluidInstabilityError` rather than silently
    producing NaN windows.
    """
    fluid_law(algorithm)

    def deriv(state):
        return window_derivative(algorithm, state, losses, rtts, a=a)

    return _guarded_step(deriv, list(windows), dt, floor, _MAX_HALVINGS)


def _integrate(deriv, state, duration, dt, floor, sample_every):
    """The sampling loop both integrators share: ``round(duration / dt)``
    guarded steps, sampled every ``sample_every`` and at the end."""
    times, states = [0.0], [list(state)]
    steps = round(duration / dt)
    for step in range(1, steps + 1):
        state = _guarded_step(deriv, state, dt, floor, _MAX_HALVINGS)
        if step % sample_every == 0 or step == steps:
            times.append(step * dt)
            states.append(list(state))
    return FluidTrajectory(times, states)


def integrate_windows(
    algorithm: str,
    losses: Sequence[float],
    rtts: Sequence[float],
    initial: Sequence[float] = None,
    duration: float = 200.0,
    dt: float = 0.01,
    floor: float = 1.0,
    a: float = None,
    sample_every: int = 100,
) -> FluidTrajectory:
    """Integrate the window-based fluid ODE and sample the trajectory.

    The floor of one packet mirrors the implementations' w_r >= 1 probe
    bound (§2.4).  Steps run through the stiffness guard: a step that
    blows up (extreme RTT ratios make this system stiff) is retried at
    half size, and :class:`FluidInstabilityError` is raised when halving
    cannot restore stability.
    """
    fluid_law(algorithm)
    if len(losses) != len(rtts):
        raise ValueError("losses and rtts must have the same length")
    state = list(initial) if initial is not None else [2.0] * len(losses)

    def deriv(windows):
        return window_derivative(algorithm, windows, losses, rtts, a=a)

    return _integrate(deriv, state, duration, dt, floor, sample_every)


def integrate_rates_coupled(
    losses: Sequence[float],
    aggressiveness: float = 1.0,
    beta: float = 0.005,
    initial: Sequence[float] = None,
    duration: float = 200.0,
    dt: float = 0.01,
    floor: float = 1e-3,
    sample_every: int = 100,
) -> FluidTrajectory:
    """Integrate the rate-based coupled equations (Kelly & Voice form).

    dx_r/dt = x_r (a − β p_r x_total): the equilibrium total a/(β p_min)
    is RTT-free, and all traffic drifts to minimum-loss paths — the
    theoretical ancestor of COUPLED.
    """
    state = list(initial) if initial is not None else [1.0] * len(losses)

    def deriv(rates: List[float]) -> List[float]:
        total = sum(rates)
        return [
            x * (aggressiveness - beta * p * total)
            for x, p in zip(rates, losses)
        ]

    return _integrate(deriv, state, duration, dt, floor, sample_every)
