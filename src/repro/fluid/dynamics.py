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

  Every law also has a *two-path form* (``_PAIR_FORMS``): built once per
  step from the path constants, it returns ``deriv(w0, w1) -> (d0,
  d1)``, the vector law's derivative for two paths with every
  floating-point operation in the same order.  The steppers run it on
  scalars whenever the state has two paths — every shipped hybrid
  workload — and the vector law otherwise; the two agree bit for bit
  (``tests/test_fluid_dynamics.py``), so the selection is invisible in
  every row.

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
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.alpha import mptcp_increases
from ..core.registry import ALGORITHMS

__all__ = [
    "window_derivative",
    "integrate_windows",
    "integrate_rates_coupled",
    "equilibrium_windows",
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

#: Fraction of a trajectory, at its end, averaged into an equilibrium:
#: the mean absorbs the chatter OLIA's discontinuous path sets produce.
TAIL_FRACTION = 0.25


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


# Two-path forms: (rtts, losses, a) -> deriv(w0, w1) -> (d0, d1).  Each
# is its vector law fused with the window_derivative kernel for n = 2,
# performing the same floating-point operations in the same order, so
# results are bit-identical (goldens compare floats exactly).  What only
# depends on the path constants is computed once per step.  The
# builtins the vector laws call on two elements become comparisons with
# the same tie and NaN behaviour: ``max(a, b)`` is ``b if b > a else
# a``, ``min(a, b)`` is ``b if b < a else a``, a stable two-element sort
# swaps only on a strict ``<``, and ``sum([a, b])`` is ``a + b``.

def _reno_pair(rtts, losses, a):
    (r0, r1), (p0, p1) = rtts, losses
    q0, q1 = 1.0 - p0, 1.0 - p1

    def deriv(w0, w1):
        return ((w0 / r0) * (q0 * (1.0 / w0) - p0 * (w0 / 2.0)),
                (w1 / r1) * (q1 * (1.0 / w1) - p1 * (w1 / 2.0)))
    return deriv


def _ewtcp_pair(rtts, losses, a):
    (r0, r1), (p0, p1) = rtts, losses
    q0, q1 = 1.0 - p0, 1.0 - p1
    weight = a if a is not None else 1.0 / 2 ** 2

    def deriv(w0, w1):
        return ((w0 / r0) * (q0 * (weight / w0) - p0 * (w0 / 2.0)),
                (w1 / r1) * (q1 * (weight / w1) - p1 * (w1 / 2.0)))
    return deriv


def _coupled_pair(rtts, losses, a):
    (r0, r1), (p0, p1) = rtts, losses
    q0, q1 = 1.0 - p0, 1.0 - p1

    def deriv(w0, w1):
        total = w0 + w1
        inc, dec = 1.0 / total, total / 2.0
        return ((w0 / r0) * (q0 * inc - p0 * dec),
                (w1 / r1) * (q1 * inc - p1 * dec))
    return deriv


def _semicoupled_pair(rtts, losses, a):
    (r0, r1), (p0, p1) = rtts, losses
    q0, q1 = 1.0 - p0, 1.0 - p1
    scale = a if a is not None else 1.0

    def deriv(w0, w1):
        gain = scale / (w0 + w1)
        return ((w0 / r0) * (q0 * gain - p0 * (w0 / 2.0)),
                (w1 / r1) * (q1 * gain - p1 * (w1 / 2.0)))
    return deriv


def _lia_pair(rtts, losses, a):
    """``mptcp_increases`` for two subflows: the sort is one comparison
    of the w/RTT² keys, the suffix minimum two."""
    (r0, r1), (p0, p1) = rtts, losses
    q0, q1 = 1.0 - p0, 1.0 - p1
    rr0, rr1 = r0 * r0, r1 * r1
    inf = math.inf

    def deriv(w0, w1):
        if w0 <= 0 or w1 <= 0:
            # The stiffness guard's overshoot signal, as in _lia_law.
            raise ValueError("windows must be positive")
        k0, k1 = w0 / rr0, w1 / rr1
        x0, x1 = w0 / r0, w1 / r1
        swap = k1 < k0  # the stable sort puts path 1 first
        kf, xf, kl, xl = (k1, x1, k0, x0) if swap else (k0, x0, k1, x1)
        prefix = 0.0 + xf
        inc_f = kf / (prefix * prefix)
        prefix += xl
        inc_l = kl / (prefix * prefix)
        if not inc_l < inf:
            inc_l = inf
        if not inc_f < inc_l:
            inc_f = inc_l
        i0, i1 = (inc_l, inc_f) if swap else (inc_f, inc_l)
        return (x0 * (q0 * i0 - p0 * (w0 / 2.0)),
                x1 * (q1 * i1 - p1 * (w1 / 2.0)))
    return deriv


def _olia_pair(rtts, losses, a):
    (r0, r1), (p0, p1) = rtts, losses
    q0, q1 = 1.0 - p0, 1.0 - p1
    inf = math.inf

    def deriv(w0, w1):
        # The qualities stay per stage: 1/(p²·RTT) raises where p²·RTT
        # underflows to zero, and the guard must see that where the
        # vector law raises it.
        g0 = inf if p0 <= 0.0 else 1.0 / (p0 * p0 * r0)
        g1 = inf if p1 <= 0.0 else 1.0 / (p1 * p1 * r1)
        best_q = (g1 if g1 > g0 else g0) * (1 - _REL_TIE)
        max_w = (w1 if w1 > w0 else w0) * (1 - _REL_TIE)
        big0, big1 = w0 >= max_w, w1 >= max_w
        got0 = g0 >= best_q and not big0
        got1 = g1 >= best_q and not big1
        alpha0 = alpha1 = 0.0
        if got0 or got1:
            if got0:
                alpha0 = 1.0 / (2 * (got0 + got1))
            elif big0:
                alpha0 = -1.0 / (2 * (big0 + big1))
            if got1:
                alpha1 = 1.0 / (2 * (got0 + got1))
            elif big1:
                alpha1 = -1.0 / (2 * (big0 + big1))
        x0, x1 = w0 / r0, w1 / r1
        rate_sum = x0 + x1
        a0 = (w0 / (r0 * r0)) / (rate_sum * rate_sum) + alpha0 / w0
        a1 = (w1 / (r1 * r1)) / (rate_sum * rate_sum) + alpha1 / w1
        c0, c1 = 1.0 / w0, 1.0 / w1
        return (x0 * (q0 * (c0 if c0 < a0 else a0) - p0 * (w0 / 2.0)),
                x1 * (q1 * (c1 if c1 < a1 else a1) - p1 * (w1 / 2.0)))
    return deriv


def _balia_pair(rtts, losses, a):
    (r0, r1), (p0, p1) = rtts, losses
    q0, q1 = 1.0 - p0, 1.0 - p1

    def deriv(w0, w1):
        x0, x1 = w0 / r0, w1 / r1
        rate_sum, best = x0 + x1, (x1 if x1 > x0 else x0)
        alpha0, alpha1 = best / x0, best / x1
        inc0 = (x0 / (r0 * rate_sum * rate_sum)
                * ((1.0 + alpha0) / 2.0) * ((4.0 + alpha0) / 5.0))
        inc1 = (x1 / (r1 * rate_sum * rate_sum)
                * ((1.0 + alpha1) / 2.0) * ((4.0 + alpha1) / 5.0))
        dec0 = w0 / 2.0 * (1.5 if 1.5 < alpha0 else alpha0)
        dec1 = w1 / 2.0 * (1.5 if 1.5 < alpha1 else alpha1)
        return (x0 * (q0 * inc0 - p0 * dec0),
                x1 * (q1 * inc1 - p1 * dec1))
    return deriv


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

#: Vector law -> its two-path form.
_PAIR_FORMS = {
    _reno_law: _reno_pair,
    _ewtcp_law: _ewtcp_pair,
    _coupled_law: _coupled_pair,
    _semicoupled_law: _semicoupled_pair,
    _lia_law: _lia_pair,
    _olia_law: _olia_pair,
    _balia_law: _balia_pair,
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


def _vector_derivative(law, losses, rtts, a):
    """dw/dt as a function of the window vector: one law call for all
    paths per evaluation."""
    def deriv(windows):
        incs, decs = law(windows, rtts, losses, a)
        return [
            (w / rtt) * ((1.0 - p) * inc - p * dec)
            for w, p, rtt, inc, dec in zip(windows, losses, rtts, incs, decs)
        ]
    return deriv


def window_derivative(
    algorithm: str,
    windows: Sequence[float],
    losses: Sequence[float],
    rtts: Sequence[float],
    a: float = None,
) -> List[float]:
    """dw/dt of the window-based fluid model at one state point: the
    single kernel — one table lookup, one law call for all paths."""
    return _vector_derivative(fluid_law(algorithm), losses, rtts, a)(windows)


def _rk4(deriv: Callable[[List[float]], List[float]],
         state: List[float], dt: float, floor: float) -> Optional[List[float]]:
    """One RK4 step clamped at ``floor``; None when the result is not
    finite or passes ``_WINDOW_CEILING``."""
    def add(u, v, scale):
        return [a + scale * b for a, b in zip(u, v)]

    k1 = deriv(state)
    k2 = deriv(add(state, k1, dt / 2))
    k3 = deriv(add(state, k2, dt / 2))
    k4 = deriv(add(state, k3, dt))
    nxt = [
        max(floor, s + dt / 6.0 * (a + 2 * b + 2 * c + d))
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    ]
    if all(math.isfinite(v) and v <= _WINDOW_CEILING for v in nxt):
        return nxt
    return None


def _rk4_pair(deriv: Callable[[float, float], Tuple[float, float]],
              state: Sequence[float], dt: float,
              floor: float) -> Optional[List[float]]:
    """:func:`_rk4` on a two-path form: the same arithmetic on scalars."""
    s0, s1 = state
    half = dt / 2
    a0, a1 = deriv(s0, s1)
    b0, b1 = deriv(s0 + half * a0, s1 + half * a1)
    c0, c1 = deriv(s0 + half * b0, s1 + half * b1)
    d0, d1 = deriv(s0 + dt * c0, s1 + dt * c1)
    v0 = s0 + dt / 6.0 * (a0 + 2 * b0 + 2 * c0 + d0)
    v1 = s1 + dt / 6.0 * (a1 + 2 * b1 + 2 * c1 + d1)
    v0 = v0 if v0 > floor else floor  # max(floor, v0)
    v1 = v1 if v1 > floor else floor
    if (math.isfinite(v0) and v0 <= _WINDOW_CEILING
            and math.isfinite(v1) and v1 <= _WINDOW_CEILING):
        return [v0, v1]
    return None


def _guarded_step(
    deriv: Callable,
    state: Sequence[float],
    dt: float,
    floor: float,
    halvings: int,
    rk4: Callable,
) -> List[float]:
    """One ``rk4(deriv, …)`` step with blow-up detection and step-halving
    retry.

    A step is rejected when an RK4 stage divides by a zero window,
    overflows, trips a domain check (e.g. LIA's positivity validation
    after a stage overshoots a window negative — callers validate the
    algorithm name and the path inputs up front so a ValueError here can
    only be that), or lands outside ``[floor, _WINDOW_CEILING]`` after
    the final clamp (``rk4`` returns None); rejection retries the
    interval as two half-steps.
    """
    try:
        nxt = rk4(deriv, state, dt, floor)
    except (ZeroDivisionError, OverflowError, ValueError):
        nxt = None
    if nxt is not None:
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
    mid = _guarded_step(deriv, state, half, floor, halvings - 1, rk4)
    return _guarded_step(deriv, mid, half, floor, halvings - 1, rk4)


def _window_stepper(algorithm, windows, losses, rtts, a):
    """Validate one step's inputs and pick its ``(deriv, rk4)``: the
    two-path form for two paths, the vector law for any other count.

    Wrong inputs are ValueErrors here, before the guard, so they can
    never pass for a blown-up stage."""
    law = fluid_law(algorithm)
    n = len(rtts)
    if not n:
        raise ValueError("need at least one path")
    if len(losses) != n:
        raise ValueError(
            f"losses has {len(losses)} entries but rtts has {n}: "
            f"one per path")
    if len(windows) != n:
        raise ValueError(
            f"windows has {len(windows)} entries but rtts has {n}: "
            f"one per path")
    for rtt in rtts:
        if not rtt > 0.0:
            raise ValueError(f"rtts must be positive, got {list(rtts)!r}")
    if n == 2:
        return _PAIR_FORMS[law](rtts, losses, a), _rk4_pair
    return _vector_derivative(law, losses, rtts, a), _rk4


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

    This is the single-step entry point of the hybrid engine's per-class
    stepper (``repro.hybrid``): RK4 with the stiffness guard, so extreme
    RTT ratios raise :class:`FluidInstabilityError` rather than silently
    producing NaN windows.  ``windows``, ``losses`` and ``rtts`` need one
    entry per path and positive RTTs (ValueError otherwise).
    """
    deriv, rk4 = _window_stepper(algorithm, windows, losses, rtts, a)
    return _guarded_step(deriv, windows, dt, floor, _MAX_HALVINGS, rk4)


def _integrate(deriv, state, duration, dt, floor, sample_every, rk4):
    """The sampling loop both integrators share: ``round(duration / dt)``
    guarded steps, sampled every ``sample_every`` and at the end."""
    times, states = [0.0], [list(state)]
    steps = round(duration / dt)
    for step in range(1, steps + 1):
        state = _guarded_step(deriv, state, dt, floor, _MAX_HALVINGS, rk4)
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
    state = list(initial) if initial is not None else [2.0] * len(losses)
    deriv, rk4 = _window_stepper(algorithm, state, losses, rtts, a)
    return _integrate(deriv, state, duration, dt, floor, sample_every, rk4)


def equilibrium_windows(
    algorithm: str, losses: Sequence[float], rtts: Sequence[float],
) -> List[float]:
    """Equilibrium windows of any ``FLUID_ALGORITHMS`` law at fixed path
    losses: the mean of the last :data:`TAIL_FRACTION` of a 400 s
    :func:`integrate_windows` trajectory from two packets per path."""
    states = integrate_windows(algorithm, losses, rtts, duration=400.0).states
    tail = states[int(len(states) * (1.0 - TAIL_FRACTION)):]
    return [sum(column) / len(tail) for column in zip(*tail)]


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

    return _integrate(deriv, state, duration, dt, floor, sample_every, _rk4)
