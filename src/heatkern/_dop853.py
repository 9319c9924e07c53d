"""Dormand–Prince 8(5,3) with dense output and event location.

The explicit Runge–Kutta pair DOP853 of Hairer, Nørsett & Wanner (*Solving
Ordinary Differential Equations I*, 2nd ed., Springer 1993, Sec. II.10): an
eighth-order step, a fifth-order error estimate with a third-order
correction, step-size control, the seventh-degree continuous extension over
every accepted step, and events located on that extension by Brent's
method.  It is the one ODE integrator of the main path: the characteristic
solve and the traveling-wave runs.  (The Burgers antiderivative V0 is a
quadrature, built from Gauss–Kronrod panels in ``burgers``.)

The continuous extension is a separate computation from the step (Sec.
II.6): three more stages and a (7, n) coefficient block.  A run builds it
for a step only when something reads it, an event search inside the step or
the first query of :class:`DenseSolution` that lands in its segment, so a
run read at a few times pays for a few extensions.

The step, its error norm and step-size control, the initial-step heuristic,
the dense-output polynomial and its segment rule, and the event search follow
SciPy 1.17.1 (``scipy.integrate.solve_ivp(method="DOP853")`` and the C
``brentq`` it calls) operation for operation, so a run gives the same nodes,
states, evaluation counts and event roots to the last bit.  One corner
differs on purpose: a step whose fifth-order error estimate is exactly 0 has
error norm 0, where SciPy divides 0 by 0 once 0.01 |err3|^2 underflows and
rejects the step for a NaN.  The tableau below
is SciPy's ``scipy/integrate/_ivp/dop853_coefficients.py``, distributed under
this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import IntegrationError

EPS = np.finfo(float).eps
SAFETY = 0.9          # applied to the asymptotic step-size factor
MIN_FACTOR = 0.2      # the most a rejected step shrinks
MAX_FACTOR = 10       # the most an accepted step grows
ERROR_EXPONENT = -1 / 8   # the error estimate is of order 7
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# Step attempts (accepted and rejected) one run may take, so that a run
# crawling towards a singularity fails in bounded time.  SciPy has no cap; a
# run below it is unchanged.
MAX_STEPS = 10_000

# The tableau: nodes C; stage weights A, whose row 12 is B and whose rows
# 13..15 are the extra stages of the dense output; error weights E5 and E3;
# dense-output weights D.
_C = (0.0,
      0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
      0.281649658092772603273242802490, 0.333333333333333333333333333333,
      0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
      1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778)
_A = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1,
         3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654,
         5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1,
         7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762,
         9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449,
         3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444,
         5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1,
         7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258,
         9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2,
         5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044,
         7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1,
         9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1,
         11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2,
         6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1,
         8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1,
         10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2,
         5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2,
         7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4,
         11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4,
         13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1,
         5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878,
         7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1,
         12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149,
         14: -9.15095847217987001081870187138},
}
_E5 = {0: 0.1312004499419488073250102996e-1,
       5: -0.1225156446376204440720569753e+1,
       6: -0.4957589496572501915214079952,
       7: 0.1664377182454986536961530415e+1,
       8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
       10: 0.8192320648511571246570742613e-1,
       11: -0.2235530786388629525884427845e-1}
_D = {
    0: {0: -0.84289382761090128651353491142e+1,
        5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1,
        7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1,
        9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1,
        11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1,
        13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1,
        15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2,
        5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3,
        7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2,
        9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2,
        11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2,
        13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1,
        15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2,
        5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3,
        7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2,
        9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1,
        11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1,
        13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2,
        15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2,
        5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3,
        7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2,
        9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3,
        11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2,
        13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2,
        15: -0.14972683625798562581422125276e+3},
}

N_STAGES = 12
N_EXTRA_STAGES = 3    # the continuous extension's own stages
C = np.array(_C)
A = np.zeros((16, 16))
for _row, _entries in _A.items():
    for _col, _v in _entries.items():
        A[_row, _col] = _v
B = A[N_STAGES, :N_STAGES]
E5 = np.zeros(N_STAGES + 1)
for _col, _v in _E5.items():
    E5[_col] = _v
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1
D = np.zeros((4, 16))
for _row, _entries in _D.items():
    for _col, _v in _entries.items():
        D[_row, _col] = _v
# stage s combines the first s stages with A[s, :s] at time t + C[s] h
_STAGES = [(A[s, :s], float(C[s])) for s in range(1, 16)]
# Brent's root search on an event, with scipy's solve_ivp settings
_XTOL = _RTOL = 4 * EPS
_MAXITER = 100


def _extension(x, F, y_old):
    """The continuous extension of a step at x = (t - t_old)/h (one x with
    one step's (7, n) F, or x of shape (..., 1) with gathered F and y_old)."""
    y = np.zeros(y_old.shape)
    for k in range(6, -1, -1):
        y += F[k]
        y *= x if k % 2 == 0 else 1 - x
    return y + y_old


def _dense_coefficients(fun, err, t, h, y, y_new, K):
    """A step's (7, n) continuous-extension coefficients F.

    ``K`` is a (16, n) array whose first 13 rows are the step's stages; the
    three extra stages fill the rest.  The arithmetic is SciPy's
    ``DOP853._dense_output_impl``, in its order, under the numpy error state
    ``err`` of the solve that took the step.
    """
    with np.errstate(**err):
        for s, (a, c) in enumerate(_STAGES[N_STAGES:], start=N_STAGES + 1):
            K[s] = fun(t + c * h, y + np.dot(K[:s].T, a) * h)
        F = np.empty((7, len(y)))
        dy = y_new - y
        F[0] = dy
        F[1] = h * K[0] - dy
        F[2] = 2 * dy - h * (K[N_STAGES] + K[0])
        F[3:] = h * np.dot(D, K)
    return F


class DenseSolution:
    """The continuous extension of every accepted step, evaluated at any t.

    ``ts`` are the node times; segment i serves (ts[i], ts[i+1]] (the first
    also ts[0]), and a t outside [ts[0], ts[-1]] is extrapolated from the end
    segment.  A float t gives the n states, an array of t an (n, *t.shape)
    array: one gather of segment coefficients.  Both evaluate the same
    polynomial in the same operation order, so they agree to the last bit.

    ``F[i]`` is segment i's (7, n) coefficient block, or a callable that
    builds it (:func:`solve` passes one per step whose extension nothing has
    read yet).  The first query that lands in such a segment calls it, which
    makes ``N_EXTRA_STAGES`` right-hand-side evaluations; an exception it
    raises, such as an :class:`IntegrationError` for a stage that is not
    finite, propagates from the query and leaves the segment unbuilt.
    ``nfev`` counts the right-hand-side evaluations made so far: ``nfev``
    at construction plus those of the segments built since.
    """

    def __init__(self, ts, t_old, h, y_old, F, nfev=0):
        self._ts = np.array(ts)
        self.ts = self._ts.tolist()
        self.t_max = self.ts[-1]
        self._t_old, self._h = np.array(t_old), np.array(h)
        self._y_old = np.array(y_old)
        self._F = np.empty((7, *self._y_old.shape))   # (power, segment, state)
        self._pending = {}   # segment -> the callable that builds its F
        for i, Fi in enumerate(F):
            if callable(Fi):
                self._pending[i] = Fi
            else:
                self._F[:, i] = Fi
        self.nfev = nfev
        self._t_old_list, self._h_list = self._t_old.tolist(), self._h.tolist()
        self._rows = {}   # the float path's Python floats, per segment used

    def _build(self, i):
        self._F[:, i] = self._pending[i]()
        del self._pending[i]
        self.nfev += N_EXTRA_STAGES

    def __call__(self, t):
        last = len(self.ts) - 2
        if np.ndim(t) == 0:
            t = float(t)
            i = min(max(bisect_left(self.ts, t) - 1, 0), last)
            rows = self._rows.get(i)
            if rows is None:   # per state: F6..F0, y_old
                if i in self._pending:
                    self._build(i)
                rows = self._rows[i] = np.vstack(
                    [self._F[::-1, i], self._y_old[i]]).T.tolist()
            x = (t - self._t_old_list[i]) / self._h_list[i]
            u = 1 - x
            return np.array([(((((((0.0 + f6) * x + f5) * u + f4) * x + f3) * u
                                 + f2) * x + f1) * u + f0) * x + y0
                             for f6, f5, f4, f3, f2, f1, f0, y0 in rows])
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self._ts, t, side="left") - 1, 0, last)
        if self._pending:   # a set: the first np.unique call adds ~0.3 MB of RSS
            for j in sorted(set(i.ravel().tolist())):
                if j in self._pending:
                    self._build(j)
        x = ((t - self._t_old[i]) / self._h[i])[..., None]
        return np.moveaxis(_extension(x, self._F[:, i], self._y_old[i]), -1, 0)


class Run(NamedTuple):
    """One integration: the dense solution (its ``ts`` are the nodes) and
    each event's roots in order."""

    sol: DenseSolution
    t_events: list

    @property
    def nfev(self) -> int:
        """Right-hand-side evaluations so far: the solve's, and the extra
        stages of every extension built since (see :class:`DenseSolution`)."""
        return self.sol.nfev


def _norm(x):
    """np.linalg.norm of a 1-D float array, without its dispatch."""
    return np.sqrt(x.dot(x))


def _rms(x):
    return _norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, interval, rtol, atol):
    """The first step size (Hairer, Nørsett & Wanner, Sec. II.4)."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _error_norm(K, h, scale):
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = _norm(err5) ** 2
    if err5_norm_2 == 0:
        # SciPy returns 0 only if err3 is 0 too; with 0.01 |err3|^2 underflowing
        # to 0 it divides 0 by 0 and rejects the step for a NaN
        return 0.0
    err3_norm_2 = _norm(err3) ** 2
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return float(np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale)))


def _active_events(g, g_new, directions):
    """Indices of the events whose sign changed in the allowed direction."""
    active = []
    for i, (a, b, d) in enumerate(zip(g, g_new, directions)):
        up, down = a <= 0 and b >= 0, a >= 0 and b <= 0
        if up and d > 0 or down and d < 0 or (up or down) and d == 0:
            active.append(i)
    return active


def brentq(f, xa, xb):
    """A root of ``f`` in [xa, xb] by Brent's method (Brent 1973, Ch. 4),
    step for step as scipy's C ``brentq`` with its NaN and sign checks."""
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:   # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:              # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            # C's MIN(a, b): b unless a < b, also when b is NaN
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta \
                else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:   # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, "
                       f"value is {xcur}")


def solve(fun: Callable, t0: float, t1: float, y0, rtol: float, atol: float,
          events: Sequence[tuple] = (), *, what: str) -> Run:
    """Integrate y' = fun(t, y) from ``t0`` to ``t1 > t0`` with dense output.

    Each event is a triple (g, direction, terminal): a root of g(t, y) is
    recorded where g changes sign upward (direction > 0), downward (< 0) or
    either way (0), and the first root of a terminal event ends the run
    there.  Raises :class:`IntegrationError` naming ``what`` when the step
    size underflows or a step past ``MAX_STEPS`` attempts is needed; an
    exception raised by ``fun`` propagates.

    ``fun`` must not keep its ``y`` argument: the stages share one buffer.
    It must also stay callable after the run returns, because the dense
    solution builds a step's continuous extension only when it is first
    read (see :class:`DenseSolution`), under the numpy error state that was
    in force during the solve.
    """
    t0, t1 = float(t0), float(t1)
    if not t1 > t0:
        raise ValueError(f"{what} integration needs t1 > t0, got "
                         f"[{t0}, {t1}]")
    rtol = max(rtol, 100 * EPS)

    def call(t, y):
        return np.asarray(fun(t, y), dtype=float)

    y = np.array(y0, dtype=float)   # a copy: the extensions read it later
    t, f = t0, call(t0, y)
    h_abs = float(_initial_step(call, t0, y, f, t1 - t0, rtol, atol))
    nfev = 2
    err = np.geterr()
    K_ext = np.empty((16, len(y)))
    K = K_ext[:N_STAGES + 1]
    KT = [K_ext[:s].T for s in range(N_STAGES + 1)]   # stage s: KT[s] @ A[s, :s]
    y_stage = np.empty(len(y))
    ts, t_old, hs, y_old, Fs = [t0], [], [], [], []
    g = [ev(t0, y) for ev, _, _ in events]
    t_events = [[] for _ in events]
    done = False
    attempts = 0
    while not done:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:   # until a step is accepted
            if h_abs < min_step:
                raise IntegrationError(f"{what} integration failed: "
                                       f"{TOO_SMALL_STEP}")
            attempts += 1
            if attempts > MAX_STEPS:
                raise IntegrationError(f"{what} integration failed: more than "
                                       f"{MAX_STEPS} step attempts before "
                                       f"t1 = {t1:.10g} (stopped at t = "
                                       f"{t:.10g})")
            t_new = t + h_abs
            if t_new - t1 > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, (a, c) in enumerate(_STAGES[:N_STAGES - 1], start=1):
                np.dot(KT[s], a, out=y_stage)   # the bits of y + (K^T a) h
                y_stage *= h
                y_stage += y
                K[s] = fun(t + c * h, y_stage)
            y_new = y + h * np.dot(KT[N_STAGES], B)
            K[N_STAGES] = fun(t + h, y_new)
            nfev += N_STAGES
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else \
                    min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True

        # F is built from a copy of the step's stages when first read
        stages = K_ext.copy()
        F = partial(_dense_coefficients, fun, err, t, h, y, y_new, stages)
        done = t_new - t1 >= 0
        t_end = t_new
        if events:
            g_new = [ev(t_new, y_new) for ev, _, _ in events]
            active = _active_events(g, g_new, [d for _, d, _ in events])
            if active:
                F = F()
                nfev += N_EXTRA_STAGES
                roots = [brentq(lambda s, ev=events[i][0]:
                                ev(s, _extension((s - t) / h, F, y)), t, t_new)
                         for i in active]
                hits = sorted(zip(roots, active), key=lambda r: r[0])
                stop = next((k for k, (_, i) in enumerate(hits)
                             if events[i][2]), None)
                if stop is not None:   # keep the roots up to the terminal one
                    roots, active = (list(v) for v in zip(*hits[:stop + 1]))
                    t_end, done = roots[-1], True
                for root, i in zip(roots, active):
                    t_events[i].append(root)
            g = g_new
        if not (len(ts) > 1 and ts[-1] == t_end):   # a root at the last node
            ts.append(t_end)
            t_old.append(t)
            hs.append(h)
            y_old.append(y)
            Fs.append(F)
        t, y, f = t_new, y_new, stages[N_STAGES]
    return Run(DenseSolution(ts, t_old, hs, y_old, Fs, nfev), t_events)
