"""Next-slot SUAV placement: slack reformulation + successive convex steps.

The per-slot placement cost

    sum_n sum_{m in M_n} W_nm / log2(1 + phi_nm/(H^2 + ||q_n' - q_m||^2))
      + sum_n Qp_n * P(||q_n' - q_n||/dt) * dt

is non-convex through the rate denominators and the induced-power term, so
each outer iteration replaces them with slack variables (zeta for rates, xi
for the induced term) constrained by first-order tangent bounds taken at the
previous iterate, yielding a small smooth convex program over all 2N
positions jointly (the pairwise-separation constraint couples SUAVs).  The
subproblem is solved with one SLSQP run, a Newton polish for a point that
misses the contract, and an explicit KKT-residual audit.
SLSQP and the audit's NNLS are SciPy's compiled core, ``_slsqplib``, loaded
from its file on the first solve: importing ``scipy.optimize`` to reach it
would load some 320 modules (0.3 s and 43 MB on a 2-core host, against
0.01 s and 2.3 MB for the core).  A run that never moves a SUAV (FLP)
loads no SciPy at all.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .compute import induced_speed_term, propulsion_power

LOG2E = float(np.log2(np.e))
KKT_TOL = 1e-6
FEAS_TOL = 1e-8
ACTIVE_TOL = 1e-6          # the audit's active rows: slack / row norm
POLISH_ACTIVE_TOL = 1e-5   # kkt_polish's first working set
POLISH_ROUNDS = 4          # kkt_polish's working-set repairs
XI_FLOOR = 1e-2
ZETA_FLOOR = 1e-9


@dataclass
class SuavAssignment:
    """UDs offloading to one SUAV: positions, rate weights, SNR numerators."""
    ud_positions: np.ndarray   # (k, 2)
    weights: np.ndarray        # (k,)  V*(gT*D + gE*p*D) / (w* * B_n)
    phi: np.ndarray            # (k,)  SNR = phi / (H^2 + dist^2)


@dataclass
class TrajectoryProblem:
    current_positions: np.ndarray      # (N, 2)
    assignments: list                  # one SuavAssignment per SUAV
    queue_p: np.ndarray                # (N,) propulsion queue values (J)
    altitude: float
    dt: float
    v_max: float
    d_min: float
    prop_c1: float
    prop_c2: float
    prop_c3: float
    prop_c4: float
    tip_speed: float
    sca_tol: float = 0.01
    max_iters: int = 50

    @property
    def n_suavs(self) -> int:
        return len(self.current_positions)


def build_problem(profile, shares, data_bits, phi_suav, ud_positions,
                  suav_positions, queue_p, cfg) -> TrajectoryProblem:
    """Assemble the placement problem from stage-1 outputs.

    ``shares`` is the (N, M) bandwidth-share matrix for SUAV rows,
    ``phi_suav`` the matching matrix of SNR numerators at the current slot.
    Zero-size tasks are dropped (their rate weight is zero); SUAVs with no
    assigned UDs still participate through the propulsion term.
    """
    profile = np.asarray(profile)
    data_bits = np.asarray(data_bits, dtype=float)
    n = len(suav_positions)
    weight_num = cfg.lyapunov_v * (cfg.gamma_time * data_bits
                                   + cfg.gamma_energy * cfg.ud_tx_power
                                   * data_bits)
    assignments = []
    for s in range(n):
        members = np.flatnonzero((profile == s) & (data_bits > 0))
        assignments.append(SuavAssignment(
            ud_positions=np.asarray(ud_positions, dtype=float)[members],
            weights=weight_num[members]
            / (np.asarray(shares)[s, members] * cfg.suav_bandwidth),
            phi=np.asarray(phi_suav, dtype=float)[s, members]))
    return TrajectoryProblem(
        current_positions=np.asarray(suav_positions, dtype=float).copy(),
        assignments=assignments,
        queue_p=np.asarray(queue_p, dtype=float).copy(),
        altitude=cfg.suav_altitude, dt=cfg.slot_duration,
        v_max=cfg.suav_max_speed, d_min=cfg.min_separation,
        prop_c1=cfg.prop_blade, prop_c2=cfg.prop_induced,
        prop_c3=cfg.prop_speed4, prop_c4=cfg.prop_parasite,
        tip_speed=cfg.prop_tip_speed,
        sca_tol=cfg.sca_tolerance, max_iters=cfg.sca_max_iters)


def true_objective(problem: TrajectoryProblem, positions,
                   layout: _Layout | None = None) -> float:
    """The actual placement cost at given next positions.

    Terms are added one at a time, in the order SUAV 0's UD rate terms,
    SUAV 0's propulsion term, SUAV 1's rate terms, and so on.  ``layout``
    is the slot's ``_Layout``, built here when not given.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    lay = _Layout(problem) if layout is None else layout
    n, k = lay.n, lay.n_zeta
    d2 = np.sum((positions[lay.owner] - lay.ud) ** 2, axis=1)
    g = np.log2(1.0 + lay.phi / (problem.altitude ** 2 + d2))
    # a 1-D norm is sqrt(dot), and dot may round unlike sum(d * d)
    moved = positions - problem.current_positions
    speed = np.sqrt([np.dot(e, e) for e in moved]) / problem.dt
    terms = np.zeros(1 + k + n)             # the running sum starts at 0.0
    terms[1 + np.arange(k) + lay.owner] = lay.w / g
    terms[lay.zeta_off[1:] + np.arange(1, n + 1)] = \
        problem.queue_p * problem.dt * propulsion_power(
            speed, problem.prop_c1, problem.prop_c2, problem.prop_c3,
            problem.prop_c4, problem.tip_speed)
    return float(np.add.accumulate(terms)[-1])


@dataclass
class SubproblemSolution:
    positions: np.ndarray
    objective: float
    kkt_residual: float


def _norm_rows(a):
    """``np.linalg.norm(a, axis=1)``, the same sums without its wrapper."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


class _Layout:
    """What the assignment fixes for every subproblem of one stage-2 call.

    Sizes, bounds, the UDs' data concatenated SUAV by SUAV with an owner
    index, the SUAV pairs and the indices of the Jacobian and Hessian
    entries depend only on who is assigned where, which stays fixed over
    the SCA iterations of a slot, so ``run_stage2`` builds them once.
    """

    def __init__(self, problem: TrajectoryProblem):
        n = problem.n_suavs
        asg = problem.assignments
        k_n = [len(a.weights) for a in asg]
        k = sum(k_n)
        self.n, self.n_zeta = n, k
        self.zeta_off = np.cumsum([0] + k_n)
        self.n_var = nv = 3 * n + k
        self.lb = np.concatenate([np.full(2 * n, -np.inf),
                                  np.full(n, XI_FLOOR),
                                  np.full(k, ZETA_FLOOR)])
        self.segments = [(int(lo), int(hi)) for lo, hi
                         in zip(self.zeta_off[:-1], self.zeta_off[1:])
                         if hi > lo]
        rows = np.arange(n)
        self.owner = owner = np.repeat(rows, k_n)
        self.ud = np.concatenate([a.ud_positions for a in asg])
        self.w = np.concatenate([a.weights for a in asg])
        self.phi = np.concatenate([a.phi for a in asg])
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        n_pairs = len(pairs)
        self.pair_i = np.array([i for i, _ in pairs], dtype=int)
        self.pair_j = np.array([j for _, j in pairs], dtype=int)
        self.n_con = m = 2 * n + k + n_pairs
        # the curved rows (induced, rate, speed) each read the position of
        # SUAV s: s is i, the owner and i
        pos_idx = 2 * np.concatenate([rows, owner, rows])[:, None] + [0, 1]
        # Jacobian, above the finite variable bounds' rows (1 at (m + r,
        # 2N + r)): the -1 of each zeta is in the template; the entries
        # the expansion sets (f_lin, the separation rows) are at exp_idx;
        # the xi diagonal and the position entries of the rate and speed
        # rows vary, at var_idx
        bound = np.arange(nv - 2 * n)
        self.kkt_template = np.zeros((m + len(bound), nv))
        self.kkt_template.flat[np.concatenate([
            (n + np.arange(k)) * nv + 3 * n + np.arange(k),
            (m + bound) * nv + 2 * n + bound])] = [-1.0] * k + [1.0] * (n + k)
        sep = (2 * n + k + np.arange(n_pairs))[:, None] * nv
        self.exp_idx = np.concatenate([
            (rows[:, None] * nv + pos_idx[:n]).ravel(),
            (sep + 2 * self.pair_i[:, None] + [0, 1]).ravel(),
            (sep + 2 * self.pair_j[:, None] + [0, 1]).ravel()])
        self.var_idx = np.concatenate([
            rows * nv + 2 * n + rows,
            ((n + np.arange(k + n))[:, None] * nv + pos_idx[n:]).ravel()])
        self.var_row = self.var_idx // nv
        # the same entries in SLSQP's column-major (m, n_var) matrix
        self.var_idx_f = self.var_idx % nv * m + self.var_row
        # Hessian targets: the off-diagonal pair of each SUAV's 2x2 position
        # block, and the block's first index for each rate and speed row
        self.off_idx = (2 * rows[:, None] * (nv + 1) + [1, nv]).ravel()
        self.row_pos = (2 * np.concatenate([owner, rows])).tolist()
        # Python floats for the evaluations
        self.cur_xy = [(2 * i, cx, cy) for i, (cx, cy)
                       in enumerate(problem.current_positions.tolist())]
        self.neg_w = (-self.w).tolist()
        self.uds = list(zip((2 * owner).tolist(), self.ud[:, 0].tolist(),
                            self.ud[:, 1].tolist()))
        self.pair_pos = [(2 * i, 2 * j) for i, j in pairs]


class _Subproblem:
    """One convex subproblem instance with packed variables [q, xi, zeta].

    Everything set by the expansion point is built once here, from the
    slot's ``_Layout``: the rate-surrogate coefficients of all UDs, the
    pair vectors, the derived scalars and the Jacobian template holding
    the constant entries.  ``evaluate`` and ``derivatives`` are the one
    implementation of the objective, the constraint rows and their first
    derivatives, in Python floats; every other evaluation is a view of
    them.  Each value is computed with the same floating-point operations,
    in the same order, as the per-SUAV formulas, so results are bit-for-bit
    those of the formulas (tests/test_subproblem_kernels.py keeps them as
    the oracle).  Four rules keep it so: the sums are NumPy's
    ``np.add.reduce`` over arrays, the parasite cube is NumPy's array ``**``
    (which rounds unlike scalar ``pow``), the separation rows keep
    ``np.dot`` on 2-vectors (BLAS may fuse its multiply-add), and the
    Hessians write Python-float entries except the zeta cubes of their
    diagonal, which are NumPy's array ``**`` too (it rounds unlike ``z*z*z``
    and unlike scalar ``pow``).

    Constraint rows are ordered: induced-term surrogates (N), rate
    surrogates (K, SUAV by SUAV), speed balls (N), separations (pairs).
    """

    def __init__(self, problem: TrajectoryProblem, expansion: np.ndarray,
                 layout: _Layout | None = None):
        self.p = p = problem
        self.lay = lay = _Layout(problem) if layout is None else layout
        self.n = n = lay.n
        self.exp = np.asarray(expansion, dtype=float).reshape(n, 2)
        self.cur = problem.current_positions
        self.dt = dt = problem.dt
        diff = self.exp - self.cur
        self.v_exp = _norm_rows(diff) / dt
        self.xi_exp = induced_speed_term(self.v_exp, p.prop_c3)
        self.f_lin = 2.0 / dt ** 2 * diff          # (N,2)
        # rate-surrogate coefficients at the expansion, one entry per UD
        self.g_d2exp = np.add.reduce((self.exp[lay.owner] - lay.ud) ** 2,
                                     axis=1)
        den = p.altitude ** 2 + self.g_d2exp
        self.g_exp = np.log2(1.0 + lay.phi / den)
        self.g_slope = lay.phi * LOG2E / (den * (den + lay.phi))
        self.pair_e = self.exp[lay.pair_i] - self.exp[lay.pair_j]
        # derived scalars and vectors of the objective and the rows
        self.coef = p.queue_p * dt
        self.dt2, self.dt3 = dt ** 2, dt ** 3
        self.tip2 = p.tip_speed ** 2
        self.top = (p.v_max * dt) ** 2
        self.c3x2 = 2.0 * p.prop_c3
        self.d_min2 = p.d_min ** 2
        # Python floats for the evaluations: scalars, per SUAV, per UD, per
        # pair
        self._prop = (p.prop_c1 * 3.0, self.dt2, self.tip2, p.prop_c2,
                      p.prop_c4, self.dt3, p.prop_c1)
        self._grad_pos = (6.0 * p.prop_c1 / (self.tip2 * self.dt2),
                          3.0 * p.prop_c4, self.dt3)
        self._coef = coef = self.coef.tolist()
        td2, c1, c4 = self.tip2 * self.dt2, p.prop_c1, p.prop_c4
        self._hess_pos = [(c * 6.0 * c1 / td2, c * 3.0 * c4 / self.dt3)
                          for c in coef]
        self._grad_xi = [c * p.prop_c2 for c in coef]
        self._induced = [(fx, fy, 2.0 * xe, xe * xe, v * v) for (fx, fy), xe, v
                         in zip(self.f_lin.tolist(), self.xi_exp.tolist(),
                                self.v_exp.tolist())]
        self._xi_exp2 = [row[2] for row in self._induced]
        g_exp, g_slope = self.g_exp.tolist(), self.g_slope.tolist()
        self._row_curv = g_slope + [1.0] * n
        self._rates = [(o, ux, uy, ge, gs, gd) for (o, ux, uy), ge, gs, gd
                       in zip(lay.uds, g_exp, g_slope, self.g_d2exp.tolist())]
        self._seps = [(i, j, e, float(np.dot(e, e)))
                      for (i, j), e in zip(lay.pair_pos, self.pair_e)]
        # the raw Jacobian at the start scales each row by its gradient
        # norm, so the solver's feasibility precision is relative; scaled,
        # it is the template above the finite bound rows, whose varying
        # entries every use overwrites
        x0 = self.initial_point()
        self.scale = 1.0
        f0, c0 = self.evaluate(x0)
        g0, jv0 = self.derivatives(x0)
        self._kkt_a = lay.kkt_template.copy()
        jac = self._kkt_a[:lay.n_con]
        jac.flat[lay.exp_idx] = np.concatenate([
            self.f_lin.ravel(), (2.0 * self.pair_e).ravel(),
            (-2.0 * self.pair_e).ravel()])
        jac.flat[lay.var_idx] = jv0
        self.con_scale = 1.0 / (1.0 + _norm_rows(jac))
        jac *= self.con_scale[:, None]
        self._var_scale = self.con_scale[lay.var_row]
        self._con_scale = self.con_scale.tolist()
        # the start's evaluation at scale 1, which a solve from an unclipped
        # x0 reuses: x0's bytes, f, the scaled rows and the gradient
        self._at_x0 = (x0.tobytes(), f0, np.multiply(c0, self.con_scale), g0)

    # -- the evaluations ----------------------------------------------------
    def evaluate(self, x):
        """(f, c): the objective over ``scale`` and the raw constraint rows
        (a list) at x, what SLSQP asks for in its mode 1."""
        n = self.n
        xs = x.tolist()
        q, xi, zeta = xs[:2 * n], xs[2 * n:3 * n], xs[3 * n:]
        ratio = self.lay.w / x[3 * n:]
        total = 0.0
        for lo, hi in self.lay.segments:
            total += float(np.add.reduce(ratio[lo:hi]))
        d = [(q[i] - cx, q[i + 1] - cy) for i, cx, cy in self.lay.cur_xy]
        ss = [dx * dx + dy * dy for dx, dy in d]
        blade, dt2, tip2, c2, c4, dt3, c1 = self._prop
        total += float(np.add.reduce(np.array([
            coef * (blade * (s / dt2) / tip2 + c2 * v + c4 * cube / dt3 + c1)
            for coef, s, v, cube
            in zip(self._coef, ss, xi, (np.sqrt(ss) ** 3).tolist())])))
        # induced-term surrogates f_sur - c3/xi^2, rate surrogates
        # g_sur - zeta, speed balls (v_max dt)^2 - |d|^2 and separations
        # 2 e_exp.(q_i - q_j) - ||e_exp||^2 - d_min^2, each >= 0
        c3, top, d_min2 = self.p.prop_c3, self.top, self.d_min2
        c = [a2 * v - asq - vsq + (fx * dx + fy * dy) - c3 / (v * v)
             for (fx, fy, a2, asq, vsq), v, (dx, dy)
             in zip(self._induced, xi, d)]
        c += [ge - gs * (px * px + py * py - gd) - z
              for (o, ux, uy, ge, gs, gd), z in zip(self._rates, zeta)
              for px in (q[o] - ux,) for py in (q[o + 1] - uy,)]
        c += [top - s for s in ss]
        c += [2.0 * float(np.dot(e, (q[i] - q[j], q[i + 1] - q[j + 1])))
              - ee - d_min2 for i, j, e, ee in self._seps]
        return total / self.scale, c

    def derivatives(self, x):
        """(g, jv): the objective's gradient over ``scale`` (an array) and
        the varying raw Jacobian entries (a list, in ``var_idx`` order) at
        x, what SLSQP asks for in its mode -1."""
        n = self.n
        xs = x.tolist()
        q, xi, zeta = xs[:2 * n], xs[2 * n:3 * n], xs[3 * n:]
        d = [(q[i] - cx, q[i + 1] - cy) for i, cx, cy in self.lay.cur_xy]
        blade, parasite, dt3 = self._grad_pos
        g = [f * e for (dx, dy), coef in zip(d, self._coef)
             for f in (coef * (blade + parasite * math.sqrt(dx * dx + dy * dy)
                               / dt3),)
             for e in (dx, dy)]
        g += self._grad_xi
        g += [nw / (z * z) for nw, z in zip(self.lay.neg_w, zeta)]
        # the xi diagonal, then the position entries of the rate and speed
        # rows: -curvature * 2 (q_s - ref)
        c3x2 = self.c3x2
        jv = [a2 + c3x2 / v ** 3 for a2, v in zip(self._xi_exp2, xi)]
        jv += [-gs * (2.0 * e) for o, ux, uy, _, gs, _ in self._rates
               for e in (q[o] - ux, q[o + 1] - uy)]
        jv += [-1.0 * (2.0 * e) for dx, dy in d for e in (dx, dy)]
        return np.array(g) / self.scale, jv

    # -- variable packing -------------------------------------------------
    def unpack(self, x):
        n = self.n
        q = x[:2 * n].reshape(n, 2)
        xi = x[2 * n:3 * n]
        zeta = x[3 * n:]
        return q, xi, zeta

    def initial_point(self):
        return np.concatenate([self.exp.ravel(), self.xi_exp, self.g_exp])

    # -- views of the evaluations --------------------------------------------
    def objective(self, x):
        return self.evaluate(x)[0]

    def gradient(self, x):
        return self.derivatives(x)[0]

    def constraints(self, x):
        """Constraint rows c(x) >= 0, scaled by ``con_scale``."""
        return np.multiply(self.evaluate(x)[1], self.con_scale)

    def constraints_jac(self, x):
        return self._kkt_jac(self.derivatives(x)[1])[:self.lay.n_con]

    def _kkt_jac(self, jv):
        """Scaled constraint Jacobian above the finite variable-bound rows,
        from the varying raw entries ``jv``."""
        a = self._kkt_a.copy()
        a.flat[self.lay.var_idx] = np.multiply(jv, self._var_scale)
        return a

    def bounds(self):
        return list(zip(self.lay.lb, np.full(self.lay.n_var, np.inf)))

    def clip_speed(self, x):
        """Project positions exactly onto the per-slot motion ball.

        Solvers may overshoot the speed constraint by their feasibility
        tolerance; the downstream energy accounting wants it exact.
        """
        q, _, _ = self.unpack(x)
        d = q - self.cur
        dist = _norm_rows(d)
        limit = self.p.v_max * self.dt
        over = dist > limit
        if over.any():
            x = x.copy()
            q = q.copy()
            q[over] = self.cur[over] \
                + d[over] * (limit / dist[over])[:, None]
            x[:2 * self.n] = q.ravel()
        return x

    # -- second derivatives (for the Newton finisher) -------------------------
    def objective_hessian(self, x):
        """Hessian of the raw (unscaled) objective."""
        return self.lagrangian_hessian(x, (), ())

    def lagrangian_hessian(self, x, rows, lam):
        """Hessian of f - sum lam_k c_k over the given constraint rows.

        Bound rows and separation rows are linear and add nothing.  Each
        entry is 0.0 plus its objective term, then plus its rows' terms in
        the order of ``rows``.  A curved row's zero terms off the diagonal
        are left out: for a finite multiplier they change no entry.
        """
        lay, n = self.lay, self.n
        nv = lay.n_var
        h = np.zeros((nv, nv))
        diag = h.reshape(-1)[::nv + 1]
        diag[3 * n:] = 2.0 * lay.w / x[3 * n:] ** 3
        q = x[:2 * n].tolist()
        pos, off = [], []
        for (i, cx, cy), (blade, parasite) in zip(lay.cur_xy, self._hess_pos):
            dx, dy = q[i] - cx, q[i + 1] - cy
            dist = math.sqrt(dx * dx + dy * dy)
            if dist > 1e-12:
                pos += (0.0 + (blade + parasite * (dist + dx * dx / dist)),
                        0.0 + (blade + parasite * (dist + dy * dy / dist)))
                off += [parasite * (dx * dy / dist) + 0.0] * 2
            else:
                pos += (0.0 + blade, 0.0 + blade)
                off += (0.0, 0.0)
        xi = [0.0] * n
        rows = np.asarray(rows, dtype=int).tolist()
        if rows:
            xs = x[2 * n:3 * n].tolist()
            curved, c3 = 2 * n + lay.n_zeta, self.p.prop_c3
            con_scale, curv, row_pos = self._con_scale, self._row_curv, \
                lay.row_pos
            for r, l in zip(rows, np.asarray(lam, dtype=float).tolist()):
                if r >= curved or l == 0.0:
                    continue
                s = l * con_scale[r]
                if r < n:                         # induced-term surrogate
                    xi[r] += s * 6.0 * c3 / xs[r] ** 4
                else:                             # rate surrogate, speed
                    m = s * 2.0 * curv[r - n]
                    o = row_pos[r - n]
                    pos[o] += m
                    pos[o + 1] += m
        diag[:3 * n] = pos + xi
        h.reshape(-1)[lay.off_idx] = off
        return h

    def _kkt_system(self, x):
        """(a, c, grad, f, rn) at x: the scaled constraint rows above the
        finite variable bounds, as matrix and values, the gradient and value
        of the raw (unscaled) objective, and 1 + each row's norm."""
        f, rows = self.evaluate(x)
        g, jv = self.derivatives(x)
        c = np.concatenate([np.multiply(rows, self.con_scale),
                            x[2 * self.n:] - self.lay.lb[2 * self.n:]])
        a = self._kkt_jac(jv)
        return a, c, g * self.scale, f * self.scale, 1.0 + _norm_rows(a)

    def kkt_polish(self, x):
        """Newton iterations on the active-set KKT system.

        Sharpens any answer inside the quadratic basin to machine precision;
        the working set is repaired between rounds (drop rows whose
        multiplier went negative, add rows the step violated).  Returns the
        input unchanged when no progress is possible.
        """
        x = np.asarray(x, dtype=float).copy()
        nv = self.lay.n_var
        a, c, grad, _, rn = self._kkt_system(x)
        work = np.flatnonzero(c / rn <= POLISH_ACTIVE_TOL)
        aw = a[work]
        lam, _ = nnls(aw.T, grad) if len(work) else (np.zeros(0), 0.0)

        def residual(aw, c, grad, lam):
            stat = grad - aw.T @ lam if len(work) else grad
            return np.concatenate([stat, c[work]])

        # a, c, grad and rn always belong to the current x, aw to it and the
        # working set, res and err to them and lam
        res = residual(aw, c, grad, lam)
        err = math.sqrt(res.dot(res))
        for _ in range(POLISH_ROUNDS):
            for _ in range(30):
                if err < 1e-12 * (1.0 + abs(grad).max()):
                    break
                h = self.lagrangian_hessian(x, work, lam)
                k = len(work)
                kkt = np.zeros((nv + k, nv + k))
                kkt[:nv, :nv] = h
                if k:
                    kkt[:nv, nv:] = -aw.T
                    kkt[nv:, :nv] = aw
                rhs = -res
                try:
                    step = np.linalg.solve(kkt, rhs)
                except np.linalg.LinAlgError:
                    step = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
                # damp if the full step does not reduce the residual
                improved = False
                for damp in (1.0, 0.5, 0.25, 0.125, 0.0625):
                    x_new = x + damp * step[:nv]
                    lam_new = lam + damp * step[nv:]
                    a_new, c_new, grad_new, _, rn_new = \
                        self._kkt_system(x_new)
                    aw_new = a_new[work]
                    res_new = residual(aw_new, c_new, grad_new, lam_new)
                    err_new = math.sqrt(res_new.dot(res_new))
                    if err_new < err:
                        x, lam, aw = x_new, lam_new, aw_new
                        a, c, grad, rn = a_new, c_new, grad_new, rn_new
                        res, err = res_new, err_new
                        improved = True
                        break
                if not improved:
                    break
            # working-set repair
            neg = lam < -1e-9
            listed = set(work.tolist())
            violated = [i for i in np.flatnonzero(c / rn < -1e-12).tolist()
                        if i not in listed]
            if not neg.any() and not violated:
                break
            keep = ~neg
            work = np.concatenate([work[keep], np.array(violated, dtype=int)])
            lam = np.concatenate([lam[keep], np.zeros(len(violated))])
            aw = a[work]
            res = residual(aw, c, grad, lam)
            err = math.sqrt(res.dot(res))
        return x

    # -- KKT audit -----------------------------------------------------------
    def kkt_residual(self, x):
        """(residual, feasibility, objective) at x, from one evaluation.

        The residual is the max of scaled stationarity, complementarity and
        feasibility, measured on the *raw* (unscaled) objective so the
        contract does not move with the solver's normalization.  Multipliers
        are fit by nonnegative least squares over the *active* rows only
        (slack normalized by the row gradient norm), so complementary
        slackness holds by construction up to ``ACTIVE_TOL``.  Feasibility
        is the worst scaled row violation, and the objective is raw.
        """
        # variable lower bounds enter as extra constraint rows
        a, c, grad, f, rn = self._kkt_system(x)
        cons = c[:self.lay.n_con]
        active = c / rn <= ACTIVE_TOL
        lam = np.zeros(len(c))
        if active.any():
            lam[active], _ = nnls(a[active].T, grad)
        stat = abs(grad - a.T @ lam).max() / (1.0 + abs(grad).max())
        comp = (lam * abs(c)).max() / (1.0 + abs(f))
        feas = max(0.0, -cons.min()) if len(cons) else 0.0
        return float(max(stat, comp, feas)), feas, f


@functools.cache
def _slsqplib():
    """SciPy's compiled SLSQP/NNLS extension, loaded from its file beside
    the ``scipy.optimize`` package without running the package's
    ``__init__``.  It is loaded under its own name, which the interpreter
    records in ``sys.modules``, so a later ``import scipy.optimize`` finds
    this module rather than loading a second copy."""
    import scipy
    where = Path(scipy.__file__).parent / "optimize"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = where / f"_slsqplib{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(
                "scipy.optimize._slsqplib", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no compiled _slsqplib in {where} "
                      f"(scipy {scipy.__version__})")


def nnls(a, b):
    """``scipy.optimize.nnls(a, b)``: the same input conversion, iteration
    cap and failure around the same compiled Lawson-Hanson core, so the
    same result bit for bit."""
    a = np.asarray_chkfinite(a, dtype=np.float64, order="C")
    b = np.asarray_chkfinite(b, dtype=np.float64)
    x, rnorm, info = _slsqplib().nnls(a, b, 3 * a.shape[1])
    if info == 3:
        raise RuntimeError("Maximum number of iterations reached.")
    return x, rnorm


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on its first call.  No slot
    calls it: it is the tests' reference for ``_slsqp`` and a name the
    benchmark's spans wrap, while SciPy stays off the import path."""
    from scipy.optimize import minimize
    return minimize(fun, x0, **kwargs)


def _slsqp(sub: _Subproblem, x0, maxiter: int = 400) -> np.ndarray:
    """SLSQP on ``sub`` from x0 (ftol 1e-12); returns its final x.

    Runs the reverse-communication loop of Kraft's SLSQP (Kraft, *A software
    package for sequential quadratic programming*, DFVLR-FB 88-28, 1988)
    the way scipy 1.17's ``_minimize_slsqp`` does, with the inputs that
    ``minimize(method="SLSQP")`` hands the core, so the result is the same
    bit for bit (tests/test_trajectory.py holds it to ``minimize``).  The
    core's requests are answered by ``sub.evaluate`` (mode 1) and
    ``sub.derivatives`` (mode -1) directly; the Jacobian's constant entries
    are written once, since the core leaves them alone.  A start that the
    bounds leave at ``sub``'s own x0 reuses its evaluation there, and the
    template's varying entries, which hold the Jacobian at x0.
    """
    slsqp = _slsqplib().slsqp
    lay = sub.lay
    m, n = lay.n_con, lay.n_var
    x = np.clip(x0, lay.lb, np.inf)
    acc = 1e-12                                 # ftol; scipy sets tol = 10 acc
    state = {"acc": acc, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0,
             "h2": 0.0, "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0,
             "tol": 10.0 * acc, "exact": 0, "inconsistent": 0, "reset": 0,
             "iter": 0, "itermax": maxiter, "line": 0, "m": m, "meq": 0,
             "mode": 0, "n": n}
    # scipy's worst-case workspace with no equality constraints
    buffer = np.zeros(n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n
                      + 35 * n + 28)
    indices = np.zeros(m + 2 * n + 2, dtype=np.int32)
    mult = np.zeros(m + 2 * n + 2)
    # the core marks infinite bounds with NaN
    xl = np.where(np.isfinite(lay.lb), lay.lb, np.nan)
    xu = np.full(n, np.nan)
    jac = np.array(sub._kkt_a[:m], order="F")
    jac_f = jac.reshape(-1, order="F")          # a view, column-major
    d = np.empty(m)
    evaluate, derivatives = sub.evaluate, sub.derivatives
    con_scale, var_scale = sub.con_scale, sub._var_scale
    var_idx_f = lay.var_idx_f
    start, f0, d0, g0 = sub._at_x0
    if x.tobytes() == start:
        fx, g = f0 / sub.scale, g0 / sub.scale
        d[:] = d0
    else:
        fx, c = evaluate(x)
        np.multiply(c, con_scale, out=d)
        g, jv = derivatives(x)
        jac_f[var_idx_f] = np.multiply(jv, var_scale)
    while True:
        slsqp(state, fx, g, jac, d, x, mult, xl, xu, buffer, indices)
        mode = state["mode"]
        if mode == 1:
            fx, c = evaluate(x)
            np.multiply(c, con_scale, out=d)
        elif mode == -1:
            g, jv = derivatives(x)
            jac_f[var_idx_f] = np.multiply(jv, var_scale)
        else:
            return x


def solve_convex_subproblem(problem: TrajectoryProblem, expansion,
                            layout: _Layout | None = None
                            ) -> SubproblemSolution:
    """Solve one inner convex program to the KKT contract.

    Starts at the expansion point (always feasible: slacks initialized at
    their binding values) and runs SLSQP once, on the objective divided by
    f0 / 100, where f0 = |f(x0)|, or by 1 when f0 = 0 (only where the
    objective vanishes, and SLSQP ends at x0).  Over the desk fixtures'
    subproblems that scale met the contract alone on 99.5% of them, more
    than any other scale tried.  A point that misses the contract gets a
    Newton polish; a polished point that misses it too raises with its
    residuals.  ``layout`` is the slot's ``_Layout``, built here when not
    given.
    """
    sub = _Subproblem(problem, expansion, layout)
    f0 = abs(sub._at_x0[1])                     # the objective at x0
    sub.scale = f0 / 100.0 if f0 > 0.0 else 1.0
    x = sub.clip_speed(_slsqp(sub, sub.initial_point()))
    kkt, feas, f = sub.kkt_residual(x)
    if kkt > KKT_TOL or feas > FEAS_TOL:
        x = sub.clip_speed(sub.kkt_polish(x))
        kkt, feas, f = sub.kkt_residual(x)
        if kkt > KKT_TOL or feas > FEAS_TOL:
            raise RuntimeError(
                f"convex subproblem failed its optimality contract "
                f"(KKT residual {kkt:.2e}, feasibility {feas:.2e})")

    q, _, _ = sub.unpack(x)
    return SubproblemSolution(positions=q.copy(), objective=float(f),
                              kkt_residual=kkt)


@dataclass
class Stage2Result:
    positions: np.ndarray
    iterations: int
    true_values: list
    converged: bool


def run_stage2(problem: TrajectoryProblem) -> Stage2Result:
    """Outer SCA loop: re-expand at each solution until the subproblem
    objective stabilizes (|G_l - G_{l-1}| < tol, G_0 = 0)."""
    if problem.v_max * problem.dt == 0.0:
        # Feasible set is the single current placement; the motion-ball
        # gradient vanishes there, so skip the degenerate KKT system.
        frozen = problem.current_positions.copy()
        value = true_objective(problem, frozen)
        return Stage2Result(positions=frozen, iterations=0,
                            true_values=[value], converged=True)
    layout = _Layout(problem)
    expansion = problem.current_positions.copy()
    g_prev = 0.0
    true_values: list[float] = []
    converged = False
    for _ in range(problem.max_iters):
        sol = solve_convex_subproblem(problem, expansion, layout)
        expansion = sol.positions
        true_values.append(true_objective(problem, sol.positions, layout))
        if abs(sol.objective - g_prev) < problem.sca_tol:
            converged = True
            break
        g_prev = sol.objective
    return Stage2Result(positions=expansion, iterations=len(true_values),
                        true_values=true_values, converged=converged)
