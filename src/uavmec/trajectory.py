"""Next-slot SUAV placement: slack reformulation + successive convex steps.

The per-slot placement cost

    sum_n sum_{m in M_n} W_nm / log2(1 + phi_nm/(H^2 + ||q_n' - q_m||^2))
      + sum_n Qp_n * P(||q_n' - q_n||/dt) * dt

is non-convex through the rate denominators and the induced-power term, so
each outer iteration replaces them with slack variables (zeta for rates, xi
for the induced term) constrained by first-order tangent bounds taken at the
previous iterate, yielding a small smooth convex program over all 2N
positions jointly (the pairwise-separation constraint couples SUAVs).  The
subproblem is solved with SLSQP plus an explicit KKT-residual audit.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, nnls, NonlinearConstraint

from .compute import induced_speed_term, propulsion_power

LOG2E = float(np.log2(np.e))
KKT_TOL = 1e-6
FEAS_TOL = 1e-8
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
                  suav_positions, queue_p, cfg, v) -> TrajectoryProblem:
    """Assemble the placement problem from stage-1 outputs.

    ``shares`` is the (N, M) bandwidth-share matrix for SUAV rows,
    ``phi_suav`` the matching matrix of SNR numerators at the current slot.
    Zero-size tasks are dropped (their rate weight is zero); SUAVs with no
    assigned UDs still participate through the propulsion term.
    """
    profile = np.asarray(profile)
    data_bits = np.asarray(data_bits, dtype=float)
    n = len(suav_positions)
    weight_num = v * (cfg.gamma_time * data_bits
                      + cfg.gamma_energy * cfg.ud_tx_power * data_bits)
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


def surrogate_f(xi, q_next, expansion_q, current_q, xi_exp, dt):
    """Tangent lower bound of f(xi, q') = xi^2 + ||q' - q||^2/dt^2."""
    q_next = np.asarray(q_next, dtype=float)
    diff_exp = np.asarray(expansion_q, dtype=float) - current_q
    v2_exp = float(np.dot(diff_exp, diff_exp)) / dt ** 2
    linear = 2.0 / dt ** 2 * float(np.dot(diff_exp, q_next - current_q))
    return xi_exp ** 2 + 2.0 * xi_exp * (xi - xi_exp) - v2_exp + linear


def true_f(xi, q_next, current_q, dt):
    diff = np.asarray(q_next, dtype=float) - current_q
    return xi ** 2 + float(np.dot(diff, diff)) / dt ** 2


def surrogate_g(q_next, expansion_q, ud_position, phi, altitude):
    """Tangent lower bound of the spectral efficiency g at the expansion."""
    d2_exp = float(np.sum((np.asarray(expansion_q) - ud_position) ** 2))
    den = altitude ** 2 + d2_exp
    g_exp = np.log2(1.0 + phi / den)
    slope = phi * LOG2E / (den * (den + phi))
    d2 = float(np.sum((np.asarray(q_next) - ud_position) ** 2))
    return float(g_exp - slope * (d2 - d2_exp))


def true_g(q, ud_position, phi, altitude):
    d2 = float(np.sum((np.asarray(q) - ud_position) ** 2))
    return float(np.log2(1.0 + phi / (altitude ** 2 + d2)))


def surrogate_h(q_i, q_j, expansion_i, expansion_j):
    """Tangent lower bound of ||q_i - q_j||^2 (affine in both positions)."""
    e_exp = np.asarray(expansion_i, dtype=float) - expansion_j
    e = np.asarray(q_i, dtype=float) - q_j
    return float(2.0 * np.dot(e_exp, e) - np.dot(e_exp, e_exp))


def true_h(q_i, q_j):
    e = np.asarray(q_i, dtype=float) - q_j
    return float(np.dot(e, e))


def true_objective(problem: TrajectoryProblem, positions) -> float:
    """The actual placement cost at given next positions.

    Terms are added one at a time, in the order SUAV 0's UD rate terms,
    SUAV 0's propulsion term, SUAV 1's rate terms, and so on.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    asg = problem.assignments
    n = len(asg)
    k_n = [len(a.weights) for a in asg]
    owner = np.repeat(np.arange(n), k_n)
    ud = np.concatenate([a.ud_positions for a in asg])
    d2 = np.sum((positions[owner] - ud) ** 2, axis=1)
    g = np.log2(1.0 + np.concatenate([a.phi for a in asg])
                / (problem.altitude ** 2 + d2))
    # a 1-D norm is sqrt(dot), and dot may round unlike sum(d * d)
    moved = positions - problem.current_positions
    speed = np.sqrt([np.dot(e, e) for e in moved]) / problem.dt
    terms = np.zeros(1 + len(owner) + n)    # the running sum starts at 0.0
    terms[1 + np.arange(len(owner)) + owner] = \
        np.concatenate([a.weights for a in asg]) / g
    terms[np.cumsum(k_n) + np.arange(1, n + 1)] = \
        problem.queue_p * problem.dt * propulsion_power(
            speed, problem.prop_c1, problem.prop_c2, problem.prop_c3,
            problem.prop_c4, problem.tip_speed)
    return float(np.add.accumulate(terms)[-1])


@dataclass
class SubproblemSolution:
    positions: np.ndarray
    xi: np.ndarray
    zeta: list
    objective: float
    kkt_residual: float


_EYE2 = np.eye(2).ravel()


class _Subproblem:
    """One convex subproblem instance with packed variables [q, xi, zeta].

    Everything fixed for the instance is built once here: the rate-surrogate
    coefficients of all UDs as flat arrays with an owner index, the pair
    arrays, the derived scalars and a Jacobian template holding the constant
    entries.  Each evaluation is then a few array operations.  Every value
    is computed with the same floating-point operations, in the same order,
    as the per-SUAV formulas, so results are bit-for-bit those of the
    formulas (tests/test_subproblem_kernels.py keeps them as the oracle).
    Two rules keep it so: a power other than a square is taken per scalar
    (NumPy's array ``**`` rounds differently), and the separation rows keep
    ``np.dot`` on 2-vectors (BLAS may fuse its multiply-add).

    Constraint rows are ordered: induced-term surrogates (N), rate
    surrogates (K, SUAV by SUAV), speed balls (N), separations (pairs).
    """

    def __init__(self, problem: TrajectoryProblem, expansion: np.ndarray):
        self.p = p = problem
        n = problem.n_suavs
        self.n = n
        self.exp = np.asarray(expansion, dtype=float).reshape(n, 2)
        self.cur = problem.current_positions
        self.dt = problem.dt
        diff = self.exp - self.cur
        self.v_exp = np.linalg.norm(diff, axis=1) / self.dt
        self.xi_exp = induced_speed_term(self.v_exp, problem.prop_c3)
        self.f_lin = 2.0 / self.dt ** 2 * diff          # (N,2)
        asg = problem.assignments
        k_n = [len(a.weights) for a in asg]
        self.n_zeta = k = sum(k_n)
        self.zeta_off = np.cumsum([0] + k_n)
        self.n_var = nv = 3 * n + k
        self.lb = np.concatenate([np.full(2 * n, -np.inf),
                                  np.full(n, XI_FLOOR),
                                  np.full(k, ZETA_FLOOR)])
        self._segments = [(int(lo), int(hi)) for lo, hi
                          in zip(self.zeta_off[:-1], self.zeta_off[1:])
                          if hi > lo]
        # rate-surrogate coefficients at the expansion, one entry per UD
        rows = np.arange(n)
        owner = np.repeat(rows, k_n)
        self.ud = np.concatenate([a.ud_positions for a in asg])
        self.w = np.concatenate([a.weights for a in asg])
        phi = np.concatenate([a.phi for a in asg])
        self.g_d2exp = np.add.reduce((self.exp[owner] - self.ud) ** 2, axis=1)
        den = p.altitude ** 2 + self.g_d2exp
        self.g_exp = np.log2(1.0 + phi / den)
        self.g_slope = phi * LOG2E / (den * (den + phi))
        # the curved rows (induced, rate, speed) each read one position
        # q_s - ref: s and ref are (i, cur_i), (owner, ud) and (i, cur_i)
        self._pos_idx = 2 * np.concatenate([rows, owner, rows])[:, None] \
            + [0, 1]
        self._pos_ref = np.concatenate([self.cur, self.ud, self.cur])
        # rate and speed rows are top - curv * (||q_s - ref||^2 - base);
        # the speed row's unit curvature and zero base leave it exact
        self._row_top = np.concatenate([self.g_exp,
                                        np.full(n, (p.v_max * self.dt) ** 2)])
        self._row_curv = np.concatenate([self.g_slope, np.ones(n)])
        self._row_base = np.concatenate([self.g_d2exp, np.zeros(n)])
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pair_i = np.array([i for i, _ in pairs], dtype=int)
        pair_j = np.array([j for _, j in pairs], dtype=int)
        self._pair_qi = 2 * pair_i[:, None] + [0, 1]
        self._pair_qj = 2 * pair_j[:, None] + [0, 1]
        self.pair_e = self.exp[pair_i] - self.exp[pair_j]
        self.pair_ee = np.array([np.dot(e, e) for e in self.pair_e])
        self.n_con = 2 * n + k + len(pairs)
        # derived scalars and vectors of the objective and the rows
        self.coef = p.queue_p * self.dt
        self.grad_xi = self.coef * p.prop_c2
        self.neg_w = -self.w
        self.dt2, self.dt3 = self.dt ** 2, self.dt ** 3
        self.blade = p.prop_c1 * 3.0
        self.tip2 = p.tip_speed ** 2
        self.blade_grad = 6.0 * p.prop_c1 / (self.tip2 * self.dt2)
        self.parasite_grad = 3.0 * p.prop_c4
        self.xi_exp2 = 2.0 * self.xi_exp
        self.xi_exp_sq, self.v_exp_sq = self.xi_exp ** 2, self.v_exp ** 2
        self.c3x2 = 2.0 * p.prop_c3
        self.d_min2 = p.d_min ** 2
        # raw Jacobian: constant entries (f_lin, the -1 of each zeta, the
        # separation rows) in a template; the xi diagonal and the position
        # entries of the rate and speed rows vary, at flat indices _var_idx
        sep = (2 * n + k + np.arange(len(pairs)))[:, None] * nv
        jac = np.zeros((self.n_con, nv))
        jac.flat[np.concatenate([
            (rows[:, None] * nv + self._pos_idx[:n]).ravel(),
            (n + np.arange(k)) * nv + 3 * n + np.arange(k),
            (sep + self._pair_qi).ravel(),
            (sep + self._pair_qj).ravel()])] = np.concatenate([
                self.f_lin.ravel(), np.full(k, -1.0),
                (2.0 * self.pair_e).ravel(), (-2.0 * self.pair_e).ravel()])
        self._jac_raw = jac
        self._var_idx = np.concatenate([
            rows * nv + 2 * n + rows,
            ((n + np.arange(k + n))[:, None] * nv
             + self._pos_idx[n:]).ravel()])
        self._neg_curv = -self._row_curv
        # Hessian targets: the 2x2 position block of each SUAV, and the
        # block of the SUAV each rate or speed row reads
        block = 2 * rows[:, None] * (nv + 1) + [0, 1, nv, nv + 1]
        self._block_idx = block.ravel()
        self._row_block = block[np.concatenate([owner, rows])]
        self.scale = 1.0
        # normalize constraint rows by their gradient norm at the start so
        # the solver's feasibility precision is relative, not absolute
        raw = self._constraints_jac_raw(self.initial_point())
        self.con_scale = 1.0 / (1.0 + np.linalg.norm(raw, axis=1))
        # scaled Jacobian with the finite variable bounds as extra rows
        self._kkt_a = np.vstack([jac * self.con_scale[:, None],
                                 np.eye(nv)[2 * n:]])
        self._var_scale = self.con_scale[self._var_idx // nv]

    # -- variable packing -------------------------------------------------
    def unpack(self, x):
        n = self.n
        q = x[:2 * n].reshape(n, 2)
        xi = x[2 * n:3 * n]
        zeta = x[3 * n:]
        return q, xi, zeta

    def initial_point(self):
        return np.concatenate([self.exp.ravel(), self.xi_exp, self.g_exp])

    # -- objective ---------------------------------------------------------
    def objective(self, x):
        n = self.n
        p = self.p
        ratio = self.w / x[3 * n:]
        total = 0.0
        for lo, hi in self._segments:
            total += np.add.reduce(ratio[lo:hi])
        d = x[self._pos_idx[:n]] - self.cur
        ss = np.add.reduce(d * d, axis=1)
        prop = self.blade * (ss / self.dt2) / self.tip2 \
            + p.prop_c2 * x[2 * n:3 * n] \
            + p.prop_c4 * np.sqrt(ss) ** 3 / self.dt3 + p.prop_c1
        total += np.add.reduce(self.coef * prop)
        return total / self.scale

    def gradient(self, x):
        n = self.n
        g = np.empty_like(x)
        g[3 * n:] = self.neg_w / x[3 * n:] ** 2
        g[2 * n:3 * n] = self.grad_xi
        d = x[self._pos_idx[:n]] - self.cur
        factor = self.coef * (self.blade_grad + self.parasite_grad
                              * np.sqrt(np.add.reduce(d * d, axis=1))
                              / self.dt3)
        g[:2 * n] = (factor[:, None] * d).ravel()
        return g / self.scale

    # -- constraints (vector c(x) >= 0) -------------------------------------
    def constraints(self, x):
        return self._constraints_raw(x) * self.con_scale

    def constraints_jac(self, x):
        return self._kkt_jac(x)[:self.n_con]

    def _constraints_raw(self, x):
        n, k = self.n, self.n_zeta
        xi = x[2 * n:3 * n]
        c = np.empty(self.n_con)
        # per curved row: f_lin.(q - cur) for the induced rows, and
        # ||q_s - ref||^2 for the rate and speed rows
        pos = x[self._pos_idx] - self._pos_ref
        sq = pos * pos
        sq[:n] = self.f_lin * pos[:n]
        sq = np.add.reduce(sq, axis=1)
        # induced-term surrogate: f_sur - c3/xi^2 >= 0
        c[:n] = self.xi_exp2 * xi - self.xi_exp_sq - self.v_exp_sq \
            + sq[:n] - self.p.prop_c3 / xi ** 2
        # rate surrogates g_sur - zeta >= 0; speed (v_max dt)^2 - |d|^2 >= 0
        c[n:2 * n + k] = self._row_top - self._row_curv \
            * (sq[n:] - self._row_base)
        c[n:n + k] -= x[3 * n:]
        # separation: 2 e_exp.(q_i - q_j) - ||e_exp||^2 - d_min^2 >= 0
        if len(self.pair_e):
            dots = [np.dot(e, f) for e, f in
                    zip(self.pair_e, x[self._pair_qi] - x[self._pair_qj])]
            c[2 * n + k:] = 2.0 * np.array(dots) - self.pair_ee \
                - self.d_min2
        return c

    def _jac_values(self, x):
        """The Jacobian entries that vary with x, in ``_var_idx`` order."""
        n = self.n
        cube = np.array([v ** 3 for v in x[2 * n:3 * n]])
        return np.concatenate([
            self.xi_exp2 + self.c3x2 / cube,
            (self._neg_curv[:, None] * (2.0 * (x[self._pos_idx[n:]]
                                              - self._pos_ref[n:]))).ravel()])

    def _constraints_jac_raw(self, x):
        jac = self._jac_raw.copy()
        jac.flat[self._var_idx] = self._jac_values(x)
        return jac

    def _kkt_jac(self, x):
        """Scaled constraint Jacobian above the finite variable-bound rows."""
        a = self._kkt_a.copy()
        a.flat[self._var_idx] = self._jac_values(x) * self._var_scale
        return a

    def bounds(self):
        return list(zip(self.lb, np.full(self.n_var, np.inf)))

    def clip_speed(self, x):
        """Project positions exactly onto the per-slot motion ball.

        Solvers may overshoot the speed constraint by their feasibility
        tolerance; the downstream energy accounting wants it exact.
        """
        q, _, _ = self.unpack(x)
        d = q - self.cur
        dist = np.linalg.norm(d, axis=1)
        limit = self.p.v_max * self.dt
        over = dist > limit
        if np.any(over):
            x = x.copy()
            q = q.copy()
            q[over] = self.cur[over] \
                + d[over] * (limit / dist[over])[:, None]
            x[:2 * self.n] = q.ravel()
        return x

    # -- second derivatives (for the Newton finisher) -------------------------
    def objective_hessian(self, x):
        """Hessian of the raw (unscaled) objective."""
        q, xi, zeta = self.unpack(x)
        p = self.p
        h = np.zeros((self.n_var, self.n_var))
        zi = 3 * self.n + np.arange(self.n_zeta)
        h[zi, zi] = 2.0 * self.w / zeta ** 3
        d = q - self.cur
        dist = np.linalg.norm(d, axis=1)
        blade = self.coef * 6.0 * p.prop_c1 / (self.tip2 * self.dt2)
        block = blade[:, None] * _EYE2
        m = dist > 1e-12
        if m.any():
            dm, rm = d[m], dist[m][:, None]
            outer = (dm[:, :, None] * dm[:, None, :]).reshape(-1, 4)
            parasite = self.coef[m] * 3.0 * p.prop_c4 / self.dt3
            block[m] = block[m] + parasite[:, None] * (rm * _EYE2
                                                       + outer / rm)
        h.flat[self._block_idx] += block.ravel()
        return h

    def lagrangian_hessian(self, x, rows, lam):
        """Hessian of f - sum lam_k c_k over the given constraint rows.

        Bound rows and separation rows are linear and add nothing.  Terms
        that land on one entry are added in the order of ``rows``.
        """
        _, xi, _ = self.unpack(x)
        h = self.objective_hessian(x)
        rows = np.asarray(rows, dtype=int)
        lam = np.asarray(lam, dtype=float)
        keep = (rows < 2 * self.n + self.n_zeta) & (lam != 0.0)
        rows = rows[keep]
        s = lam[keep] * self.con_scale[rows]
        ind = rows < self.n                       # induced-term surrogates
        if ind.any():
            i = rows[ind]
            quart = np.array([xi[j] ** 4 for j in i])
            np.add.at(h.reshape(-1), (2 * self.n + i) * (self.n_var + 1),
                      s[ind] * 6.0 * self.p.prop_c3 / quart)
        curved = ~ind                             # rate surrogates, speed
        if curved.any():
            r = rows[curved] - self.n
            m = s[curved] * 2.0 * self._row_curv[r]
            np.add.at(h.reshape(-1), self._row_block[r].ravel(),
                      (m[:, None] * _EYE2).ravel())
        return h

    def _kkt_rows(self, x):
        """Constraint rows plus finite variable bounds, as (matrix, values)."""
        c = np.concatenate([self.constraints(x),
                            x[2 * self.n:] - self.lb[2 * self.n:]])
        return self._kkt_jac(x), c

    def kkt_polish(self, x, active_tol: float = 1e-5, max_rounds: int = 4):
        """Newton iterations on the active-set KKT system.

        Sharpens any answer inside the quadratic basin to machine precision;
        the working set is repaired between rounds (drop rows whose
        multiplier went negative, add rows the step violated).  Returns the
        input unchanged when no progress is possible.
        """
        x = np.asarray(x, dtype=float).copy()
        a, c = self._kkt_rows(x)
        grad = self.gradient(x) * self.scale
        rn = 1.0 + np.linalg.norm(a, axis=1)
        work = np.flatnonzero(c / rn <= active_tol)
        lam, _ = nnls(a[work].T, grad) if len(work) else (np.zeros(0), 0.0)

        def residual(a, c, grad, lam, work):
            stat = grad - a[work].T @ lam if len(work) else grad
            return np.concatenate([stat, c[work]])

        # a, c and grad always belong to the current x
        for _ in range(max_rounds):
            for _ in range(30):
                res = residual(a, c, grad, lam, work)
                err = np.linalg.norm(res)
                if err < 1e-12 * (1.0 + np.abs(grad).max()):
                    break
                h = self.lagrangian_hessian(x, work, lam)
                k = len(work)
                kkt = np.zeros((self.n_var + k, self.n_var + k))
                kkt[:self.n_var, :self.n_var] = h
                if k:
                    kkt[:self.n_var, self.n_var:] = -a[work].T
                    kkt[self.n_var:, :self.n_var] = a[work]
                rhs = -res
                try:
                    step = np.linalg.solve(kkt, rhs)
                except np.linalg.LinAlgError:
                    step = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
                # damp if the full step does not reduce the residual
                improved = False
                for damp in (1.0, 0.5, 0.25, 0.125, 0.0625):
                    x_new = x + damp * step[:self.n_var]
                    lam_new = lam + damp * step[self.n_var:]
                    a_new, c_new = self._kkt_rows(x_new)
                    grad_new = self.gradient(x_new) * self.scale
                    if np.linalg.norm(residual(a_new, c_new, grad_new,
                                               lam_new, work)) < err:
                        x, lam = x_new, lam_new
                        a, c, grad = a_new, c_new, grad_new
                        improved = True
                        break
                if not improved:
                    break
            # working-set repair
            rn = 1.0 + np.linalg.norm(a, axis=1)
            neg = lam < -1e-9
            violated = np.setdiff1d(np.flatnonzero(c / rn < -1e-12), work)
            if not neg.any() and len(violated) == 0:
                break
            keep = ~neg
            work = np.concatenate([work[keep], violated]).astype(int)
            lam = np.concatenate([lam[keep], np.zeros(len(violated))])
        return x

    # -- KKT audit -----------------------------------------------------------
    def kkt_residual(self, x, active_tol: float = 1e-6):
        """max of scaled stationarity / complementarity / feasibility.

        Measured on the *raw* (unscaled) objective so the contract does not
        move with the solver's normalization.  Multipliers are fit by
        nonnegative least squares over the *active* rows only (slack
        normalized by the row gradient norm), so complementary slackness
        holds by construction up to ``active_tol``.
        """
        grad = self.gradient(x) * self.scale
        # variable lower bounds enter as extra constraint rows
        a, c = self._kkt_rows(x)
        cons = c[:self.n_con]
        row_norm = 1.0 + np.linalg.norm(a, axis=1)
        active = c / row_norm <= active_tol
        lam = np.zeros(len(c))
        if np.any(active):
            lam[active], _ = nnls(a[active].T, grad)
        stat = np.max(np.abs(grad - a.T @ lam)) / (1.0 + np.max(np.abs(grad)))
        comp = np.max(lam * np.abs(c)) \
            / (1.0 + abs(self.objective(x) * self.scale))
        feas = max(0.0, -np.min(cons)) if len(cons) else 0.0
        return float(max(stat, comp, feas))


def solve_convex_subproblem(problem: TrajectoryProblem,
                            expansion) -> SubproblemSolution:
    """Solve one inner convex program to the KKT contract.

    Starts at the expansion point (always feasible: slacks initialized at
    their binding values).  SLSQP stalls on different instances depending on
    how the objective is normalized, so it runs once on the unit-scaled
    problem and, if the audit misses the 1e-6 target, again unscaled; a
    trust-region pass is the last resort.  Raises with the residuals if all
    fail.
    """
    sub = _Subproblem(problem, expansion)
    x0 = sub.initial_point()
    f0 = abs(sub.objective(x0))

    def audit(x):
        return (sub.kkt_residual(x),
                -min(float(np.min(sub.constraints(x))), 0.0))

    cons = [{"type": "ineq", "fun": sub.constraints,
             "jac": sub.constraints_jac}]
    candidates = []

    def passed(x_try):
        x_try = sub.clip_speed(x_try)
        kkt_try, feas_try = audit(x_try)
        score = max(kkt_try / KKT_TOL, feas_try / FEAS_TOL)
        if score > 1.0:
            x_pol = sub.clip_speed(sub.kkt_polish(x_try))
            kkt_pol, feas_pol = audit(x_pol)
            if max(kkt_pol / KKT_TOL, feas_pol / FEAS_TOL) < score:
                x_try, kkt_try, feas_try = x_pol, kkt_pol, feas_pol
                score = max(kkt_pol / KKT_TOL, feas_pol / FEAS_TOL)
        candidates.append((score, len(candidates), x_try, kkt_try, feas_try))
        return score <= 1.0

    done = False
    with warnings.catch_warnings():
        # scipy chatters about clipped probe points and flat quasi-Newton
        # updates; both are routine here and the audit gates the result.
        warnings.simplefilter("ignore", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)
        for scale in (max(1.0, f0), 1.0):
            sub.scale = scale
            res = minimize(sub.objective, x0, jac=sub.gradient,
                           method="SLSQP", bounds=sub.bounds(),
                           constraints=cons,
                           options={"maxiter": 400, "ftol": 1e-12})
            if passed(res.x):
                done = True
                break
        if not done:
            # SLSQP stalls in flat directions (tiny position gradient under
            # a huge queue-weighted slack gradient); a trust region driven
            # deep from the exactly feasible expansion lands in the Newton
            # basin
            nlc = NonlinearConstraint(sub.constraints, 0.0, np.inf,
                                      jac=sub.constraints_jac)
            sub.scale = 1.0
            res2 = minimize(sub.objective, x0, jac=sub.gradient,
                            method="trust-constr", constraints=[nlc],
                            bounds=sub.bounds(),
                            options={"gtol": 1e-14, "xtol": 1e-14,
                                     "maxiter": 5000})
            passed(res2.x)
    _, _, x, kkt, feas = min(candidates)
    if kkt > KKT_TOL or feas > FEAS_TOL:
        raise RuntimeError(
            f"convex subproblem failed its optimality contract "
            f"(KKT residual {kkt:.2e}, feasibility {feas:.2e})")

    q, xi, zeta = sub.unpack(x)
    zetas = [zeta[sub.zeta_off[i]:sub.zeta_off[i + 1]]
             for i in range(sub.n)]
    return SubproblemSolution(positions=q.copy(), xi=xi.copy(), zeta=zetas,
                              objective=float(sub.objective(x) * sub.scale),
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
    expansion = problem.current_positions.copy()
    g_prev = 0.0
    true_values: list[float] = []
    converged = False
    iterations = 0
    for _ in range(problem.max_iters):
        iterations += 1
        sol = solve_convex_subproblem(problem, expansion)
        expansion = sol.positions
        true_values.append(true_objective(problem, sol.positions))
        if abs(sol.objective - g_prev) < problem.sca_tol:
            converged = True
            break
        g_prev = sol.objective
    return Stage2Result(positions=expansion, iterations=iterations,
                        true_values=true_values, converged=converged)
