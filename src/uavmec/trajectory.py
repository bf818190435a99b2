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
    """The actual placement cost at given next positions."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    total = 0.0
    for n, asg in enumerate(problem.assignments):
        for j in range(len(asg.weights)):
            g = true_g(positions[n], asg.ud_positions[j], asg.phi[j],
                       problem.altitude)
            total += asg.weights[j] / g
        v = float(np.linalg.norm(positions[n] - problem.current_positions[n])
                  / problem.dt)
        total += problem.queue_p[n] * problem.dt * propulsion_power(
            v, problem.prop_c1, problem.prop_c2, problem.prop_c3,
            problem.prop_c4, problem.tip_speed)
    return float(total)


@dataclass
class SubproblemSolution:
    positions: np.ndarray
    xi: np.ndarray
    zeta: list
    objective: float
    kkt_residual: float


class _Subproblem:
    """One convex subproblem instance with packed variables [q, xi, zeta]."""

    def __init__(self, problem: TrajectoryProblem, expansion: np.ndarray):
        self.p = problem
        n = problem.n_suavs
        self.n = n
        self.exp = np.asarray(expansion, dtype=float).reshape(n, 2)
        self.cur = problem.current_positions
        self.dt = problem.dt
        diff = self.exp - self.cur
        self.v_exp = np.linalg.norm(diff, axis=1) / self.dt
        self.xi_exp = induced_speed_term(self.v_exp, problem.prop_c3)
        self.f_lin = 2.0 / self.dt ** 2 * diff          # (N,2)
        self.k_n = [len(a.weights) for a in problem.assignments]
        self.n_zeta = int(sum(self.k_n))
        self.zeta_off = np.cumsum([0] + self.k_n)
        self.n_var = 2 * n + n + self.n_zeta
        self.lb = np.concatenate([np.full(2 * n, -np.inf),
                                  np.full(n, XI_FLOOR),
                                  np.full(self.n_zeta, ZETA_FLOOR)])
        # rate-surrogate coefficients at the expansion
        self.g_exp, self.g_slope, self.g_d2exp = [], [], []
        for i, asg in enumerate(problem.assignments):
            d2 = np.sum((self.exp[i] - asg.ud_positions) ** 2, axis=1)
            den = problem.altitude ** 2 + d2
            self.g_d2exp.append(d2)
            self.g_exp.append(np.log2(1.0 + asg.phi / den))
            self.g_slope.append(asg.phi * LOG2E / (den * (den + asg.phi)))
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.pair_e = [self.exp[i] - self.exp[j] for i, j in self.pairs]
        self.n_con = n + self.n_zeta + n + len(self.pairs)
        self.scale = 1.0
        # normalize constraint rows by their gradient norm at the start so
        # the solver's feasibility precision is relative, not absolute
        self.con_scale = np.ones(self.n_con)
        raw = self._constraints_jac_raw(self.initial_point())
        self.con_scale = 1.0 / (1.0 + np.linalg.norm(raw, axis=1))

    # -- variable packing -------------------------------------------------
    def unpack(self, x):
        n = self.n
        q = x[:2 * n].reshape(n, 2)
        xi = x[2 * n:3 * n]
        zeta = x[3 * n:]
        return q, xi, zeta

    def initial_point(self):
        x0 = np.concatenate([self.exp.ravel(), self.xi_exp,
                             np.concatenate([g for g in self.g_exp])
                             if self.n_zeta else np.zeros(0)])
        return x0

    # -- objective ---------------------------------------------------------
    def objective(self, x):
        q, xi, zeta = self.unpack(x)
        p = self.p
        total = 0.0
        for i in range(self.n):
            lo, hi = self.zeta_off[i], self.zeta_off[i + 1]
            if hi > lo:
                total += np.sum(p.assignments[i].weights / zeta[lo:hi])
        d = q - self.cur
        dist = np.linalg.norm(d, axis=1)
        v2 = np.sum(d * d, axis=1) / self.dt ** 2
        prop = p.prop_c1 * 3.0 * v2 / p.tip_speed ** 2 \
            + p.prop_c2 * xi + p.prop_c4 * dist ** 3 / self.dt ** 3 \
            + p.prop_c1
        total += np.sum(p.queue_p * self.dt * prop)
        return total / self.scale

    def gradient(self, x):
        q, xi, zeta = self.unpack(x)
        p = self.p
        g = np.zeros_like(x)
        for i in range(self.n):
            lo, hi = self.zeta_off[i], self.zeta_off[i + 1]
            if hi > lo:
                g[3 * self.n + lo:3 * self.n + hi] = \
                    -p.assignments[i].weights / zeta[lo:hi] ** 2
        coef = p.queue_p * self.dt
        g[2 * self.n:3 * self.n] = coef * p.prop_c2
        d = q - self.cur
        dist = np.linalg.norm(d, axis=1)
        factor = coef * (6.0 * p.prop_c1 / (p.tip_speed ** 2 * self.dt ** 2)
                         + 3.0 * p.prop_c4 * dist / self.dt ** 3)
        g[:2 * self.n] = (factor[:, None] * d).ravel()
        return g / self.scale

    # -- constraints (vector c(x) >= 0) -------------------------------------
    def constraints(self, x):
        return self._constraints_raw(x) * self.con_scale

    def constraints_jac(self, x):
        return self._constraints_jac_raw(x) * self.con_scale[:, None]

    def _constraints_raw(self, x):
        q, xi, zeta = self.unpack(x)
        p = self.p
        c = np.empty(self.n_con)
        # induced-term surrogate: f_sur - c3/xi^2 >= 0
        lin = np.sum(self.f_lin * (q - self.cur), axis=1)
        f_sur = 2.0 * self.xi_exp * xi - self.xi_exp ** 2 \
            - self.v_exp ** 2 + lin
        c[:self.n] = f_sur - p.prop_c3 / xi ** 2
        # rate surrogates: g_sur - zeta >= 0
        for i in range(self.n):
            lo, hi = self.zeta_off[i], self.zeta_off[i + 1]
            if hi == lo:
                continue
            d2 = np.sum((q[i] - p.assignments[i].ud_positions) ** 2, axis=1)
            g_sur = self.g_exp[i] - self.g_slope[i] * (d2 - self.g_d2exp[i])
            c[self.n + lo:self.n + hi] = g_sur - zeta[lo:hi]
        # speed: (v_max dt)^2 - ||q - cur||^2 >= 0
        base = self.n + self.n_zeta
        d = q - self.cur
        c[base:base + self.n] = (p.v_max * self.dt) ** 2 - np.sum(d * d,
                                                                  axis=1)
        # separation: 2 e_exp.(q_i - q_j) - ||e_exp||^2 - d_min^2 >= 0
        for k, (i, j) in enumerate(self.pairs):
            e_exp = self.pair_e[k]
            c[base + self.n + k] = 2.0 * np.dot(e_exp, q[i] - q[j]) \
                - np.dot(e_exp, e_exp) - p.d_min ** 2
        return c

    def _constraints_jac_raw(self, x):
        q, xi, zeta = self.unpack(x)
        p = self.p
        jac = np.zeros((self.n_con, self.n_var))
        for i in range(self.n):
            jac[i, 2 * i:2 * i + 2] = self.f_lin[i]
            jac[i, 2 * self.n + i] = 2.0 * self.xi_exp[i] \
                + 2.0 * p.prop_c3 / xi[i] ** 3
        for i in range(self.n):
            lo, hi = self.zeta_off[i], self.zeta_off[i + 1]
            if hi == lo:
                continue
            rows = slice(self.n + lo, self.n + hi)
            dq = 2.0 * (q[i][None, :] - p.assignments[i].ud_positions)
            jac[rows, 2 * i:2 * i + 2] = -self.g_slope[i][:, None] * dq
            jac[np.arange(self.n + lo, self.n + hi),
                3 * self.n + np.arange(lo, hi)] = -1.0
        base = self.n + self.n_zeta
        for i in range(self.n):
            jac[base + i, 2 * i:2 * i + 2] = -2.0 * (q[i] - self.cur[i])
        for k, (i, j) in enumerate(self.pairs):
            e_exp = self.pair_e[k]
            jac[base + self.n + k, 2 * i:2 * i + 2] = 2.0 * e_exp
            jac[base + self.n + k, 2 * j:2 * j + 2] = -2.0 * e_exp
        return jac

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
        if self.n_zeta:
            idx = 3 * self.n + np.arange(self.n_zeta)
            wts = np.concatenate([a.weights for a in p.assignments
                                  if len(a.weights)])
            h[idx, idx] = 2.0 * wts / zeta ** 3
        coef = p.queue_p * self.dt
        d = q - self.cur
        dist = np.linalg.norm(d, axis=1)
        for i in range(self.n):
            sl = slice(2 * i, 2 * i + 2)
            block = coef[i] * 6.0 * p.prop_c1 \
                / (p.tip_speed ** 2 * self.dt ** 2) * np.eye(2)
            if dist[i] > 1e-12:
                block = block + coef[i] * 3.0 * p.prop_c4 / self.dt ** 3 \
                    * (dist[i] * np.eye(2) + np.outer(d[i], d[i]) / dist[i])
            h[sl, sl] += block
        return h

    def lagrangian_hessian(self, x, rows, lam):
        """Hessian of f - sum lam_k c_k over the given constraint rows."""
        q, xi, zeta = self.unpack(x)
        p = self.p
        h = self.objective_hessian(x)
        for lam_k, row in zip(lam, rows):
            if row >= self.n_con or lam_k == 0.0:
                continue     # bound rows and separation rows are linear
            s = lam_k * self.con_scale[row]
            if row < self.n:                      # induced-term surrogate
                i = row
                h[2 * self.n + i, 2 * self.n + i] += \
                    s * 6.0 * p.prop_c3 / xi[i] ** 4
            elif row < self.n + self.n_zeta:      # rate surrogate
                k = row - self.n
                i = int(np.searchsorted(self.zeta_off, k, side="right")) - 1
                slope = self.g_slope[i][k - self.zeta_off[i]]
                sl = slice(2 * i, 2 * i + 2)
                h[sl, sl] += s * 2.0 * slope * np.eye(2)
            elif row < 2 * self.n + self.n_zeta:  # speed ball
                i = row - self.n - self.n_zeta
                sl = slice(2 * i, 2 * i + 2)
                h[sl, sl] += s * 2.0 * np.eye(2)
        return h

    def _kkt_rows(self, x):
        """Constraint rows plus finite variable bounds, as (matrix, values)."""
        finite = np.isfinite(self.lb)
        a = np.vstack([self.constraints_jac(x), np.eye(self.n_var)[finite]])
        c = np.concatenate([self.constraints(x), (x - self.lb)[finite]])
        return a, c

    def kkt_polish(self, x, active_tol: float = 1e-5, max_rounds: int = 4):
        """Newton iterations on the active-set KKT system.

        Sharpens any answer inside the quadratic basin to machine precision;
        the working set is repaired between rounds (drop rows whose
        multiplier went negative, add rows the step violated).  Returns the
        input unchanged when no progress is possible.
        """
        x = np.asarray(x, dtype=float).copy()
        a, c = self._kkt_rows(x)
        rn = 1.0 + np.linalg.norm(a, axis=1)
        work = np.flatnonzero(c / rn <= active_tol)
        grad = self.gradient(x) * self.scale
        lam, _ = nnls(a[work].T, grad) if len(work) else (np.zeros(0), 0.0)

        def residual(x, lam, work):
            a, c = self._kkt_rows(x)
            grad = self.gradient(x) * self.scale
            stat = grad - a[work].T @ lam if len(work) else grad
            return stat, c[work], a

        for _ in range(max_rounds):
            for _ in range(30):
                stat, feas, a = residual(x, lam, work)
                err = np.linalg.norm(np.concatenate([stat, feas]))
                if err < 1e-12 * (1.0 + np.abs(self.gradient(x)
                                               * self.scale).max()):
                    break
                h = self.lagrangian_hessian(x, work, lam)
                k = len(work)
                kkt = np.zeros((self.n_var + k, self.n_var + k))
                kkt[:self.n_var, :self.n_var] = h
                if k:
                    kkt[:self.n_var, self.n_var:] = -a[work].T
                    kkt[self.n_var:, :self.n_var] = a[work]
                rhs = -np.concatenate([stat, feas])
                try:
                    step = np.linalg.solve(kkt, rhs)
                except np.linalg.LinAlgError:
                    step = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
                # damp if the full step does not reduce the residual
                improved = False
                for damp in (1.0, 0.5, 0.25, 0.125, 0.0625):
                    x_new = x + damp * step[:self.n_var]
                    lam_new = lam + damp * step[self.n_var:]
                    s_new, f_new, _ = residual(x_new, lam_new, work)
                    if np.linalg.norm(np.concatenate([s_new, f_new])) < err:
                        x, lam = x_new, lam_new
                        improved = True
                        break
                if not improved:
                    break
            # working-set repair
            a, c = self._kkt_rows(x)
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
