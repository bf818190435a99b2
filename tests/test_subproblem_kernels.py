"""The subproblem's evaluations against the per-SUAV loop forms.

``LoopSubproblem`` and ``loop_true_objective`` are the loop
implementations that ``uavmec.trajectory``'s evaluations replaced.  They
stay here as the reference: every evaluation must return the same floats,
bit for bit, since a last-bit difference in one placement changes the next
slot's rates and the closed loop then diverges.
"""
import numpy as np
import pytest
from scipy.optimize import minimize, nnls

from uavmec.compute import induced_speed_term, propulsion_power
from uavmec.config import desk_profile
from uavmec.engine import run_simulation
from uavmec.trajectory import (LOG2E, XI_FLOOR, ZETA_FLOOR,
                               TrajectoryProblem, _Layout, _Subproblem,
                               true_objective)
from uavmec.verification import random_trajectory_problem, true_g


def loop_true_objective(problem: TrajectoryProblem, positions) -> float:
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


class LoopSubproblem:
    """The per-SUAV loop forms of the subproblem's evaluations."""

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


# --- the kernels against the loop forms ---

def instances():
    """Subproblems over N = 1-4 and UD counts from none to 12 per SUAV."""
    rng = np.random.default_rng(61)
    for n_suavs in (1, 2, 3, 4):
        for max_uds in (0, 3, 12):
            for _ in range(4):
                prob = random_trajectory_problem(rng, n_suavs=n_suavs,
                                                 max_uds=max_uds)
                cur = prob.current_positions
                for exp_q in (cur.copy(),
                              cur + rng.uniform(-25.0, 25.0, cur.shape)):
                    yield rng, prob, exp_q


def probe_points(rng, sub):
    """The start, a point with a SUAV exactly at its current position, and
    random interior points."""
    x0 = sub.initial_point()
    still = x0.copy()
    still[:2] = sub.cur[0]
    yield x0
    yield still
    for _ in range(3):
        yield np.concatenate([
            (sub.exp + rng.uniform(-30.0, 30.0, sub.exp.shape)).ravel(),
            rng.uniform(0.5, 5.0, sub.n),
            rng.uniform(0.1, 10.0, sub.lay.n_zeta)])


def test_kernels_equal_the_loop_forms_bit_for_bit():
    seen = {"n": set(), "empty_suav": False, "no_zeta": False,
            "no_pairs": False, "segment_8": False}
    for rng, prob, exp_q in instances():
        sub, ref = _Subproblem(prob, exp_q), LoopSubproblem(prob, exp_q)
        k_n = np.diff(sub.lay.zeta_off)
        seen["n"].add(sub.n)
        seen["empty_suav"] |= bool((k_n == 0).any())
        seen["no_zeta"] |= sub.lay.n_zeta == 0
        seen["no_pairs"] |= len(sub.pair_e) == 0
        seen["segment_8"] |= bool((k_n >= 8).any())
        assert np.array_equal(sub.con_scale, ref.con_scale)
        assert np.array_equal(sub.initial_point(), ref.initial_point())
        assert np.array_equal(sub.lay.lb, ref.lb)
        for scale in (1.0, 37.5):
            sub.scale = ref.scale = scale
            for x in probe_points(rng, sub):
                assert sub.objective(x) == ref.objective(x)
                f, c = sub.evaluate(x)
                assert f == ref.objective(x)
                assert np.array_equal(c, ref._constraints_raw(x))
                # the audit's three values come from one evaluation
                kkt, feas, obj = sub.kkt_residual(x)
                assert kkt == ref.kkt_residual(x)
                assert feas == -min(float(np.min(ref.constraints(x))), 0.0)
                assert obj == ref.objective(x) * scale
                g, jv = sub.derivatives(x)
                assert np.array_equal(g, ref.gradient(x))
                assert np.array_equal(
                    jv, ref._constraints_jac_raw(x).flat[sub.lay.var_idx])
                for name in ("gradient", "constraints", "constraints_jac",
                             "objective_hessian"):
                    assert np.array_equal(getattr(sub, name)(x),
                                          getattr(ref, name)(x)), name
                a, c = sub._kkt_system(x)[:2]
                a_ref, c_ref = ref._kkt_rows(x)
                assert np.array_equal(a, a_ref) and np.array_equal(c, c_ref)
                n_rows = len(c)
                for size in (1, n_rows // 2, n_rows):
                    rows = rng.permutation(n_rows)[:size]
                    lam = rng.uniform(-1.0, 2.0, size)
                    lam[rng.random(size) < 0.2] = 0.0
                    assert np.array_equal(
                        sub.lagrangian_hessian(x, rows, lam),
                        ref.lagrangian_hessian(x, rows, lam))
        pos = exp_q + rng.uniform(-20.0, 20.0, exp_q.shape)
        want = loop_true_objective(prob, pos)
        assert true_objective(prob, pos) == want
        assert true_objective(prob, pos, _Layout(prob)) == want
    assert seen == {"n": {1, 2, 3, 4}, "empty_suav": True, "no_zeta": True,
                    "no_pairs": True, "segment_8": True}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kkt_polish_equals_the_loop_form_from_solver_output():
    """From an early-stopped SLSQP point, the Newton finisher takes the same
    steps with the kernels as with the loop forms."""
    rng = np.random.default_rng(62)
    polished = 0
    for n_suavs in (1, 2, 3):
        for _ in range(3):
            prob = random_trajectory_problem(rng, n_suavs=n_suavs,
                                             max_uds=10)
            sub = _Subproblem(prob, prob.current_positions)
            ref = LoopSubproblem(prob, prob.current_positions)
            res = minimize(sub.objective, sub.initial_point(),
                           jac=sub.gradient, method="SLSQP",
                           bounds=sub.bounds(),
                           constraints=[{"type": "ineq",
                                         "fun": sub.constraints,
                                         "jac": sub.constraints_jac}],
                           options={"maxiter": 8, "ftol": 1e-12})
            x = sub.kkt_polish(res.x)
            assert np.array_equal(x, ref.kkt_polish(res.x))
            polished += not np.array_equal(x, res.x)
    assert polished


def desk_polish_inputs(monkeypatch):
    """(problem, expansion, scale, x) of every Newton polish in desk OJTRTA,
    seed 5, 15 slots: the subproblems whose solver point misses the
    contract, with singular KKT matrices and working-set repairs among
    them."""
    inputs = []
    polish = _Subproblem.kkt_polish

    def recorded(sub, x):
        inputs.append((sub.p, sub.exp.copy(), sub.scale, x.copy()))
        return polish(sub, x)

    with monkeypatch.context() as patch:
        patch.setattr(_Subproblem, "kkt_polish", recorded)
        run_simulation(desk_profile(num_slots=15, seed=5), "OJTRTA")
    return inputs


def test_kkt_polish_equals_the_loop_form_on_desk_instances(monkeypatch):
    """On real subproblems the Newton finisher, the Hessians at its working
    sets and the audit at its input and output are the loop forms' to the
    bit, through the polish's least-squares fallback and its repairs."""
    lstsq = np.linalg.lstsq
    fallbacks = []

    def counted(*args, **kwargs):
        fallbacks.append(1)
        return lstsq(*args, **kwargs)

    inputs = desk_polish_inputs(monkeypatch)
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    repaired = fell_back = 0
    for prob, exp_q, scale, x in inputs:
        sub, ref = _Subproblem(prob, exp_q), LoopSubproblem(prob, exp_q)
        sub.scale = ref.scale = scale
        hessians = []
        hessian = sub.lagrangian_hessian

        def recorded(x, rows, lam):
            h = hessian(x, rows, lam)
            hessians.append((x.copy(), np.array(rows), np.array(lam), h))
            return h

        sub.lagrangian_hessian = recorded
        fallbacks.clear()
        out = sub.kkt_polish(x)
        fell_back += bool(fallbacks)
        assert np.array_equal(out, ref.kkt_polish(x))
        for point in (x, out):
            assert sub.kkt_residual(point)[0] == ref.kkt_residual(point)
        for at, rows, lam, h in hessians:
            assert np.array_equal(h, ref.lagrangian_hessian(at, rows, lam))
        repaired += len({rows.tobytes() for _, rows, _, _ in hessians}) > 1
    assert len(inputs) > 20 and fell_back and repaired
