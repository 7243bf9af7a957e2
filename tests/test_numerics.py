import csv
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonkit import float_repr, numerics, special
from photonkit.errors import DomainError, MaxIterations, NoSignChange


def _brent_table(seed=20240, per_family=60):
    """Seeded bracketed problems (name, f, lo, hi, tol), each with one sign
    change: cos, a factored cubic written out, exp and atan plus a line."""
    rng = np.random.default_rng(seed)
    tols = (1e-8, 1e-10, 1e-12, 1e-14)
    table = []
    for i in range(per_family):
        tol = tols[i % len(tols)]
        c = rng.uniform(-0.9, 0.9)
        r = math.acos(c)
        room = 0.99 * min(r, math.pi - r)
        table.append(("cos", lambda x, c=c: math.cos(x) - c,
                      r - rng.uniform(0.05, 1.0) * room,
                      r + rng.uniform(0.05, 1.0) * room, tol))
        r, q = rng.uniform(-2.0, 2.0), rng.uniform(0.1, 3.0)
        table.append(("cubic", lambda x, r=r, q=q: x**3 - r * x**2 + q * x - q * r,
                      r - rng.uniform(0.01, 2.0), r + rng.uniform(0.01, 2.0), tol))
        a, b = rng.uniform(0.2, 4.0), rng.uniform(0.1, 10.0)
        r = math.log(b) / a
        table.append(("exp", lambda x, a=a, b=b: math.exp(a * x) - b,
                      r - rng.uniform(0.01, 2.0), r + rng.uniform(0.01, 2.0), tol))
        a, k, c = rng.uniform(0.5, 20.0), rng.uniform(0.05, 1.0), rng.uniform(-1.0, 1.0)
        span = (math.pi / 2 + 1.0) / k + 1.0
        table.append(("atan", lambda x, a=a, k=k, c=c: math.atan(a * x) + k * x - c,
                      -span * rng.uniform(1.0, 2.0), span * rng.uniform(1.0, 2.0), tol))
    return table


class TestFindRoot:
    def test_sqrt2(self):
        f = lambda x: x * x - 2.0
        root = numerics.find_root(f, numerics.bracket_root(f, 1.0, 2.0))
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_odd_function(self):
        f = lambda x: x
        root = numerics.find_root(f, numerics.bracket_root(f, -1.0, 1.0))
        assert abs(root) < 1e-12

    def test_half_pi(self):
        root = numerics.find_root(math.cos,
                                  numerics.bracket_root(math.cos, 1.0, 2.0))
        assert root == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_endpoint_roots(self):
        f = lambda x: x - 1.0
        assert numerics.find_root(f, numerics.bracket_root(f, 1.0, 2.0)) == 1.0
        assert numerics.find_root(f, numerics.bracket_root(f, 0.0, 1.0)) == 1.0

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            numerics.bracket_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_inverted_interval(self):
        with pytest.raises(NoSignChange):
            numerics.RootBracket(2.0, 1.0, -1.0, 1.0)

    def test_bad_tol(self):
        f = lambda x: x
        br = numerics.bracket_root(f, -1.0, 1.0)
        with pytest.raises(DomainError):
            numerics.find_root(f, br, tol=0.0)

    def test_agrees_with_scipy_brentq(self):
        # scipy is the reference only. Each root lies within tol of the true
        # root (brentq's within tol + 4 eps |x|), on either side, so the two
        # agree to 2 tol + 4 eps |x|; a two-step budget raises MaxIterations.
        from scipy import optimize

        eps = np.finfo(float).eps
        table = _brent_table()
        for name, f, lo, hi, tol in table:
            ours = numerics.find_root(f, numerics.bracket_root(f, lo, hi), tol=tol)
            theirs = optimize.brentq(f, lo, hi, xtol=tol, maxiter=200)
            assert abs(ours - theirs) <= 2 * tol + 4 * eps * abs(theirs), (name, lo, hi)
        for name, f, lo, hi, tol in table[::7]:
            with pytest.raises(MaxIterations):
                numerics.find_root(f, numerics.bracket_root(f, lo, hi), tol=tol,
                                   max_iter=2)

    @pytest.mark.parametrize("newton", [True, False])
    def test_one_call_matches_single_calls(self, newton):
        # Brackets do not interact: one call over N brackets gives each root
        # the bits of its own float-bracket call, Newton steps or bisection.
        rng = np.random.default_rng(11)
        r, q = rng.uniform(-2.0, 2.0, 40), rng.uniform(0.1, 3.0, 40)
        lo, hi = r - rng.uniform(0.01, 2.0, 40), r + rng.uniform(0.01, 2.0, 40)

        def f(x, r, q):
            value = (x - r) * (x * x + q)
            return (value, x * x + q + 2.0 * x * (x - r)) if newton else value

        def bracket(lo, hi, r, q):
            value = lambda x: (x - r) * (x * x + q)
            return numerics.RootBracket(lo, hi, value(lo), value(hi))

        many = numerics.find_root(lambda x: f(x, r, q), bracket(lo, hi, r, q), tol=1e-13)
        assert many.shape == (40,)
        for i in range(40):
            one = numerics.find_root(lambda x: f(x, r[i], q[i]),
                                     bracket(lo[i], hi[i], r[i], q[i]), tol=1e-13)
            assert isinstance(one, float)
            assert one.hex() == float(many[i]).hex()
            assert abs(one - r[i]) <= 1e-13

    def test_reuses_bracket_values(self):
        calls = []

        def f(x):
            calls.append(x)
            return x**3 - 2.0

        bracket = numerics.bracket_root(f, 0.0, 2.0)
        calls.clear()
        numerics.find_root(f, bracket)
        assert 0.0 not in calls and 2.0 not in calls

    def test_nan_inside_bracket(self):
        f = lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5
        with pytest.raises(DomainError):
            numerics.find_root(f, numerics.bracket_root(f, 0.0, 1.0))

    def test_nan_at_bracket_end(self):
        f = lambda x: math.nan if x == 1.0 else x - 0.5
        with pytest.raises(DomainError):
            numerics.find_root(f, numerics.bracket_root(f, 0.0, 1.0))

    def test_max_iterations(self):
        with pytest.raises(MaxIterations):
            numerics.find_root(math.cos, numerics.bracket_root(math.cos, 1.0, 2.0),
                               max_iter=3)
        with pytest.raises(MaxIterations):
            numerics.find_root(math.cos, numerics.bracket_root(math.cos, 1.0, 2.0),
                               max_iter=0)

    def test_tiny_values_without_sign_change(self):
        # f(lo) * f(hi) underflows to zero; the signs still agree.
        f = lambda x: 1e-300 * (x + 2.0)
        with pytest.raises(NoSignChange):
            numerics.bracket_root(f, -1.0, 1.0)

    def test_residual_small_on_assorted_functions(self):
        cases = [
            (lambda x: math.sin(x) - 0.3, 0.0, 1.0),
            (lambda x: math.exp(x) - 5.0, 0.0, 3.0),
            (lambda x: x**5 - x - 1.0, 1.0, 2.0),
            (lambda x: math.tan(x) - x, 4.0, 4.6),
        ]
        for f, lo, hi in cases:
            root = numerics.find_root(f, numerics.bracket_root(f, lo, hi))
            assert abs(f(root)) < 1e-10


class TestQuadrature:
    def test_order_validation(self):
        with pytest.raises(DomainError):
            numerics.gauss_legendre(1)

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            numerics.integrate(lambda x: x, 1.0, 1.0)

    @pytest.mark.parametrize("order", [2, 3, 5, 8, 16, 32, 64])
    def test_polynomial_exactness(self, order):
        # exact through degree 2*order - 1; analytic moments on [0, 1]
        rng = np.random.default_rng(order)
        coeffs = rng.uniform(-1.0, 1.0, size=2 * order)
        f = lambda x: np.polynomial.polynomial.polyval(x, coeffs)
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        got = numerics.integrate(f, 0.0, 1.0, order=order)
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-13)

    def test_degree_beyond_exactness_fails(self):
        # x^4 with a 2-point rule is outside the exactness guarantee
        got = numerics.integrate(lambda x: x**4, -1.0, 1.0, order=2)
        assert abs(got - 0.4) > 1e-3

    def test_sine(self):
        got = numerics.integrate(math.sin, 0.0, math.pi, order=24)
        assert got == pytest.approx(2.0, abs=1e-13)

    def test_scalar_function_fallback(self):
        # non-vectorized callables are evaluated pointwise
        got = numerics.integrate(lambda x: float(x) ** 2, 0.0, 1.0, order=8)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_weights_sum_to_interval(self):
        nodes, weights = numerics.gauss_legendre(40)
        assert weights.sum() == pytest.approx(2.0, abs=1e-13)
        assert np.all(np.diff(nodes) > 0)

    def test_cached_rule_is_read_only(self):
        # Every caller shares the cached arrays: an in-place write would
        # corrupt each later quadrature of the same order.
        nodes, weights = numerics.gauss_legendre(12)
        assert numerics.gauss_legendre(12)[0] is nodes
        with pytest.raises(ValueError):
            nodes *= 0.5
        with pytest.raises(ValueError):
            weights[0] = 0.0
        assert weights.sum() == pytest.approx(2.0, abs=1e-14)

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_exactness_property(self, order):
        deg = 2 * order - 1
        got = numerics.integrate(lambda x: x**deg, 0.0, 1.0, order=order)
        assert got == pytest.approx(1.0 / (deg + 1), rel=1e-10, abs=1e-12)


class TestLeastSquares:
    @staticmethod
    def _gaussian(p, x):
        b, a, c, s = p
        return b + a * np.exp(-0.5 * ((x - c) / s) ** 2)

    def test_exact_recovery(self):
        x = np.linspace(-3, 3, 60)
        truth = [0.2, 1.5, 0.4, 0.7]
        y = self._gaussian(truth, x)
        res = numerics.least_squares_fit(self._gaussian, x, y,
                                         [0.0, 1.0, 0.0, 1.0])
        assert res.converged
        assert res.parameters == pytest.approx(truth, abs=1e-8)
        assert res.residual_sum_squares < 1e-16

    def test_linear_model_one_step(self):
        x = np.linspace(0, 1, 10)
        y = 2.0 * x + 1.0
        model = lambda p, xx: p[0] + p[1] * xx
        res = numerics.least_squares_fit(model, x, y, [0.0, 0.0])
        assert res.parameters == pytest.approx([1.0, 2.0], abs=1e-9)

    def test_weights_validation(self):
        model = lambda p, xx: p[0] * xx
        with pytest.raises(DomainError):
            numerics.least_squares_fit(model, [1, 2], [1, 2], [1.0],
                                       weights=[1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_rejected(self, bad):
        model = lambda p, xx: p[0] * xx
        with pytest.raises(DomainError, match="finite and positive"):
            numerics.least_squares_fit(model, [1, 2], [1, 2], [1.0],
                                       weights=[1.0, bad])

    def test_underdetermined(self):
        model = lambda p, xx: p[0] + p[1] * xx
        with pytest.raises(DomainError):
            numerics.least_squares_fit(model, [1.0], [1.0], [0.0, 0.0])

    def test_initial_point_must_be_evaluable(self):
        model = lambda p, xx: np.full(np.shape(xx), np.nan)
        with pytest.raises(DomainError):
            numerics.least_squares_fit(model, [1, 2, 3], [1, 2, 3], [1.0])

    def test_start_not_finite_at_one_point_raises(self):
        x = np.linspace(0.5, 2.0, 20)
        model = lambda p, xx: np.where(xx > 1.9, np.nan, p[0] * xx)
        with pytest.raises(DomainError, match="every point"):
            numerics.least_squares_fit(model, x, 3.0 * x, [1.0])

    @staticmethod
    def _line_with_bad_call(bad_call, bad):
        """A line fit whose model call number bad_call (0 is the start) is
        NaN at one point, or raises; calls lists every p the model saw."""
        x = np.linspace(0.0, 1.0, 20)
        y = 1.0 + 2.0 * x + 0.01 * np.cos(9.0 * x)
        calls = []

        def model(p, xx):
            calls.append(tuple(p))
            out = p[0] + p[1] * xx
            if len(calls) - 1 == bad_call:
                if bad == "raises":
                    raise DomainError("no value here")
                out[5] = np.nan
            return out

        jacobian = lambda p, xx, values: np.column_stack([np.ones_like(xx), xx])
        res = numerics.least_squares_fit(model, x, y, [0.0, 0.0], jacobian=jacobian)
        return res, calls

    def test_partly_non_finite_trial_is_rejected_without_marking_a_wall(self):
        # The last trial of a clean fit is its tiny converging step. Made NaN
        # at one point, it is rejected and a more damped tiny step converges
        # in the same iteration; a trial that raises there marks a domain
        # wall, so the same stop is not convergence.
        clean, clean_calls = self._line_with_bad_call(-1, "nan")
        last = len(clean_calls) - 1
        assert clean.converged
        got, calls = self._line_with_bad_call(last, "nan")
        assert calls[:last + 1] == clean_calls and len(calls) > last + 1
        assert got.converged and got.iterations == clean.iterations
        assert got.parameters == pytest.approx(clean.parameters, rel=1e-9)
        walled, _ = self._line_with_bad_call(last, "raises")
        assert not walled.converged
        assert np.array_equal(walled.parameters, got.parameters)

    def test_model_calls_per_iteration(self):
        # Each iteration costs one forward-difference probe per parameter and
        # the trial step; the values at p are reused, not re-evaluated.
        calls = []

        def model(p, xx):
            calls.append(p[0])
            return p[0] * np.asarray(xx, dtype=float)

        x = np.linspace(0.5, 2.0, 20)
        res = numerics.least_squares_fit(model, x, 3.0 * x, [1.0])
        assert res.converged
        # plus one probe at the returned parameters for the standard errors
        assert len(calls) == 2 + 2 * res.iterations

    def test_linear_model_has_no_acceleration(self):
        # A linear model has m'' = 0 along every direction, so the
        # acceleration vanishes and one iteration takes the plain damped
        # Gauss-Newton step.
        x = np.linspace(0, 1, 10)
        y = 2.0 * x + 1.0
        model = lambda p, xx: p[0] + p[1] * xx
        jacobian = lambda p, xx, values: (np.column_stack([np.ones_like(xx), xx]),
                                          lambda v: np.zeros_like(xx))
        res = numerics.least_squares_fit(model, x, y, [0.0, 0.0], max_iter=1,
                                         jacobian=jacobian)
        jac, _ = jacobian(None, x, None)
        a = jac.T @ jac
        v = np.linalg.solve(a + numerics.LM_LAMBDA0 * np.diag(np.diag(a)),
                            jac.T @ y)
        assert res.iterations == 1
        assert res.parameters == pytest.approx(v, rel=1e-12)

    def test_stop_at_domain_wall_is_not_convergence(self):
        # The least-squares slope -0.5 lies outside the model's domain: the
        # trials that cross the slope >= 0 wall raise, and the fit creeps up
        # to the wall until its steps are too small to go on.
        def model(p, xx):
            if p[1] < 0:
                raise DomainError("slope must be nonnegative")
            return p[0] + p[1] * np.asarray(xx, dtype=float)

        x = np.linspace(0.0, 1.0, 20)
        res = numerics.least_squares_fit(model, x, 1.0 - 0.5 * x, [0.0, 1.0])
        assert 0.0 <= res.parameters[1] < 1e-9
        assert not res.converged

    @pytest.mark.parametrize("error", [NameError, TypeError])
    def test_programming_error_in_model_propagates(self, error):
        # Only PhotonkitError, ValueError and ArithmeticError mark a domain
        # wall; a bug in the model past p = 1.8 is not one. The analytic
        # Jacobian keeps every model call past 1.8 inside a trial.
        def model(p, xx):
            if p[0] > 1.8:
                raise error("bug in the model")
            return p[0] * np.asarray(xx, dtype=float)

        x = np.linspace(0.5, 2.0, 20)
        with pytest.raises(error):
            numerics.least_squares_fit(model, x, 2.0 * x, [1.0],
                                       jacobian=lambda p, xx, values: xx[:, None])

    def test_raising_model_called_once_per_failing_trial(self):
        # A trial that leaves the domain costs one model call: the fit does
        # not retry the raising model point by point.
        failing = []

        def model(p, xx):
            if p[1] < 0:
                failing.append(tuple(p))
                raise DomainError("slope must be nonnegative")
            return p[0] + p[1] * np.asarray(xx, dtype=float)

        x = np.linspace(0.0, 1.0, 20)
        numerics.least_squares_fit(model, x, 1.0 - 0.5 * x, [0.0, 1.0])
        assert failing
        assert len(set(failing)) == len(failing)

    def test_model_of_wrong_shape_is_domain_error(self):
        model = lambda p, xx: p[0]
        with pytest.raises(DomainError, match="shape"):
            numerics.least_squares_fit(model, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0])

    def test_analytic_jacobian(self):
        x = np.linspace(-3, 3, 60)
        truth = [0.2, 1.5, 0.4, 0.7]
        y = self._gaussian(truth, x)
        calls = []

        def model(p, xx):
            calls.append(tuple(p))
            return self._gaussian(p, xx)

        def jacobian(p, xx, values):
            assert np.array_equal(values, self._gaussian(p, xx))
            b, a, c, s = p
            e = np.exp(-0.5 * ((xx - c) / s) ** 2)
            return np.column_stack([np.ones_like(xx), e,
                                    a * e * (xx - c) / s**2,
                                    a * e * (xx - c) ** 2 / s**3])

        res = numerics.least_squares_fit(model, x, y, [0.0, 1.0, 0.0, 1.0],
                                         jacobian=jacobian)
        assert res.converged
        assert res.parameters == pytest.approx(truth, abs=1e-8)
        # the model is evaluated only at the start and at trial steps
        fd_calls = 1 + res.iterations * (1 + len(truth))
        assert 1 + res.iterations <= len(calls) < fd_calls

    @staticmethod
    def _decay_problem():
        """a exp(-b x) with noise, its analytic Jacobian and its second
        derivative along v = (va, vb): exp(-b x) x vb (a x vb - 2 va)."""
        x = np.linspace(0.0, 4.0, 40)
        rng = np.random.default_rng(7)
        y = 2.5 * np.exp(-1.3 * x) + 0.01 * rng.standard_normal(x.size)
        model = lambda p, xx: p[0] * np.exp(-p[1] * xx)

        def jacobian(p, xx, values):
            e = np.exp(-p[1] * xx)
            return np.column_stack([e, -p[0] * xx * e])

        def curvature(p, xx, values, v):
            return np.exp(-p[1] * xx) * xx * v[1] * (p[0] * xx * v[1] - 2.0 * v[0])

        return x, y, model, jacobian, curvature

    @staticmethod
    def _with_curvature(jacobian, curvature):
        """The one derivative hook: the Jacobian and m'' at the same p."""
        return lambda p, xx, values: (jacobian(p, xx, values),
                                      lambda v: curvature(p, xx, values, v))

    def test_curvature_hook_costs_no_model_call(self):
        x, y, model, jacobian, curvature = self._decay_problem()
        model_calls, hook_calls, curvature_calls = [], [], []

        def counted_model(p, xx):
            model_calls.append(tuple(p))
            return model(p, xx)

        def counted_curvature(p, xx, values, v):
            assert np.array_equal(values, model(p, xx))
            curvature_calls.append(tuple(v))
            return curvature(p, xx, values, v)

        def counted_hook(p, xx, values):
            hook_calls.append(tuple(p))
            return self._with_curvature(jacobian, counted_curvature)(p, xx, values)

        hooked = numerics.least_squares_fit(counted_model, x, y, [1.0, 0.5],
                                            jacobian=counted_hook)
        assert hooked.converged
        # one model call at the start and one per trial, which is also one
        # curvature call per trial
        assert len(model_calls) == 1 + len(curvature_calls)
        assert len(curvature_calls) >= hooked.iterations
        # one hook call per iteration and one at the returned parameters
        assert len(hook_calls) == hooked.iterations + 1

    @pytest.mark.parametrize("bad", ["nan", "raises"])
    def test_curvature_without_value_takes_the_plain_step(self, bad):
        # m'' = 0 gives zero acceleration, so every trial is the plain step;
        # a non-finite m'', or one that has no value, must match it.
        x, y, model, jacobian, _ = self._decay_problem()

        def no_value(p, xx, values, v):
            if bad == "raises":
                raise DomainError("no curvature here")
            out = np.zeros_like(xx)
            out[3] = np.nan
            return out

        zero = lambda p, xx, values, v: np.zeros_like(xx)
        plain = numerics.least_squares_fit(
            model, x, y, [1.0, 0.5], jacobian=self._with_curvature(jacobian, zero))
        got = numerics.least_squares_fit(
            model, x, y, [1.0, 0.5], jacobian=self._with_curvature(jacobian, no_value))
        assert np.array_equal(got.parameters, plain.parameters)
        assert got.iterations == plain.iterations

    def test_standard_errors_at_returned_parameters(self):
        # One iteration of a nonlinear fit far from its minimum: the
        # covariance must use the Jacobian at the returned p, not at the
        # start the step left.
        x, y, model, jacobian, _ = self._decay_problem()
        res = numerics.least_squares_fit(model, x, y, [1.0, 0.5], max_iter=1,
                                         jacobian=jacobian)
        assert res.iterations == 1 and not res.converged
        jac = jacobian(res.parameters, x, None)
        cov = np.linalg.inv(jac.T @ jac) * res.residual_sum_squares / (x.size - 2)
        assert res.standard_errors == pytest.approx(np.sqrt(np.diag(cov)), rel=1e-12)

    def test_unit_weights_bit_identical_to_unweighted(self):
        # A bivariate Gaussian on a 300 x 300 grid: skipping the multiply by
        # sqrt(w) = 1 changes no bit.
        from photonkit import biphoton

        rng = np.random.default_rng(11)
        ws, wi = np.meshgrid(np.linspace(-3, 3, 300), np.linspace(-2, 4, 300),
                             indexing="ij")
        ws, wi = ws.ravel(), wi.ravel()
        truth = [1.0, 0.2, 0.9, 1.1, 0.8, 0.6]
        y = (biphoton._gaussian_2d(truth, ws, wi)
             + 1e-3 * rng.standard_normal(ws.size))
        model = lambda p, _: biphoton._gaussian_2d(p, ws, wi)
        jac = lambda p, _, values: biphoton._gaussian_2d_jacobian(p, ws, wi, values)
        start = [0.8, 0.0, 1.0, 1.0, 1.0, 0.3]
        x = np.arange(ws.size, dtype=float)
        plain = numerics.least_squares_fit(model, x, y, start, jacobian=jac)
        unit = numerics.least_squares_fit(model, x, y, start, jacobian=jac,
                                          weights=np.ones(ws.size))
        assert plain.converged and plain.iterations > 2
        assert np.array_equal(plain.parameters, unit.parameters)
        assert np.array_equal(plain.standard_errors, unit.standard_errors)
        assert plain.residual_sum_squares == unit.residual_sum_squares
        assert plain.iterations == unit.iterations

    class _Products:
        """The normal-equation products of a dense Jacobian, as an object."""

        def __init__(self, jac):
            self.jac = jac

        def gram(self):
            return self.jac.T @ self.jac

        def rmatvec(self, v):
            return self.jac.T @ v

    def _exponential_problem(self):
        x = np.linspace(0.0, 2.0, 40)
        y = 1.5 * np.exp(-0.7 * x) + 0.01 * np.sin(9.0 * x)
        model = lambda p, xx: p[0] * np.exp(-p[1] * xx)
        jacobian = lambda p, xx, values: np.column_stack([values / p[0], -xx * values])
        return x, y, model, jacobian

    def test_jacobian_products_match_dense(self):
        # The hook may give J^T J and J^T v instead of J: the same
        # arithmetic, so the same fit to the bit.
        x, y, model, jacobian = self._exponential_problem()
        dense = numerics.least_squares_fit(model, x, y, [1.0, 0.3], jacobian=jacobian)
        products = numerics.least_squares_fit(
            model, x, y, [1.0, 0.3],
            jacobian=lambda p, xx, values: self._Products(jacobian(p, xx, values)))
        assert dense.converged and dense.iterations > 2
        assert np.array_equal(dense.parameters, products.parameters)
        assert np.array_equal(dense.standard_errors, products.standard_errors)
        assert dense.iterations == products.iterations

    def test_jacobian_products_need_unweighted_fit(self):
        x, y, model, jacobian = self._exponential_problem()
        hook = lambda p, xx, values: self._Products(jacobian(p, xx, values))
        with pytest.raises(DomainError, match="unweighted"):
            numerics.least_squares_fit(model, x, y, [1.0, 0.3], jacobian=hook,
                                       weights=np.full(x.size, 2.0))

    def test_standard_errors_scale_with_noise(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0, 1, 200)
        model = lambda p, xx: p[0] + p[1] * xx
        y = 1.0 + 2.0 * x + 0.01 * rng.standard_normal(x.size)
        res = numerics.least_squares_fit(model, x, y, [0.0, 0.0])
        assert 1e-4 < res.standard_errors[1] < 1e-2


def _csv_writer_bytes(path, header, x, y, values):
    """The grid as csv.writer writes its repr'd rows: the reference form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j, xv in enumerate(x):
            for k, yv in enumerate(y):
                writer.writerow([repr(float(xv)), repr(float(yv)),
                                 repr(float(values[j, k]))])
    return path.read_bytes()


class TestWriteGridCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        x = np.linspace(-1.0, 1.0, 7) * 1e-3
        y = np.array([0.1, 1.0 / 3.0, 2.5e-300, -0.0, 1e22, 7.0])
        values = rng.standard_normal((x.size, y.size)) * 10.0 ** rng.integers(
            -20, 20, (x.size, y.size))
        values[0, 0] = 0.0
        values[1, 2] = np.nan
        header = ("x_nm", "y_nm", "probability")
        numerics.write_grid_csv(tmp_path / "got.csv", header, x, y, values)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == _csv_writer_bytes(tmp_path / "want.csv", header, x, y, values)
        assert got.count(b"\r\n") == 1 + x.size * y.size

    def test_blocks_and_every_layout(self, tmp_path, monkeypatch):
        # Blocks of 3 rows over 11 (the last one short), with every form repr
        # takes: 0.000ddd, ddd.ddd, ddd.0, one- and many-digit mantissas,
        # 2- and 3-digit exponents, signed zeros, subnormals, non-finite.
        monkeypatch.setattr(float_repr, "GRID_CSV_BLOCK_VALUES", 20)
        rng = np.random.default_rng(11)
        specials = [0.0, -0.0, 5e-324, -8e-323, 2.2250738585072014e-308,
                    1e-4, 9.999999999999999e-05, 0.00012345678901234567, 0.5,
                    -1.25, 123.0, 1e15, 9999999999999998.0, 1e16, 1e22, 1e23,
                    -1.7976931348623157e308, 1e-5, 3e100, np.nan, np.inf, -np.inf]
        values = np.concatenate([specials, rng.standard_normal(66 - len(specials))
                                 * 10.0 ** rng.integers(-320, 300, 66 - len(specials))])
        values = rng.permutation(values).reshape(11, 6)
        x = np.array([-1e-7, 0.0, 0.25, 1.0, 12.5, 1e5, 1.5e16, -3.0, 7e-5, 2.0, np.pi])
        y = np.array([1.2209, -1e-300, 100.0, 0.1 + 0.2, 5e-324, -0.0])
        header = ("a", "b", "c")
        numerics.write_grid_csv(tmp_path / "got.csv", header, x, y, values)
        assert ((tmp_path / "got.csv").read_bytes()
                == _csv_writer_bytes(tmp_path / "want.csv", header, x, y, values))

    def test_reversed_read_only_view(self, tmp_path):
        # fiber_prop.propagate_stationary hands over probability[::-1, ::-1]
        # of a read-only grid.
        rng = np.random.default_rng(5)
        base = rng.random((9, 13)) ** 40
        base.setflags(write=False)
        values = base[::-1, ::-1]
        x, y = np.linspace(-2.0, 2.0, 9)[::-1], np.linspace(0.0, 1.0, 13)[::-1]
        header = ("t_s_ns", "t_i_ns", "probability")
        numerics.write_grid_csv(tmp_path / "got.csv", header, x, y, values)
        assert ((tmp_path / "got.csv").read_bytes()
                == _csv_writer_bytes(tmp_path / "want.csv", header, x, y, values))

    def test_empty_grid_writes_the_header(self, tmp_path):
        numerics.write_grid_csv(tmp_path / "got.csv", ("a", "b", "c"),
                                np.array([]), np.array([1.0]), np.zeros((0, 1)))
        assert (tmp_path / "got.csv").read_bytes() == b"a,b,c\r\n"


class TestSlabProfile:
    # The two modes of a 2 um slab of index 1.5 in 1.45 at 0.8 um (index
    # factor 1): p = 1 has a cosine core, p = 2 a sine core, and
    # gamma = sqrt(k_lim^2 - k_t^2). Both keep a third or more of their peak
    # at the walls.
    EXTENT = 2.0
    K_LIM = 2.0 * math.pi / 0.8 * math.sqrt(1.5**2 - 1.45**2)

    def _mode(self, parity_odd):
        roots = dict(numerics.slab_roots(self.K_LIM, self.EXTENT, 1.0))
        k_t = roots[2 if parity_odd else 1]
        return k_t, math.sqrt(self.K_LIM**2 - k_t**2)

    @pytest.mark.parametrize("parity_odd", [False, True], ids=["even", "odd"])
    def test_value_continuous_at_walls(self, parity_odd):
        k_t, gamma = self._mode(parity_odd)
        half = 0.5 * self.EXTENT
        for wall in (-half, half):
            inside, outside = numerics.slab_profile(
                [wall - math.copysign(1e-9, wall), wall + math.copysign(1e-9, wall)],
                k_t, self.EXTENT, gamma, parity_odd)
            assert abs(inside) > 0.1
            assert outside == pytest.approx(inside, rel=1e-6)

    @pytest.mark.parametrize("parity_odd", [False, True], ids=["even", "odd"])
    def test_exponential_decay_outside(self, parity_odd):
        k_t, gamma = self._mode(parity_odd)
        half = 0.5 * self.EXTENT
        x = np.array([0.1, 0.4, 0.7]) + half
        for side in (1.0, -1.0):
            f = numerics.slab_profile(side * x, k_t, self.EXTENT, gamma, parity_odd)
            assert abs(f[0]) > abs(f[1]) > abs(f[2]) > 0
            assert f[1:] / f[:-1] == pytest.approx(np.exp(-gamma * np.diff(x)), rel=1e-12)
        right = numerics.slab_profile(x, k_t, self.EXTENT, gamma, parity_odd)
        left = numerics.slab_profile(-x, k_t, self.EXTENT, gamma, parity_odd)
        assert np.array_equal(left, -right if parity_odd else right)


class TestGridMoments:
    def test_diagonal_pair(self):
        # Equal weight at (0, 0) and (1, 1), unnormalised.
        x = np.array([0.0, 1.0])
        w = 3.0 * np.eye(2)
        assert numerics.grid_moments(x, x, w) == (0.5, 0.5, 0.25, 0.25, 0.25)

    def test_product_grid_uncorrelated(self):
        x = np.linspace(-2.0, 2.0, 41)
        y = np.linspace(0.0, 3.0, 31)
        w = np.exp(-x**2)[:, None] * np.exp(-(y - 1.5)**2)[None, :]
        mu_x, mu_y, _, _, cov = numerics.grid_moments(x, y, w)
        assert mu_x == pytest.approx(0.0, abs=1e-15)
        assert mu_y == pytest.approx(1.5, rel=1e-14)
        assert cov == pytest.approx(0.0, abs=1e-15)

    @staticmethod
    def _grid(case, telecom_setup):
        """(x, y, weights): a random grid, or a criterion-5 telecom grid at
        n = 300, the last also as the view flipped on both axes that
        fiber_prop's stationary map can hand over."""
        if case == "random":
            rng = np.random.default_rng(7)
            return (np.sort(rng.uniform(-1.0, 2.0, 57)), np.sort(rng.uniform(3.0, 4.0, 43)),
                    rng.uniform(0.0, 1.0, (57, 43)) + np.outer(np.arange(57), np.arange(43)))
        from photonkit import biphoton

        s = telecom_setup
        tau, z = ((94.58, 0.02), (719.1, 0.0075), (976.0, 0.005))[int(case[-1])]
        pump = biphoton.PumpSpec(
            central_frequency_phz=s["pump_sum_phz"], spatial_width_um=41.0,
            pulse_duration_fs=biphoton.envelope_tau_from_reciprocal_sigma(tau))
        spec = biphoton.JsaGridSpec(n=300, range_fraction=z,
                                    signal_center_phz=s["signal_center"],
                                    idler_center_phz=s["idler_center"])
        g = biphoton.jsa_grid(pump, s["coupling"], s["crystal"], spec, s["query"])
        if case.startswith("flipped"):
            return g.omega_s_phz[::-1], g.omega_i_phz[::-1], g.probability[::-1, ::-1]
        return g.omega_s_phz, g.omega_i_phz, g.probability

    @pytest.mark.parametrize("case", ["random", "telecom_0", "telecom_1", "telecom_2",
                                      "flipped_telecom_0"])
    def test_covariance_matches_broadcast_product(self, case, telecom_setup):
        # The covariance is the sum of w (x - mu_x)(y - mu_y) over the grid,
        # taken as two matrix-vector products; the broadcast triple product
        # of the same terms agrees to 1e-14 of sqrt(var_x var_y).
        x, y, w = self._grid(case, telecom_setup)
        mu_x, mu_y, var_x, var_y, cov = numerics.grid_moments(x, y, w)
        total = w.sum()
        assert mu_x == np.dot(w.sum(axis=1) / total, x)
        assert mu_y == np.dot(w.sum(axis=0) / total, y)
        broadcast = ((x - mu_x)[:, None] * (y - mu_y)[None, :] * w).sum() / total
        assert abs(cov - broadcast) <= 1e-14 * math.sqrt(var_x * var_y)


class TestBessel:
    def test_wronskian_identity(self):
        # J_{v+1}(x) Y_v(x) - J_v(x) Y_{v+1}(x) = 2 / (pi x)
        rng = np.random.default_rng(42)
        for _ in range(100):
            order = rng.uniform(0.0, 59.0)
            x = rng.uniform(0.5, 80.0)
            j0, y0 = special.bessel_jy(order, x)
            j1, y1 = special.bessel_jy(order + 1.0, x)
            left = j1 * y0 - j0 * y1
            right = 2.0 / (math.pi * x)
            assert abs(left - right) / abs(right) < 1e-9

    @pytest.mark.parametrize("order,x", [
        (0.0, 1.0), (1.0, 2.5), (4.2, 5.0), (13.3, 14.0), (21.0, 27.0),
        (35.7, 40.0), (59.9, 61.0),
    ])
    def test_against_mpmath(self, order, x):
        j, y = special.bessel_jy(order, x)
        assert j == pytest.approx(float(mpmath.besselj(order, x)), rel=1e-10,
                                  abs=1e-12)
        assert y == pytest.approx(float(mpmath.bessely(order, x)), rel=1e-10,
                                  abs=1e-12)

    def test_vectorized(self):
        j, y = special.bessel_jy(2.5, np.array([1.0, 2.0, 3.0]))
        assert j.shape == (3,)
        assert y.shape == (3,)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            special.bessel_jy(1.0, 0.0)
        with pytest.raises(DomainError):
            special.bessel_jy(-0.5, 1.0)
        with pytest.raises(DomainError):
            special.bessel_jy(special.MAX_BESSEL_ORDER + 1.0, 1.0)

    @pytest.mark.parametrize("order,x", [
        (math.nan, 1.0), (1.0, math.nan), (1.0, 0.5 * special.BESSEL_MIN_X),
        (1.0, 2.0 * special.BESSEL_MAX_X), (np.array([1.0, math.nan]), 1.0)])
    def test_nan_and_out_of_range_arguments(self, order, x):
        with pytest.raises(DomainError):
            special.bessel_jy(order, x)

    # Every branch of the scheme: x < 2 (Temme's series) and x >= 2 (Steed's
    # continued fraction); order 0, fractional, integer, half-integer and the
    # largest; x at the turning point x ~ order; x << order, where J is tiny
    # and Y huge; x from 1e-3 to 1e3.
    _ORDERS = (0.0, 0.3, 0.5, 1.0, 2.0, 7.0, 13.7, 20.5, 33.3, 59.5, 60.0)
    _XS = (1e-3, 0.01, 0.1, 0.5, 1.0, 1.99, 2.0, 2.01, 5.0, 10.0, 30.0, 100.0,
           500.0, 1e3)

    @classmethod
    def _grid(cls):
        points = [(v, x) for v in cls._ORDERS for x in cls._XS]
        points += [(v, v * (1.0 + d)) for v in cls._ORDERS if v > 2.0
                   for d in (-1e-3, 0.0, 1e-3)]
        return np.array(points).T

    def test_grid_against_mpmath(self):
        order, x = self._grid()
        j, y = special.bessel_jy(order, x)
        for i, (v, xi) in enumerate(zip(order.tolist(), x.tolist())):
            expected = (mpmath.besselj(v, xi), mpmath.bessely(v, xi))
            for got, want in zip((j[i], y[i]), expected):
                assert got == pytest.approx(float(want), rel=1e-10, abs=1e-12), (v, xi)

    def test_broadcast_shapes(self):
        order = np.array([[0.5], [7.0]])
        x = np.array([0.1, 3.0, 40.0])
        j, y = special.bessel_jy(order, x)
        assert j.shape == y.shape == (2, 3)
        for a in range(2):
            for b in range(3):
                # numpy's vector exp/log may round a last bit differently
                # from the one-element call
                assert (j[a, b], y[a, b]) == pytest.approx(
                    special.bessel_jy(order[a, 0], x[b]), rel=1e-14)

    def test_no_nan_and_overflow_is_infinite(self):
        rng = np.random.default_rng(5)
        order = np.concatenate([rng.uniform(0.0, 60.0, 3000), [0.0, 0.5, 60.0, 60.0]])
        x = np.concatenate([
            10.0 ** rng.uniform(math.log10(special.BESSEL_MIN_X),
                                math.log10(special.BESSEL_MAX_X), 3000),
            [special.BESSEL_MIN_X, special.BESSEL_MIN_X, special.BESSEL_MIN_X,
             special.BESSEL_MAX_X]])
        j, y = special.bessel_jy(order, x)
        assert not np.isnan(j).any() and not np.isnan(y).any()
        assert np.isfinite(j).all()
        assert (y[~np.isfinite(y)] == -np.inf).all()
        # Y_60(1e-5) is about -1e306 times 1e9: past the float range
        assert special.bessel_jy(60.0, 1e-5) == (0.0, -math.inf)

