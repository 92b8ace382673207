"""Tests for the special-function kernel.

Expected values come from closed forms evaluated by hand, from scipy
computed independently of this implementation, or from mpmath at 340
decimal digits (frozen below as constants).
"""

import math
import os
import subprocess
import sys
import threading
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps

from erlfit import specfun
from erlfit.specfun import inv_reg_inc_beta, log_beta, log_gamma, reg_inc_beta

EULER_GAMMA = 0.5772156649015329

# (a, b, log B(a,b)) with the reference computed by mpmath at dps=340
LOG_BETA_REFS = [
    (2.5, 1e10, -57.27994445456572),
    (0.5, 1e15, -16.69702325453064),
    (7.0, 1e80, -1282.8684008646555),
    (1.0, 1e250, -575.6462732485114),
    (20.0, 1e300, -13776.170673777075),
    (1e8, 1e8, -138629444.05681732),
    (1e-6, 1e-6, 14.508657738522574),
    (1e-300, 2.0, 690.7755278982137),
    (123.25, 4567.5, -571.6137402568168),
]


class TestLogGamma:
    @pytest.mark.parametrize(
        "x, expected",
        [
            (1.0, 0.0),
            (2.0, 0.0),
            (0.5, math.log(math.sqrt(math.pi))),
            (5.0, math.log(24.0)),
        ],
    )
    def test_known_points(self, x, expected):
        assert log_gamma(x) == pytest.approx(expected, abs=1e-12)

    def test_sweep_against_scipy(self):
        rng = np.random.default_rng(101)
        x = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=20_000))
        err = np.abs(log_gamma(x) - sps.gammaln(x))
        ref = np.abs(sps.gammaln(x))
        small = ref <= 1e3
        assert float(np.max(err[small])) <= 1e-12
        assert float(np.max(err[~small] / ref[~small])) <= 1e-14

    def test_recurrence(self):
        x = np.linspace(0.1, 30.0, 500)
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + np.log(x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11

    def test_scalar_and_array_forms(self):
        assert isinstance(log_gamma(2.5), float)
        out = log_gamma(np.array([1.0, 2.0, 3.0]))
        assert isinstance(out, np.ndarray)
        assert out.shape == (3,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)


class TestDigamma:
    """score_ab takes digamma straight from scipy.special.psi; these pin
    it against closed forms and mpmath on the dependency floor too."""

    @pytest.mark.parametrize(
        "x, expected",
        [
            (1.0, -EULER_GAMMA),
            (2.0, 1.0 - EULER_GAMMA),
            (0.5, -EULER_GAMMA - 2.0 * math.log(2.0)),
        ],
    )
    def test_known_points(self, x, expected):
        assert sps.psi(x) == pytest.approx(expected, abs=1e-10)

    def test_sweep_against_mpmath(self):
        mp.mp.dps = 40
        rng = np.random.default_rng(212)
        xs = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=300))
        for x in xs:
            ref = float(mp.digamma(mp.mpf(float(x))))
            assert sps.psi(float(x)) == pytest.approx(ref, abs=1e-10, rel=1e-12)

    def test_recurrence(self):
        x = np.linspace(0.05, 20.0, 400)
        assert np.max(np.abs(sps.psi(x + 1.0) - sps.psi(x) - 1.0 / x)) <= 1e-10


class TestBeta:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (1.0, 1.0, 1.0),
            (2.0, 3.0, 1.0 / 12.0),
            (0.5, 0.5, math.pi),
        ],
    )
    def test_known_points(self, a, b, expected):
        assert math.exp(log_beta(a, b)) == pytest.approx(expected, rel=1e-10)

    def test_log_beta_sweep_against_scipy(self):
        # coarse cross-check; scipy's betaln loses digits for small a
        # with large b, so the tight comparison is the mpmath one below
        rng = np.random.default_rng(303)
        a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=10_000))
        b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=10_000))
        got = log_beta(a, b)
        ref = sps.betaln(a, b)
        assert float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))) <= 5e-11

    def test_log_beta_sweep_against_mpmath(self):
        mp.mp.dps = 60
        rng = np.random.default_rng(313)
        for _ in range(200):
            a = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            b = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            ref = float(mp.log(mp.beta(mp.mpf(a), mp.mpf(b))))
            assert log_beta(a, b) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("a, b, expected", LOG_BETA_REFS)
    def test_log_beta_extreme_arguments(self, a, b, expected):
        # the naive three-log-gamma form loses up to 8 digits here
        assert log_beta(a, b) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            a = float(np.exp(rng.uniform(-6, 6)))
            b = float(np.exp(rng.uniform(-6, 6)))
            assert log_beta(a, b) == log_beta(b, a)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            log_beta(1.0, -2.0)


class TestRegIncBeta:
    def test_uniform_case_is_identity(self):
        x = np.linspace(0.0, 1.0, 21)
        assert np.max(np.abs(reg_inc_beta(x, 1.0, 1.0) - x)) <= 1e-14

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.0, 7.5])
    def test_symmetric_midpoint(self, a):
        assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_cubic(self):
        # I_x(2,2) = 3x^2 - 2x^3 by hand
        assert reg_inc_beta(0.3, 2.0, 2.0) == pytest.approx(0.216, abs=1e-12)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_sweep_against_scipy(self):
        rng = np.random.default_rng(505)
        a = np.exp(rng.uniform(np.log(0.1), np.log(50.0), size=5_000))
        b = np.exp(rng.uniform(np.log(0.1), np.log(50.0), size=5_000))
        x = rng.uniform(0.0, 1.0, size=5_000)
        got = reg_inc_beta(x, a, b)
        ref = sps.betainc(a, b, x)
        assert float(np.max(np.abs(got - ref))) <= 1e-12

    def test_complement_symmetry(self):
        rng = np.random.default_rng(606)
        a = np.exp(rng.uniform(np.log(0.1), np.log(50.0), size=2_000))
        b = np.exp(rng.uniform(np.log(0.1), np.log(50.0), size=2_000))
        x = rng.uniform(0.0, 1.0, size=2_000)
        total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
        assert float(np.max(np.abs(total - 1.0))) <= 1e-12

    def test_monotone_in_x(self):
        rng = np.random.default_rng(707)
        grid = np.linspace(0.0, 1.0, 201)
        for _ in range(50):
            a = float(np.exp(rng.uniform(np.log(0.1), np.log(50.0))))
            b = float(np.exp(rng.uniform(np.log(0.1), np.log(50.0))))
            vals = reg_inc_beta(grid, a, b)
            assert np.all(np.diff(vals) >= -1e-14)

    def test_huge_b_against_mpmath(self):
        # reference from mpmath at dps=50; x ~ 1e-11 sits on the branch
        # where a continued fraction reflects, and forming 1 - x there
        # loses the digits of x
        got = reg_inc_beta(2e-11, 2.756, 3.5e11)
        assert got == pytest.approx(0.9780392418218935, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("x", [-0.1, 1.1])
    def test_domain_x(self, x):
        with pytest.raises(ValueError):
            reg_inc_beta(x, 2.0, 2.0)

    def test_domain_shape(self):
        with pytest.raises(ValueError):
            reg_inc_beta(0.3, 0.0, 2.0)


class TestInvRegIncBeta:
    def test_uniform_case_is_identity(self):
        p = np.linspace(0.0, 1.0, 21)
        assert np.max(np.abs(inv_reg_inc_beta(p, 1.0, 1.0) - p)) <= 1e-12

    @pytest.mark.parametrize("a", [0.4, 1.0, 3.0])
    def test_symmetric_midpoint(self, a):
        assert inv_reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)

    def test_inverse_of_closed_form_cubic(self):
        assert inv_reg_inc_beta(0.216, 2.0, 2.0) == pytest.approx(0.3, abs=1e-10)

    def test_endpoints(self):
        assert inv_reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert inv_reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_roundtrip_sweep(self):
        # forward(inverse(p)) returns p across a broad shape-parameter
        # box.  In the steep-tail corner (b near 0.1, p near 1) one
        # representable step of x moves the cdf by more than 1e-9, up
        # to ~1e-2 across the final ulp before 1.0, so no double can
        # round-trip such p.  Those draws must instead land within 16
        # ulps of the true inverse: p has to lie between the cdf values
        # a 16-ulp step either side of the returned x.  All remaining
        # draws must round-trip to 1e-9.
        rng = np.random.default_rng(808)
        a = np.exp(rng.uniform(np.log(0.1), np.log(50.0), size=10_000))
        b = np.exp(rng.uniform(np.log(0.1), np.log(50.0), size=10_000))
        p = rng.uniform(1e-6, 1.0 - 1e-6, size=10_000)
        x = inv_reg_inc_beta(p, a, b)
        back = reg_inc_beta(x, a, b)
        err = np.abs(back - p)
        bad = np.nonzero(err > 1e-9)[0]
        assert bad.size < 300
        for i in bad:
            lo = float(x[i])
            hi = float(x[i])
            for _ in range(16):
                lo = float(np.nextafter(lo, 0.0))
                hi = float(np.nextafter(hi, 2.0))
            lo, hi = max(lo, 0.0), min(hi, 1.0)
            ai, bi = float(a[i]), float(b[i])
            assert reg_inc_beta(lo, ai, bi) - 1e-9 <= p[i] <= reg_inc_beta(hi, ai, bi) + 1e-9

    def test_monotone_in_p(self):
        p = np.linspace(0.001, 0.999, 200)
        x = inv_reg_inc_beta(p, 2.5, 0.7)
        assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("p", [-0.2, 1.2])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            inv_reg_inc_beta(p, 2.0, 2.0)


# 0 and 1, the smallest subnormal, 0.5 and the largest double below 1
EDGE_PROBS = [0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0]
BLOCK_SIZES = [2 * specfun._MIN_BLOCK - 1, 2 * specfun._MIN_BLOCK, 3 * specfun._MIN_BLOCK + 7]


def force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(specfun, "_cpu_count", lambda: cpus)


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype == np.float64 and x.shape == y.shape and np.array_equal(
        x.view(np.uint64), y.view(np.uint64))


def probs(size, seed):
    p = np.random.default_rng(seed).random(size)
    p[:5] = EDGE_PROBS
    p[-5:] = EDGE_PROBS
    return p


class TestOnBlocks:
    """_on_blocks splits a ufunc over threads without changing a bit."""

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_bitwise_equal_to_one_call(self, monkeypatch, cpus, size):
        force_cpus(monkeypatch, cpus)
        p = probs(size, size)
        assert same_bits(inv_reg_inc_beta(p, 2.5, 0.3), sps.betaincinv(2.5, 0.3, p))
        # (size, 1) against (2,): a broadcast that ravel has to copy
        a, b = np.array([0.3, 40.0]), np.array([2.5, 0.05])
        assert same_bits(inv_reg_inc_beta(p[:, None], a, b), sps.betaincinv(a, b, p[:, None]))

    @pytest.mark.parametrize("cpus,size,blocks", [
        (1, 5 * specfun._MIN_BLOCK, 1),
        (8, 2 * specfun._MIN_BLOCK - 1, 1),
        (2, 2 * specfun._MIN_BLOCK, 2),
        (3, 3 * specfun._MIN_BLOCK + 7, 3),
        (8, 5 * specfun._MIN_BLOCK, 5),
    ])
    def test_cuts_contiguous_blocks(self, monkeypatch, cpus, size, blocks):
        force_cpus(monkeypatch, cpus)
        calls = []

        def record(x, out=None):
            calls.append((int(x[0]), x.size, threading.current_thread() is threading.main_thread()))
            return np.copyto(out, x) if out is not None else x.copy()

        x = np.arange(size, dtype=np.float64)
        threads = threading.active_count()
        assert same_bits(specfun._on_blocks(record, x), x)
        assert threading.active_count() == threads  # no pool outlives the call
        calls.sort()
        assert len(calls) == blocks
        assert [start for start, _, _ in calls] == list(np.cumsum([0] + [n for _, n, _ in calls[:-1]]))
        assert sum(n for _, n, _ in calls) == size
        assert min(n for _, n, _ in calls) >= specfun._MIN_BLOCK or blocks == 1
        assert calls[0][2] and not any(main for _, _, main in calls[1:])

    def test_import_starts_no_thread(self):
        code = "import threading, erlfit.cli; print(threading.active_count())"
        src = os.path.dirname(os.path.dirname(os.path.abspath(specfun.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0 and done.stdout.split() == ["1"], done.stderr

    def test_worker_exception_reaches_caller(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        x = np.zeros(3 * specfun._MIN_BLOCK)
        x[-1] = 1.0

        def fail_on_block_2(x, out):
            if x[-1] == 1.0:
                raise ArithmeticError("block 2")
            np.copyto(out, x)

        with pytest.raises(ArithmeticError, match="block 2"):
            specfun._on_blocks(fail_on_block_2, x)

    def test_workers_keep_the_callers_errstate(self, monkeypatch):
        force_cpus(monkeypatch, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="ignore"):
                out = specfun._on_blocks(np.log, np.zeros(4 * specfun._MIN_BLOCK))
        assert np.all(out == -np.inf)

    def test_many_blocks_under_fast_switching(self, monkeypatch):
        # more blocks than cores, and a thread switch every microsecond
        force_cpus(monkeypatch, 6)
        p = probs(6 * specfun._MIN_BLOCK, 6)
        expected = sps.betaincinv(2.0, 1.5, p)
        results = []

        def run():
            for _ in range(3):
                results.append(specfun._on_blocks(sps.betaincinv, 2.0, 1.5, p))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=run)
            worker.start()
            worker.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert len(results) == 3 and all(same_bits(r, expected) for r in results)
