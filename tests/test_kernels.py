import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import unipark
from unipark.errors import BarrierDomainError, DomainError
from unipark.kernels import ARRAY, SCALAR, _namespace, half_tan, psi, sinc, sine_integral, wrap_angle

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSinc:
    def test_zero(self):
        assert sinc(0.0) == 1.0

    def test_pi(self):
        assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_half_pi(self):
        assert sinc(math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-15)
        assert sinc(math.pi / 2) == pytest.approx(0.636619772367581, rel=1e-12)

    def test_range(self):
        a = np.linspace(-50, 50, 200001)
        vals = np.array([sinc(x) for x in a])
        assert vals.min() >= -0.2173
        assert vals.max() <= 1.0

    def test_even_bulk(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-100.0, 100.0, 1_000_000)
        for x in a[:1000]:
            assert sinc(x) == sinc(-x)
        # Vectorised spot check over the full million via pairwise symmetry
        # of the underlying formula.
        vals_pos = np.sin(a) / a
        vals_neg = np.sin(-a) / (-a)
        assert np.array_equal(vals_pos, vals_neg)

    @given(FINITE)
    def test_even_property(self, a):
        assert sinc(a) == pytest.approx(sinc(-a), rel=0, abs=0)

    def test_branch_agreement_at_threshold(self):
        for a in (1e-4 * (1 - 1e-12), 1e-4, 1.0000001e-4, 9.9e-5):
            direct = math.sin(a) / a
            taylor = 1.0 - a * a / 6.0 + a**4 / 120.0
            assert abs(direct - taylor) < 1e-15
            assert sinc(a) == pytest.approx(direct, abs=1e-15)

    def test_quartic_term_never_rounds_in(self):
        # Below 1e-4, a^4/120 is under half an ulp of 1 - a^2/6, so the
        # two-term polynomial is the three-term one bit for bit.
        rng = np.random.default_rng(3)
        a = np.concatenate([rng.uniform(-1e-4, 1e-4, 200_000), np.geomspace(1e-300, 1e-4, 10_000)])
        a2 = a[np.abs(a) < 1e-4] ** 2
        assert np.array_equal(1.0 - a2 / 6.0, 1.0 - a2 / 6.0 + a2 * a2 / 120.0)

    def test_nonfinite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                sinc(bad)


class TestSineIntegral:
    def test_zero(self):
        assert sine_integral(0.0) == 0.0

    def test_odd(self):
        for a in (0.3, 1.0, 2.5, 10.0, 123.4):
            assert sine_integral(-a) == pytest.approx(-sine_integral(a), rel=1e-15)

    def test_pi_against_quadrature_oracle(self):
        oracle, err = quad(lambda s: sinc(s), 0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-12
        assert sine_integral(math.pi) == pytest.approx(oracle, abs=1e-12)
        assert sine_integral(math.pi) == pytest.approx(1.851937051982466, abs=1e-12)

    def test_quadrature_oracle_dense(self):
        rng = np.random.default_rng(1)
        for a in rng.uniform(-10, 10, 25):
            oracle, _ = quad(lambda s: sinc(s), 0.0, a, epsabs=1e-13, epsrel=1e-13)
            assert sine_integral(a) == pytest.approx(oracle, abs=1e-12)

    def test_derivative_is_sinc(self):
        # d/da Si(a) = sinc(a) by central differences.
        a = np.linspace(-10, 10, 201)
        h = 1e-5
        for x in a:
            fd = (sine_integral(x + h) - sine_integral(x - h)) / (2 * h)
            assert fd == pytest.approx(sinc(x), rel=1e-6, abs=1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            sine_integral(math.nan)


def run_fresh(code: str, tmp_path: Path) -> dict:
    """The JSON that ``code`` prints last, run in a fresh interpreter in
    ``tmp_path``, where every forked map has two workers and records whether
    scipy.special was loaded when it began, in ``entered``."""
    prelude = textwrap.dedent("""
        import json, os, sys
        os.sched_getaffinity = lambda pid: {0, 1}
        import unipark.cli, unipark.simulate, unipark.verify
        entered = []
        def spy(fn, items, forked_map=unipark.simulate._forked_map):
            entered.append("scipy.special" in sys.modules)
            return forked_map(fn, items)
        for module in (unipark.cli, unipark.simulate, unipark.verify):
            module._forked_map = spy
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(unipark.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SWEEP = {"dt": 0.01, "t_max": 1.0, "grid_polar": [[1.0, 0.5, 0.2], [1.5, -0.5, 0.2], [2.0, 1.0, -0.3]]}


class TestScipyLoadedOnFirstSi:
    """Only glofo's law and certificate evaluate Si, so only a process that
    runs them imports scipy; a caller that forks out such work loads it
    first, so the workers inherit it."""

    @pytest.mark.parametrize("argv, loaded, entered", [
        (None, False, []),
        (["simulate", "--controller", "genova", "--init-polar=1,0.5,0.2", "--t-max", "1"], False, []),
        (["gains", "--family", "forwarding", "--poles=-1,-2,-3"], False, []),
        (["sweep", "--config", "globa_barfli_bagal.json"], False, [False]),
        (["simulate", "--controller", "glofo", "--init-polar=1,0.5,0.2", "--t-max", "1"], True, []),
        (["verify", "--samples", "5000"], True, [True]),
        (["sweep", "--config", "glofo.json"], True, [True]),
    ], ids=["import", "simulate-genova", "gains", "sweep-other-laws", "simulate-glofo", "verify-forked",
            "sweep-glofo"])
    def test_cli(self, tmp_path, argv, loaded, entered):
        (tmp_path / "globa_barfli_bagal.json").write_text(json.dumps(
            {"controllers": ["globa", "barfli", "bagal"], **SWEEP}))
        (tmp_path / "glofo.json").write_text(json.dumps({"controller": "glofo", **SWEEP}))
        got = run_fresh(f"""
            code = None if {argv!r} is None else unipark.cli.main({argv!r})
            print(json.dumps({{"code": code, "loaded": "scipy.special" in sys.modules, "entered": entered}}))
        """, tmp_path)
        assert got == {"code": None if argv is None else 0, "loaded": loaded, "entered": entered}

    def test_library_sweep_of_glofo(self, tmp_path):
        got = run_fresh("""
            from unipark import ControllerId, PolarState, Scenario, sweep
            records = sweep(Scenario(ControllerId.GLOFO, dt=0.01, t_max=1.0),
                            [PolarState(1.0, 0.5, 0.2), PolarState(1.5, -0.5, 0.2)])
            print(json.dumps({"loaded": "scipy.special" in sys.modules, "entered": entered,
                              "ends": [r.termination for r in records]}))
        """, tmp_path)
        assert got["loaded"] and got["entered"] == [True] and len(got["ends"]) == 2

    @pytest.mark.parametrize("first", ["sine_integral(x)", "SCALAR.si(x)", "ARRAY.si(np.array(x))"])
    def test_every_form_is_scipys_sici_bitwise(self, tmp_path, first):
        # Whichever form loads scipy, each is sici(x)[0], bit for bit, and
        # neither namespace holds a module __getattr__, before or after,
        # which would cost every attribute load its specialisation.
        got = run_fresh(f"""
            import numpy as np
            from unipark.kernels import ARRAY, SCALAR, sine_integral
            xs = [0.0, -0.0, 1e-300, -1e-300, 1e-4, -0.3, 1.0, -1.0, 3.141592653589793, 40.0, -40.0, 1e6]
            assert "scipy.special" not in sys.modules
            unloaded = ["__getattr__" not in vars(ns) for ns in (SCALAR, ARRAY)]
            firsts = [float({first}) for x in xs]
            from scipy.special import sici
            want = np.array([sici(x)[0] for x in xs])
            a, out = np.array(xs), np.full(len(xs), 7.0)
            forms = [np.array(firsts), np.array([sine_integral(x) for x in xs]),
                     np.array([SCALAR.si(x) for x in xs]), ARRAY.si(a), ARRAY.si(a, out=out), out]
            print(json.dumps(unloaded + [f.tobytes() == want.tobytes() for f in forms]
                             + ["__getattr__" not in vars(ns) for ns in (SCALAR, ARRAY)]))
        """, tmp_path)
        assert got == [True] * 10

    def test_only_scalar_and_array_load_si(self):
        with pytest.raises(AttributeError):
            _namespace("PLAIN", sin=math.sin).si


class TestKernelCompileLoadsSi:
    def test_only_a_kernel_that_calls_si_loads_it(self, tmp_path):
        # A sweep's caller compiles its kernels before forking, so the
        # compile of glofo's is where its workers' scipy comes from.
        got = run_fresh("""
            from unipark.controllers import ControllerId, Gains
            from unipark.simulate import _LOOPS, _rk4_kernel
            others = [_rk4_kernel(cid, Gains(), 0.01, loop)
                      for cid in ControllerId if cid is not ControllerId.GLOFO for loop in _LOOPS]
            before = "scipy.special" in sys.modules
            _rk4_kernel(ControllerId.GLOFO, Gains(), 0.01, "polar")
            print(json.dumps([len(others), before, "scipy.special" in sys.modules]))
        """, tmp_path)
        assert got == [30, False, True]


class TestPsi:
    def test_origin_is_one(self):
        assert psi(0.0, 0.0) == 1.0

    def test_zero_z_gives_cos(self):
        for g in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert psi(0.0, g) == pytest.approx(math.cos(2 * g), rel=1e-15)

    def test_max_at_multiples_of_pi(self):
        for n in (-2, -1, 0, 1, 2):
            assert psi(0.0, n * math.pi) == pytest.approx(1.0, rel=1e-12)

    def test_quarter_pi(self):
        assert psi(math.pi / 4, math.pi / 4) == pytest.approx(2.0 / math.pi, rel=1e-15)

    def test_continuity_across_zero(self):
        # |psi(eps, g) - cos(2g)| <= C * eps with a modest constant.
        for eps in (1e-3, 1e-6):
            for g in np.linspace(-3, 3, 31):
                assert abs(psi(eps, g) - math.cos(2 * g)) <= 3.0 * eps

    def test_branch_agreement_at_threshold(self):
        # Truth from 50-digit evaluation of the sum form.  The product form
        # neither branches nor cancels, so it holds machine precision at
        # every |z|, the neighbourhood of 1e-6 included.
        import mpmath as mp

        with mp.workdps(50):
            zs = [*np.geomspace(1e-8, 3.0, 61), 0.9999e-6, 1e-6, 1.0001e-6]
            for z in (*zs, *(-x for x in zs)):
                for g in (-2.9, -1.3, 0.0, 0.4, 2.0):
                    mz, mg = mp.mpf(z), mp.mpf(g)
                    truth = float((mp.sin(2 * mz - 2 * mg) + mp.sin(2 * mg)) / (2 * mz))
                    assert psi(z, g) == pytest.approx(truth, rel=0, abs=1e-15), (z, g)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=300)
    def test_bounded_by_one(self, z, g):
        assert abs(psi(z, g)) <= 1.0 + 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            psi(math.inf, 0.0)
        with pytest.raises(DomainError):
            psi(0.0, math.nan)


class TestNamespaces:
    """SCALAR and ARRAY apply the same rule for sinc and the one product
    form for psi, so they agree bit for bit."""

    def test_sinc_agrees_bitwise(self):
        t = 1e-4
        a = np.concatenate([
            np.linspace(-2 * t, 2 * t, 4001),
            [0.0, -0.0, t, -t, np.nextafter(t, 0.0), np.nextafter(-t, 0.0), np.nextafter(t, 1.0)],
            np.geomspace(1e-12, 50.0, 2000),
            -np.geomspace(1e-12, 50.0, 2000),
        ])
        scalar = np.array([SCALAR.sinc(x) for x in a.tolist()])
        assert ARRAY.sinc(a).tobytes() == scalar.tobytes()
        # The fast path (no |a| < 1e-4) and a 0-d argument follow the rule too.
        big = a[np.abs(a) >= t]
        assert ARRAY.sinc(big).tobytes() == scalar[np.abs(a) >= t].tobytes()
        assert [float(ARRAY.sinc(x)) for x in (0.0, 5e-5, 0.3)] == [SCALAR.sinc(x) for x in (0.0, 5e-5, 0.3)]

    @pytest.mark.parametrize("name", ["sinc", "si"])
    def test_out_form_is_the_plain_call(self, name):
        # The array kernels call both with out=: the same bits into that
        # array, and the same warnings, none on finite or NaN arguments.
        fn, t = getattr(ARRAY, name), 1e-4
        near = [t, np.nextafter(t, 0.0), np.nextafter(t, 1.0)]
        mixed = np.array([0.0, -0.0, *near, *(-x for x in near), 5e-5, np.nan, np.inf, -np.inf, 0.3, -2.0])
        for a in (mixed, mixed[::-1], mixed[mixed != np.inf], mixed[np.isfinite(mixed)], mixed[:2],
                  mixed[10:11], mixed[13:]):
            with warnings.catch_warnings(record=True) as plain:
                warnings.simplefilter("always")
                want = fn(a)
            out = np.full_like(a, 7.0)
            with warnings.catch_warnings(record=True) as into:
                warnings.simplefilter("always")
                got = fn(a, out=out)
            assert got is out and got.tobytes() == want.tobytes(), a
            assert [str(w.message) for w in into] == [str(w.message) for w in plain], a
            if not np.isinf(a).any():
                assert not plain, a

    def test_psi_agrees_bitwise(self):
        z = np.concatenate([[0.0], np.geomspace(1e-8, 3.0, 4000), -np.geomspace(1e-8, 3.0, 4000)])
        for g in np.linspace(-3.0, 3.0, 15).tolist():
            scalar = np.array([SCALAR.psi(x, g) for x in z.tolist()])
            assert ARRAY.psi(z, g).tobytes() == scalar.tobytes(), g
            assert [psi(x, g) for x in z[:50].tolist()] == scalar[:50].tolist()


class TestHalfTan:
    def test_values(self):
        assert half_tan(0.0) == 0.0
        assert half_tan(math.pi / 2) == pytest.approx(1.0, rel=1e-15)
        assert half_tan(-math.pi / 2) == pytest.approx(-1.0, rel=1e-15)

    def test_monotone(self):
        a = np.linspace(-3.14, 3.14, 1001)
        vals = [half_tan(x) for x in a]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_domain(self):
        for bad in (math.pi, -math.pi, 4.0):
            with pytest.raises(BarrierDomainError):
                half_tan(bad)


class TestWrapAngle:
    def test_range_and_idempotence(self):
        rng = np.random.default_rng(2)
        for a in rng.uniform(-50, 50, 2000):
            w = wrap_angle(a)
            assert -math.pi <= w < math.pi
            assert wrap_angle(w) == w
            # same residue mod 2*pi
            assert math.isclose(math.fmod(a - w, 2 * math.pi), 0.0, abs_tol=1e-9) or math.isclose(
                abs(math.fmod(a - w, 2 * math.pi)), 2 * math.pi, abs_tol=1e-9
            )

    def test_identity_on_fundamental_domain(self):
        for a in (-math.pi, -1.0, 0.0, 2.0, math.pi - 1e-9):
            assert wrap_angle(a) == pytest.approx(a, abs=1e-15)

    def test_shifts(self):
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
        assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi, abs=1e-12)
