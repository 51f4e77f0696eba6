import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import entroport
from entroport import DataError, GeneratorSpec, arfima_series, fbm_series, garch_series
from entroport.synth import _fft_convolve_valid, _next_fast_len, fractional_weights


def arfima_theoretical_acf(d: float, max_lag: int) -> np.ndarray:
    """Exact ACF of ARFIMA(0,d,0): rho_k = Gamma(1-d)Gamma(k+d) / (Gamma(d)Gamma(k+1-d))."""
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    for k in range(1, max_lag + 1):
        rho[k] = rho[k - 1] * (k - 1 + d) / (k - d)
    return rho


def _acf(x, lag):
    x = x - x.mean()
    return float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))


class TestFBM:
    def test_bounds(self):
        with pytest.raises(DataError):
            fbm_series(1.2, 1024, 0)
        with pytest.raises(DataError):
            fbm_series(0.0, 1024, 0)
        with pytest.raises(DataError):
            fbm_series(0.5, 1000, 0)  # not a power of two

    def test_h_half_increments_uncorrelated(self):
        n = 2 ** 14
        acfs = [_acf(np.diff(fbm_series(0.5, n, seed)), 1)
                for seed in range(20)]
        assert abs(np.mean(acfs)) < 3 / np.sqrt(n)

    def test_h_half_kstep_variance(self):
        # Var[B(t+k) - B(t)] = k for H = 1/2
        for k in (1, 5, 20):
            vs = []
            for seed in range(20):
                x = fbm_series(0.5, 2 ** 14, seed)
                vs.append(np.var(x[k:] - x[:-k]))
            assert np.mean(vs) == pytest.approx(k, rel=0.05)

    def test_general_h_scaling(self):
        for hurst in (0.3, 0.7):
            for k in (2, 8):
                vs = [np.var(np.subtract(x[k:], x[:-k]))
                      for x in (fbm_series(hurst, 2 ** 14, s)
                                for s in range(10))]
                assert np.mean(vs) == pytest.approx(k ** (2 * hurst), rel=0.07)


class TestARFIMA:
    def test_bounds(self):
        with pytest.raises(DataError):
            arfima_series(0.6, 100, 0)
        with pytest.raises(DataError):
            arfima_series(-0.5, 100, 0)

    def test_d_zero_is_white_noise(self):
        n = 20_000
        acfs = [_acf(arfima_series(0.0, n, seed), 1) for seed in range(10)]
        assert abs(np.mean(acfs)) < 3 / np.sqrt(n)

    def test_positive_memory_matches_theoretical_acf(self):
        d = 0.3
        rho = arfima_theoretical_acf(d, 10)
        n = 2 ** 15
        emp = np.zeros(10)
        for seed in range(10):
            x = arfima_series(d, n, seed)
            emp += np.array([_acf(x, k) for k in range(1, 11)])
        emp /= 10
        assert np.all(emp > 0)
        assert np.allclose(emp, rho[1:], atol=0.05)

    def test_weights_match_gamma_formula(self):
        d = 0.27
        psi = fractional_weights(d, 50)
        for k in (1, 5, 20, 49):
            expected = math.exp(math.lgamma(k + d) - math.lgamma(d)
                                - math.lgamma(k + 1))
            assert psi[k] == pytest.approx(expected, rel=1e-12)


class TestGARCH:
    def test_bounds(self):
        with pytest.raises(DataError):
            garch_series(1e-5, 0.5, 0.5, 100, 0)
        with pytest.raises(DataError):
            garch_series(-1e-5, 0.1, 0.1, 100, 0)

    @pytest.mark.parametrize("param", ["omega", "alpha", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_named(self, param, value):
        params = {"omega": 1e-5, "alpha": 0.1, "beta": 0.8, param: value}
        with pytest.raises(DataError, match=f"^{param} must be finite, got {value}$"):
            garch_series(**params, length=100, seed=0)

    def test_degenerate_iid_case(self):
        omega = 4e-4
        x = garch_series(omega, 0.0, 0.0, 100_000, 1)
        assert np.var(x) == pytest.approx(omega, rel=0.05)

    def test_unconditional_variance(self):
        x = garch_series(1e-5, 0.1, 0.85, 100_000, 2)
        assert np.var(x) == pytest.approx(2e-4, rel=0.10)


class TestReproducibility:
    def test_identical_specs_bitwise_equal(self):
        for spec in (GeneratorSpec("fbm", 1024, 7, hurst=0.6),
                     GeneratorSpec("arfima", 500, 7, d=0.2),
                     GeneratorSpec("garch", 500, 7, omega=1e-5, alpha=0.1,
                                   beta=0.8)):
            a = spec.generate()
            b = spec.generate()
            assert np.array_equal(a, b)

    def test_spec_passes_its_parameters_in_order(self):
        spec = GeneratorSpec("garch", 500, 7, omega=1e-5, alpha=0.1, beta=0.8)
        assert np.array_equal(spec.generate(), garch_series(1e-5, 0.1, 0.8, 500, 7))

    def test_unknown_kind_is_a_data_error(self):
        with pytest.raises(DataError, match="^unknown generator kind 'brownian'$"):
            GeneratorSpec("brownian", 1024, 7).generate()

    def test_non_finite_samples_name_the_generator(self):
        spec = GeneratorSpec("garch", 100, 3, omega=1e307, alpha=0.05, beta=0.9)
        with pytest.raises(DataError, match="^garch samples are not all finite$"):
            spec.generate()

    def test_distinct_seeds_differ(self):
        a = fbm_series(0.5, 1024, 1)
        b = fbm_series(0.5, 1024, 2)
        assert not np.array_equal(a, b)

    def test_streams_are_independent_of_each_other(self):
        a = arfima_series(0.0, 100, 5)
        g = garch_series(1.0, 0.0, 0.0, 100, 5)
        assert not np.allclose(a, g)

    # sha256 of the values' bytes, recorded before the FBM temporaries were
    # trimmed and the GARCH loop moved to Python floats (numpy 2.4, x86-64)
    @pytest.mark.parametrize("args, digest", [
        ((0.3, 1024, 0), "fcf4554b9f9d9a12c8b13498e73cf3334726ec6fbc54a4335f901cbef430b6d4"),
        ((0.5, 2 ** 16, 1), "5713763ce2784c36516751db2de094cb08d5166ff6446bf829b7c0cffc5d9e32"),
        ((0.7, 4096, 7), "13caa22be4a8b5cf80704c0a057f99687e5098502b2bec320a95ae66a5369c2c"),
    ])
    def test_fbm_output_is_pinned(self, args, digest):
        assert hashlib.sha256(fbm_series(*args).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        ((1e-6, 0.05, 0.9, 1000, 4),
         "e2058ba44418e779c4d15e3d9f810d511546f0a66b7d9aa63c0c546c192c919f"),
        ((1e-6, 0.05, 0.9, 2 ** 16, 4),
         "e546a7e4cba12cad7f4f4f77127554886b7ac98d38a4b0c3d9836ac241ad8707"),
        ((0.1, 0.2, 0.7, 4096, 0),
         "527110726486685e6f44836c4a30cc2665b288df4dc407a7de71e3c2ab154772"),
    ])
    def test_garch_output_is_pinned(self, args, digest):
        assert hashlib.sha256(garch_series(*args).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        ((0.2, 1000, 3), "49024c7e1beb6f688aea84c311c008937e40de98ff430d6b7955a23fdd0161a2"),
        ((0.2, 2 ** 16, 3), "4becc358380995ca047a8f676a70bb87ac53b0c7d787f822868cb4663baed5fd"),
        ((-0.3, 4096, 0), "0015ecc6bd24609c94e0fc8a0c456e112c94f31abd23a20c31c50f8c53a70c81"),
    ])
    def test_arfima_output_is_pinned(self, args, digest):
        assert hashlib.sha256(arfima_series(*args).tobytes()).hexdigest() == digest


class TestToPriceSeries:
    def test_level_path_exponentiates(self):
        spec = GeneratorSpec("fbm", 256, 3, hurst=0.5, price_scale=1e-3)
        p = spec.prices()
        assert np.all(p > 0)
        assert np.allclose(p, 100.0 * np.exp(1e-3 * spec.generate()))

    def test_return_path_compounds(self):
        spec = GeneratorSpec("garch", 100, 4, omega=1e-5, alpha=0.0, beta=0.0, price_scale=1.0)
        p = spec.prices()
        assert np.all(p > 0)
        assert p[0] == pytest.approx(100.0 * (1 + spec.generate()[0]))

    @pytest.mark.parametrize("scale", [1e6, -1e6])
    def test_prices_outside_the_positive_floats_are_a_data_error(self, scale):
        spec = GeneratorSpec("fbm", 256, 3, hurst=0.5, price_scale=scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(
                    f"price_scale {scale} takes prices outside (0, inf)")):
                spec.prices()

    # sha256 of the price bytes, recorded before price_scale moved onto GeneratorSpec
    @pytest.mark.parametrize("kind, scale, digest", [
        ("fbm", 0.001, "60c52e985ead60cc1acb60d5ef4ea80ec33beedeab4dacb843e7b18cf2dfb93f"),
        ("fbm", 0.05, "85c954feb183d851411147bb14b628536acf61058cc88992a665a093d60735a4"),
        ("arfima", 0.001, "e5c18b660cffcadd0e55c6d0c174308c97712088c0f20c2d656652ee2be8bfb7"),
        ("arfima", 0.05, "91befdd07eabcf10b5b64f7f3746dc474c6b075dcd7834b9a3939f55aeef3c42"),
        ("garch", 0.001, "bc01310ee96b6ce8cbea798cd7076e1cc2829c486ec9ed76899bcdd228c8c396"),
        ("garch", 0.05, "66d884d9f78076509be51c71f39f2bd30ec3cad46451facda43985c2583fd15f"),
    ])
    def test_prices_are_pinned(self, kind, scale, digest):
        spec = {"fbm": GeneratorSpec("fbm", 1024, 1, hurst=0.6, price_scale=scale),
                "arfima": GeneratorSpec("arfima", 1000, 3, d=0.2, price_scale=scale),
                "garch": GeneratorSpec("garch", 1000, 4, omega=1e-6, alpha=0.05, beta=0.9,
                                       price_scale=scale)}[kind]
        assert hashlib.sha256(spec.prices().tobytes()).hexdigest() == digest


class TestFFTConvolution:
    def test_fast_length_matches_scipy(self):
        sp_fft = pytest.importorskip("scipy.fft")
        sizes = list(range(1, 5000)) + [2 ** 20 + 10_000, 1_048_577, 3 ** 12 + 1, 10 ** 7 + 7]
        assert [_next_fast_len(n) for n in sizes] == [
            sp_fft.next_fast_len(n, real=True) for n in sizes]

    @pytest.mark.parametrize("d", [0.1, 0.2, -0.3, 0.45])
    def test_valid_part_equals_scipy_bit_for_bit(self, d):
        signal = pytest.importorskip("scipy.signal")
        psi = fractional_weights(d, 10_001)
        for length, seed in [(1000, 0), (4096, 1), (100_003, 2)]:
            eps = np.random.default_rng(seed).standard_normal(length + 10_000)
            expected = signal.fftconvolve(eps, psi, mode="valid")
            got = _fft_convolve_valid(eps, psi)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_cli_import_loads_no_scipy(self):
        assert not any(m.split(".")[0] == "scipy" for m in _modules_after_cli_import())


def _modules_after_cli_import() -> list[str]:
    """The names in sys.modules after `import entroport.cli` in a fresh interpreter."""
    src = str(Path(entroport.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, entroport.cli; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.split()


def test_cli_import_generates_no_dataclass():
    """Records are plain __slots__ classes; @dataclass code generation was most of the import."""
    assert "dataclasses" not in _modules_after_cli_import()
