"""Synthetic data generators: reproducibility and distributional sanity."""

import numpy as np
import pytest

from modesig import FAMILIES, GeneratorSpec, generate


class TestSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            GeneratorSpec(family="blob", n=10)

    def test_n_floor(self):
        with pytest.raises(ValueError):
            GeneratorSpec(family="gaussian", n=0)

    def test_from_dict(self):
        s = GeneratorSpec.from_dict("ring", {"n": 20, "seed": 3, "radius": 2.0})
        assert s.n == 20 and s.seed == 3
        assert s.params == {"radius": 2.0}

    def test_n_must_be_an_integer(self):
        # numpy's TypeError came from inside the generator
        with pytest.raises(ValueError, match="n must be >= 1 and an integer, got 2.5"):
            generate(GeneratorSpec(family="gaussian", n=2.5))

    @pytest.mark.parametrize("payload, key", [({"n": 2.7, "seed": 1.9}, "n"),
                                              ({"n": 2, "seed": 1.9}, "seed")])
    def test_from_dict_does_not_truncate(self, payload, key):
        # {"n": 2.7, "seed": 1.9} once gave n = 2 and seed = 1
        with pytest.raises(ValueError, match=f"^{key} must be"):
            GeneratorSpec.from_dict("gaussian", payload)

    def test_from_dict_requires_n(self):
        with pytest.raises(ValueError, match="'n'"):
            GeneratorSpec.from_dict("gaussian", {"mean": [0.0]})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            generate(GeneratorSpec(family="gaussian", n=5, params={"var": [1.0]}))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be >= 0 and an integer"):
            GeneratorSpec(family="gaussian", n=5, seed=seed)

    @pytest.mark.parametrize("family, params, key", [
        ("mixture", {"means": [[0.0], [1.0]], "cov_diags": [[1.0], [np.inf]]}, "cov_diags"),
        ("mixture", {"means": [[0.0], [1.0]], "cov_diags": [[np.nan], [1.0]]}, "cov_diags"),
        ("mixture", {"means": [[0.0], [np.nan]]}, "means"),
        ("gaussian", {"mean": [0.0, np.inf]}, "mean"),
        ("gaussian", {"cov_diag": [np.inf]}, "cov_diag"),
        ("ring", {"radius": np.inf}, "radius"),
        ("ring", {"noise": np.nan}, "noise"),
        ("singular-mixture", {"mu": np.nan}, "mu"),
        ("singular-mixture", {"sigma": np.inf}, "sigma"),
    ], ids=["mixture_cov_inf", "mixture_cov_nan", "mixture_means_nan", "gaussian_mean_inf",
            "gaussian_cov_inf", "ring_radius_inf", "ring_noise_nan", "singular_mu_nan",
            "singular_sigma_inf"])
    def test_non_finite_parameter_rejected(self, family, params, key):
        # each of these once drew a sample with inf or NaN entries
        with pytest.raises(ValueError, match=f"^{key} must be finite$"):
            generate(GeneratorSpec(family=family, n=5, params=params))

    def test_families_constant(self):
        assert set(FAMILIES) == {"gaussian", "mixture", "ring", "singular-mixture"}


class TestReproducibility:
    @pytest.mark.parametrize("family,params", [
        ("gaussian", {"mean": [1.0, -1.0], "cov_diag": [2.0, 0.5]}),
        ("mixture", {"means": [[-3.0], [3.0]]}),
        ("ring", {"radius": 4.0, "noise": 0.3}),
        ("singular-mixture", {"mu": 5.0, "sigma": 1.0}),
    ])
    def test_same_spec_same_bytes(self, family, params):
        a = generate(GeneratorSpec(family=family, n=64, seed=9, params=params))
        b = generate(GeneratorSpec(family=family, n=64, seed=9, params=params))
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_sample(self):
        a = generate(GeneratorSpec(family="gaussian", n=32, seed=0))
        b = generate(GeneratorSpec(family="gaussian", n=32, seed=1))
        assert not np.array_equal(a, b)


class TestGaussian:
    def test_shape_and_moments(self):
        spec = GeneratorSpec(
            family="gaussian", n=20_000, seed=2,
            params={"mean": [3.0, -2.0], "cov_diag": [4.0, 0.25]},
        )
        x = generate(spec)
        assert x.shape == (20_000, 2)
        assert np.allclose(x.mean(axis=0), [3.0, -2.0], atol=0.06)
        assert np.allclose(x.std(axis=0), [2.0, 0.5], rtol=0.05)

    def test_default_is_standard_1d(self):
        x = generate(GeneratorSpec(family="gaussian", n=5000, seed=3))
        assert x.shape == (5000, 1)
        assert abs(x.mean()) < 0.06 and abs(x.std() - 1.0) < 0.05

    def test_bad_cov(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec(family="gaussian", n=5, params={"cov_diag": [0.0]}))


class TestMixture:
    def test_component_proportions(self):
        spec = GeneratorSpec(
            family="mixture", n=30_000, seed=4,
            params={"means": [[-10.0], [10.0]], "weights": [0.25, 0.75]},
        )
        x = generate(spec)
        frac_right = np.mean(x[:, 0] > 0)
        assert abs(frac_right - 0.75) < 0.02

    def test_one_dim_means_promoted(self):
        x = generate(GeneratorSpec(family="mixture", n=40, seed=5, params={"means": [-1.0, 1.0]}))
        assert x.shape == (40, 1)

    def test_weights_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            generate(GeneratorSpec(
                family="mixture", n=5,
                params={"means": [[0.0], [1.0]], "weights": [0.5, 0.6]},
            ))
        with pytest.raises(ValueError):
            generate(GeneratorSpec(
                family="mixture", n=5,
                params={"means": [[0.0], [1.0]], "weights": [-0.1, 1.1]},
            ))

    def test_means_required(self):
        with pytest.raises(ValueError, match="'means'"):
            generate(GeneratorSpec(family="mixture", n=10))

    def test_cov_table_shape(self):
        with pytest.raises(ValueError, match="cov_diags"):
            generate(GeneratorSpec(
                family="mixture", n=5,
                params={"means": [[0.0], [1.0]], "cov_diags": [[1.0]]},
            ))


class TestRing:
    def test_radii_concentrate_near_radius(self):
        spec = GeneratorSpec(
            family="ring", n=4000, seed=6,
            params={"radius": 5.0, "noise": 0.2, "center": [1.0, -1.0]},
        )
        x = generate(spec)
        assert x.shape == (4000, 2)
        r = np.linalg.norm(x - np.array([1.0, -1.0]), axis=1)
        assert abs(np.median(r) - 5.0) < 3 * 0.2
        assert abs(r.std() - 0.2) < 0.05

    def test_angles_roughly_uniform(self):
        x = generate(GeneratorSpec(family="ring", n=8000, seed=7, params={"radius": 1.0}))
        theta = np.arctan2(x[:, 1], x[:, 0])
        counts, _ = np.histogram(theta, bins=8, range=(-np.pi, np.pi))
        assert counts.min() > 0.8 * 8000 / 8
        assert counts.max() < 1.2 * 8000 / 8

    def test_zero_noise_exact_circle(self):
        x = generate(GeneratorSpec(family="ring", n=100, seed=8, params={"radius": 2.0}))
        r = np.linalg.norm(x, axis=1)
        assert np.allclose(r, 2.0, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec(family="ring", n=5, params={"radius": -1.0}))
        with pytest.raises(ValueError):
            generate(GeneratorSpec(family="ring", n=5, params={"center": [0.0]}))


class TestSingularMixture:
    def test_exact_point_mass_fraction(self):
        n = 9000
        spec = GeneratorSpec(
            family="singular-mixture", n=n, seed=9,
            params={"mu": 10.0, "sigma": 1.0, "loc": 0.0},
        )
        x = generate(spec)[:, 0]
        n_mass = int(np.sum(x == 0.0))
        # binomial(n, 1/3): stay within 4 standard deviations
        sd = np.sqrt(n * (1 / 3) * (2 / 3))
        assert abs(n_mass - n / 3) < 4 * sd
        shoulders = x[x != 0.0]
        assert abs(np.mean(np.abs(shoulders)) - 10.0) < 0.1

    def test_custom_weights_and_loc(self):
        spec = GeneratorSpec(
            family="singular-mixture", n=6000, seed=10,
            params={"mu": 4.0, "sigma": 0.5, "loc": 1.5, "weights": [0.1, 0.8, 0.1]},
        )
        x = generate(spec)[:, 0]
        frac = np.mean(x == 1.5)
        assert abs(frac - 0.8) < 0.03

    def test_sigma_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            generate(GeneratorSpec(family="singular-mixture", n=5, params={"sigma": 0.0}))
