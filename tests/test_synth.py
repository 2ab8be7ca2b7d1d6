"""Synthetic well generator tests: chain statistics, determinism, and
compatibility with the data pipeline."""

import itertools

import numpy as np
import pytest

from faciesnet.errors import ConfigError
from faciesnet.synth import SynthConfig, default_means, generate_well, generate_wells
from faciesnet.welldata import CHANNELS, parse_csv, write_csv


def run_lengths(labels):
    return [len(list(g)) for _, g in itertools.groupby(labels)]


class TestConfig:
    def test_default_means_shape_and_values(self):
        m = default_means()
        assert m.shape == (9, 7)
        assert np.array_equal(m[2], np.full(7, 3.0))

    def test_bad_p_stay_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(p_stay=1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(sigma=-0.1)

    def test_bad_means_shape_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(means=np.zeros((3, 7)))

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_samples=0)


class TestGenerateWell:
    def test_sigma_zero_hits_centroids_exactly(self):
        well = generate_well(SynthConfig(n_samples=500, sigma=0.0, seed=1))
        means = default_means()
        for j, c in enumerate(CHANNELS):
            assert np.array_equal(well.channels[c], means[well.labels - 1, j])

    def test_same_seed_identical(self):
        cfg = SynthConfig(n_samples=300, seed=9)
        a, b = generate_well(cfg), generate_well(cfg)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.labels, b.labels)
        for c in CHANNELS:
            assert np.array_equal(a.channels[c], b.channels[c])

    def test_different_seeds_differ(self):
        a = generate_well(SynthConfig(n_samples=300, seed=0))
        b = generate_well(SynthConfig(n_samples=300, seed=1))
        assert not np.array_equal(a.labels, b.labels)

    def test_labels_in_range(self):
        well = generate_well(SynthConfig(n_samples=1000, seed=2))
        assert well.labels.min() >= 1 and well.labels.max() <= 9

    def test_depth_strictly_increasing(self):
        well = generate_well(SynthConfig(n_samples=100, seed=3))
        assert (np.diff(well.depth) > 0).all()

    def test_mean_run_length_near_geometric_expectation(self):
        # p_stay 0.95 gives geometric runs with mean 1/0.05 = 20
        well = generate_well(SynthConfig(n_samples=10_000, p_stay=0.95, seed=0))
        mean_run = np.mean(run_lengths(well.labels))
        assert 15.0 <= mean_run <= 25.0

    def test_iid_state_frequencies_uniform(self):
        # p_stay 0 makes samples independent; frequencies concentrate fast
        well = generate_well(SynthConfig(n_samples=100_000, p_stay=0.0, seed=0))
        freqs = np.bincount(well.labels, minlength=10)[1:] / len(well.labels)
        assert np.abs(freqs / (1 / 9) - 1).max() < 0.05

    def test_moderate_chain_state_frequencies_uniform(self):
        well = generate_well(SynthConfig(n_samples=100_000, p_stay=0.5, seed=0))
        freqs = np.bincount(well.labels, minlength=10)[1:] / len(well.labels)
        assert np.abs(freqs / (1 / 9) - 1).max() < 0.05

    def test_persistent_chain_state_frequencies_uniform(self):
        # runs of ~20 inflate estimator variance ~39x, so the sample
        # count must grow with the mixing time for a 5% band to hold
        well = generate_well(SynthConfig(n_samples=1_000_000, p_stay=0.95, seed=0))
        freqs = np.bincount(well.labels, minlength=10)[1:] / len(well.labels)
        assert np.abs(freqs / (1 / 9) - 1).max() < 0.05

    def test_nearest_centroid_perfect_at_sigma_zero(self):
        well = generate_well(SynthConfig(n_samples=2000, sigma=0.0, seed=4))
        x = well.channel_matrix()
        dists = np.linalg.norm(x.T[:, None, :] - default_means()[None], axis=2)
        assert np.array_equal(dists.argmin(axis=1) + 1, well.labels)

    def test_custom_name(self):
        assert generate_well(SynthConfig(n_samples=10, seed=7)).name == "SYNTH007"


class TestPipelineCompatibility:
    def test_csv_round_trip(self, tmp_path):
        well = generate_well(SynthConfig(n_samples=200, seed=5))
        path = tmp_path / "synth.csv"
        write_csv([well], path)
        back = parse_csv(path)
        assert len(back) == 1
        assert np.array_equal(back[0].labels, well.labels)
        for c in CHANNELS:
            assert np.array_equal(back[0].channels[c], well.channels[c])

    def test_generate_wells_distinct_names_and_seeds(self):
        wells = generate_wells(SynthConfig(n_samples=50, seed=10), 3)
        assert [w.name for w in wells] == ["SYNTH010", "SYNTH011", "SYNTH012"]
        assert not np.array_equal(wells[0].labels, wells[1].labels)

    def test_generate_wells_rejects_zero(self):
        with pytest.raises(ConfigError):
            generate_wells(SynthConfig(n_samples=50), 0)
