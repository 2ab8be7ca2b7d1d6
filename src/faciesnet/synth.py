"""Synthetic labeled wells from a 9-state Markov chain, for end-to-end
pipeline tests with a known ground truth.

Facies sequences persist with probability p_stay and otherwise jump
uniformly to one of the other eight states. Each channel value is the
facies mean plus Gaussian noise, so class separability is a dial:
sigma 0 makes every sample exactly its centroid, larger sigma blends
the classes together.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .welldata import CHANNELS, N_FACIES, Well

DEPTH_START = 1000.0
DEPTH_STEP = 0.5


def default_means() -> np.ndarray:
    """Facies f gets the constant vector f across all seven channels."""
    return np.repeat(np.arange(1, N_FACIES + 1, dtype=float)[:, None],
                     len(CHANNELS), axis=1)


@dataclass(frozen=True)
class SynthConfig:
    n_samples: int = 2000
    p_stay: float = 0.95
    means: np.ndarray = field(default_factory=default_means)
    sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 <= self.p_stay < 1.0:
            raise ConfigError(f"p_stay must be in [0, 1), got {self.p_stay}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        means = np.asarray(self.means, dtype=float)
        if means.shape != (N_FACIES, len(CHANNELS)):
            raise ConfigError(f"means must be {N_FACIES}x{len(CHANNELS)}, "
                              f"got {means.shape}")
        object.__setattr__(self, "means", means)


def generate_well(config: SynthConfig) -> Well:
    """One labeled synthetic well named SYNTH<seed>, bit-reproducible for
    a given seed.

    The facies chain is drawn first, sample by sample, then all channel
    noise in one block, so the stream layout is stable.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_samples
    states = np.empty(n, dtype=np.int64)
    states[0] = rng.integers(0, N_FACIES)
    for i in range(1, n):
        if rng.random() < config.p_stay:
            states[i] = states[i - 1]
        else:
            # uniform over the other eight states
            states[i] = (states[i - 1] + rng.integers(1, N_FACIES)) % N_FACIES

    values = config.means[states].T
    if config.sigma > 0:
        values = values + config.sigma * rng.standard_normal(values.shape)
    depth = DEPTH_START + DEPTH_STEP * np.arange(n, dtype=float)
    channels = {c: values[j].copy() for j, c in enumerate(CHANNELS)}
    labels = states + 1
    return Well(name=f"SYNTH{config.seed:03d}", depth=depth,
                channels=channels, labels=labels)


def generate_wells(config: SynthConfig, n_wells: int) -> list:
    """Independent wells seeded config.seed, config.seed+1, and so on."""
    if n_wells < 1:
        raise ConfigError(f"n_wells must be >= 1, got {n_wells}")
    return [generate_well(replace(config, seed=config.seed + i))
            for i in range(n_wells)]
