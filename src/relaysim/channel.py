"""Channel sampling: path loss, correlated Rayleigh draws, and the RNG contract.

Every random draw in the package comes from a substream keyed by the master
seed plus string tags (and indices such as the trial number), so results do
not depend on scheduling order or on how work is split across processes.
"""

import zlib

import numpy as np


def substream(seed, *tags):
    """Independent Generator for (seed, *tags).

    Tags may be strings (hashed with crc32, stable across platforms) or
    integers. Identical arguments always produce the identical stream.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            entropy.append(zlib.crc32(tag.encode("utf-8")))
        else:
            entropy.append(int(tag) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def complex_normal(rng, shape, variance=1.0):
    """Circularly symmetric complex Gaussian samples, total variance per element."""
    scale = np.sqrt(np.asarray(variance, dtype=np.float64) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def left_multiply(mat, x):
    """mat @ x for a 2-D x, without upcasting a real mat to complex.

    A real mat meets a complex x as one real GEMM on x's float64 view (real
    and imaginary parts side by side), which costs half of the complex
    product numpy would otherwise form.
    """
    if np.iscomplexobj(mat) or not np.iscomplexobj(x):
        return mat @ x
    x = np.ascontiguousarray(x)
    return (mat @ x.view(np.float64)).view(np.complex128)


def path_loss(d_ref, d, exponent):
    """Distance-based large-scale gain (d_ref / d) ** exponent."""
    if d_ref <= 0.0:
        raise ValueError(f"reference distance must be positive, got {d_ref}")
    if d <= 0.0:
        raise ValueError(f"distance must be positive, got {d}")
    if exponent < 0.0:
        raise ValueError(f"path-loss exponent must be non-negative, got {exponent}")
    return float((d_ref / d) ** exponent)


def large_scale_gains(d_ref, distances, exponent):
    """Per-user large-scale gains for a list of user-to-relay distances."""
    return np.array([path_loss(d_ref, d, exponent) for d in distances])


def draw_hop(recv_sqrt, tx_sqrt, gain, rng):
    """One realization of a hop's channel matrix (receive x transmit size).

    Doubly correlated Rayleigh: sqrt(gain) * recv_sqrt @ H @ tx_sqrt with H
    iid CN(0, 1), so E{G G^H} = gain * tr(tx) * recv and E{G^H G} = gain *
    tr(recv) * tx for the squared factors recv and tx. A diagonal tx_sqrt
    holds per-column amplitudes (the first hop's per-user gains).
    """
    if gain < 0.0:
        raise ValueError(f"large-scale gain must be non-negative, got {gain}")
    h = complex_normal(rng, (recv_sqrt.shape[0], tx_sqrt.shape[0]))
    return np.sqrt(gain) * (left_multiply(recv_sqrt, h) @ tx_sqrt)
