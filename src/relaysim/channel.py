"""Channel sampling: path loss, correlated Rayleigh draws, and the RNG contract.

Every random draw in the package comes from a substream keyed by the master
seed plus string tags (and indices such as the trial number), so results do
not depend on scheduling order or on how work is split across processes.
"""

import math
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


# Monte Carlo engines draw their trials in chunks: as many trials as fit
# their float64 standard normals in this many bytes, at least one
CHUNK_BYTES = 512 * 1024


def normals_per_trial(shapes):
    """Standard normals a trial draws: one per element of each shape."""
    return sum(math.prod(shape) for shape in shapes)


def chunk_size(shapes):
    """Trials per chunk when each trial draws one standard normal per
    element of shapes."""
    return max(1, CHUNK_BYTES // (8 * normals_per_trial(shapes)))


def split_normals(normals, *shapes):
    """Views of consecutive segments of every row of a chunk's normals
    (one row per trial): a (b,) + shape stack per shape, in order."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(normals[:, offset:offset + size].reshape((len(normals),) + shape))
        offset += size
    return views


def complex_normal(rng, shape, variance=1.0):
    """Circularly symmetric complex Gaussian samples, total variance per element."""
    scale = np.sqrt(np.asarray(variance, dtype=np.float64) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def complex_stack(re, im, scale=np.sqrt(0.5)):
    """scale * (re + 1j im) for (b, n, w) stacks of standard normals (what
    complex_normal makes of them), laid out (n, b, w): the trial axis moves
    to the middle, so that a receive factor meets all b trials as one GEMM
    (left_multiply)."""
    b, n, w = re.shape
    out = np.empty((n, b, w), dtype=np.complex128)
    parts = out.view(np.float64).reshape(n, b, w, 2)
    np.multiply(re.transpose(1, 0, 2), scale, out=parts[..., 0])
    np.multiply(im.transpose(1, 0, 2), scale, out=parts[..., 1])
    return out


def left_multiply(mat, x):
    """mat @ x on x's first axis, without upcasting a real mat to complex.

    x is (n, w) or a stack such as complex_stack's (n, b, w), which meets
    mat as one GEMM over all its trailing columns. A real mat meets a
    complex x as one real GEMM on x's float64 view (real and imaginary parts
    side by side), which costs half of the complex product numpy would
    otherwise form.
    """
    flat = np.ascontiguousarray(x).reshape(x.shape[0], -1)
    if np.iscomplexobj(mat) or not np.iscomplexobj(x):
        out = mat @ flat
    else:
        out = (mat @ flat.view(np.float64)).view(np.complex128)
    return out.reshape(mat.shape[:1] + x.shape[1:])


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


def draw_hop(recv_sqrt, tx_sqrt, gain, rng=None, h=None):
    """One realization of a hop's channel matrix (receive x transmit size),
    or one per trial of a stack.

    Doubly correlated Rayleigh: sqrt(gain) * recv_sqrt @ H @ tx_sqrt with H
    iid CN(0, 1), so E{G G^H} = gain * tr(tx) * recv and E{G^H G} = gain *
    tr(recv) * tx for the squared factors recv and tx. H is drawn from rng,
    or given as h: one (n, k) draw, or an (n, b, k) stack from
    complex_stack, which meets each square root as one GEMM and gives an
    (n, b, k) stack. A diagonal tx_sqrt holds per-column amplitudes (the
    first hop's per-user gains).
    """
    if gain < 0.0:
        raise ValueError(f"large-scale gain must be non-negative, got {gain}")
    k = tx_sqrt.shape[0]
    if h is None:
        h = complex_normal(rng, (recv_sqrt.shape[0], k))
    x = left_multiply(recv_sqrt, h)
    # the small factor takes x's dtype first: numpy's mixed real-complex
    # matmul, between threaded GEMMs, slowed itself and them more than
    # tenfold (OpenBLAS 0.3.31, 2 cores); one dtype on both sides does not
    tx_sqrt = np.asarray(tx_sqrt, dtype=x.dtype)
    return np.sqrt(gain) * (x.reshape(-1, k) @ tx_sqrt).reshape(x.shape)
