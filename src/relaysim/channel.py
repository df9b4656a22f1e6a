"""Channel sampling: path loss, correlated Rayleigh draws, and the RNG contract.

Every random draw in the package comes from a substream keyed by the master
seed plus string tags (and indices such as the trial number), so results do
not depend on the order in which grid points or chunks of trials run.
"""

import contextlib
import functools
import math
import os
import zlib
from typing import NamedTuple

import numpy as np

from .errors import ConfigError


def substream(seed, *tags):
    """Independent Generator for (seed, *tags).

    Tags may be strings (hashed with crc32, stable across platforms) or
    integers. Identical arguments always produce the identical stream. The
    seed and integer tags must lie in [0, 2**64); any other integer raises
    ConfigError rather than wrap onto another seed's stream.
    """
    entropy = [int(seed)] + [zlib.crc32(tag.encode("utf-8")) if isinstance(tag, str)
                             else int(tag) for tag in tags]
    outside = [word for word in entropy if not 0 <= word < 2 ** 64]
    if outside:
        raise ConfigError(f"seeds and integer stream tags must lie in [0, 2**64), "
                          f"got {outside[0]}")
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


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy ships in
    numpy.libs, or None when it ships none; looked up once."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}set_num_threads{suffix}")
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread(draws):
    """Hold numpy's OpenBLAS to one thread inside the block and restore the
    count it had on exit, when a chunk of draws holds more than one trial;
    otherwise, or without a bundled OpenBLAS, do nothing.

    Under it, sample fills the next chunk on a second thread. Where a chunk
    holds several trials its GEMMs are small and a second BLAS thread adds
    nothing; where it holds one (large N: rate trials from N = 512 at
    M = 2N, K = 10), they gain from it more than the filler does. Both
    Monte Carlo engines enter it around their factor build and their
    trials (estimation.pilot_mse, link.trial_outcomes): built threaded,
    the factors would leave OpenBLAS's worker spinning into the trials.
    """
    blas = _openblas_threads() if chunk_size(draws) > 1 else None
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def sample(draws, trials, fill, stage):
    """Stacks over trials of the named arrays that stage makes of each chunk.

    trials must be a whole number >= 1 (else ConfigError). A chunk is
    chunk_size(draws) rows of normals, one per trial; fill(rows, start)
    fills its first count rows, trials start, start + 1, ..., and the rows
    past them are zero. Chunks begin at multiples of the chunk size, so a
    trial's arithmetic depends on its index alone.
    stage gets one (rows,) + shape view of the chunk per shape of draws,
    in order, and returns a dict of arrays of one row per chunk row; the
    real trials' rows go to (trials, ...) stacks under the same keys,
    allocated at the first chunk.

    Chunks are filled strictly in order and none past the last, into two
    buffers. While numpy's OpenBLAS runs one thread (as _one_blas_thread
    holds it for both engines' chunks of several trials), a one-worker
    executor fills them, queued two ahead: chunks 0 and 1 at the start,
    chunk i + 2 once chunk i's rows are stacked; so chunk i + 1 fills
    while stage runs on chunk i. Otherwise the calling thread fills each
    chunk before its stage, since a second BLAS thread's worker spins
    after every GEMM on the core the filler needs. So a fill must share no
    state with stage; a generator the fills share sees the draws of a
    serial loop either way. An exception in fill or stage propagates; no
    queued fill starts after it, and the worker is joined.
    """
    if trials < 1 or not float(trials).is_integer():
        raise ConfigError(f"trials must be >= 1 and whole, got {trials!r}")
    trials, size = int(trials), chunk_size(draws)
    buffers = [np.empty((size, normals_per_trial(draws))) for _ in range(2)]
    parts = [split_normals(normals, *draws) for normals in buffers]
    chunks = [(start, min(size, trials - start)) for start in range(0, trials, size)]
    stacks = {}

    def fill_chunk(chunk):
        (start, count), normals = chunks[chunk], buffers[chunk % 2]
        fill(normals[:count], start)
        normals[count:] = 0.0

    def stage_chunk(chunk):
        start, count = chunks[chunk]
        for name, x in stage(*parts[chunk % 2]).items():
            if name not in stacks:
                stacks[name] = np.empty((trials,) + x.shape[1:], x.dtype)
            stacks[name][start:start + count] = x[:count]

    blas = _openblas_threads()
    if blas is None or blas[0]() != 1:
        for chunk in range(len(chunks)):
            fill_chunk(chunk)
            stage_chunk(chunk)
        return stacks
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(1, thread_name_prefix="relaysim-fill")
    try:
        fills = [pool.submit(fill_chunk, chunk) for chunk in range(min(2, len(chunks)))]
        for chunk in range(len(chunks)):
            fills[chunk].result()
            stage_chunk(chunk)
            if chunk + 2 < len(chunks):
                fills.append(pool.submit(fill_chunk, chunk + 2))
    finally:
        pool.shutdown(cancel_futures=True)
    return stacks


def mean_and_stderr(samples, scale=1.0):
    """Mean of per-trial samples over their first axis, and scale times its
    standard error: NaN, without a warning, for a single sample."""
    n, mean = len(samples), samples.mean(axis=0)
    spread = samples.std(ddof=1, axis=0) if n > 1 else np.full(np.shape(mean), np.nan)
    return mean, scale * spread / np.sqrt(n)


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


def _sum_abs2(x, kept):
    """Sums of |x|^2 over the axes of a three-axis complex stack that the
    einsum labels kept (of "ijk") leave out, read as real and imaginary
    parts."""
    parts = x.view(np.float64)
    return np.einsum(f"ijk,ijk->{kept}", parts, parts)


class CentroRoot(NamedTuple):
    """The n x n matrix diag(phase) X diag(conj(phase)), X real symmetric
    and centrosymmetric (X = J X J, J the exchange matrix), held as X's two
    half-size blocks: plus, ceil(n/2) square, and minus, floor(n/2) square.

    With y_k = x_k + x_(n-1-k) and z_k = x_k - x_(n-1-k) for k < n // 2 (and
    y keeping the middle row of an odd n), X x has rows k and n-1-k equal to
    (plus y)_k + (minus z)_k and (plus y)_k - (minus z)_k, and its middle
    row (plus y)_(n//2). phase is None for ones. The receive roots of an
    exponential correlation take this form (correlation.exponential_half_basis),
    in half the memory and half the GEMM flops of the dense matrix.
    """

    plus: np.ndarray
    minus: np.ndarray
    phase: np.ndarray


def _centro_multiply(root, x):
    """root @ x for a CentroRoot and an (n, w) array: a butterfly folds x's
    mirrored rows into sums and differences, plus and minus meet those as
    two real GEMMs (on a complex x's float64 view) and a butterfly unfolds
    the products, between the conjugate phase and the phase."""
    plus, minus, phase = root
    if phase is not None:
        x = np.conj(phase)[:, None] * x
    parts = x.view(np.float64) if np.iscomplexobj(x) else x
    mid, low = len(plus), len(minus)
    top, mirror = parts[:low], parts[::-1][:low]
    folded = np.empty_like(parts)
    np.add(top, mirror, out=folded[:low])
    folded[low:mid] = parts[low:mid]
    np.subtract(top, mirror, out=folded[mid:])
    products = np.empty_like(parts)
    np.matmul(plus, folded[:mid], out=products[:mid])
    np.matmul(minus, folded[mid:], out=products[mid:])
    np.add(products[:low], products[mid:], out=folded[:low])
    folded[low:mid] = products[low:mid]
    np.subtract(products[:low], products[mid:], out=folded[::-1][:low])
    out = folded.view(x.dtype)
    if phase is not None:
        out *= phase[:, None]
    return out


def left_multiply(mat, x):
    """mat @ x on x's first axis, without upcasting a real mat to complex.

    x is (n, w) or a stack such as complex_stack's (n, b, w), which meets
    mat as one GEMM over all its trailing columns. A real mat meets a
    complex x as one real GEMM on x's float64 view (real and imaginary parts
    side by side), which costs half of the complex product numpy would
    otherwise form. A CentroRoot meets it as two real GEMMs of half size,
    whatever its phase.
    """
    flat = np.ascontiguousarray(x).reshape(x.shape[0], -1)
    if isinstance(mat, CentroRoot):
        out = _centro_multiply(mat, flat)
    elif np.iscomplexobj(mat) or not np.iscomplexobj(x):
        out = mat @ flat
    else:
        out = (mat @ flat.view(np.float64)).view(np.complex128)
    return out.reshape(out.shape[:1] + x.shape[1:])


def path_loss(d_ref, d, exponent):
    """Distance-based large-scale gain (d_ref / d) ** exponent: OverflowError
    where it has no float, FloatingPointError where it underflows to zero."""
    if d_ref <= 0.0:
        raise ValueError(f"reference distance must be positive, got {d_ref}")
    if d <= 0.0:
        raise ValueError(f"distance must be positive, got {d}")
    if exponent < 0.0:
        raise ValueError(f"path-loss exponent must be non-negative, got {exponent}")
    try:
        gain = float((d_ref / d) ** exponent)
    except OverflowError:
        gain = math.inf
    if 0.0 < gain < math.inf:
        return gain
    gain_text = f"path-loss gain ({d_ref:g} / {d:g}) ** {exponent:g}"
    if gain:
        raise OverflowError(f"{gain_text} overflows a float")
    raise FloatingPointError(f"{gain_text} underflows to zero")


def large_scale_gains(d_ref, distances, exponent):
    """Per-user large-scale gains for a list of user-to-relay distances."""
    return np.array([path_loss(d_ref, d, exponent) for d in distances])


def draw_hop(recv_sqrt, tx_sqrt, gain, h):
    """One realization of a hop's channel matrix (receive x transmit size),
    or one per trial of a stack.

    Doubly correlated Rayleigh: sqrt(gain) * recv_sqrt @ H @ tx_sqrt with H
    iid CN(0, 1), so E{G G^H} = gain * tr(tx) * recv and E{G^H G} = gain *
    tr(recv) * tx for the squared factors recv and tx. h holds H already
    drawn: one (n, k) draw (complex_normal), or an (n, b, k) stack from
    complex_stack, which meets each square root as one GEMM and gives an
    (m, b, c) stack for (m, n) and (k, c) factors, square or not. recv_sqrt
    may be a CentroRoot, which left_multiply applies as two half-size GEMMs.
    """
    if gain < 0.0:
        raise ValueError(f"large-scale gain must be non-negative, got {gain}")
    k = tx_sqrt.shape[0]
    x = left_multiply(recv_sqrt, h)
    # the small factor takes x's dtype first: numpy's mixed real-complex
    # matmul, between threaded GEMMs, slowed itself and them more than
    # tenfold (OpenBLAS 0.3.31, 2 cores); one dtype on both sides does not
    tx_sqrt = np.asarray(tx_sqrt, dtype=x.dtype)
    return np.sqrt(gain) * (x.reshape(-1, k) @ tx_sqrt).reshape(*x.shape[:-1], -1)
