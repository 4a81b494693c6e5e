"""Stochastic machinery: seedable sub-streams, confidence-coded CIM
sampling, structural shocks, and the AR(1) dynamic-shock process.

Every draw sequence is derived from (master_seed, stream parts), so results
are byte-identical regardless of worker count or evaluation order.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import ConfigError, OutOfRangeError
from .model import (
    SCORE_MAX,
    SCORE_MIN,
    CrossImpactMatrix,
    Distribution,
    DynamicShockConfig,
    StructuralShockConfig,
    StudySpec,
)

_SEED_MASK = (1 << 64) - 1
_WORD_MASK = (1 << 32) - 1

# numpy's SeedSequence constants (pool of four 32-bit words) and the PCG64
# multiplier; StreamBlock repeats both algorithms on arrays.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# uint64 constants of the limb arithmetic: the multiplier's high word, its
# low word and that word's 32-bit halves, and what next_double scales by.
_M_HI, _M_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _SEED_MASK)
_M_LO0, _M_LO1 = np.uint64(_PCG64_MULT & _WORD_MASK), np.uint64(_PCG64_MULT >> 32 & _WORD_MASK)
_LOW32 = np.uint64(_WORD_MASK)
_1, _11, _32, _58, _63 = map(np.uint64, (1, 11, 32, 58, 63))
_DOUBLE_UNIT = 1.0 / 9007199254740992.0

StreamPart = Union[int, str]


def _encode_part(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode())
    if isinstance(part, (int, np.integer)):
        return int(part) & _SEED_MASK
    raise TypeError(f"stream part must be int or str, got {type(part)!r}")


def _words(value: int) -> tuple[int, ...]:
    """A non-negative int as SeedSequence splits it: little-endian 32-bit
    words, at least one."""
    words = [value & _WORD_MASK]
    while value > _WORD_MASK:
        value >>= 32
        words.append(value & _WORD_MASK)
    return tuple(words)


@dataclass(frozen=True)
class RandomSource:
    """Root of all randomness for one batch.

    Identical (master_seed, stream parts) always yield an identical draw
    sequence; independent parts yield statistically independent streams.
    """

    master_seed: int

    def substream(self, *parts) -> np.random.Generator:
        """The reference definition of a stream:
        ``Generator(PCG64(SeedSequence([seed mod 2**64, *encoded parts])))``,
        where an int part is taken mod 2**64 and a str part is its crc32."""
        entropy = [self.master_seed & _SEED_MASK] + [_encode_part(p) for p in parts]
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def block(self, *axes: Sequence[StreamPart]) -> "StreamBlock":
        """The streams of every combination of parts, one part from each
        axis, derived together; see StreamBlock."""
        return StreamBlock(self.master_seed, axes)


class StreamBlock:
    """Many sub-streams of one master seed, derived in one vectorised pass.

    The block covers every parts tuple that takes one part from each axis,
    addressed by flat index: row-major over the axes, so part i of axis k
    adds i * strides[k]. The stream at a flat index gives the same draws as
    ``RandomSource(master_seed).substream(*parts)``. numpy's SeedSequence
    mixing and ``generate_state(4, uint64)`` run as uint32 array operations
    over all combinations at once, and PCG64's seeding (inc = (seq << 1) | 1,
    state = ((seed + inc) * M + inc) mod 2**128) as uint64 limb arithmetic
    on the same table, which then holds each stream's (state, inc). fill
    draws buffer rows from streams by setting each one's state on the
    block's one Generator; the first draws of random() can also be computed
    for many streams at once (uniforms).
    """

    def __init__(self, master_seed: int, axes: Sequence[Sequence[StreamPart]]):
        # Per axis, each part's offset in the row-major order of the streams.
        self.strides = tuple(np.cumprod([1] + [len(axis) for axis in axes[:0:-1]])[::-1].tolist())
        self._rng = np.random.Generator(np.random.PCG64(0))
        shape = tuple(len(axis) for axis in axes)
        table = np.zeros(shape + (4,), dtype=np.uint64)
        seed = [np.full((1,) * len(axes), w, dtype=np.uint32)
                for w in _words(master_seed & _SEED_MASK)]
        # Parts whose encodings have the same word count share one layout of
        # the entropy, so each axis splits into at most two groups.
        groups = []
        for k, axis in enumerate(axes):
            by_count: dict[int, list] = {}
            for i, part in enumerate(axis):
                words = _words(_encode_part(part))
                by_count.setdefault(len(words), []).append((i, words))
            column_shape = (1,) * k + (-1,) + (1,) * (len(axes) - k - 1)
            groups.append([
                (
                    np.array([i for i, _ in members]),
                    [np.array(column, dtype=np.uint32).reshape(column_shape)
                     for column in zip(*(words for _, words in members))],
                )
                for members in by_count.values()
            ])
        for combo in product(*groups):
            words = seed + [column for _, columns in combo for column in columns]
            at = np.ix_(*(positions for positions, _ in combo))
            table[at] = _seed_words(_mix_entropy(words))
        self._table = table.reshape(-1, 4)
        _pcg64_seed(self._table)

    def set_state(self, bit_generator: np.random.PCG64, at: int) -> None:
        """Put bit_generator at the start of the stream at flat index at."""
        state_hi, state_lo, inc_hi, inc_lo = self._table[at].tolist()
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }

    def fill(self, at: Iterable[int], distribution: Distribution, rows: Iterable) -> None:
        """Fill each array rows[k] with the distribution's unit draws
        (filler) from the start of the stream at flat index at[k]."""
        rng = self._rng
        fill, bit_generator = filler(rng, distribution), rng.bit_generator
        for k, row in zip(_flat_indices(at), rows):
            self.set_state(bit_generator, k)
            fill(row)

    def uniforms(self, at: np.ndarray, count: int) -> np.ndarray:
        """The first count draws of ``random()`` from each stream at the
        flat indices at, as a (len(at), count) array: per draw one PCG64
        step, its XSL-RR output x and numpy's next_double, (x >> 11) * 2**-53.
        """
        state_hi, state_lo, inc_hi, inc_lo = self._table[_flat_indices(at)].T
        out = np.empty((len(state_hi), count))
        for k in range(count):
            state_hi, state_lo = _mul_add(state_hi, state_lo, inc_hi, inc_lo)
            mixed = state_hi ^ state_lo
            turn = state_hi >> _58
            mixed = (mixed >> turn) | (mixed << (-turn & _63))
            np.multiply(mixed >> _11, _DOUBLE_UNIT, out=out[:, k])
        return out


def _flat_indices(at: Iterable[int]) -> np.ndarray:
    """at as an index array; a negative flat index, which numpy would count
    from the end of the table, raises IndexError."""
    at = np.asarray(at)
    if at.size and at.min() < 0:
        raise IndexError(f"flat stream index {at.min()} is negative")
    return at


def _mul_add(x_hi, x_lo, a_hi, a_lo):
    """(x * M + a) mod 2**128 for 128-bit values held as (high, low) uint64
    limbs, with M the PCG64 multiplier; returns (high, low). x_lo * M_lo is
    formed in full from 32-bit halves, and the cross terms only need their
    low 64 bits, which uint64 products keep."""
    x0, x1 = x_lo & _LOW32, x_lo >> _32
    p00, p01, p10 = x0 * _M_LO0, x0 * _M_LO1, x1 * _M_LO0
    mid = (p00 >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    lo = (p00 & _LOW32) | (mid << _32)
    hi = x1 * _M_LO1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)
    hi += x_hi * _M_LO + x_lo * _M_HI
    total = lo + a_lo
    hi += a_hi
    hi += total < lo  # the carry of the low limbs
    return hi, total


def _pcg64_seed(table: np.ndarray) -> None:
    """Turn rows (seed_hi, seed_lo, seq_hi, seq_lo) of generate_state(4,
    uint64) words into PCG64's (state_hi, state_lo, inc_hi, inc_lo), in
    place: inc = (seq << 1) | 1 and state = ((seed + inc) * M + inc), mod
    2**128, as numpy's pcg64_set_seed makes them."""
    seed_hi, seed_lo, seq_hi, seq_lo = table.T
    inc_hi = (seq_hi << _1) | (seq_lo >> _63)
    inc_lo = (seq_lo << _1) | _1
    sum_lo = seed_lo + inc_lo
    sum_hi = seed_hi + inc_hi + (sum_lo < seed_lo)
    table[:, 0], table[:, 1] = _mul_add(sum_hi, sum_lo, inc_hi, inc_lo)
    table[:, 2], table[:, 3] = inc_hi, inc_lo


def _hash_keys(init: int, mult: int):
    """SeedSequence's hash constants: each hashmix xors its value with one
    constant and multiplies it by the next, which becomes the next xor."""
    while True:
        nxt = init * mult & _WORD_MASK
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hashmix(value: np.ndarray, keys) -> np.ndarray:
    xor, mul = next(keys)
    value = (value ^ xor) * mul
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _mix_entropy(words: list) -> list:
    """SeedSequence's pool for entropy words given as broadcastable uint32
    arrays (SeedSequence.mix_entropy, with no spawn key)."""
    keys = _hash_keys(_INIT_A, _MULT_A)
    zero = np.zeros_like(words[0])
    pool = [_hashmix(words[i] if i < len(words) else zero, keys) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], keys))
    for src in range(_POOL_SIZE, len(words)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(words[src], keys))
    return pool


def _seed_words(pool: list) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) from a pool, stacked on a
    last axis of length 4: uint64 word k is 32-bit words 2k (low) and
    2k + 1 (high)."""
    keys = _hash_keys(_INIT_B, _MULT_B)
    halves = [_hashmix(pool[i % _POOL_SIZE], keys).astype(np.uint64) for i in range(8)]
    return np.stack(
        [lo | (hi << np.uint64(32)) for lo, hi in zip(halves[0::2], halves[1::2])], axis=-1
    )


def draw_factor(distribution: Distribution, sd: float) -> float:
    """What unit draws are multiplied by so that their standard deviation
    equals sd: sd itself for Gaussian draws, and for Student-t draws
    sd * sqrt((df-2)/df), which needs df > 2."""
    if distribution.kind == "gaussian":
        return sd
    df = distribution.df or 0
    if df <= 2:
        raise ConfigError(
            f"student_t innovations need df > 2 for a finite variance (got df={df})"
        )
    return sd * math.sqrt((df - 2) / df)


def filler(
    rng: np.random.Generator, distribution: Distribution
) -> Callable[[np.ndarray], np.ndarray]:
    """rng's fill method for the distribution's unit draws, bound once: it
    fills an array, in C order, with standard normal draws, or Student-t
    draws with the distribution's df, and returns it."""
    if distribution.kind == "gaussian":
        return lambda out: rng.standard_normal(out=out)
    df = distribution.df

    def fill(out: np.ndarray) -> np.ndarray:
        out[...] = rng.standard_t(df, out.shape)
        return out
    return fill


def sample_cim(
    spec: StudySpec, rng: np.random.Generator, period: int
) -> CrossImpactMatrix:
    """Sample every cell around its point estimate with its confidence-derived
    scale, clipped to the elicitation range; confidences pass through."""
    noise = filler(rng, spec.uncertainty.sampling_distribution)(np.empty(spec.cim.scores.shape))
    return spec.cim.with_scores(sampled_scores(spec, noise, period))


def sampled_scores(spec: StudySpec, noise: np.ndarray, period: int) -> np.ndarray:
    """sample_cim's scores from its unit draws noise, one matrix or a stack
    of matrices on leading axes; computed in noise's own buffer."""
    try:
        sigma = spec.sigma_tables[period]
    except KeyError:
        raise OutOfRangeError(f"period {period} not in the time grid")
    noise *= draw_factor(spec.uncertainty.sampling_distribution, 1.0)
    noise *= sigma
    return perturbed(spec.cim, spec.cim.scores, noise)


def apply_structural_shock(
    cim: CrossImpactMatrix, rng: np.random.Generator, config: StructuralShockConfig
) -> CrossImpactMatrix:
    """Add an independent perturbation of the configured scale to every cell,
    clipping the result back to the elicitation range: zero-mean draws whose
    standard deviation is the scale (see draw_factor)."""
    noise = filler(rng, config.distribution)(np.empty(cim.scores.shape))
    noise *= draw_factor(config.distribution, config.scale)
    return cim.with_scores(perturbed(cim, cim.scores, noise))


def perturbed(cim: CrossImpactMatrix, scores: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """scores plus noise, clipped to the elicitation range, with the cells
    outside cim's valid_mask zeroed; computed in noise's own buffer, which
    may stack matrices on leading axes that scores broadcasts to."""
    noise += scores
    np.clip(noise, SCORE_MIN, SCORE_MAX, out=noise)
    noise[..., ~cim.valid_mask] = 0.0
    return noise


def check_persistence(rho: float) -> None:
    """The AR(1) process is stationary only for |rho| < 1."""
    if not abs(rho) < 1:
        raise ConfigError(f"|rho| = {abs(rho):g} must be < 1 for stationarity")


def ar1_step(eta: np.ndarray, noise: np.ndarray, config: DynamicShockConfig) -> np.ndarray:
    """rho * eta + u, with u the unit draws noise scaled in their buffer to
    the innovation sd tau * sqrt(1 - rho^2), so the long-run sd of eta is
    tau; config gives rho, tau and the distribution. eta and noise may stack
    runs on leading axes."""
    rho, tau = config.persistence, config.long_run_sd
    noise *= draw_factor(config.distribution, tau * math.sqrt(1.0 - rho * rho))
    return rho * eta + noise


def advance_dynamic_shock(
    eta: np.ndarray, rng: np.random.Generator, config: DynamicShockConfig
) -> np.ndarray:
    """The next eta: one AR(1) step (ar1_step) with innovations from rng."""
    check_persistence(config.persistence)
    return ar1_step(eta, filler(rng, config.distribution)(np.empty(eta.shape)), config)
