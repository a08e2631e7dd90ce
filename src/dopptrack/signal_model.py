"""Known transmitted waveform: QPSK symbols with Gaussian pulse shaping,
evaluable (with exact time-derivative) at arbitrary continuous times.

The waveform is kept as an analytic function rather than a sampled grid so
that warped evaluation times falling between samples carry no interpolation
error into the tracker's gradients.

The pulse sum is evaluated offset-major: for N times, each of its buffers has
one row per pulse offset -W..W (W = truncation_halfwidth) and one column per
time, and is reused in place. The symbols are padded with one zero at each
end and indexed with clipping, so an index outside the sequence reads a zero
and needs no mask. Only the offsets +-W can leave the pulse window (every
nearer pulse is at most W - 1/2 symbol periods away), so only those two rows
are tested against it. Both sums over the offsets are taken in one owned
order (`_sum_rows`): the rows of offsets -W..W are added in order, then
+0.0. Each time's column is summed on its own, so a time's value does not
depend on the batch it is evaluated in. Times must be finite: a NaN or
infinite time gives NaN, with a RuntimeWarning from the index cast.

A block's buffers are views of one work array, allocated per call, and
both sums are taken in place in it, so a block makes one large allocation.
glibc's malloc serves the first such array from mmap and, on freeing it,
raises its heap-trim threshold to twice its size, so later work arrays are
reused from the heap. Separate buffers (six of 90-203 KiB at 1 440 times)
can instead lie freed at the top of the heap past that threshold, depending
on what else the process has allocated; free() then trims the heap after
every call, and the next call faults about 100 pages back in and costs
about 1.4 times as much.

Times are evaluated in fixed-size blocks of _BLOCK_TERMS // (2W+1) times
(1 820 at W = 4) and a shorter last block, so a block holds at most
_BLOCK_TERMS (offset, time) terms and the work array stays within 768 KiB
whatever N is. Each block also forms the carrier and the real part for its
own times and writes its slice of the float results, and eval_passband sums
no db/dt and gives its work array two planes, not three.
On 10^5 times at W = 4, eval_passband traces about 15 bytes per time and
eval_passband_with_derivative about 26, against 64 and 80 with the carrier
formed over the whole batch and 480 with the pulse sum in one block.
Blocking cannot change a bit, because every time's column is computed and
summed on its own, with the same operations in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QPSK_CONSTELLATION = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2.0)

# most (pulse offset, time) terms one block of _passband_block evaluates
_BLOCK_TERMS = 2 ** 14


def generate_symbols(count: int, seed: int) -> np.ndarray:
    """Deterministic pseudorandom QPSK symbol sequence (unit magnitude)."""
    if count < 1:
        raise ValueError("symbol count must be >= 1, got %d" % count)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 4, size=count)
    return QPSK_CONSTELLATION[idx]


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum a complex (R, N) array over its rows, in order and in place: it
    overwrites x[0] and returns it. The + 0.0 turns an all -0.0 sum into
    +0.0."""
    total = x[0]
    for row in x[1:]:
        total += row
    total += 0.0
    return total


@dataclass(frozen=True)
class PulseShape:
    """Gaussian shaping pulse.

    One pulse is centered on every symbol instant k * symbol_period; the pulse
    is treated as exactly zero beyond truncation_halfwidth symbol periods from
    its center, and the parameters must make the neglected tail < 1e-6 of the
    peak.
    """

    symbol_period: float
    gaussian_std: float
    truncation_halfwidth: int = 4

    def __post_init__(self):
        if not 0.0 < self.symbol_period < math.inf:
            raise ValueError("symbol_period must be positive and finite")
        if not 0.0 < self.gaussian_std < math.inf:
            raise ValueError("gaussian_std must be positive and finite")
        if self.truncation_halfwidth < 1:
            raise ValueError("truncation_halfwidth must be >= 1")
        edge = self.truncation_halfwidth * self.symbol_period / self.gaussian_std
        if np.exp(-0.5 * edge * edge) >= 1e-6:
            raise ValueError(
                "pulse tail at the truncation boundary is not negligible; "
                "increase truncation_halfwidth or decrease gaussian_std"
            )

    @property
    def window(self) -> float:
        """Half-width of the pulse support, in seconds."""
        return self.truncation_halfwidth * self.symbol_period


class TransmitSignal:
    """Passband waveform s(t) = amplitude * Re{ b(t) exp(j 2 pi f_c t) } where
    b(t) sums one Gaussian pulse per complex symbol.

    Symbol k is centered at start_time + k * symbol_period; a negative
    start_time models a transmission already in progress at t = 0, so that
    propagation-delayed evaluation times stay inside the signal support from
    the first received sample on.

    Immutable after construction; evaluation is pure and thread-safe.
    """

    def __init__(self, symbols: np.ndarray, pulse: PulseShape,
                 carrier_freq: float, amplitude: float = 1.0,
                 start_time: float = 0.0):
        symbols = np.asarray(symbols, dtype=complex)
        if symbols.ndim != 1 or symbols.size < 1:
            raise ValueError("symbols must be a non-empty 1-D sequence")
        # written so that a NaN symbol fails it too
        if not np.max(np.abs(np.abs(symbols) - 1.0)) <= 1e-9:
            raise ValueError("symbols must have unit magnitude")
        if not 0.0 <= carrier_freq < math.inf:
            raise ValueError("carrier_freq must be >= 0 and finite")
        if not 0.0 < amplitude < math.inf:
            raise ValueError("amplitude must be positive and finite")
        if not math.isfinite(start_time):
            raise ValueError("start_time must be finite")
        # symbol k sits at _padded[k + 1], between two zeros
        self._padded = np.concatenate(([0j], symbols, [0j]))
        self.pulse = pulse
        self.carrier_freq = float(carrier_freq)
        self.amplitude = float(amplitude)
        self.start_time = float(start_time)
        offsets = np.arange(-pulse.truncation_halfwidth,
                            pulse.truncation_halfwidth + 1)[:, None]
        self._offsets_f = offsets.astype(float)
        self._offsets_i = offsets + 1

    def _passband(self, t: np.ndarray, derivative: bool):
        """s(t), and ds/dt when derivative is set, at a 1-D array of finite
        float times.

        The times go to _passband_block in blocks of _BLOCK_TERMS // (2W+1)
        times (1 820 at W = 4), a shorter last block taking the rest; each
        block fills its slice of the results. One block covers the tracker's
        call for a bank of up to 151 candidates on 3 paths (12 times each;
        120 make 1 440), and that matters: two blocks of 720 times cost about
        18% more than one of 1 440.
        """
        s = np.empty(t.size)
        sd = np.empty(t.size) if derivative else None
        step = max(1, _BLOCK_TERMS // self._offsets_f.size)
        for lo in range(0, t.size, step):
            hi = lo + step
            self._passband_block(t[lo:hi], s[lo:hi],
                                 None if sd is None else sd[lo:hi])
        return s, sd

    def _passband_block(self, t: np.ndarray, s: np.ndarray, sd) -> None:
        """Write s(t) into s, and ds/dt into sd unless it is None, for one
        block of times, all offsets at once.

        Row j of every (2W+1, N) buffer holds the pulse of the symbol j - W
        away from each time's nearest symbol instant; row 0 and row 2W are
        the two the window test can zero (see the module docstring). The
        buffers, and b(t) and db/dt, are views of one work array; db/dt's
        plane is allocated only when sd is given.
        """
        ts = self.pulse.symbol_period
        sig = self.pulse.gaussian_std
        u = t - self.start_time
        k_center = np.rint(u / ts)
        rows = self._offsets_f.size
        work = np.empty((2 if sd is None else 3, rows, t.size), dtype=complex)
        dt, env = work[0].view(float).reshape(2, rows, t.size)
        terms = work[1]
        np.add(self._offsets_f, k_center, out=dt)
        dt *= ts
        np.subtract(u, dt, out=dt)
        # the symbol indices hold env's memory until env is computed
        index = env.view(np.int64)
        np.add(self._offsets_i, k_center.astype(np.int64), out=index)
        self._padded.take(index, mode="clip", out=terms)
        np.divide(dt, sig, out=env)
        np.square(env, out=env)
        env *= -0.5
        np.exp(env, out=env)
        outer = slice(None, None, 2 * self.pulse.truncation_halfwidth)
        env[outer][np.abs(dt[outer]) > self.pulse.window] = 0.0
        terms *= env
        if sd is not None:
            dt /= -(sig * sig)
            np.multiply(terms, dt, out=work[2])
        b = _sum_rows(terms)
        omega = 2.0 * np.pi * self.carrier_freq
        carrier = np.exp(1j * omega * t)
        np.multiply(self.amplitude, np.real(b * carrier), out=s)
        if sd is not None:
            b_dot = _sum_rows(work[2])
            np.multiply(self.amplitude,
                        np.real((b_dot + 1j * omega * b) * carrier), out=sd)

    def eval_passband(self, t: np.ndarray) -> np.ndarray:
        """Real passband values s(t) at a 1-D array of finite float times;
        zero outside the pulse-truncated support."""
        return self._passband(t, derivative=False)[0]

    def eval_passband_with_derivative(self, t: np.ndarray):
        """Return (s(t), ds/dt) at a 1-D array of finite float times, sharing
        one pulse-evaluation pass; ds/dt is exact (product rule on pulses and
        carrier)."""
        return self._passband(t, derivative=True)


def check_symbol_rate(rate: float) -> float:
    """The symbol rate, unchanged; ValueError naming symbol_rate unless it is
    positive and finite. Callers check the rate before any arithmetic on
    it."""
    if not 0.0 < rate < math.inf:
        raise ValueError("symbol_rate must be positive and finite: %r" % rate)
    return rate


def make_qpsk_signal(n_symbols: int, seed: int, symbol_rate: float,
                     carrier_freq: float, amplitude: float = 1.0,
                     std_fraction: float = 0.25,
                     truncation_halfwidth: int = 4,
                     lead_symbols: int = 0) -> TransmitSignal:
    """Convenience constructor for the standard QPSK/Gaussian waveform.

    lead_symbols extra symbols are prepended before t = 0 so the waveform is
    already on the air when reception starts.
    """
    period = 1.0 / check_symbol_rate(symbol_rate)
    pulse = PulseShape(symbol_period=period,
                       gaussian_std=std_fraction * period,
                       truncation_halfwidth=truncation_halfwidth)
    return TransmitSignal(generate_symbols(n_symbols + lead_symbols, seed),
                          pulse, carrier_freq, amplitude,
                          start_time=-lead_symbols * period)
