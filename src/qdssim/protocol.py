"""Two-stage signature protocol over a symmetrizing multiport.

Distribution stage: for each future message bit the sender draws a fresh
sequence of L random constellation phases and transmits one copy to each
recipient through the multiport. Recipients do not learn the phases; they
only store, per element, which phases their elimination receiver ruled
out, plus whether their multiport null monitor clicked.

Messaging stage: the sender declares (message bit, phase sequence). A
recipient counts the elements whose stored record eliminates the declared
phase and accepts below a mismatch threshold: the authentication threshold
s_a when receiving directly, the larger verification threshold s_v when
the declaration was forwarded by the other recipient. The gap between the
two thresholds is what makes accepted messages transferable.

Storage per element is one record {message bit, index, four elimination
flags, null flag}; nothing quantum survives the distribution stage, so
arbitrarily long gaps between the stages cost nothing.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from . import detection
from .detection import DetectorModel

N_PHASES = 4
UNIFORM_PHASES = (0.25,) * N_PHASES


@dataclass(frozen=True)
class ChannelModel:
    """Transmittances along the sender-to-detector path, plus multiport contrast.

    ``multiport_transmittance`` covers sender launch to multiport output,
    ``receiver_transmittance`` the recipient's input coupler, and
    ``interferometer_transmittance`` the demodulation interferometer.
    ``multiport_visibility`` scales the interference cross term at the
    multiport signal port; the null port is taken at the ideal amplitude
    (b - c)/2, so honest traffic leaves it dark-count limited.
    """

    multiport_transmittance: float = 1.0
    receiver_transmittance: float = 1.0
    interferometer_transmittance: float = 1.0
    multiport_visibility: float = 1.0

    def __post_init__(self):
        for name in (
            "multiport_transmittance",
            "receiver_transmittance",
            "interferometer_transmittance",
        ):
            t = getattr(self, name)
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {t}")
        if not 0.0 <= self.multiport_visibility <= 1.0:
            raise ValueError(
                f"multiport_visibility must lie in [0, 1], got {self.multiport_visibility}"
            )

    @property
    def total_transmittance(self) -> float:
        return (
            self.multiport_transmittance
            * self.receiver_transmittance
            * self.interferometer_transmittance
        )

    def receiver_intensity(self, alpha_sq: float) -> float:
        """Mean photon number reaching an elimination receiver from a launch of ``alpha_sq``."""
        return alpha_sq * self.total_transmittance * (1.0 + self.multiport_visibility) / 2.0


IDEAL_CHANNEL = ChannelModel()


class Outcome(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    ABORTED = "aborted"  # null-port budget exceeded


# Codes that ``decide`` returns, and the outcome each one stands for
ACCEPT, REJECT, ABORT = (np.int8(c) for c in range(3))
OUTCOMES = (Outcome.ACCEPTED, Outcome.REJECTED, Outcome.ABORTED)


@dataclass(frozen=True)
class ProtocolParams:
    """Everything a single protocol run needs.

    ``auth_threshold`` (s_a) and ``verify_threshold`` (s_v) are mismatch
    fractions, 0 <= s_a < s_v < 1. ``null_abort_fraction`` (r) is the
    null-click fraction above which a recipient aborts; robustness demands
    r >= honest null rate + epsilon, where ``epsilon`` is the slack used in
    the active-tampering analysis.
    """

    length: int
    auth_threshold: float
    verify_threshold: float
    alpha_sq: float = 1.0
    null_abort_fraction: float = 0.0
    epsilon: float = 0.0
    channel: ChannelModel = field(default_factory=ChannelModel)
    detector: DetectorModel = field(default_factory=lambda: detection.IDEAL_DETECTOR)

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if not 0.0 <= self.auth_threshold < self.verify_threshold < 1.0:
            raise ValueError(
                "thresholds must satisfy 0 <= auth_threshold < verify_threshold < 1, "
                f"got {self.auth_threshold} and {self.verify_threshold}"
            )
        if not 0.0 <= self.null_abort_fraction <= 1.0:
            raise ValueError(
                f"null_abort_fraction must lie in [0, 1], got {self.null_abort_fraction}"
            )
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.alpha_sq < 0:
            raise ValueError(f"alpha_sq must be >= 0, got {self.alpha_sq}")
        if self.null_abort_fraction < self.null_click_prob() + self.epsilon:
            raise ValueError(
                "null_abort_fraction must cover the honest null rate plus epsilon: "
                f"{self.null_abort_fraction} < {self.null_click_prob()} + {self.epsilon}"
            )

    def receiver_intensity(self) -> float:
        """Mean photon number reaching a recipient's elimination receiver."""
        return self.channel.receiver_intensity(self.alpha_sq)

    def click_matrix(self) -> np.ndarray:
        """Analytic (sent phase x eliminated phase) click probabilities, read-only."""
        return self._click_matrix

    @functools.cached_property
    def _click_matrix(self) -> np.ndarray:
        # once per parameter set; a frozen dataclass without slots keeps a __dict__
        return detection.phase_click_matrix(self.receiver_intensity(), self.detector)

    def honest_mismatch_prob(self) -> float:
        """Probability that an element eliminates the phase actually sent."""
        return float(np.diag(self.click_matrix()).mean())

    def null_click_prob(self) -> float:
        """Null-monitor click probability for honest traffic (dark counts)."""
        return detection.click_probability(0.0, self.detector)


@dataclass(frozen=True)
class PrivateKey:
    """The sender's secret for one message bit: the phase sequence itself."""

    message_bit: int
    phases: np.ndarray  # (L,) ints in 0..3

    def __len__(self) -> int:
        return len(self.phases)


@dataclass(frozen=True)
class RecipientView:
    """What one recipient stores for one message bit."""

    eliminations: np.ndarray  # (L, 4) bool, column k = phase k*pi/2 ruled out
    null_clicks: np.ndarray  # (L,) bool

    def null_count(self) -> int:
        return int(self.null_clicks.sum())


def _record_stream(seed: int, record: int) -> np.random.Generator:
    # each record has its own child stream, so the order of access cannot matter
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(record,)))


class _DrawnKey(PrivateKey):
    """A key drawn by ``distribute``: pulse counts now, phases on first access."""

    def __init__(self, message_bit: int, pulses: np.ndarray, seed: int):
        object.__setattr__(self, "message_bit", message_bit)
        object.__setattr__(self, "pulses", pulses)  # (4,) elements per phase
        object.__setattr__(self, "seed", seed)

    def __len__(self) -> int:
        return int(self.pulses.sum())

    def __repr__(self) -> str:
        return f"PrivateKey(message_bit={self.message_bit}, pulses={self.pulses.tolist()})"

    @functools.cached_property
    def phases(self) -> np.ndarray:
        """A uniformly random arrangement of the pulse counts."""
        symbols = np.repeat(np.arange(N_PHASES, dtype=np.int8), self.pulses)
        return _record_stream(self.seed, 0).permutation(symbols)


class _DrawnView(RecipientView):
    """A view drawn with its key: counts now, per-element records on first access."""

    def __init__(self, key: _DrawnKey, clicks: np.ndarray, nulls: int, record: int):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "clicks", clicks)  # (4, 4) sent i, eliminated j
        object.__setattr__(self, "nulls", nulls)
        object.__setattr__(self, "record", record)  # child stream of the eliminations

    def __repr__(self) -> str:
        return f"RecipientView(clicks={self.clicks.tolist()}, nulls={self.nulls})"

    def null_count(self) -> int:
        return self.nulls

    @functools.cached_property
    def eliminations(self) -> np.ndarray:
        """Each (i, j) click count placed uniformly among the phase-i elements."""
        rng = _record_stream(self.key.seed, self.record)
        phases = self.key.phases
        elims = np.zeros((len(phases), N_PHASES), dtype=bool)
        for i in range(N_PHASES):
            where = np.flatnonzero(phases == i)
            for j in range(N_PHASES):
                elims[where[rng.choice(len(where), self.clicks[i, j], replace=False)], j] = True
        return elims

    @functools.cached_property
    def null_clicks(self) -> np.ndarray:
        """The null count placed uniformly among the elements."""
        L = len(self.key)
        nulls = np.zeros(L, dtype=bool)
        nulls[_record_stream(self.key.seed, self.record + 1).choice(L, self.nulls, replace=False)] = True
        return nulls


@dataclass(frozen=True)
class DistributionResult:
    """Keys and recipient views produced by one distribution stage."""

    keys: dict[int, PrivateKey]
    bob: dict[int, RecipientView]
    charlie: dict[int, RecipientView]


def distribute(
    params: ProtocolParams,
    rng: np.random.Generator,
    message_bits: tuple[int, ...] = (0, 1),
) -> DistributionResult:
    """Run the distribution stage for the given message bits.

    Per element the sender draws a uniform phase and launches identical
    copies into the multiport; each recipient's four elimination detectors
    click independently with the analytic probabilities C for that phase,
    and each null monitor clicks at the dark rate d (honest inputs cancel
    exactly at the null port).

    Only counts are drawn, and exactly: pulses ~ Multinomial(L, 1/4 each);
    per recipient clicks[i, j] ~ Binomial(pulses[i], C[i, j]), exact since
    the detectors are independent given the phase, and nulls ~ Binomial(L,
    d); then one integer that seeds the child streams of the records. Draw
    order per bit: pulses, Bob's clicks and nulls, Charlie's clicks and
    nulls, the seed. Keys carry ``pulses``, views ``clicks`` and
    ``null_count()``. ``phases``, ``eliminations`` and ``null_clicks`` are
    expanded on first access, each from its own child stream, so they
    reproduce the counts whatever the order of access.
    """
    for bit in message_bits:
        if bit not in (0, 1):
            raise ValueError(f"message bits must be 0 or 1, got {bit}")
    if len(set(message_bits)) != len(message_bits):
        raise ValueError(f"duplicate message bits in {message_bits}")
    probs = params.click_matrix()
    null_p = params.null_click_prob()
    L = params.length
    keys: dict[int, PrivateKey] = {}
    bob: dict[int, RecipientView] = {}
    charlie: dict[int, RecipientView] = {}
    for bit in message_bits:
        pulses = rng.multinomial(L, UNIFORM_PHASES)
        (bob_clicks, bob_nulls), (charlie_clicks, charlie_nulls) = [
            (rng.binomial(pulses[:, None], probs), int(rng.binomial(L, null_p))) for _ in range(2)
        ]
        key = keys[bit] = _DrawnKey(bit, pulses, int(rng.integers(2**63)))
        bob[bit] = _DrawnView(key, bob_clicks, bob_nulls, record=1)
        charlie[bit] = _DrawnView(key, charlie_clicks, charlie_nulls, record=3)
    return DistributionResult(keys, bob, charlie)


def count_mismatches(key: PrivateKey, view: RecipientView) -> int:
    """Number of elements whose stored record eliminates the declared phase.

    For a key and view that ``distribute`` drew together this is the trace
    of the view's click counts, and no record is expanded.
    """
    if isinstance(view, _DrawnView) and view.key is key:
        return int(np.trace(view.clicks))
    elims = view.eliminations
    if elims.shape != (len(key), N_PHASES):
        raise ValueError(
            f"records shape {elims.shape} does not match key length {len(key)}"
        )
    return int(elims[np.arange(len(key)), key.phases].sum())


def decide(mismatches, null_counts, params: ProtocolParams, threshold: float):
    """The accept/reject/abort rule, for one run or an array of runs.

    Returns ABORT where the null count exceeds the budget r * L, else
    ACCEPT where the mismatch count is below ``threshold * L``, else REJECT.
    """
    m = np.asarray(mismatches)
    n = np.asarray(null_counts)
    if m.min(initial=0) < 0 or n.min(initial=0) < 0:
        raise ValueError("counts must be >= 0")
    codes = np.where(m < threshold * params.length, ACCEPT, REJECT)
    codes[n > params.null_abort_fraction * params.length] = ABORT
    return codes


def authenticate(mismatches: int, null_count: int, params: ProtocolParams) -> Outcome:
    """Direct-reception decision: abort on null budget, accept below s_a * L."""
    return OUTCOMES[decide(mismatches, null_count, params, params.auth_threshold)]


def verify(mismatches: int, null_count: int, params: ProtocolParams) -> Outcome:
    """Forwarded-message decision: abort on null budget, accept below s_v * L."""
    return OUTCOMES[decide(mismatches, null_count, params, params.verify_threshold)]


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of one honest end-to-end run for a single message bit."""

    message_bit: int
    bob_mismatches: int
    charlie_mismatches: int
    bob_null_count: int
    charlie_null_count: int
    bob_outcome: Outcome
    charlie_outcome: Outcome
    distribution: DistributionResult


def run_honest_exchange(
    params: ProtocolParams, rng: np.random.Generator, message_bit: int = 0
) -> ExchangeResult:
    """Distribute one bit, declare it honestly, authenticate at Bob, verify at Charlie."""
    dist = distribute(params, rng, message_bits=(message_bit,))
    key = dist.keys[message_bit]
    bob_view = dist.bob[message_bit]
    charlie_view = dist.charlie[message_bit]
    mb = count_mismatches(key, bob_view)
    mc = count_mismatches(key, charlie_view)
    nb = bob_view.null_count()
    nc = charlie_view.null_count()
    return ExchangeResult(
        message_bit,
        mb,
        mc,
        nb,
        nc,
        authenticate(mb, nb, params),
        verify(mc, nc, params),
        dist,
    )


# ------------------------------------------------------------------ transcripts
#
# One codec writes and checks transcript lines: each element is the line
# "bit index e0 e1 e2 e3 null\n" in decimal digits with single spaces,
# built as uint8 blocks of rows whose indices have the same number of digits.

_LF, _SPACE, _HASH, _ZERO = 10, 32, 35, 48
_BLOCK_ROWS = 1 << 16
_FLAG_OFFSETS = (9, 7, 5, 3, 1)  # e0 e1 e2 e3 null, in bytes before the line feed
_FORM = "'bit index e0 e1 e2 e3 null' in decimal digits with single spaces and a LF line end"


def _blocks(bit: int, eliminations, null_clicks):
    """The transcript lines of the given flags, as (rows, 13 + width) uint8 blocks.

    Every write is to one column at a time: numpy is several times slower
    on strided multi-column slices of a block this narrow.
    """
    L = len(null_clicks)
    zero = np.uint8(_ZERO)  # keeps the flag additions in uint8
    lo = 0
    while lo < L:
        width = len(str(lo))
        hi = min(L, 10**width, lo + _BLOCK_ROWS)
        block = np.empty((hi - lo, 13 + width), dtype=np.uint8)
        block[:, 0] = _ZERO + bit
        for col in (1, 2 + width, 4 + width, 6 + width, 8 + width, 10 + width):
            block[:, col] = _SPACE
        index = np.arange(lo, hi)
        for col in range(1 + width, 1, -1):
            tens = index // 10
            np.add(index - 10 * tens, zero, out=block[:, col], casting="unsafe")
            index = tens
        for j in range(N_PHASES):
            np.add(eliminations[lo:hi, j], zero, out=block[:, 3 + width + 2 * j], casting="unsafe")
        np.add(null_clicks[lo:hi], zero, out=block[:, 11 + width], casting="unsafe")
        block[:, 12 + width] = _LF
        yield block
        lo = hi


def write_transcript(path, message_bit: int, view: RecipientView, key: PrivateKey | None = None):
    """Write one recipient view as lines of: bit, index, four flags, null flag.

    When ``key`` is given its phase digits go into a `# key` header line so
    that downstream cost-matrix estimation can recover the sent phases.
    """
    if message_bit not in (0, 1):
        raise ValueError(f"message bit must be 0 or 1, got {message_bit!r}")
    if key is not None and key.message_bit != message_bit:
        raise ValueError(f"key is for bit {key.message_bit}, transcript for bit {message_bit}")
    nulls = np.asarray(view.null_clicks)
    elims = np.asarray(view.eliminations)
    if np.shape(elims) != (len(nulls), N_PHASES):
        raise ValueError(f"records shape {np.shape(elims)} does not match {len(nulls)} null flags")
    with open(path, "wb") as f:
        if key is not None:
            f.write(b"# key " + (np.asarray(key.phases, dtype=np.uint8) + _ZERO).tobytes() + b"\n")
        for block in _blocks(message_bit, elims, nulls):
            f.write(block)


@dataclass(frozen=True)
class Transcript:
    """A deserialized recipient view, with the sent phases when recorded."""

    message_bit: int
    view: RecipientView
    key_phases: np.ndarray | None = None


def _first_difference(body: np.ndarray, blocks) -> int | None:
    """Offset of the first byte where ``body`` and the blocks differ, or None."""
    offset = 0
    for block in blocks:
        want = block.reshape(-1)
        got = body[offset:offset + want.size]
        if not np.array_equal(got, want):
            diff = np.flatnonzero(got != want[:len(got)])
            return offset + (int(diff[0]) if len(diff) else len(got))
        offset += want.size
    return None if offset == len(body) else offset


def _diagnose(line: bytes, n: int, row: int, bit: int):
    """Raise the error of file line ``n``, element ``row``, which the codec rejected."""
    tokens = line.split()
    if len(tokens) != 7:
        raise ValueError(f"line {n}: expected 7 columns per line, got {len(tokens)}")
    try:
        b, index, *flags = (int(t) for t in tokens)
    except ValueError:
        raise ValueError(f"line {n}: not in the form {_FORM}") from None
    if index != row:
        raise ValueError(
            f"line {n}: element index {index}, expected {row} (indices must run 0..N-1 in order)"
        )
    if b not in (0, 1) or (row and b != bit):
        after = f" after {bit}" if row else ""
        raise ValueError(f"line {n}: transcript must carry a single message bit, 0 or 1, got {b}{after}")
    if any(f not in (0, 1) for f in flags):
        raise ValueError(f"line {n}: elimination and null flags must be 0 or 1")
    raise ValueError(f"line {n}: not in the form {_FORM}")


def read_transcript(path) -> Transcript:
    """Parse a transcript file in the form ``write_transcript`` writes.

    Empty lines and lines starting with '#' are skipped; a first line
    '# key <digits>' holds the sent phases. The flags are read at fixed
    offsets from each line's end, and the file is accepted only if the
    codec re-encodes them to exactly its lines; otherwise the first line
    that differs is parsed to name its defect.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw and not raw.endswith(b"\n"):
        raw += b"\n"  # a last line without its line feed
    a = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(a == _LF)
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    key_phases = None
    if len(ends) and raw[:ends[0]].split(None, 2)[:2] == [b"#", b"key"]:
        digits = a[6:ends[0]] - _ZERO
        if not raw.startswith(b"# key ") or len(digits) == 0 or digits.max() > 3:
            raise ValueError("line 1: key header must hold one phase digit 0..3 per element")
        key_phases = digits.view(np.int8)
    data = (ends > starts) & (a[starts] != _HASH)
    rows = np.flatnonzero(data)
    N = len(rows)
    if N == 0:
        raise ValueError("transcript has no elements")
    s, e = starts[rows], ends[rows]
    if rows[0] + N == len(ends):  # the data lines run unbroken to the end
        body = a[s[0]:]
    else:
        body = a[np.repeat(data, ends - starts + 1)]
    bit = int(a[s[0]]) - _ZERO
    elims = np.empty((N, N_PHASES), dtype=bool)
    for j in range(N_PHASES):
        elims[:, j] = a.take(e - _FLAG_OFFSETS[j], mode="clip") == _ZERO + 1
    nulls = a.take(e - _FLAG_OFFSETS[-1], mode="clip") == _ZERO + 1
    pos = _first_difference(body, _blocks(bit, elims, nulls)) if bit in (0, 1) else 0
    if pos is not None:
        row = int(np.searchsorted(np.cumsum(e - s + 1), pos, side="right"))
        _diagnose(raw[s[row]:e[row]], int(rows[row]) + 1, row, bit)
    if key_phases is not None and len(key_phases) != N:
        raise ValueError(f"key length {len(key_phases)} does not match {N} elements")
    return Transcript(bit, RecipientView(elims, nulls), key_phases)
