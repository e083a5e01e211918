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

Storage is classical: per element four elimination flags and a null
flag, of which a transcript keeps only the elements that carry a flag,
next to the sent phases. Nothing quantum survives the distribution stage,
so arbitrarily long gaps between the stages cost nothing.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field

import numpy as np

from . import detection, security
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

    ``cost_matrix`` is the governing matrix that runs are sampled from and
    judged by, by default the analytic one of ``channel``, ``detector`` and
    ``alpha_sq``. Stored read-only, it is kept by ``dataclasses.replace``
    unless reset to None, and left out of ==: equal params may sample apart.
    """

    length: int
    auth_threshold: float
    verify_threshold: float
    alpha_sq: float = 1.0
    null_abort_fraction: float = 0.0
    epsilon: float = 0.0
    channel: ChannelModel = field(default_factory=ChannelModel)
    detector: DetectorModel = field(default_factory=lambda: detection.IDEAL_DETECTOR)
    # out of == and hash (see above): an ndarray would make == raise, hash() fail
    cost_matrix: np.ndarray | None = field(default=None, compare=False)

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
        if self.cost_matrix is None:
            matrix = detection.phase_click_matrix(self.receiver_intensity(), self.detector)
        else:
            matrix = security.cost_entries(self.cost_matrix)
            if matrix.flags.writeable:  # a copy, so the caller's array cannot move the run
                matrix = matrix.copy()
                matrix.flags.writeable = False
        object.__setattr__(self, "cost_matrix", matrix)

    def receiver_intensity(self) -> float:
        """Mean photon number reaching a recipient's elimination receiver."""
        return self.channel.receiver_intensity(self.alpha_sq)

    def click_matrix(self) -> np.ndarray:
        """The governing (sent phase x eliminated phase) click probabilities, read-only."""
        return self.cost_matrix

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
        # shuffled as intp, which numpy shuffles faster with the same draws
        symbols = np.repeat(np.arange(N_PHASES, dtype=np.intp), self.pulses)
        return _record_stream(self.seed, 0).permutation(symbols).astype(np.int8)

    @functools.cached_property
    def groups(self) -> list[np.ndarray]:
        """The indices of the phase-i elements, ascending, for each phase i."""
        return np.split(np.argsort(self.phases, kind="stable"), np.cumsum(self.pulses)[:-1])


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
        elims = np.zeros((len(self.key), N_PHASES), dtype=bool)
        for i, where in enumerate(self.key.groups):
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
    click independently with the probabilities C of the governing matrix
    (``params.click_matrix()``) for that phase, and each null monitor
    clicks at the dark rate d (honest inputs cancel exactly at the null
    port).

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


def log_nulls_kept(params: ProtocolParams) -> float:
    """ln P(N <= floor(r * L)), N ~ Binomial(L, d): the exact share of dark-count runs that ``decide`` does not abort."""
    L, r = params.length, params.null_abort_fraction
    return security.log_binomial_tail(int(r * L), L, params.null_click_prob(), upper=False)


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
# A transcript stores one recipient view with the key it was drawn with:
# the lines "# qdssim transcript v2", "# bit B" and "# key " with one
# phase digit 0..3 per element, then "index e0 e1 e2 e3 null" for each
# element that carries a flag, indices ascending without leading zeros,
# every line ended by a LF. The reader accepts that form and nothing else.

_ZERO, _ONE = 48, 49
_HEADER = b"# qdssim transcript v2"
_EVENT = re.compile(rb"(0|[1-9][0-9]{0,18})((?: [01]){5})")
_NO_FLAG = b" 0 0 0 0 0"


def write_transcript(path, message_bit: int, view: RecipientView, key: PrivateKey):
    """Write one recipient view and its key, one line per element with a flag."""
    if message_bit not in (0, 1):
        raise ValueError(f"message bit must be 0 or 1, got {message_bit!r}")
    if key.message_bit != message_bit:
        raise ValueError(f"key is for bit {key.message_bit}, transcript for bit {message_bit}")
    phases = np.asarray(key.phases)
    elims = np.asarray(view.eliminations, dtype=bool)
    nulls = np.asarray(view.null_clicks, dtype=bool)
    L = len(phases)
    if elims.shape != (L, N_PHASES) or nulls.shape != (L,):
        raise ValueError(f"records of shapes {elims.shape} and {nulls.shape} do not match the key's {L} elements")
    if L == 0 or phases.min() < 0 or phases.max() >= N_PHASES:
        raise ValueError("the key must hold one phase 0..3 per element, for at least one element")
    marked = nulls.copy()  # several times faster than elims.any(axis=1)
    marked[np.flatnonzero(elims) // N_PHASES] = True
    rows = np.flatnonzero(marked)
    columns = np.column_stack((rows, elims[rows], nulls[rows])).T.tolist()
    with open(path, "wb") as f:
        f.write(b"%s\n# bit %d\n# key " % (_HEADER, message_bit))
        f.write((phases.astype(np.uint8) + _ZERO).tobytes())
        f.write(b"\n" + "".join(map("{} {} {} {} {} {}\n".format, *columns)).encode())


@dataclass(frozen=True)
class Transcript:
    """A deserialized recipient view with the sent phases."""

    message_bit: int
    view: RecipientView
    key_phases: np.ndarray


def read_transcript(path) -> Transcript:
    """Parse a transcript in exactly the form ``write_transcript`` writes.

    Any other file raises a ValueError naming its first line out of that
    form. The arrays hold one element per key digit, so they never
    outgrow the file.
    """
    with open(path, "rb") as f:
        *lines, tail = f.read().split(b"\n")

    def fault(n: int, expected: str) -> ValueError:
        if n > len(lines):  # past the last LF
            expected = "a line ended by a LF" if tail else "one more line"
        return ValueError(f"line {n}: expected {expected}")

    head = (lines + [b""] * 3)[:3]
    if head[0] != _HEADER:
        raise fault(1, f"'{_HEADER.decode()}'")
    if head[1] not in (b"# bit 0", b"# bit 1"):
        raise fault(2, "'# bit 0' or '# bit 1'")
    digits = np.frombuffer(head[2], dtype=np.uint8)[6:] - _ZERO
    if not head[2].startswith(b"# key ") or len(digits) == 0 or digits.max() >= N_PHASES:
        raise fault(3, "'# key ' and one phase digit 0..3 per element")
    L = len(digits)
    rows, flags, last = [], [], -1
    for n, line in enumerate(lines[3:], start=4):
        event = _EVENT.fullmatch(line)
        if event is None or event[2] == _NO_FLAG:
            raise fault(n, "'index e0 e1 e2 e3 null' with single spaces, flags 0 or 1 and at least one 1")
        last, previous = int(event[1]), last
        if not previous < last < L:
            raise fault(n, f"an index above {previous} and below the key's {L} elements, got {last}")
        rows.append(last)
        flags.append(event[2])
    if tail:
        raise fault(len(lines) + 1, "a line ended by a LF")
    events = np.frombuffer(b"".join(flags), dtype=np.uint8).reshape(-1, 10)[:, 1::2] == _ONE
    rows = np.array(rows, dtype=np.intp)
    elims = np.zeros((L, N_PHASES), dtype=bool)
    elims[rows] = events[:, :N_PHASES]
    nulls = np.zeros(L, dtype=bool)
    nulls[rows] = events[:, N_PHASES]
    return Transcript(int(head[1][-1:]), RecipientView(elims, nulls), digits.view(np.int8))
