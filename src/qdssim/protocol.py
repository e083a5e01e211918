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
from dataclasses import dataclass, field

import numpy as np

from . import detection
from .detection import DetectorModel

N_PHASES = 4


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


IDEAL_CHANNEL = ChannelModel()


class Outcome(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    ABORTED = "aborted"  # null-port budget exceeded


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
        return (
            self.alpha_sq
            * self.channel.total_transmittance
            * (1.0 + self.channel.multiport_visibility)
            / 2.0
        )

    def click_matrix(self) -> np.ndarray:
        """Analytic (sent phase x eliminated phase) click probabilities."""
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
    click independently with the analytic probabilities for that phase,
    and each null monitor clicks at the dark rate (honest inputs cancel
    exactly at the null port). Draw order per bit is: phases, Bob's
    eliminations, Bob's nulls, Charlie's eliminations, Charlie's nulls,
    so runs are reproducible for a given generator state.
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
        phases = rng.integers(0, N_PHASES, L).astype(np.int8)
        keys[bit] = PrivateKey(bit, phases)
        per_element = probs[phases]
        for store in (bob, charlie):
            elims = rng.random((L, N_PHASES)) < per_element
            nulls = rng.random(L) < null_p
            store[bit] = RecipientView(elims, nulls)
    return DistributionResult(keys, bob, charlie)


def count_mismatches(key: PrivateKey, view: RecipientView) -> int:
    """Number of elements whose stored record eliminates the declared phase."""
    elims = view.eliminations
    if elims.shape != (len(key.phases), N_PHASES):
        raise ValueError(
            f"records shape {elims.shape} does not match key length {len(key.phases)}"
        )
    return int(elims[np.arange(len(key.phases)), key.phases].sum())


def _decide(mismatches: int, null_count: int, params: ProtocolParams, threshold: float) -> Outcome:
    if mismatches < 0 or null_count < 0:
        raise ValueError("counts must be >= 0")
    if null_count > params.null_abort_fraction * params.length:
        return Outcome.ABORTED
    if mismatches < threshold * params.length:
        return Outcome.ACCEPTED
    return Outcome.REJECTED


def authenticate(mismatches: int, null_count: int, params: ProtocolParams) -> Outcome:
    """Direct-reception decision: abort on null budget, accept below s_a * L."""
    return _decide(mismatches, null_count, params, params.auth_threshold)


def verify(mismatches: int, null_count: int, params: ProtocolParams) -> Outcome:
    """Forwarded-message decision: abort on null budget, accept below s_v * L."""
    return _decide(mismatches, null_count, params, params.verify_threshold)


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

def write_transcript(path, message_bit: int, view: RecipientView, key: PrivateKey | None = None):
    """Write one recipient view as lines of: bit, index, four flags, null flag.

    When ``key`` is given its phase digits go into a `# key` header line so
    that downstream cost-matrix estimation can recover the sent phases.
    """
    L = len(view.null_clicks)
    arr = np.column_stack(
        [
            np.full(L, message_bit, dtype=np.int64),
            np.arange(L, dtype=np.int64),
            view.eliminations.astype(np.int64),
            view.null_clicks.astype(np.int64),
        ]
    )
    with open(path, "w") as f:
        if key is not None:
            if key.message_bit != message_bit:
                raise ValueError(
                    f"key is for bit {key.message_bit}, transcript for bit {message_bit}"
                )
            f.write("# key " + "".join(str(int(p)) for p in key.phases) + "\n")
        np.savetxt(f, arr, fmt="%d")


@dataclass(frozen=True)
class Transcript:
    """A deserialized recipient view, with the sent phases when recorded."""

    message_bit: int
    view: RecipientView
    key_phases: np.ndarray | None = None


def read_transcript(path) -> Transcript:
    """Parse a transcript file written by ``write_transcript``."""
    key_phases = None
    with open(path) as f:
        head = f.readline().split()
        if head[:2] == ["#", "key"]:
            digits = np.frombuffer("".join(head[2:]).encode(), dtype=np.uint8) - ord("0")
            if len(head) != 3 or (digits > 3).any():
                raise ValueError("line 1: key header must hold one phase digit 0..3 per element")
            key_phases = digits.astype(np.int8)
        else:
            f.seek(0)
        data = np.loadtxt(f, dtype=np.int64, ndmin=2)
    if data.shape[1] != 7:
        raise ValueError(f"expected 7 columns per line, got {data.shape[1]}")
    bits = np.unique(data[:, 0])
    if len(bits) != 1 or bits[0] not in (0, 1):
        raise ValueError(f"transcript must carry a single message bit, got {bits}")
    flags = data[:, 2:7]
    if ((flags != 0) & (flags != 1)).any():
        raise ValueError("elimination and null flags must be 0 or 1")
    view = RecipientView(data[:, 2:6].astype(bool), data[:, 6].astype(bool))
    if key_phases is not None and len(key_phases) != len(data):
        raise ValueError(
            f"key length {len(key_phases)} does not match {len(data)} elements"
        )
    return Transcript(int(bits[0]), view, key_phases)
