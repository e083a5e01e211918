"""Threshold-detector click statistics for the elimination receiver.

A gated single-photon detector looking at a coherent pulse of mean photon
number I clicks with probability 1 - (1-d) * exp(-eta*I): the no-click
event needs zero photons detected and no dark count in the gate.
Imperfect interference is folded in at the intensity level, by scaling
the cross term of the interfering beams with a visibility factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrimination import OFFSETS
from .optics import intensity


@dataclass(frozen=True)
class DetectorModel:
    """Gated threshold detector plus the interference quality in front of it.

    Parameters
    ----------
    efficiency : float
        Photon detection efficiency, in [0, 1].
    dark_click_prob : float
        Probability of a dark count per gate, in [0, 1).
    visibility : float
        Interference visibility of the receiver, in [0, 1]. Scales the
        cross term of the interfering beams; 1.0 is perfect contrast.
    """

    efficiency: float
    dark_click_prob: float = 0.0
    visibility: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_click_prob < 1.0:
            raise ValueError(
                f"dark_click_prob must lie in [0, 1), got {self.dark_click_prob}"
            )
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")


IDEAL_DETECTOR = DetectorModel(efficiency=1.0, dark_click_prob=0.0, visibility=1.0)


def click_probability(mode_intensity: float, det: DetectorModel) -> float:
    """Click probability of a threshold detector on a pulse of given intensity."""
    if mode_intensity < 0:
        raise ValueError(f"intensity must be >= 0, got {mode_intensity}")
    return 1.0 - (1.0 - det.dark_click_prob) * math.exp(
        -det.efficiency * mode_intensity
    )


def visibility_adjusted_intensity(
    signal: complex, reference: complex, phase_index: int, visibility: float
) -> float:
    """Intensity at the elimination mode for ``phase_index`` with finite contrast.

    With perfect visibility this equals abs((signal - reference*i**k))**2 / 4;
    the visibility scales only the interference cross term, so the incoherent
    background (|signal|^2 + |reference|^2)/4 always remains.
    """
    if phase_index not in (0, 1, 2, 3):
        raise ValueError(f"phase index must be in 0..3, got {phase_index}")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    s = complex(signal)
    r = complex(reference) * (1j ** phase_index)
    cross = (s.conjugate() * r).real
    return (intensity(s) + intensity(r)) / 4.0 - visibility * cross / 2.0


def phase_click_matrix(intensity_into_receiver: float, det: DetectorModel) -> np.ndarray:
    """Analytic click matrix of an honest transmission.

    Entry (i, j) is the probability that the detector eliminating phase j
    clicks when phase i was sent, for a signal of the given intensity and
    a reference matched to it. It depends only on the offset (j - i) mod 4:
    the sent phase sees only the visibility leak (1-V)/2, the opposite
    phase the full beat (1+V)/2, and the two adjacent phases half the
    intensity regardless of visibility. The matrix is read-only.
    """
    if intensity_into_receiver < 0:
        raise ValueError(f"intensity must be >= 0, got {intensity_into_receiver}")
    amp = math.sqrt(intensity_into_receiver)
    same, adjacent, opposite = (
        click_probability(visibility_adjusted_intensity(amp, amp, k, det.visibility), det)
        for k in range(3)
    )
    matrix = np.array((same, adjacent, opposite, adjacent))[OFFSETS]
    matrix.flags.writeable = False
    return matrix


@dataclass(frozen=True)
class MeasurementRates:
    """Per-pulse outcome rates of the elimination receiver.

    ``elimination_success``: the sent-phase detector stayed silent and at
    least one other detector clicked, so at least one wrong phase was ruled
    out. ``full_identification``: the sent-phase detector stayed silent and
    all three others clicked, leaving only the true phase (the conclusive,
    discrimination-grade event). ``elimination_error``: the sent-phase
    detector clicked, falsely ruling out the truth. ``identification_error``:
    all four detectors clicked.
    """

    elimination_success: float
    elimination_error: float
    full_identification: float
    identification_error: float


def measurement_rates(intensity_into_receiver: float, det: DetectorModel) -> MeasurementRates:
    """Closed-form receiver rates for an honest pulse of the given intensity.

    With a matched reference, the sent-phase mode carries intensity
    I*(1-V)/2 (click prob c), the opposite mode I*(1+V)/2 (click prob p),
    and each adjacent mode I/2 (click prob q). Independence of the four
    threshold detectors gives

        elimination_success  = (1-c) * (1 - (1-p)(1-q)^2)
        full_identification  = (1-c) * p * q^2
        elimination_error    = c
        identification_error = c * p * q^2
    """
    if intensity_into_receiver < 0:
        raise ValueError(f"intensity must be >= 0, got {intensity_into_receiver}")
    I = intensity_into_receiver
    v = det.visibility
    c = click_probability(I * (1.0 - v) / 2.0, det)
    p = click_probability(I * (1.0 + v) / 2.0, det)
    q = click_probability(I / 2.0, det)
    return MeasurementRates(
        elimination_success=(1.0 - c) * (1.0 - (1.0 - p) * (1.0 - q) ** 2),
        elimination_error=c,
        full_identification=(1.0 - c) * p * q * q,
        identification_error=c * p * q * q,
    )
