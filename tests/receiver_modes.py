"""Amplitude-level model of the elimination receiver, kept as a test oracle.

The program builds the click matrix from three click probabilities placed
by the (j - i) mod 4 offset table. This module derives the same detector
modes from the interferometer's amplitude algebra instead, so the tests
can check the one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EliminationModes:
    """Detector-mode amplitudes of the elimination receiver.

    Field ``not_k`` feeds the detector that rules out constellation phase
    k*pi/2: a click there is incompatible with the signal having carried
    that phase.
    """

    not_0: complex
    not_half_pi: complex
    not_pi: complex
    not_three_half_pi: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        """Amplitudes ordered by the phase index they rule out."""
        return (self.not_0, self.not_half_pi, self.not_pi, self.not_three_half_pi)


def elimination_receiver(signal: complex, reference: complex) -> EliminationModes:
    """Interfere a signal with a phase reference to test all four phases.

    The signal is split in two, each half meets a reference copy (one of
    them rotated by pi/2) on a 50/50 splitter, and the four outputs carry
    (signal - reference * i**k)/2 for k = 0..3. The mode for phase k goes
    dark exactly when the signal equals ``reference * i**k``, so a click
    eliminates phase k. ``reference`` is the calibrated local amplitude,
    normally matched to the loss-scaled signal.
    """
    s = complex(signal)
    r = complex(reference)
    return EliminationModes(
        (s - r) / 2.0,
        (s - r * 1j) / 2.0,
        (s + r) / 2.0,
        (s + r * 1j) / 2.0,
    )
