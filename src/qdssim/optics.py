"""Linear-optics building blocks for weak coherent pulses.

Everything here works on complex mode amplitudes (Python ``complex``).
A coherent pulse of amplitude ``a`` has mean photon number ``abs(a)**2``;
that quantity is what the detection layer consumes, so these functions
never need field operators, only the amplitude algebra.
"""

from __future__ import annotations

from dataclasses import dataclass


def intensity(a: complex) -> float:
    """Mean photon number of a coherent pulse with amplitude ``a``."""
    a = complex(a)
    return a.real * a.real + a.imag * a.imag


def db_to_transmittance(loss_db: float) -> float:
    """Convert an attenuation in dB (>= 0) to a transmittance in (0, 1]."""
    if loss_db < 0:
        raise ValueError(f"loss in dB must be >= 0, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


@dataclass(frozen=True)
class MultiportOutput:
    """Output amplitudes of the symmetrizing multiport.

    Both recipients see the same signal amplitude (b + c)/2 and the same
    null amplitude (b - c)/2, so identical inputs leave the null ports
    dark; that is what makes the null-port monitors a tamper alarm.
    """

    bob_signal: complex
    charlie_signal: complex
    bob_null: complex
    charlie_null: complex


def multiport(bob_in: complex, charlie_in: complex) -> MultiportOutput:
    """Four-port symmetrizer built from 50/50 couplers.

    Each input is split in half, one half is exchanged, and the halves are
    recombined, which yields signal (b+c)/2 and null (b-c)/2 on each side.
    Total output intensity equals total input intensity.
    """
    b = complex(bob_in)
    c = complex(charlie_in)
    sig = (b + c) / 2.0
    nul = (b - c) / 2.0
    return MultiportOutput(sig, sig, nul, nul)


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

