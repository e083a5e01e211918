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

