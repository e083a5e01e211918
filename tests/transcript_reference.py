"""Line-by-line reference writer and reader of the transcript form.

Both work one element or one line at a time in plain Python, with no
regular expression and no bulk numpy, so that they share no code path
with ``qdssim.protocol``'s codec:

    # qdssim transcript v2
    # bit B
    # key <one phase digit 0..3 per element>
    index e0 e1 e2 e3 null      (one line per element with a flag set)

Indices ascend strictly, carry no leading zeros and lie below the key's
length; every line ends in a LF and nothing follows the last one.
"""

from __future__ import annotations

import numpy as np


def write(path, bit: int, elims, nulls, phases) -> None:
    out = [b"# qdssim transcript v2", b"# bit " + str(bit).encode()]
    out.append(b"# key " + "".join(str(int(p)) for p in phases).encode())
    for i in range(len(phases)):
        flags = [int(bool(f)) for f in elims[i]] + [int(bool(nulls[i]))]
        if any(flags):
            out.append(" ".join(str(x) for x in [i, *flags]).encode())
    with open(path, "wb") as f:
        f.write(b"".join(line + b"\n" for line in out))


def read(data: bytes):
    """(bit, phases, eliminations, nulls), or the number of the first line out of form."""
    pieces = data.split(b"\n")
    lines, tail = pieces[:-1], pieces[-1]
    bit = length = None
    last = -1
    rows = {}
    for n, line in enumerate(lines, start=1):
        if n == 1:
            ok = line == b"# qdssim transcript v2"
        elif n == 2:
            ok = line in (b"# bit 0", b"# bit 1")
            bit = int(line[-1:]) if ok else None
        elif n == 3:
            digits = line[len(b"# key "):]
            ok = line.startswith(b"# key ") and len(digits) > 0 and all(c in b"0123" for c in digits)
            phases = [int(chr(c)) for c in digits] if ok else None
            length = len(digits)
        else:
            tokens = line.split(b" ")
            ok = (
                len(tokens) == 6
                and tokens[0].isdigit()
                and not (tokens[0].startswith(b"0") and len(tokens[0]) > 1)
                and all(t in (b"0", b"1") for t in tokens[1:])
                and b"1" in tokens[1:]
                and last < int(tokens[0]) < length
            )
            if ok:
                last = int(tokens[0])
                rows[last] = [t == b"1" for t in tokens[1:]]
        if not ok:
            return n
    if tail or len(lines) < 3:
        return len(lines) + 1
    elims = np.zeros((length, 4), dtype=bool)
    nulls = np.zeros(length, dtype=bool)
    for i, flags in rows.items():
        elims[i] = flags[:4]
        nulls[i] = flags[4]
    return bit, np.array(phases, dtype=np.int8), elims, nulls
