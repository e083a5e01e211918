"""The analytic pipeline over the benchmark's design-scan grid, bit for bit.

Every point of the 50 alpha_sq x 40 multiport-loss grid on the paper-2014
preset goes through ``protocol_params`` -> ``analyze`` on the params' click
matrix -> ``measurement_rates``, as ``perfbench``'s design-scan workload
runs it. Each output field is hashed over the grid the way
``perfbench/workloads.py:field_digests`` hashes it and compared with the
digests pinned in ``perfbench/expected.json``.
"""

import hashlib
import json
from pathlib import Path

from qdssim import detection, security
from qdssim.config import preset

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
GRID_ALPHA_SQ = [(i + 2) / 10 for i in range(50)]  # 0.2 .. 5.1
GRID_LOSS_DB = [j / 2 for j in range(40)]  # 0 .. 19.5


def _scan():
    base = preset("paper-2014").replace(length=1_000_000)
    rows = []
    for a2 in GRID_ALPHA_SQ:
        for loss in GRID_LOSS_DB:
            cfg = base.replace(alpha_sq=a2, multiport_loss_db=loss)
            params = cfg.protocol_params()
            report = security.analyze(params.click_matrix(), cfg.alpha_sq, cfg.security_level)
            rates = detection.measurement_rates(params.receiver_intensity(), params.detector)
            rows.append({"report": report, "params": params, "rates": rates})
    return rows


def test_design_scan_grid_matches_the_pinned_digests():
    pinned = json.loads(EXPECTED.read_text())["design_scan"]
    rows = _scan()
    assert len(rows) == pinned["points"]
    assert len(pinned["digests"]) == 20  # 13 report, 3 params and 4 rates fields
    moved = []
    for name, digest in pinned["digests"].items():
        record, field = name.split(".")
        h = hashlib.sha256()
        for row in rows:
            v = getattr(row[record], field)
            h.update((v.hex() if isinstance(v, float) else repr(v)).encode() + b"\n")
        if h.hexdigest() != digest:
            moved.append(name)
    assert moved == []
