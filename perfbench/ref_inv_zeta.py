"""Recompute the stored reference for the inv-zeta workload's slice.

Every 10-wide panel of [11020, 11520] at sigma0 = 0.98 is integrated with a
96-node Gauss-Legendre sum of mpmath's zeta, and the top panel once more with
128 nodes to show the rule's own error.  Takes about four minutes:

    python3 perfbench/ref_inv_zeta.py

and rewrites perfbench/ref_inv_zeta.json.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

import reference
from workloads import INV_ZETA_PANEL, INV_ZETA_SIGMA0, INV_ZETA_SLICE

OUT = Path(__file__).with_name("ref_inv_zeta.json")


def main() -> int:
    start = time.perf_counter()
    lo, hi = INV_ZETA_SLICE
    count = round((hi - lo) / INV_ZETA_PANEL)
    panels = []
    for k in range(count):
        a, b = lo + k * INV_ZETA_PANEL, lo + (k + 1) * INV_ZETA_PANEL
        panels.append({"lo": a, "hi": b,
                       "value": reference.gl_inv_zeta_panel(INV_ZETA_SIGMA0, a, b)})
        print(f"[{a}, {b}] {panels[-1]['value']!r}", file=sys.stderr)
    top = panels[-1]
    top128 = reference.gl_inv_zeta_panel(INV_ZETA_SIGMA0, top["lo"], top["hi"],
                                         nodes=128)
    doc = {
        "command": "python3 perfbench/ref_inv_zeta.py",
        "method": (f"{reference.GL_NODES}-node Gauss-Legendre per panel, "
                   f"mpmath.zeta at {reference.MP_DPS} digits"),
        "mpmath": mpmath.__version__,
        "numpy": np.__version__,
        "sigma0": INV_ZETA_SIGMA0,
        "slice": [lo, hi],
        "panel_width": INV_ZETA_PANEL,
        "total": math.fsum(p["value"] for p in panels),
        "top_panel_128_nodes": top128,
        "top_panel_rule_gap": abs(top128 - top["value"]),
        "panels": panels,
        "seconds": round(time.perf_counter() - start, 1),
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
