"""A cold start loads neither networkx nor numpy.

``replay`` and the daemon open the datasets and run campaigns, none of
which computes with a graph or an array; networkx and numpy are imported
inside the topology, simulation, SNR and FIR functions that do. A fresh
interpreter that imports the NoC, FFT and FIR packages, the query registry
and the campaign layer, loads
the three committed datasets and runs one seeded campaign per engine must
not have either library in ``sys.modules``, and the functions that import
them lazily must still return the values they returned when the libraries
were imported at module level.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

COLD_START = r"""
import json, sys
import repro.dsp, repro.fft, repro.noc
import repro.queries
import repro.service.campaign
from repro.queries import load_dataset
from repro.service.campaign import CampaignSpec, build_search, query_space

datasets = {space: load_dataset(space) for space in ("noc", "fft", "fir")}
runs = []
for query, engine in [
    ("noc-frequency", "nautilus"),
    ("fft-luts", "baseline"),
    ("fir-area", "random"),
    ("noc-frequency-vs-area-delay", "pareto"),
]:
    spec = CampaignSpec(query=query, engine=engine, generations=6, seed=7,
                        budget=40)
    result = build_search(spec, datasets[query_space(spec)]).run()
    runs.append([query, engine, result.distinct_evaluations])
print(json.dumps({
    "loaded": sorted(m for m in ("networkx", "numpy") if m in sys.modules),
    "runs": runs,
}))
"""


def _run(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_datasets_and_campaigns_load_neither_networkx_nor_numpy():
    report = json.loads(_run(COLD_START).splitlines()[-1])
    assert report["loaded"] == []
    assert [run[:2] for run in report["runs"]] == [
        ["noc-frequency", "nautilus"],
        ["fft-luts", "baseline"],
        ["fir-area", "random"],
        ["noc-frequency-vs-area-delay", "pareto"],
    ]
    assert all(distinct > 0 for __, __, distinct in report["runs"])


# Values read when networkx and numpy were imported at module level:
# (family, routers, graph edges, channels, radix, concentration,
#  bisection channels, average hops, total channel length).
TOPOLOGIES = [
    ("ring", 64, 64, 64, 3, 1, 2, 16.0, 25.12264925563803),
    ("double_ring", 64, 128, 128, 5, 1, 4, 16.0, 50.24529851127603),
    ("concentrated_ring", 16, 16, 16, 6, 4, 2, 4.0, 24.971561218064412),
    ("concentrated_double_ring", 16, 32, 32, 8, 4, 4, 4.0, 49.94312243612885),
    ("mesh", 64, 112, 112, 5, 1, 8, 5.333333333333333, 127.99999999999983),
    ("torus", 64, 128, 128, 5, 1, 16, 4.0, 255.99999999999983),
    ("fat_tree", 48, 128, 128, 8, 4, 32, 4.0, 588.3038921819327),
    ("butterfly", 48, 128, 128, 8, 4, 16, 3.0, 588.303892181932),
]
SNR_DB = [
    ((8, "per_stage", 2), 8.70351026147988),
    ((12, "unscaled", 4), 5.6914056480764135),
    ((16, "block_fp", 8), 78.85119312163678),
    ((18, "per_stage", 4), 70.88223242796963),
    ((24, "block_fp", 2), 125.06650549390237),
]
STOPBAND_DB = [
    (6, 28.43110215962641),
    (10, 53.037119204526746),
    (14, 57.4477252104129),
    (18, 57.36583955566131),
]


def test_lazily_importing_functions_return_their_values():
    from repro.dsp.fir import stopband_attenuation_db
    from repro.fft.fixedpoint import snr_db
    from repro.noc.topology import build_topology

    for family, *expected in TOPOLOGIES:
        topology = build_topology(family)
        assert [
            topology.num_routers,
            topology.graph.number_of_edges(),
            len(topology.channels),
            topology.router_radix,
            topology.concentration,
            topology.bisection_channels,
            topology.avg_hops,
            topology.total_channel_length_mm(),
        ] == expected, family
    for args, expected in SNR_DB:
        assert snr_db(*args) == expected, args
    for coeff_width, expected in STOPBAND_DB:
        assert stopband_attenuation_db(coeff_width) == expected, coeff_width
