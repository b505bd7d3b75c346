"""Golden digests: the bytes of traces and experiment outputs at fixed seeds.

Each digest is the sha256 of a file the package writes. A change meant to
keep behaviour (a refactor, a deletion, an optimisation) keeps every one of
them. A change that alters the trace or report format, the drift streams or
the scheduler updates them and says why.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pytest

from spaq import (
    HIGH_FREQUENCY,
    Exp1Config,
    Exp2Config,
    Exp3Config,
    SimConfig,
    builtin_config_path,
    load_graph,
    run_delayed_checks_experiment,
    run_hidden_dependency_experiment,
    run_internode_experiment,
    run_simulation,
    with_delays,
    write_report,
    write_trace,
)
from spaq.cli import main

CYCLES = 3000
SEEDS = (3, 11)
DELAY = 50
CONFIGS = ("xgate", "internode", "hidden")
MODES = {
    "baseline": {},
    "high_frequency": {"mode": HIGH_FREQUENCY, "hf_timeout": 4},
    "oracle_ttf": {"oracle_ttf": True},
    "drift_sample": {"drift_sample_every": 37},
    # both kinds of ground-truth event at once, so that an onset or a
    # recovery shares its cycle with every node's grid sample
    "oracle_every_cycle": {"oracle_ttf": True, "drift_sample_every": 1},
}
EXPERIMENTS = {
    "exp1": lambda: run_delayed_checks_experiment(
        load_graph(builtin_config_path("xgate")), Exp1Config(total_cycles=2000, n_runs=2, seed=5)
    ),
    "exp2": lambda: run_internode_experiment(Exp2Config(total_cycles=3000, n_runs=3, seed=5)),
    "exp3": lambda: run_hidden_dependency_experiment(Exp3Config(total_cycles=2000, n_runs=3, seed=5)),
    # long enough runs that every node but x_gate gets a non-zero delay,
    # so the with_delays -> adaptive half of exp1 is pinned too
    "exp1_delays": lambda: run_delayed_checks_experiment(
        load_graph(builtin_config_path("xgate")), Exp1Config(total_cycles=10_000, n_runs=7, seed=5)
    ),
}


def _sha(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def trace_digest(config: str, mode: str, seed: int, path: Path, delay: int = 0) -> str:
    """``delay`` > 0 sets every node's post-calibration delay to it."""
    graph = load_graph(builtin_config_path(config))
    if delay:
        graph = with_delays(graph, {n.id: delay for n in graph.nodes})
    write_trace(path, run_simulation(graph, SimConfig(total_cycles=CYCLES, seed=seed, **MODES[mode])))
    return _sha(path)


def report_digests(exp: str, outdir: Path) -> dict[str, str]:
    """Digest of every file ``write_report`` lists (not the traces)."""
    return {name: _sha(p) for name, p in write_report(EXPERIMENTS[exp](), outdir).items()}


def scan_digests(root: Path) -> dict[str, str]:
    """Digests of ``spaq scan`` outputs, run from ``root`` so the paths
    recorded in scan.json are relative."""
    root.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert main(["scan", "--runs", "2", "--cycles", "2000", "--seed", "5", "-o", "scan"]) == 0
    finally:
        os.chdir(cwd)
    return {name: _sha(root / "scan" / name) for name in ("scan.json", "matrix.csv")}


TRACES = {
    ("xgate", "baseline", 3): "908215b5594958a0be779ea2f9f20cb30b74f55a9657ddd962054d68bfe0058e",
    ("xgate", "baseline", 11): "c7ab57c3b4298d36859306fb5bbe6ef654c8272e61b3bb8a951a3316938b17fc",
    ("xgate", "high_frequency", 3): "56cf076f43063fa0c2685f9a031cb30869fa2bdd4ef5fb2f43221a7639148809",
    ("xgate", "high_frequency", 11): "482cb094dbda419d81a61fac093884a9483492ff82e56fda2a4f374e7b6a89aa",
    ("xgate", "oracle_ttf", 3): "d33dbd4a3811bfeaecedc968e4b80fbb3cbdcd7c5f35180c28285a599c0e4856",
    ("xgate", "oracle_ttf", 11): "f68a23e686e69932b61ea09df93343bd798c380ed34ece0ffc297a0e3d195aa5",
    ("xgate", "drift_sample", 3): "9767afa4acccf37979096090392b18789375ac0ac7008b106ec1de3179ff4a19",
    ("xgate", "drift_sample", 11): "337a0d8174bcd9b29855428b6feb9e647441b570c1e6e2df6b678a3428bde52a",
    ("internode", "baseline", 3): "4947b814c24fbd1ff6cf7e2de50fed2db770c7c8f3d03b4d79b7382e1404a1f1",
    ("internode", "baseline", 11): "8045adb829be5a792e1b9a7be8dc0066c93960ed00816fe404efebfb3e7ba28f",
    ("internode", "high_frequency", 3): "1b6272473b7abb44454ba442d546bc85def204cc53ec985839e156438bdd03ac",
    ("internode", "high_frequency", 11): "f61b6bc13a1b69f8329da6bebb49737ef7c6d61bf6033114507b54cc89a7a04c",
    ("internode", "oracle_ttf", 3): "01749f581e68bc709adc11e0e920d71f17392c72e3df2ab11c27b0b6927381d5",
    ("internode", "oracle_ttf", 11): "6ca4e3a98326374c1cc43780f99c26907d5d2aa0533ffe9bbd612180ad5e5845",
    ("internode", "drift_sample", 3): "c85d819ba1cb275e2275819a96f79cff0d025a069d7e1566db2a21c1575927b5",
    ("internode", "drift_sample", 11): "0cc7e48a30afd41bb69dff34b50d9199126232fdcf769b0d7aae8e35d6b18690",
    ("hidden", "baseline", 3): "0db7e64c8f66a04d914164560ae147156e8cc499ad0be77e86303273d301f35d",
    ("hidden", "baseline", 11): "2c0c40974e223197ae9b068c6a92832de3135d438ed4211fd7437b054626f038",
    ("hidden", "high_frequency", 3): "1a3c39619ed985dc80d220094e0c5cbbcd7b4f1547026dd177d84949e3b295fe",
    ("hidden", "high_frequency", 11): "dfca4de3786af50706f7a405d70608de86f50503366581bf0b6c5b5f889fc8ec",
    ("hidden", "oracle_ttf", 3): "e119cb33ba98e3277d3937acf2e01c83d1e2635ff82a708da4bc9ad345b2067f",
    ("hidden", "oracle_ttf", 11): "015d107853c45bad32fe3c2b385f79f0d9b884ff54ed3089b27a512d6b740e96",
    ("hidden", "drift_sample", 3): "2dd6ccb1110c63ff79f517086a908e5c68220775263ce08e05db14c5194f71de",
    ("hidden", "drift_sample", 11): "39e6f03fcffc029cd4c90488cf55cfc16bbb02ad79063992b90ef26db991a1c3",
    ("xgate", "oracle_every_cycle", 3): "bede8e84ebb87cf35f74ef13cb00c1bd5df7905afa153f72e65746e6bcef7d28",
    ("xgate", "oracle_every_cycle", 11): "b8583fdde70ae77c5bdc4c402b6f7efee48d2cdd2ad9ee419f7ce41425fc7d0b",
    ("internode", "oracle_every_cycle", 3): "1dfb04aedf2a2b81841dfdf0d7cdb00386e29e9b5bf61911103c744d36f6e5a1",
    ("internode", "oracle_every_cycle", 11): "c3d85e9c859a3c938cd6acce4c40686ca7cf12e70c44457a2bff3b58c49d0b9e",
    ("hidden", "oracle_every_cycle", 3): "0d2b3be7bdc1a9ad877ab12a8742e93adb12e46f21ca52013c4da507029984d3",
    ("hidden", "oracle_every_cycle", 11): "9e722d1e6953304851637f0184e810cc911054c83060ff16e307fc7fbc748de0",
}

# xgate with every node's post-calibration delay at DELAY: the delay path
# of the scheduler (372 and 366 events, against 375 and 373 undelayed)
DELAYED_TRACES = {
    3: "59385919feb5e2a1612b4575af4d87c289d8be40b2471bba96a3528bb23d074a",
    11: "3e03a8f551085e467c877c0f32643157afe9a06f147c90edaf9dc6e8a952316f",
}

REPORTS = {
    ("exp1", "availability"): "03c639eb4a52e3755579337e70c557e57a33171d1f7a33ec0d3c51d379441d82",
    ("exp1", "node_costs"): "c25e820daf1d5f18396dd077c2da825202ad682dbf65d7bd54b859b3a4813ae8",
    ("exp1", "report"): "c40086a7c19d91ff568d5d8001d063af07b90f630a261a7d4f222498d672c7fc",
    ("exp2", "availability"): "4bb867a2696f3b9027e335e9f8c41c8a150bfce6d42b08742247940a7f3d469f",
    ("exp2", "node_costs"): "0706a71ba196d4053c3cbccf169fc84ca38baaef0dc23fdea287727b1953d0a2",
    ("exp2", "report"): "618e3891c0da18cf3b9b340c66dfa9b8230affb62e598821019baf52602dabd1",
    ("exp3", "availability"): "c7fc72556487a6e5ebebf20cbda99a8999da8b36ba95960a31cd36d0c998f449",
    ("exp3", "matrix"): "5243afae10447ca9c5ff5e20cb9f7191b1f96f8666881ae90c76e1685de204ce",
    ("exp3", "node_costs"): "bd6837fba2ce25660cd646ac4525817aa6b57a27a22710a80c86c1544c8794e6",
    ("exp3", "report"): "331c474a21a46ce2c42a8b83dc2be779efc486a4af2b9378842c6d4057ac248d",
    # delays drive_frequency 771, node_A 674, node_B 884, pulse_time 728,
    # state_init 735, x_gate 0; availability 0.698 -> 0.765
    ("exp1_delays", "availability"): "50e714236b404ceb1e4ff6f67c68ad214f64277147b5d506d922eab778a69b83",
    ("exp1_delays", "node_costs"): "ee07d28d98caff7a8108091246580fafdc08dabfb8a76be58a6db032e9d91c9f",
    ("exp1_delays", "report"): "d83672f02f3c68ccca57faf31500a1727c208de3bc049cb27f39cf4fbbcfa862",
}

SCAN = {
    "matrix.csv": "fe744ef7dcef1c146f2d6ac16481dd5e39313242cbe329487d2d0acf34507ce5",
    "scan.json": "9d66b15e6ddec6637a6a196060dd225b0593b54eb28aef3290e8757cc28b080f",
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config", CONFIGS)
def test_trace_bytes(config, mode, tmp_path):
    for seed in SEEDS:
        assert trace_digest(config, mode, seed, tmp_path / "t.jsonl") == TRACES[(config, mode, seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_delayed_trace_bytes(seed, tmp_path):
    assert trace_digest("xgate", "baseline", seed, tmp_path / "t.jsonl", delay=DELAY) == DELAYED_TRACES[seed]


@pytest.mark.parametrize("exp", EXPERIMENTS)
def test_report_bytes(exp, tmp_path):
    expected = {name: d for (e, name), d in REPORTS.items() if e == exp}
    assert report_digests(exp, tmp_path) == expected


def test_scan_bytes(tmp_path, capsys):
    assert scan_digests(tmp_path) == SCAN
