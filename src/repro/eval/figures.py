"""Figures 1 and 2: the prototype's bill of materials and schematic.

Figure 1 is a photo of the hardware; its reproducible content is the
inventory (U280, 2x100 GbE, 4 NVMe SSDs, crossover board). Figure 2 is the
schematic; its reproducible content is the component graph and the two
end-to-end paths (network -> slots -> storage; config engine -> slots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.dpu.hyperion import HyperionDpu
from repro.dpu.schematic import build_schematic, schematic_table
from repro.eval.report import Table
from repro.hw.net import Network
from repro.sim import Simulator

#: What Figure 1 shows, as checkable facts.
FIGURE1_EXPECTED = {
    "device": "alveo-u280",
    "qsfp_ports": 2,
    "network_gbps": 100,
    "nvme_ssds": 4,
    "pcie_bridges": 4,
    "pcie_lanes_per_bridge": 4,
}


@dataclass
class FigureReport:
    """Figure 1/2 reproduction: inventory, mismatches, path checks."""

    inventory: Dict[str, object]
    mismatches: List[str]
    schematic_text: str
    end_to_end_path_ok: bool
    config_path_ok: bool

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.end_to_end_path_ok and self.config_path_ok


def run_figures() -> FigureReport:
    sim = Simulator()
    dpu = HyperionDpu(sim, Network(sim), ssd_blocks=4096)
    sim.run_process(dpu.boot())
    inventory = dpu.inventory()
    mismatches = [
        f"{key}: expected {expected}, got {inventory.get(key)}"
        for key, expected in FIGURE1_EXPECTED.items()
        if inventory.get(key) != expected
    ]
    schematic = build_schematic()
    reachable = schematic.reachable_from("qsfp0")
    end_to_end = all(
        f"nvme-ssd-{i}" in reachable for i in range(4)
    ) and "ehdl-slot-0" in reachable
    config_reach = schematic.reachable_from("runtime-config-engine")
    config_ok = all(f"ehdl-slot-{i}" in config_reach for i in range(5))
    return FigureReport(
        inventory=inventory,
        mismatches=mismatches,
        schematic_text=schematic_table(schematic),
        end_to_end_path_ok=end_to_end,
        config_path_ok=config_ok,
    )


def format_figures(report: FigureReport) -> str:
    table = Table("Figure 1: Hyperion prototype bill of materials",
                  ["property", "value"])
    for key in sorted(report.inventory):
        table.add_row(key, report.inventory[key])
    lines = [table.render(), ""]
    lines.append("Figure 2: Hyperion schematic (component graph)")
    lines.append(report.schematic_text)
    lines.append("")
    lines.append(f"network->slots->NVMe path present: {report.end_to_end_path_ok}")
    lines.append(f"config engine reaches all slots:   {report.config_path_ok}")
    return "\n".join(lines)
