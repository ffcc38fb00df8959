#!/usr/bin/env python3
"""Quickstart: simulate one synthetic server workload with three BTB designs.

Generates a small server-class trace, runs it through the front-end simulator
with the conventional BTB, PDede and BTB-X sized for the same 14.5 KB storage
budget, and prints the BTB MPKI and speedup of each organization.

Run with::

    python examples/quickstart.py
"""

from repro import BTBStyle, FrontEndSimulator, build_workload, default_machine_config

BUDGET_KIB = 14.5
INSTRUCTIONS = 120_000
WARMUP = 60_000


def main() -> None:
    trace = build_workload("server_030", INSTRUCTIONS)
    summary = trace.summary()
    print(f"workload {trace.name}: {len(trace)} instructions, "
          f"{summary.branch_count} branches, "
          f"{summary.unique_branch_pcs} static branch sites, "
          f"{summary.instruction_footprint_bytes // 1024} KB code footprint")
    print()

    baseline_ipc = None
    for style in (BTBStyle.CONVENTIONAL, BTBStyle.PDEDE, BTBStyle.BTBX):
        machine = default_machine_config(
            btb_style=style, budget_kib=BUDGET_KIB, fdip_enabled=True, isa=trace.isa
        )
        simulator = FrontEndSimulator(machine)
        result = simulator.run(trace, warmup_instructions=WARMUP)
        if baseline_ipc is None:
            baseline_ipc = result.ipc
        print(f"{style.value:>13}: {simulator.btb.capacity_entries():>5} entries in {BUDGET_KIB} KB | "
              f"BTB MPKI {result.btb_mpki:6.2f} | IPC {result.ipc:5.3f} | "
              f"speedup vs Conv-BTB {result.ipc / baseline_ipc:5.2f}x")


if __name__ == "__main__":
    main()
