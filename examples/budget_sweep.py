#!/usr/bin/env python3
"""Storage-budget sweep on a server workload (a miniature Figure 11).

Sweeps the conventional BTB and BTB-X across four storage budgets on a single
large-footprint server workload, demonstrating the paper's headline claim that
BTB-X outperforms a conventional BTB of twice its size.

Run with::

    python examples/budget_sweep.py
"""

from repro import BTBStyle, FrontEndSimulator, build_workload, default_machine_config

BUDGETS_KIB = (1.8125, 3.625, 7.25, 14.5)
INSTRUCTIONS = 150_000
WARMUP = 75_000


def main() -> None:
    trace = build_workload("server_032", INSTRUCTIONS)
    print(f"workload {trace.name}: {len(trace)} instructions")
    print()
    print("  budget     Conv-BTB              BTB-X")
    print("             entries  MPKI  IPC    entries  MPKI  IPC")

    for budget in BUDGETS_KIB:
        row = [f"  {budget:6.2f}KB"]
        for style in (BTBStyle.CONVENTIONAL, BTBStyle.BTBX):
            machine = default_machine_config(
                btb_style=style, budget_kib=budget, fdip_enabled=True, isa=trace.isa
            )
            simulator = FrontEndSimulator(machine)
            result = simulator.run(trace, warmup_instructions=WARMUP)
            row.append(f"  {simulator.btb.capacity_entries():>6} {result.btb_mpki:6.2f} {result.ipc:5.3f}")
        print("".join(row))

    print()
    print("Compare BTB-X at budget B against Conv-BTB at budget 2B: the paper's")
    print("claim is that BTB-X wins even with half the storage (Section VI-F).")


if __name__ == "__main__":
    main()
