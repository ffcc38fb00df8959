"""Analytic SRAM array energy/latency model calibrated against CACTI 7.0.

The paper obtains per-access energies and latencies from CACTI 7.0 at 22 nm
(Table V and Section VI-E).  CACTI's internal sub-array partitioning makes its
results hard to reproduce with a first-principles formula, so this module uses
a *calibrated* linear model over three geometry features -- rows (sets),
row bits (bits read per access, i.e. entry bits times associativity) and total
bits -- fitted by least squares to the four CACTI operating points the paper
reports at the 14.5 KB budget:

==============================  ======  =========  ==========  =====
array                           rows    row bits   total bits  read
==============================  ======  =========  ==========  =====
Conv-BTB     (1856 x 64 b, 8w)  232     512        118 784     13.2
PDede Main   (3184 x 34 b, 8w)  398     272        108 256      8.4
BTB-X        (4096 x 28 b, 8w)  512     224        114 688      8.5
PDede Page   (512 x 20 b, 16w)  32      320        10 240       0.9
==============================  ======  =========  ==========  =====

(write energy and access latency are fitted to the corresponding columns of
Table V / Section VI-E).  The fit reproduces the paper's numbers exactly at
the calibration points and interpolates smoothly in between; results are
floored so very small arrays never report non-physical negative values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import EnergyModelError

# Least-squares coefficients over (rows, row_bits, total_bits, 1).
_READ_COEF = (6.4591259389327775e-03, 2.1702760706272545e-02, 6.302738757194424e-05, -6.896975904789772)
_WRITE_COEF = (4.305921373524544e-03, 5.028375280460443e-02, 1.2791434981952978e-04, -16.73843332357819)
_LATENCY_COEF = (-4.6256462784118757e-04, -3.978148473319691e-04, 3.674946346697888e-06, 0.23447136864696172)

#: Floors applied so tiny arrays (e.g. the 4-entry Region-BTB) stay physical.
_READ_FLOOR_PJ = 0.25
_WRITE_FLOOR_PJ = 0.25
_LATENCY_FLOOR_NS = 0.05

#: Associative-search energy per searched entry, calibrated so that PDede's
#: 16-way Page-BTB search costs the 6.2 pJ reported in Table V.
_SEARCH_ENERGY_PER_ENTRY_PJ = 0.3763
_SEARCH_BASE_PJ = 0.18


def _evaluate(coef: tuple[float, float, float, float], rows: float, row_bits: float, total_bits: float) -> float:
    a_rows, a_row_bits, a_total, constant = coef
    return a_rows * rows + a_row_bits * row_bits + a_total * total_bits + constant


@dataclass(frozen=True)
class SRAMArray:
    """Geometry of one SRAM array (a BTB partition, a cache tag array, ...)."""

    name: str
    entries: int
    entry_bits: float
    associativity: int = 1

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.entry_bits <= 0 or self.associativity <= 0:
            raise EnergyModelError(f"{self.name}: invalid SRAM geometry")

    @property
    def rows(self) -> int:
        """Number of physical rows (sets)."""
        return max(self.entries // self.associativity, 1)

    @property
    def row_bits(self) -> float:
        """Bits read out per access (all ways of one set)."""
        return self.entry_bits * self.associativity

    @property
    def total_bits(self) -> float:
        """Total storage bits of the array."""
        return self.entry_bits * self.entries

    # -- per-access metrics -----------------------------------------------

    def read_energy_pj(self) -> float:
        """Dynamic energy of one read access (all ways of a set)."""
        value = _evaluate(_READ_COEF, self.rows, self.row_bits, self.total_bits)
        return max(value, _READ_FLOOR_PJ)

    def write_energy_pj(self) -> float:
        """Dynamic energy of one write access."""
        value = _evaluate(_WRITE_COEF, self.rows, self.row_bits, self.total_bits)
        return max(value, _WRITE_FLOOR_PJ)

    def search_energy_pj(self, searched_entries: int | None = None) -> float:
        """Energy of an associative search over ``searched_entries`` entries.

        Defaults to the whole array (fully-associative search, as in the
        R-BTB/ITTAGE Page-BTB); PDede restricts the search to a 16-entry set.
        """
        entries = self.entries if searched_entries is None else searched_entries
        return _SEARCH_BASE_PJ + entries * _SEARCH_ENERGY_PER_ENTRY_PJ

    def access_latency_ns(self) -> float:
        """Access latency of the array."""
        value = _evaluate(_LATENCY_COEF, self.rows, self.row_bits, self.total_bits)
        return max(value, _LATENCY_FLOOR_NS)

