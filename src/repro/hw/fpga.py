"""Target-FPGA specifications (paper Table 4).

The hardware generator sizes the accelerator from the FPGA's resources:
the number of DSP slices bounds how many Analytic Units can be
instantiated, the BRAM capacity bounds how many page buffers / how much
model and training-data storage fits on chip, and the off-chip bandwidth
bounds how fast the access engine can pull buffer-pool pages.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class FPGASpec:
    """Resource envelope of one FPGA target."""

    name: str
    luts: int
    flip_flops: int
    frequency_mhz: float
    bram_bytes: int
    dsp_slices: int
    #: off-chip (host <-> FPGA) bandwidth in gigabits/second.  128 Gb/s is
    #: the ~16 GB/s of a PCIe gen3 x16 link, the class of interface the
    #: VU9P boards of the paper's testbed use.
    axi_bandwidth_gbps: float = 128.0
    bram_read_width_bytes: int = 8        # per-cycle read width of one BRAM port
    dsps_per_au: int = 5                  # DSP slices consumed by one Analytic Unit
    max_compute_units: int = 1024         # paper: "maximum 1024 compute units"

    def __post_init__(self) -> None:
        if self.frequency_mhz <= 0:
            raise ConfigurationError("FPGA frequency must be positive")
        if self.dsp_slices <= 0 or self.bram_bytes <= 0:
            raise ConfigurationError("FPGA resources must be positive")

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def frequency_hz(self) -> float:
        """Clock frequency in Hz."""
        return self.frequency_mhz * 1e6

    @property
    def cycle_time_s(self) -> float:
        """Seconds per clock cycle."""
        return 1.0 / self.frequency_hz

    @property
    def axi_bytes_per_second(self) -> float:
        """Off-chip (AXI) bandwidth in bytes per second."""
        return self.axi_bandwidth_gbps * 1e9 / 8.0

    @property
    def axi_bytes_per_cycle(self) -> float:
        """Off-chip (AXI) bytes moved per clock cycle."""
        return self.axi_bytes_per_second / self.frequency_hz

    def max_analytic_units(self) -> int:
        """Upper bound on AUs given DSP slices and the compute-unit cap."""
        return min(self.dsp_slices // self.dsps_per_au, self.max_compute_units)

    def with_bandwidth_scale(self, scale: float) -> "FPGASpec":
        """A copy of this spec with the off-chip bandwidth scaled (Figure 14)."""
        if scale <= 0:
            raise ConfigurationError("bandwidth scale must be positive")
        return replace(self, axi_bandwidth_gbps=self.axi_bandwidth_gbps * scale)


# Xilinx Virtex UltraScale+ VU9P, the paper's evaluation platform (Table 4).
ULTRASCALE_PLUS_VU9P = FPGASpec(
    name="Xilinx Virtex UltraScale+ VU9P",
    luts=1_182_000,
    flip_flops=2_364_000,
    frequency_mhz=150.0,
    bram_bytes=44 * 1024 * 1024,
    dsp_slices=6_840,
)

# Intel Arria 10 (mentioned in §5.2 as a smaller-BRAM alternative); useful for
# sensitivity studies of the hardware generator.
ARRIA_10 = FPGASpec(
    name="Intel Arria 10 GX",
    luts=427_200,
    flip_flops=1_708_800,
    frequency_mhz=150.0,
    bram_bytes=7 * 1024 * 1024,
    dsp_slices=1_518,
)

DEFAULT_FPGA = ULTRASCALE_PLUS_VU9P
