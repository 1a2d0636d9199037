//! The paper's measured RF timing/energy formulas as pure functions.
//!
//! All constants come from §4 ("Simulation Methodology"), measured on
//! real ML7266 Zigbee hardware with and without the fabricated NVRF.

use neofog_types::{Duration, Energy, Power};
use serde::{Deserialize, Serialize};

/// Measured radio constants bundled into one value so experiments can
/// ablate them (e.g. sweep the init cost).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RfTimings {
    /// Power while transmitting or receiving (paper: 89.1 mW).
    pub active_power: Power,
    /// Power while idle/standby (paper: 14.93 mW).
    pub idle_power: Power,
    /// Software (host-MCU driven) initialization (paper: 531 ms @1 MHz).
    pub software_init: Duration,
    /// Per-transmission fixed software overhead (paper: 255 ms).
    pub software_tx_fixed: Duration,
    /// Per-byte software handling (paper: 1.44 ms/byte).
    pub software_tx_per_byte_us: u64,
    /// NVRF one-time configuration by the processor (paper: 28 ms).
    pub nvrf_init: Duration,
    /// NVRF start latency per transmission (paper: 1.74 ms).
    pub nvrf_start: Duration,
    /// NVRF fixed per-transmission overhead (paper: 0.156 ms).
    pub nvrf_tx_fixed: Duration,
    /// NVRF per-byte handling (paper: 0.216 ms/byte).
    pub nvrf_tx_per_byte_us: u64,
    /// On-air time per byte at 250 kbps (paper: 0.032 ms/byte).
    pub on_air_per_byte_us: u64,
}

impl RfTimings {
    /// The ML7266 constants measured in the paper.
    #[must_use]
    pub fn paper_default() -> Self {
        RfTimings {
            active_power: Power::from_milliwatts(89.1),
            idle_power: Power::from_milliwatts(14.93),
            software_init: Duration::from_millis(531),
            software_tx_fixed: Duration::from_millis(255),
            software_tx_per_byte_us: 1_440,
            nvrf_init: Duration::from_millis(28),
            nvrf_start: Duration::from_micros(1_740),
            nvrf_tx_fixed: Duration::from_micros(156),
            nvrf_tx_per_byte_us: 216,
            on_air_per_byte_us: 32,
        }
    }

    /// Software-RF transmission time for `n` bytes:
    /// `255 + 1.44·n + 0.032·n` ms.
    #[must_use]
    pub fn software_tx_time(&self, n: u32) -> Duration {
        self.software_tx_fixed
            + Duration::from_micros(
                u64::from(n) * (self.software_tx_per_byte_us + self.on_air_per_byte_us),
            )
    }

    /// NVRF transmission time for `n` bytes:
    /// `1.74 + 0.156 + 0.216·n + 0.032·n` ms.
    #[must_use]
    pub fn nvrf_tx_time(&self, n: u32) -> Duration {
        self.nvrf_start
            + self.nvrf_tx_fixed
            + Duration::from_micros(
                u64::from(n) * (self.nvrf_tx_per_byte_us + self.on_air_per_byte_us),
            )
    }

    /// Pure on-air time for `n` bytes (the 250 kbps airtime).
    #[must_use]
    pub fn on_air_time(&self, n: u32) -> Duration {
        Duration::from_micros(u64::from(n) * self.on_air_per_byte_us)
    }

    /// Pure on-air energy for `n` bytes — the "TX energy" column of
    /// Table 2 (2851.2 nJ/byte at the paper's operating point).
    #[must_use]
    pub fn on_air_energy(&self, n: u32) -> Energy {
        self.active_power * self.on_air_time(n)
    }

    /// Energy of a software-RF transmission (active power over the
    /// whole handling + airtime window).
    #[must_use]
    pub fn software_tx_energy(&self, n: u32) -> Energy {
        self.active_power * self.software_tx_time(n)
    }

    /// Energy of an NVRF transmission.
    #[must_use]
    pub fn nvrf_tx_energy(&self, n: u32) -> Energy {
        self.active_power * self.nvrf_tx_time(n)
    }

    /// Init-time speedup of NVRF over software control (paper: ~19×
    /// for the ML7266 figures; the earlier prototype reported 27×).
    #[must_use]
    pub fn init_speedup(&self) -> f64 {
        self.software_init.as_micros() as f64 / self.nvrf_init.as_micros() as f64
    }

    /// Effective throughput (bytes/s) for back-to-back `n`-byte
    /// transmissions under each control scheme.
    #[must_use]
    pub fn throughput_gain(&self, n: u32) -> f64 {
        let sw = self.software_tx_time(n).as_micros() as f64;
        let nv = self.nvrf_tx_time(n).as_micros() as f64;
        sw / nv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_air_energy_matches_table2() {
        let t = RfTimings::paper_default();
        // 2851.2 nJ per byte; bridge health sends 8 bytes -> 22809.6 nJ.
        assert!((t.on_air_energy(1).as_nanojoules() - 2851.2).abs() < 1e-9);
        assert!((t.on_air_energy(8).as_nanojoules() - 22_809.6).abs() < 1e-9);
        assert!((t.on_air_energy(6).as_nanojoules() - 17_107.2).abs() < 1e-9);
        assert!((t.on_air_energy(2).as_nanojoules() - 5_702.4).abs() < 1e-9);
    }

    #[test]
    fn software_tx_formula() {
        let t = RfTimings::paper_default();
        // 255 + (1.44+0.032)*100 = 402.2 ms
        assert_eq!(t.software_tx_time(100), Duration::from_micros(402_200));
    }

    #[test]
    fn nvrf_tx_formula() {
        let t = RfTimings::paper_default();
        // 1.74 + 0.156 + (0.216+0.032)*100 = 26.696 ms
        assert_eq!(t.nvrf_tx_time(100), Duration::from_micros(26_696));
    }

    #[test]
    fn nvrf_init_is_much_faster() {
        let t = RfTimings::paper_default();
        assert!(t.init_speedup() > 15.0);
        assert!(t.nvrf_init < t.software_init);
    }

    #[test]
    fn nvrf_throughput_gain_is_large() {
        let t = RfTimings::paper_default();
        // The paper reports 6.2x throughput for NVRF overall; for
        // small WSN frames the formula gain is much larger, for bulk
        // transfers it approaches the per-byte ratio ≈ 5.9x.
        assert!(t.throughput_gain(8) > 6.0);
        assert!(t.throughput_gain(60_000) > 5.0);
    }

    #[test]
    fn zero_bytes_cost_only_fixed_overheads() {
        let t = RfTimings::paper_default();
        assert_eq!(t.on_air_time(0), Duration::ZERO);
        assert_eq!(t.software_tx_time(0), Duration::from_millis(255));
        assert_eq!(t.nvrf_tx_time(0), Duration::from_micros(1_896));
    }
}
