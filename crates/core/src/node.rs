//! Node-level system kinds and their per-activation cost structure
//! (paper Figure 4).
//!
//! Three node designs are compared throughout the evaluation:
//!
//! * **NOS-VP** — volatile MCU, software RF, single-channel front-end.
//!   Every activation pays the VP restart, the full software RF
//!   initialization (531 ms) and a 255 ms per-transmission protocol
//!   session. Raw samples go to the cloud; there is no fog computing.
//! * **NOS-NVP** — nonvolatile processor, RF states restored from NVM
//!   "directly" so "the data transmission time reduces to 33 ms";
//!   still capacitor-bound (NOS front-end). Performs in-fog
//!   processing with the baseline tree balancer.
//! * **FIOS-NEOFog** — NVP + NVRF + dual-channel front-end. NVRF
//!   self-reinitializes in 1.74 ms and transmits in
//!   `(0.156 + 0.248·N)` ms; complex fog computation runs on the
//!   direct source-to-load channel; distributed load balancing.

use neofog_energy::FrontEnd;
use neofog_net::NodeTier;
use neofog_rf::RfTimings;
use neofog_types::{Duration, Energy, Power};
use serde::{Deserialize, Serialize};

/// The three evaluated node designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// Normally-off volatile-processor node.
    NosVp,
    /// Normally-off nonvolatile-processor node (baseline NVP).
    NosNvp,
    /// Frequently-intermittently-on NEOFog node (NVP + NVRF + FIOS).
    FiosNeoFog,
}

impl SystemKind {
    /// All three systems in presentation order.
    pub const ALL: [SystemKind; 3] = [
        SystemKind::NosVp,
        SystemKind::NosNvp,
        SystemKind::FiosNeoFog,
    ];

    /// Display label used in figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::NosVp => "NOS-VP",
            SystemKind::NosNvp => "NOS-NVP",
            SystemKind::FiosNeoFog => "FIOS-NEOFog",
        }
    }

    /// The front-end circuit of this design (Figure 5).
    #[must_use]
    pub fn front_end(self) -> FrontEnd {
        match self {
            SystemKind::FiosNeoFog => FrontEnd::fios(),
            _ => FrontEnd::nos(),
        }
    }

    /// `true` when this design performs in-fog processing.
    #[must_use]
    pub fn is_fog_capable(self) -> bool {
        !matches!(self, SystemKind::NosVp)
    }

    /// `true` when node state (queues, RF config) survives power-down.
    #[must_use]
    pub fn retains_state(self) -> bool {
        !matches!(self, SystemKind::NosVp)
    }

    /// The radio-control scheme each design ships with. The VP pays
    /// 531 ms software init plus a 170 ms network rebuild (Figure 4:
    /// "Rebuild RF (channels, join route etc.)", 30 ms-1 s) because it
    /// loses association state at power-down; the NVP variants restore
    /// it from NVM or the NVRF.
    #[must_use]
    pub fn radio_control(self) -> RadioControl {
        match self {
            SystemKind::NosVp => RadioControl::Software,
            SystemKind::NosNvp => RadioControl::NvmRestore,
            SystemKind::FiosNeoFog => RadioControl::Nvrf,
        }
    }

    /// Cost of receiving one `bytes`-byte packet (airtime at RX power,
    /// identical for all designs — the transceiver is the same chip).
    #[must_use]
    pub fn rx_cost(self, rf: &RfTimings, bytes: u32) -> Energy {
        rf.on_air_energy(bytes)
    }

    /// Minimum effective energy for the node to wake, boot and sample
    /// this slot. The NVP designs commit to buffering and fog work per
    /// activation, so their threshold is higher — the evaluation's
    /// "with a higher activation threshold, NVP nodes ... only exhibit
    /// 12383 wakeups" (vs 13656 for the VP).
    #[must_use]
    pub fn wake_threshold(self) -> Energy {
        match self {
            SystemKind::NosVp => Energy::from_millijoules(0.5),
            SystemKind::NosNvp | SystemKind::FiosNeoFog => Energy::from_millijoules(2.0),
        }
    }

    /// Boot + sample energy actually drawn on a wakeup (processor
    /// restart/restore plus a sensing burst).
    #[must_use]
    pub fn wake_cost(self) -> Energy {
        let sample = Energy::from_microjoules(60.0); // sensing burst + ADC
        match self {
            // 300 us restart at MCU power, plus sensing.
            SystemKind::NosVp => {
                Power::from_milliwatts(0.209) * Duration::from_micros(300) + sample
            }
            // 32 us / 7 us restores are negligible next to sensing.
            SystemKind::NosNvp | SystemKind::FiosNeoFog => {
                Power::from_milliwatts(0.209) * Duration::from_micros(32) + sample
            }
        }
    }
}

/// How the node's radio is (re)initialized — the axis the NVRF ablates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RadioControl {
    /// Host-software initialization: 531 ms init + 170 ms network
    /// rebuild per session, 255 ms protocol per packet.
    Software,
    /// NVP restoring RF state from NVM: 33 ms per session and packet.
    NvmRestore,
    /// The NVRF controller: 1.9 ms self-reinitialized sessions,
    /// 0.248 ms/byte packets.
    Nvrf,
}

impl RadioControl {
    /// Per-slot session cost for this control scheme.
    #[must_use]
    pub fn session_cost(self, rf: &RfTimings) -> Energy {
        match self {
            RadioControl::Software => {
                rf.active_power * (rf.software_init + Duration::from_millis(170))
            }
            RadioControl::NvmRestore => rf.active_power * Duration::from_millis(33),
            RadioControl::Nvrf => rf.active_power * (rf.nvrf_start + rf.nvrf_tx_fixed),
        }
    }

    /// Marginal per-packet cost within an open session.
    #[must_use]
    pub fn packet_cost(self, rf: &RfTimings, bytes: u32) -> Energy {
        let air = rf.on_air_energy(bytes);
        match self {
            RadioControl::Software => rf.active_power * rf.software_tx_fixed + air,
            RadioControl::NvmRestore => rf.active_power * Duration::from_millis(33) + air,
            RadioControl::Nvrf => {
                rf.active_power * Duration::from_micros(u64::from(bytes) * rf.nvrf_tx_per_byte_us)
                    + air
            }
        }
    }
}

/// What one "data package" of the evaluation is: a burst of sensor
/// samples that either travels raw to the cloud or is reduced in the
/// fog first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackageSpec {
    /// Bytes of the raw package (cloud path).
    pub raw_bytes: u32,
    /// Bytes after in-fog processing + compression.
    pub processed_bytes: u32,
    /// NVP instructions of the in-fog processing task.
    pub fog_instructions: u64,
}

impl PackageSpec {
    /// The evaluation default: a 64-byte raw burst reduced to 8 bytes
    /// by a 6 M-instruction offloaded kernel (≈15 mJ / 72 s at the
    /// 1 MHz base operating point, so a node needs several slots or a
    /// Spendthrift frequency boost per package — the contention that
    /// makes load balancing and the fog-vs-cloud trade interesting).
    #[must_use]
    pub fn paper_default() -> Self {
        PackageSpec {
            raw_bytes: 64,
            processed_bytes: 8,
            fog_instructions: 6_000_000,
        }
    }

    /// The heavier forest/bridge kernel (volumetric-map reconstruction
    /// and the three structural-strength models respectively): 12 M
    /// instructions per package, so even a 4x-boosted NVP needs three
    /// slots per package.
    #[must_use]
    pub fn heavy() -> Self {
        PackageSpec {
            fog_instructions: 12_000_000,
            ..Self::paper_default()
        }
    }

    /// Compression/reduction ratio of the fog path.
    #[must_use]
    pub fn reduction_ratio(&self) -> f64 {
        f64::from(self.processed_bytes) / f64::from(self.raw_bytes)
    }
}

/// Per-node platform capabilities, in the spirit of FogLite's
/// `NODES_CONFIG` rows: how fast the node computes relative to the
/// paper's sensor MCU, its radio front-end power envelope and its
/// uplink. The rows are fixed, one per topology tier (see
/// [`NodeCapabilities::for_tier`]); a simulation stores one row per
/// chain position, which that position's clones share.
///
/// The radio fields feed the Kryszkiewicz et al. offload energy model
/// (arXiv:2104.12913): shipping a task's data costs the front-end
/// `max_power × transfer_time + idle_power × base_latency`, where the
/// transfer time is rate-dependent — see
/// [`NodeCapabilities::ship_energy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeCapabilities {
    /// Execution-speed multiplier on the Spendthrift throughput
    /// (1.0 = the paper's sensor node).
    pub compute_rate: f64,
    /// Radio front-end idle (listening/settling) power.
    pub idle_power: Power,
    /// Radio front-end transmit power at full rate.
    pub max_power: Power,
    /// Uplink rate toward the sink, in Mbit/s.
    pub uplink_mbps: f64,
    /// Fixed per-transfer latency (association, settling).
    pub base_latency: Duration,
}

impl NodeCapabilities {
    /// Front-end energy to ship `bytes` one hop up the node's uplink,
    /// per the Kryszkiewicz model: transmit power for the
    /// rate-dependent transfer time, plus idle power over the fixed
    /// latency while the front-end waits on the link.
    #[must_use]
    pub fn ship_energy(&self, bytes: u32) -> Energy {
        let bits = f64::from(bytes) * 8.0;
        let transfer_secs = bits / (self.uplink_mbps.max(1e-9) * 1e6);
        let tx = Energy::from_nanojoules(self.max_power.as_watts() * transfer_secs * 1e9);
        tx + self.idle_power * self.base_latency
    }

    /// The capability row of a tier. FogLite-inspired: sensors at the
    /// paper's operating point on a slow LPWAN-class uplink, gateways
    /// 2× faster on a broadband link, the cloud 8× faster behind a WAN
    /// round-trip. Chains are all-sensor, so the sensor row is the only
    /// one the paper's goldens ever exercise.
    #[must_use]
    pub fn for_tier(tier: NodeTier) -> Self {
        match tier {
            NodeTier::Sensor => NodeCapabilities {
                compute_rate: 1.0,
                idle_power: Power::from_milliwatts(4.0),
                max_power: Power::from_milliwatts(89.1),
                uplink_mbps: 0.25,
                base_latency: Duration::from_millis(2),
            },
            NodeTier::Gateway => NodeCapabilities {
                compute_rate: 2.0,
                idle_power: Power::from_milliwatts(12.0),
                max_power: Power::from_milliwatts(180.0),
                uplink_mbps: 8.0,
                base_latency: Duration::from_millis(5),
            },
            NodeTier::Cloud => NodeCapabilities {
                compute_rate: 8.0,
                idle_power: Power::from_milliwatts(50.0),
                max_power: Power::from_milliwatts(500.0),
                uplink_mbps: 100.0,
                base_latency: Duration::from_millis(20),
            },
        }
    }
}

/// Full configuration of one simulated node: what a run may vary. The
/// rest of the node is fixed by the simulator: the main capacitor's
/// 65 % charge efficiency and 5 µW leak, the RTC and the harvester's
/// 85 % conversion efficiency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Radio-control scheme (defaults to the system's; override for
    /// ablation studies).
    pub radio: RadioControl,
    /// Front-end circuit (defaults to the system's; override for
    /// ablation studies).
    pub front_end: FrontEnd,
    /// Main super-capacitor capacity.
    pub cap_capacity: Energy,
    /// Initial charge fraction in `[0, 1]`.
    pub initial_charge: f64,
    /// The package/fog-task geometry.
    pub package: PackageSpec,
}

impl NodeConfig {
    /// Evaluation defaults for a system kind.
    #[must_use]
    pub fn paper_default(system: SystemKind) -> Self {
        NodeConfig {
            radio: system.radio_control(),
            front_end: system.front_end(),
            cap_capacity: Energy::from_millijoules(200.0),
            initial_charge: 0.5,
            package: PackageSpec::paper_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rf() -> RfTimings {
        RfTimings::paper_default()
    }

    #[test]
    fn session_costs_order_vp_gg_nvp_gg_neofog() {
        let vp = SystemKind::NosVp.radio_control().session_cost(&rf());
        let nvp = SystemKind::NosNvp.radio_control().session_cost(&rf());
        let neo = SystemKind::FiosNeoFog.radio_control().session_cost(&rf());
        assert!(vp > nvp * 10.0);
        assert!(nvp > neo * 10.0);
        // Absolute anchors: (531+170) ms & 33 ms at 89.1 mW.
        assert!((vp.as_millijoules() - 62.4591).abs() < 1e-9);
        assert!((nvp.as_millijoules() - 2.9403).abs() < 1e-9);
    }

    #[test]
    fn per_packet_costs_follow_the_formulas() {
        let neo = SystemKind::FiosNeoFog.radio_control().packet_cost(&rf(), 8);
        // 8 bytes * (0.216 + 0.032) ms * 89.1 mW = 176.8 uJ.
        assert!((neo.as_microjoules() - 176.7744).abs() < 1e-6);
        let vp = SystemKind::NosVp.radio_control().packet_cost(&rf(), 64);
        assert!(vp.as_millijoules() > 22.0);
    }

    #[test]
    fn nvp_threshold_exceeds_vp() {
        assert!(SystemKind::NosNvp.wake_threshold() > SystemKind::NosVp.wake_threshold());
        assert_eq!(
            SystemKind::NosNvp.wake_threshold(),
            SystemKind::FiosNeoFog.wake_threshold()
        );
    }

    #[test]
    fn only_vp_is_volatile_and_fogless() {
        assert!(!SystemKind::NosVp.is_fog_capable());
        assert!(!SystemKind::NosVp.retains_state());
        for s in [SystemKind::NosNvp, SystemKind::FiosNeoFog] {
            assert!(s.is_fog_capable());
            assert!(s.retains_state());
        }
    }

    #[test]
    fn front_ends_match_figure5() {
        assert!(!SystemKind::NosVp.front_end().has_direct_channel());
        assert!(!SystemKind::NosNvp.front_end().has_direct_channel());
        assert!(SystemKind::FiosNeoFog.front_end().has_direct_channel());
    }

    #[test]
    fn package_reduction_is_8x() {
        let p = PackageSpec::paper_default();
        assert!((p.reduction_ratio() - 0.125).abs() < 1e-12);
        // The fog task at the base operating point costs ~15 mJ.
        let e = p.fog_instructions as f64 * 2.508e-6; // mJ
        assert!((e - 15.048).abs() < 1e-9);
    }

    #[test]
    fn ship_energy_follows_the_front_end_model() {
        let caps = NodeCapabilities::for_tier(NodeTier::Sensor);
        // 64 bytes = 512 bits over 0.25 Mbit/s = 2.048 ms at 89.1 mW,
        // plus 2 ms idle at 4 mW.
        let e = caps.ship_energy(64);
        let expected_uj = 89.1 * 2.048 + 4.0 * 2.0;
        assert!((e.as_microjoules() - expected_uj).abs() < 1e-6);
        // Faster uplinks ship the same bytes cheaper.
        let cloud = NodeCapabilities::for_tier(NodeTier::Cloud);
        let scaled = NodeCapabilities {
            uplink_mbps: cloud.uplink_mbps,
            ..caps
        };
        assert!(scaled.ship_energy(64) < e);
    }

    #[test]
    fn faster_tiers_compute_faster() {
        let rate = |tier| NodeCapabilities::for_tier(tier).compute_rate;
        assert!((rate(NodeTier::Sensor) - 1.0).abs() < f64::EPSILON);
        assert!(rate(NodeTier::Gateway) > rate(NodeTier::Sensor));
        assert!(rate(NodeTier::Cloud) > rate(NodeTier::Gateway));
    }

    #[test]
    fn wake_cost_below_threshold() {
        for s in SystemKind::ALL {
            assert!(s.wake_cost() < s.wake_threshold());
        }
    }
}
