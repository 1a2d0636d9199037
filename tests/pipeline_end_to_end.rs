//! Integration test: the full FIOS data path with the *real* kernels —
//! sense → NV-buffer → process → compress → packetize → decompress — is
//! lossless and preserves the application result.

use neofog::prelude::*;
use neofog::rf::{Packet, PacketKind};
use neofog::sensors::{SensorKind, SignalGenerator};
use neofog::types::PacketId;
use neofog::workloads::compress::{compress, decompress};
use neofog::workloads::pattern::{bytes_to_signal, find_matches};
use neofog::workloads::strength::{assess_strength, CableSpec, Environment};

fn beat_template() -> Vec<f64> {
    (0..60)
        .map(|t| {
            let t = f64::from(t);
            if t < 6.0 {
                100.0 * (std::f64::consts::PI * t / 6.0).sin()
            } else if t < 40.0 {
                15.0 * (std::f64::consts::PI * (t - 6.0) / 34.0).sin()
            } else {
                0.0
            }
        })
        .collect()
}

#[test]
fn ecg_batch_round_trips_through_the_whole_stack() {
    // Sense into the NV buffer.
    let mut gen = SignalGenerator::new(SensorKind::EcgFrontend, 31);
    let batch = gen.generate(8192);
    let mut buffer = NvBuffer::new(8192);
    for _ in &batch {
        buffer.push(1).unwrap();
    }
    assert!(buffer.is_full());

    // Process at the edge: count beats before shipping.
    let beats_at_edge = find_matches(&bytes_to_signal(&batch), &beat_template(), 0.8).len();
    assert!(
        beats_at_edge > 30,
        "expected beats in 8192 samples, got {beats_at_edge}"
    );

    // Compress and packetize.
    let packed = compress(&batch);
    assert!(packed.len() < batch.len() / 6, "ratio {}", packed.len());
    let pkt = Packet::with_payload(
        PacketId::new(1),
        NodeId::new(5),
        NodeId::new(0),
        PacketKind::Processed,
        bytes::Bytes::from(packed),
    );

    // The sink decompresses the packet payload and reproduces the edge
    // result exactly (link loss is the simulator's concern).
    let restored = decompress(&pkt.payload).unwrap();
    assert_eq!(restored, batch, "lossless end to end");
    let beats_at_sink = find_matches(&bytes_to_signal(&restored), &beat_template(), 0.8).len();
    assert_eq!(beats_at_sink, beats_at_edge);
}

#[test]
fn bridge_pipeline_detects_loosened_cable() {
    // Two synthetic cables: taut (high-frequency vibration) vs slack.
    let n = 512;
    let make = |k: usize| -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * k as f64 * i as f64 / n as f64).sin())
            .collect()
    };
    let cable = CableSpec::typical();
    let env = Environment::reference();
    let taut = assess_strength(&make(24), &cable, &env);
    let slack = assess_strength(&make(6), &cable, &env);
    assert!(taut.mean_tension > slack.mean_tension * 4.0);
    assert!(taut.energy_index > slack.energy_index);
}

#[test]
fn buffered_strategy_beats_naive_for_every_app() {
    // The pipeline abstraction agrees with the Table 2 economics.
    for app in App::ALL {
        let naive = TaskPipeline::for_app(app, Strategy::Naive);
        let buffered = TaskPipeline::for_app(app, Strategy::Buffered);
        let naive_tx_per_sample = naive.total_tx_bytes() as f64 / naive.total_samples() as f64;
        let buf_tx_per_sample = buffered.total_tx_bytes() as f64 / buffered.total_samples() as f64;
        assert!(buf_tx_per_sample < 0.15 * naive_tx_per_sample, "{app:?}");
        assert_eq!(
            app.energy_row().energy_saved_ratio.signum(),
            -1.0,
            "{app:?}"
        );
    }
}

#[test]
fn sensor_payload_sizes_flow_into_packets() {
    // The rf cost of one naive sample transmission uses the sensor's
    // payload: cross-crate consistency check.
    let rf = neofog::rf::RfTimings::paper_default();
    for app in [App::UvMeter, App::WsnTemp, App::PatternMatching] {
        let spec = neofog::sensors::SensorSpec::of(app.sensor());
        assert_eq!(spec.bytes_per_sample, app.payload_bytes(), "{app:?}");
        let airtime = rf.on_air_time(spec.bytes_per_sample);
        assert_eq!(airtime.as_micros(), u64::from(spec.bytes_per_sample) * 32);
    }
}
