//! Slot-kernel benchmark snapshots: capture, render, diff.
//!
//! `cargo xtask bench-snapshot` runs the `slot_kernel` Criterion bench
//! and records one entry per node count in `BENCH_slot_kernel.json` at
//! the workspace root — the PR-over-PR throughput trajectory of the
//! steady-state slot loop. `--check` re-runs the bench and fails when
//! any measured node count regressed more than
//! [`REGRESSION_TOLERANCE`] against the checked-in snapshot (CI caps
//! the sweep via `NEOFOG_SLOT_KERNEL_MAX_NODES`, so only the node
//! counts actually measured are compared).
//!
//! Everything here is hand-rolled string work: the build environment
//! has no JSON backend, and the bench harness's output format
//! (`group/name: 1.234ms/iter (5678 elem/s)`) is the stable contract
//! this module parses.

/// Workspace-root file the snapshot lives in.
pub const SNAPSHOT_FILE: &str = "BENCH_slot_kernel.json";

/// Bench group the snapshot records.
pub const BENCH_GROUP: &str = "slot_kernel";

/// Allowed per-iteration slowdown before `--check` fails (0.15 = 15 %).
pub const REGRESSION_TOLERANCE: f64 = 0.15;

/// Which topology a sweep point ran (the bench id's middle segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Topo {
    /// Linear chain (`slot_kernel/nodes/N`, the historical id).
    Chain,
    /// Seeded Erdős-Rényi mesh (`slot_kernel/mesh/N`).
    Mesh,
    /// Sensors→gateways→cloud tiers (`slot_kernel/tiered/N`).
    Tiered,
}

impl Topo {
    /// The bench-id segment (and snapshot `topo` value) of the variant.
    #[must_use]
    pub fn segment(self) -> &'static str {
        match self {
            Topo::Chain => "nodes",
            Topo::Mesh => "mesh",
            Topo::Tiered => "tiered",
        }
    }

    fn from_segment(seg: &str) -> Option<Topo> {
        match seg {
            "nodes" => Some(Topo::Chain),
            "mesh" => Some(Topo::Mesh),
            "tiered" => Some(Topo::Tiered),
            _ => None,
        }
    }
}

/// One measured point: a topology, a node count and its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchEntry {
    /// Topology variant of the sweep point.
    pub topo: Topo,
    /// Chain width (physical nodes).
    pub nodes: u64,
    /// Wall time of one `advance(1)` in nanoseconds.
    pub per_iter_ns: u64,
    /// Node-slots per second (`nodes / per_iter`).
    pub elem_per_s: u64,
}

impl BenchEntry {
    /// Sort/merge identity of the point.
    fn key(&self) -> (Topo, u64) {
        (self.topo, self.nodes)
    }
}

/// Parses the bench harness's stdout, keeping
/// `slot_kernel/{nodes,mesh,tiered}/N` lines. Unrecognized lines
/// (cargo noise, other groups) are skipped.
#[must_use]
pub fn parse_bench_output(text: &str) -> Vec<BenchEntry> {
    let mut entries: Vec<BenchEntry> = text.lines().filter_map(parse_bench_line).collect();
    entries.sort_by_key(BenchEntry::key);
    entries
}

fn parse_bench_line(line: &str) -> Option<BenchEntry> {
    // `slot_kernel/nodes/1000: 170.452µs/iter (5866754 elem/s)`
    let rest = line.strip_prefix(BENCH_GROUP)?.strip_prefix('/')?;
    let (segment, rest) = rest.split_once('/')?;
    let topo = Topo::from_segment(segment)?;
    let (nodes, rest) = rest.split_once(": ")?;
    let nodes: u64 = nodes.trim().parse().ok()?;
    let (duration, rest) = rest.split_once("/iter")?;
    let per_iter_ns = parse_duration_ns(duration.trim())?;
    let elem = rest.trim().strip_prefix('(')?.strip_suffix("elem/s)")?;
    let elem_per_s: u64 = elem.trim().parse().ok()?;
    Some(BenchEntry {
        topo,
        nodes,
        per_iter_ns,
        elem_per_s,
    })
}

/// Parses `Duration`'s `Debug` rendering (`999ns`, `170.452µs`,
/// `2.949ms`, `4.863s`) into nanoseconds.
fn parse_duration_ns(text: &str) -> Option<u64> {
    let (value, scale) = if let Some(v) = text.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = text.strip_suffix("µs") {
        (v, 1e3)
    } else if let Some(v) = text.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = text.strip_suffix('s') {
        (v, 1e9)
    } else {
        return None;
    };
    let value: f64 = value.trim().parse().ok()?;
    if !value.is_finite() || value < 0.0 {
        return None;
    }
    Some((value * scale).round() as u64)
}

/// Renders the snapshot file: one entry per line, diff-stable.
#[must_use]
pub fn render(entries: &[BenchEntry]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"bench\": \"{BENCH_GROUP}\",\n"));
    s.push_str("  \"unit\": \"per_iter_ns = one advance(1) call; elem_per_s = node-slots/s\",\n");
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"topo\": \"{}\", \"nodes\": {}, \"per_iter_ns\": {}, \"elem_per_s\": {}}}{comma}\n",
            e.topo.segment(),
            e.nodes,
            e.per_iter_ns,
            e.elem_per_s
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parses a snapshot file written by [`render`] (entry-per-line; the
/// fields are read by key, so field order is free). Entries with no
/// `topo` field are chain points — snapshots from before the topology
/// sweep existed stay comparable.
#[must_use]
pub fn parse_snapshot(text: &str) -> Vec<BenchEntry> {
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with('{') || !line.contains("\"nodes\"") {
            continue;
        }
        let (Some(nodes), Some(per_iter_ns), Some(elem_per_s)) = (
            field_u64(line, "nodes"),
            field_u64(line, "per_iter_ns"),
            field_u64(line, "elem_per_s"),
        ) else {
            continue;
        };
        let topo = field_str(line, "topo")
            .and_then(Topo::from_segment)
            .unwrap_or(Topo::Chain);
        entries.push(BenchEntry {
            topo,
            nodes,
            per_iter_ns,
            elem_per_s,
        });
    }
    entries.sort_by_key(BenchEntry::key);
    entries
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = line.split_once(&format!("\"{key}\""))?.1;
    let rest = rest.split_once(':')?.1;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split_once(&format!("\"{key}\""))?.1;
    let rest = rest.split_once(':')?.1.trim_start().strip_prefix('"')?;
    rest.split_once('"').map(|(v, _)| v)
}

/// Merges freshly measured entries into an existing snapshot: measured
/// node counts are replaced, unmeasured ones (e.g. the 10⁶ entry when
/// the sweep was capped) are kept.
#[must_use]
pub fn merge(existing: &[BenchEntry], measured: &[BenchEntry]) -> Vec<BenchEntry> {
    let mut merged: Vec<BenchEntry> = existing
        .iter()
        .filter(|e| measured.iter().all(|m| m.key() != e.key()))
        .copied()
        .collect();
    merged.extend_from_slice(measured);
    merged.sort_by_key(BenchEntry::key);
    merged
}

/// Compares measured entries against the checked-in snapshot.
/// Returns human-readable regression lines (empty = pass). Node counts
/// missing from the snapshot are reported as regressions: a new sweep
/// point must be snapshotted before CI can guard it.
#[must_use]
pub fn regressions(snapshot: &[BenchEntry], measured: &[BenchEntry]) -> Vec<String> {
    let mut problems = Vec::new();
    for m in measured {
        match snapshot.iter().find(|s| s.key() == m.key()) {
            None => problems.push(format!(
                "{}/{}: not in {SNAPSHOT_FILE}; run `cargo xtask bench-snapshot` to record it",
                m.topo.segment(),
                m.nodes
            )),
            Some(s) => {
                let limit = s.per_iter_ns as f64 * (1.0 + REGRESSION_TOLERANCE);
                if m.per_iter_ns as f64 > limit {
                    problems.push(format!(
                        "{}/{}: {} ns/iter vs {} ns/iter snapshotted \
                         (+{:.1} %, tolerance {:.0} %)",
                        m.topo.segment(),
                        m.nodes,
                        m.per_iter_ns,
                        s.per_iter_ns,
                        (m.per_iter_ns as f64 / s.per_iter_ns as f64 - 1.0) * 100.0,
                        REGRESSION_TOLERANCE * 100.0
                    ));
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
   Compiling neofog-bench v0.1.0 (/repo/crates/bench)
slot_kernel/nodes/1000: 170.452µs/iter (5866754 elem/s)
slot_kernel/nodes/10000: 2.949106ms/iter (3390858 elem/s)
slot_kernel/nodes/1000000: 4.86318582s/iter (205627 elem/s)
slot_kernel/mesh/1000: 201.5µs/iter (4962779 elem/s)
slot_kernel/tiered/1000: 180µs/iter (5555555 elem/s)
slot_kernel/ring/9: 1ms/iter (9 elem/s)
other_group/nodes/7: 1ms/iter (7 elem/s)
";

    #[test]
    fn parses_bench_output_across_duration_units() {
        let entries = parse_bench_output(SAMPLE);
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[0].nodes, 1_000);
        assert_eq!(entries[0].topo, Topo::Chain);
        assert_eq!(entries[0].per_iter_ns, 170_452);
        assert_eq!(entries[0].elem_per_s, 5_866_754);
        assert_eq!(entries[1].per_iter_ns, 2_949_106);
        assert_eq!(entries[2].per_iter_ns, 4_863_185_820);
        assert_eq!(
            entries[3],
            BenchEntry {
                topo: Topo::Mesh,
                nodes: 1_000,
                per_iter_ns: 201_500,
                elem_per_s: 4_962_779,
            }
        );
        assert_eq!(entries[4].topo, Topo::Tiered);
        assert_eq!(parse_duration_ns("999ns"), Some(999));
    }

    #[test]
    fn snapshots_without_topo_parse_as_chain_points() {
        let legacy = "\
{
  \"entries\": [
    {\"nodes\": 1000, \"per_iter_ns\": 170452, \"elem_per_s\": 5866754}
  ]
}
";
        let entries = parse_snapshot(legacy);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].topo, Topo::Chain);
        assert_eq!(entries[0].per_iter_ns, 170_452);
    }

    #[test]
    fn snapshot_render_parse_round_trips() {
        let entries = parse_bench_output(SAMPLE);
        let rendered = render(&entries);
        assert_eq!(parse_snapshot(&rendered), entries);
    }

    #[test]
    fn merge_keeps_unmeasured_points() {
        let existing = parse_bench_output(SAMPLE);
        let measured = [BenchEntry {
            topo: Topo::Chain,
            nodes: 1_000,
            per_iter_ns: 100_000,
            elem_per_s: 10_000_000,
        }];
        let merged = merge(&existing, &measured);
        assert_eq!(merged.len(), 5);
        assert_eq!(merged[0].per_iter_ns, 100_000, "measured point replaced");
        assert_eq!(merged[2].nodes, 1_000_000, "capped-out point kept");
        assert_eq!(merged[3].topo, Topo::Mesh, "mesh point kept");
    }

    #[test]
    fn regression_gate_trips_beyond_tolerance_only() {
        let snapshot = [BenchEntry {
            topo: Topo::Chain,
            nodes: 1_000,
            per_iter_ns: 100_000,
            elem_per_s: 10_000_000,
        }];
        let within = [BenchEntry {
            topo: Topo::Chain,
            nodes: 1_000,
            per_iter_ns: 114_000,
            elem_per_s: 8_771_929,
        }];
        assert!(regressions(&snapshot, &within).is_empty());
        let beyond = [BenchEntry {
            topo: Topo::Chain,
            nodes: 1_000,
            per_iter_ns: 116_000,
            elem_per_s: 8_620_689,
        }];
        assert_eq!(regressions(&snapshot, &beyond).len(), 1);
        let unknown = [BenchEntry {
            topo: Topo::Chain,
            nodes: 5_000,
            per_iter_ns: 1,
            elem_per_s: 1,
        }];
        assert_eq!(regressions(&snapshot, &unknown).len(), 1);
        // A mesh point at a snapshotted chain width is still unknown:
        // the identity is (topo, nodes), not nodes alone.
        let cross_topo = [BenchEntry {
            topo: Topo::Mesh,
            nodes: 1_000,
            per_iter_ns: 100_000,
            elem_per_s: 10_000_000,
        }];
        assert_eq!(regressions(&snapshot, &cross_topo).len(), 1);
    }
}
