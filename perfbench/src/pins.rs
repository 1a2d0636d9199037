//! Result digests pinned per workload and seed (`pins.txt`).
//!
//! Each line is `<workload> <seed> <digest in hex>`; `#` starts a
//! comment. A pure speed change leaves every pin valid. A change that
//! alters simulated behaviour re-pins with `--print-pin` (see the
//! README) and says why in its description.

use crate::workloads::Workload;

const PINS: &str = include_str!("../pins.txt");

/// The pinned digest of `workload` at `seed`, if there is one.
pub fn lookup(workload: Workload, seed: u64) -> Option<u64> {
    PINS.lines()
        .map(|l| l.split('#').next().unwrap_or_default())
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
            Some((w, s.parse::<u64>().ok()?, u64::from_str_radix(d, 16).ok()?))
        })
        .find(|&(w, s, _)| w == workload.name() && s == seed)
        .map(|(_, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{DEFAULT_SEED, HELD_OUT_SEED};

    #[test]
    fn default_and_held_out_seeds_are_pinned() {
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert!(lookup(w, seed).is_some(), "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn every_pin_line_parses() {
        for line in PINS.lines() {
            let line = line.split('#').next().unwrap_or_default().trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 3, "{line}");
            let w = Workload::parse(fields[0]).expect("known workload");
            let seed: u64 = fields[1].parse().expect("numeric seed");
            assert!(lookup(w, seed).is_some(), "{line}");
        }
    }
}
