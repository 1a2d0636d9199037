//! Phase 5 — transmit: ship outboxes into the chain mesh.
//!
//! A node with ready packages opens a radio session (531 ms software
//! init / 33 ms NVM restore / 1.9 ms NVRF start depending on the
//! system) and ships packages processed-first; the MAC layer relays
//! transparently (§2.3), so delivery succeeds with the measured
//! per-hop probability compounded over the hop count, and awake
//! intermediate nodes are charged forwarding airtime. Those delivery
//! odds depend only on the sender's position, so `Simulator::new`
//! compounds them once per position and the sweep reads one `f64`.
//!
//! The packets a session sends leave the front of the outbox in one
//! drain.
//!
//! Relay duty is accumulated as a *difference array*: each packet
//! marks its byte count at its source position (one store), and a
//! single sweep over the route plan in decreasing-hop order (children
//! before parents) turns the marks into per-position duty — every
//! position relays exactly the bytes sourced at the positions that
//! route through it. On a chain the sweep order is `[n-1, …, 0]` and
//! each position has one child, so the sweep *is* the reverse
//! suffix-sum of the row pipeline: the same `u64` additions in the
//! same order, bit-identical charged duties. The row pipeline walked
//! `forward_bytes[0..pos]` per packet, which made a full-chain slot
//! O(positions²); the sweep is O(positions) on any topology.

use super::ctx::SlotCtx;
use super::event::{RadioPurpose, SimEvent};
use super::Simulator;
use neofog_types::Duration;

#[expect(
    clippy::indexing_slicing,
    reason = "phase functions loop over per-node vectors all sized to the node count"
)]
pub(super) fn run(sim: &mut Simulator, ctx: &mut SlotCtx) {
    let (parts, mut bus) = sim.split();
    let radio = parts.cfg.node.radio;
    let package = parts.cfg.node.package;
    let session = radio.session_cost(parts.rf);
    let n_pos = parts.cfg.positions;
    // Per-position relay marks this slot, folded into duty below
    // (scratch vector: capacity persists across slots).
    ctx.forward_bytes.resize(n_pos, 0);

    for i in 0..parts.nodes.len() {
        if !parts.nodes.awake[i] {
            continue;
        }
        let mut view = parts.nodes.view(i);
        if view.outbox.is_empty() {
            continue;
        }
        let position = view.position;
        // Processed packages first: smaller and more valuable. A
        // stable two-pass partition through the package scratch keeps
        // the relative order `sort_by_key` gave without its potential
        // temporary allocation.
        ctx.pkg_scratch.clear();
        ctx.pkg_scratch
            .extend(view.outbox.iter().filter(|p| p.fog_done));
        ctx.pkg_scratch
            .extend(view.outbox.iter().filter(|p| !p.fog_done));
        view.outbox.clear();
        view.outbox.extend_from_slice(&ctx.pkg_scratch);
        // Open the session only when the first packet is payable
        // too — bringing the radio up and then browning out before
        // anything is sent would waste the whole session.
        let first = view.outbox[0];
        let first_bytes = if first.fog_done {
            package.processed_bytes
        } else {
            package.raw_bytes
        };
        let first_cost = radio.packet_cost(parts.rf, first_bytes);
        if view.available() < session + first_cost {
            continue;
        }
        if !view.spend(&mut ctx.ledgers[i], session) {
            continue;
        }
        bus.emit(&SimEvent::RadioCharged {
            node: i,
            energy: session,
            purpose: RadioPurpose::Session,
        });
        // End-to-end delivery through the transparent MAC: per-hop
        // loss compounded over the route-plan hops to the sink edge.
        let delivery_odds = parts.delivery_odds[position];
        let mut sent = 0;
        while let Some(&pkg) = view.outbox.get(sent) {
            let bytes = if pkg.fog_done {
                package.processed_bytes
            } else {
                package.raw_bytes
            };
            let cost = radio.packet_cost(parts.rf, bytes);
            if !view.spend(&mut ctx.ledgers[i], cost) {
                break;
            }
            bus.emit(&SimEvent::RadioCharged {
                node: i,
                energy: cost,
                purpose: RadioPurpose::Packet,
            });
            sent += 1;
            let delivered = view.rng.chance(delivery_odds);
            // Relay duty: mark the bytes at the source position; the
            // route sweep below credits them to every position on the
            // path to the sink.
            ctx.forward_bytes[position] += u64::from(bytes);
            let origin = pkg.origin as usize;
            if delivered {
                bus.emit(&SimEvent::PackageDelivered {
                    origin,
                    fog_done: pkg.fog_done,
                });
            } else {
                bus.emit(&SimEvent::PackageLost { origin });
            }
        }
        view.outbox.drain(..sent);
    }

    // Fold the per-source marks into per-position relay duty with one
    // pass over the route plan's decreasing-hop order (children before
    // parents): a position's duty is the byte total sourced at the
    // positions routing through it. On a chain this degenerates to the
    // reverse suffix-sum this pass replaced — same additions, same
    // order, bit-identical duties.
    ctx.route_acc.resize(n_pos, 0);
    for &v in parts.route.order() {
        let v = v as usize;
        let sourced = ctx.forward_bytes[v];
        let inherited = ctx.route_acc[v];
        ctx.forward_bytes[v] = inherited;
        if let Some(parent) = parts.route.next_hop(v) {
            ctx.route_acc[parent] += inherited + sourced;
        }
    }

    // Charge forwarding airtime to awake representatives of the
    // relay positions (RX + TX per byte).
    let multiplex = parts.cfg.multiplex as usize;
    for (pos, &bytes) in ctx.forward_bytes.iter().enumerate() {
        if bytes == 0 {
            continue;
        }
        let Some(rep) = parts.nodes.awake_clone(pos, multiplex) else {
            continue;
        };
        let per_byte =
            parts.rf.active_power * Duration::from_micros(2 * parts.rf.on_air_per_byte_us);
        let duty = per_byte * bytes as f64;
        let mut view = parts.nodes.view(rep);
        if view.spend(&mut ctx.ledgers[rep], duty) {
            bus.emit(&SimEvent::RadioCharged {
                node: rep,
                energy: duty,
                purpose: RadioPurpose::Relay,
            });
        }
    }
}
