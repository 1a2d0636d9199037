//! Property tests: super-capacitor invariants under arbitrary
//! operation sequences.

use neofog_energy::{Rtc, SuperCap};
use neofog_types::{Duration, Energy, Power};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Charge(f64),
    Discharge(f64),
    Leak(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.0..50.0f64).prop_map(Op::Charge),
        (0.0..50.0f64).prop_map(Op::Discharge),
        (0u64..100).prop_map(Op::Leak),
    ]
}

fn mj(v: f64) -> Energy {
    Energy::from_millijoules(v)
}

proptest! {
    #[test]
    fn stored_stays_within_bounds(ops in prop::collection::vec(op(), 1..200)) {
        let cap = SuperCap::new(mj(100.0))
            .unwrap()
            .with_charge_efficiency(0.7)
            .with_leak(Power::from_microwatts(10.0));
        let mut stored = Energy::ZERO;
        for o in ops {
            match o {
                Op::Charge(v) => { cap.charge(&mut stored, mj(v)); }
                Op::Discharge(v) => { SuperCap::discharge_up_to(&mut stored, mj(v)); }
                Op::Leak(s) => { cap.leak(&mut stored, Duration::from_secs(s)); }
            }
            prop_assert!(stored >= Energy::ZERO);
            prop_assert!(stored <= cap.capacity() * (1.0 + 1e-12));
        }
    }

    #[test]
    fn energy_ledger_always_balances(ops in prop::collection::vec(op(), 1..200)) {
        let eff = 0.8;
        let cap = SuperCap::new(mj(100.0))
            .unwrap()
            .with_charge_efficiency(eff)
            .with_leak(Power::from_microwatts(5.0));
        let initial = Energy::ZERO;
        let mut stored = initial;
        let (mut banked, mut delivered, mut leaked) = (Energy::ZERO, Energy::ZERO, Energy::ZERO);
        for o in ops {
            match o {
                Op::Charge(v) => {
                    let input = mj(v);
                    let receipt = cap.charge(&mut stored, input);
                    // banked = (input − rejected) × efficiency: only the
                    // accepted share of the input pays conversion loss.
                    let expected = ((input - receipt.rejected) * eff).as_nanojoules();
                    let got = receipt.banked.as_nanojoules();
                    prop_assert!((got - expected).abs() < 1e-6 * expected.abs().max(1.0),
                        "{got} vs {expected}");
                    banked += receipt.banked;
                }
                Op::Discharge(v) => {
                    delivered += SuperCap::discharge_up_to(&mut stored, mj(v));
                }
                Op::Leak(s) => leaked += cap.leak(&mut stored, Duration::from_secs(s)),
            }
        }
        // stored = initial + banked − delivered − leaked (within float
        // tolerance)
        let lhs = (initial + banked).as_nanojoules();
        let rhs = (delivered + leaked + stored).as_nanojoules();
        prop_assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    /// The RTC resync draws its whole cost or nothing.
    #[test]
    fn resync_discharge_is_all_or_nothing(
        initial in 0.0..100.0f64,
        ask in 0.0..200.0f64,
    ) {
        let rtc = Rtc::new(mj(100.0), Power::ZERO).unwrap();
        let (mut stored, mut synced) = (mj(initial), false);
        let before = stored;
        if rtc.resynchronize(&mut stored, &mut synced, mj(ask)) {
            prop_assert!(synced);
            let spent = (before - stored).as_millijoules();
            prop_assert!((spent - ask).abs() < 1e-9);
        } else {
            prop_assert!(!synced);
            prop_assert_eq!(stored, before);
        }
    }
}
