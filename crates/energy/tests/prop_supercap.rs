//! Property tests: super-capacitor invariants under arbitrary
//! operation sequences.

use neofog_energy::SuperCap;
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

proptest! {
    #[test]
    fn stored_stays_within_bounds(ops in prop::collection::vec(op(), 1..200)) {
        let mut cap = SuperCap::new(Energy::from_millijoules(100.0))
            .with_charge_efficiency(0.7)
            .with_leak(Power::from_microwatts(10.0));
        for o in ops {
            match o {
                Op::Charge(mj) => { cap.charge(Energy::from_millijoules(mj)); }
                Op::Discharge(mj) => { cap.discharge_up_to(Energy::from_millijoules(mj)); }
                Op::Leak(s) => cap.leak(Duration::from_secs(s)),
            }
            prop_assert!(cap.stored() >= Energy::ZERO);
            prop_assert!(cap.stored() <= cap.capacity() * (1.0 + 1e-12));
        }
    }

    #[test]
    fn energy_ledger_always_balances(ops in prop::collection::vec(op(), 1..200)) {
        let eff = 0.8;
        let mut cap = SuperCap::new(Energy::from_millijoules(100.0))
            .with_charge_efficiency(eff)
            .with_leak(Power::from_microwatts(5.0));
        let initial = cap.stored();
        let (mut banked, mut delivered, mut leaked) = (Energy::ZERO, Energy::ZERO, Energy::ZERO);
        for o in ops {
            match o {
                Op::Charge(mj) => {
                    let input = Energy::from_millijoules(mj);
                    let receipt = cap.charge_metered(input);
                    // banked = (input − rejected) × efficiency: only the
                    // accepted share of the input pays conversion loss.
                    let expected = ((input - receipt.rejected) * eff).as_nanojoules();
                    let got = receipt.banked.as_nanojoules();
                    prop_assert!((got - expected).abs() < 1e-6 * expected.abs().max(1.0),
                        "{got} vs {expected}");
                    banked += receipt.banked;
                }
                Op::Discharge(mj) => {
                    delivered += cap.discharge_up_to(Energy::from_millijoules(mj));
                }
                Op::Leak(s) => leaked += cap.leak_metered(Duration::from_secs(s)),
            }
        }
        // stored = initial + banked − delivered − leaked (within float
        // tolerance)
        let lhs = (initial + banked).as_nanojoules();
        let rhs = (delivered + leaked + cap.stored()).as_nanojoules();
        prop_assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn try_discharge_is_all_or_nothing(
        initial in 0.0..100.0f64,
        ask in 0.0..200.0f64,
    ) {
        let mut cap = SuperCap::new(Energy::from_millijoules(100.0))
            .with_initial(Energy::from_millijoules(initial));
        let before = cap.stored();
        match cap.try_discharge(Energy::from_millijoules(ask)) {
            Ok(()) => {
                let spent = (before - cap.stored()).as_millijoules();
                prop_assert!((spent - ask).abs() < 1e-9);
            }
            Err(_) => prop_assert_eq!(cap.stored(), before),
        }
    }
}
