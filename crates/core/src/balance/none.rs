//! The no-op balancer (the "VP w/o Load Balance" baseline).

use super::{BalanceReport, ChainBalanceInput, LoadBalancer};

/// Leaves every node's tasks untouched — Figure 6(b): "absent load
/// balancing, efficiency is very low".
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBalancer;

impl LoadBalancer for NoBalancer {
    fn name(&self) -> &'static str {
        "none"
    }

    fn balance(&mut self, _chain: &mut ChainBalanceInput) -> BalanceReport {
        BalanceReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::test_util::chain;

    #[test]
    fn moves_nothing() {
        let mut input = chain(&[0.0, 10.0, 0.0], &[5, 0, 5], 1000);
        let before = input.clone();
        let report = NoBalancer.balance(&mut input);
        assert_eq!(input, before);
        assert_eq!(report, BalanceReport::default());
        assert_eq!(NoBalancer.name(), "none");
    }
}
