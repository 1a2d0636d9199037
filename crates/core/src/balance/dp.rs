//! Algorithm 1: the distributed load-balancing dynamic program.
//!
//! Given `n` surplus tasks and, for each task `k`, the time `a[k]` it
//! would take on the best-efficiency node to the *left* and `b[k]` on
//! the best node to the *right*, choose a side for every task so the
//! *makespan* — `max(total left time, total right time)` — is minimal,
//! subject to the left-time budget `MAXTIME` (the load-balance call
//! interval).
//!
//! The recurrence is the paper's equation (3):
//!
//! ```text
//! OPT(i, k) = min( OPT(i − a[k], k − 1),        // task k on the left
//!                  OPT(i, k − 1) + b[k] )       // task k on the right
//! ```
//!
//! where `OPT(i, k)` is the least right-side time needed to place the
//! first `k` tasks with at most `i` left-side time. Complexity is
//! `O(n · MAXTIME)` — "task number × load balance call interval".

use serde::{Deserialize, Serialize};

/// Which neighbour a task is assigned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The left (sink-ward) neighbour.
    Left,
    /// The right neighbour.
    Right,
}

/// The output of [`partition_tasks`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Per-task side, in input order.
    pub sides: Vec<Side>,
    /// Total time consumed on the left node.
    pub left_time: u64,
    /// Total time consumed on the right node.
    pub right_time: u64,
}

impl Assignment {
    /// The makespan of this assignment.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.left_time.max(self.right_time)
    }
}

const INF: u64 = u64::MAX / 4;

/// Runs Algorithm 1.
///
/// * `a[k]` — time of task `k` on the left side.
/// * `b[k]` — time of task `k` on the right side.
/// * `max_time` — the left-time budget (`MAXTIME`, the load-balance
///   call interval). Tasks that cannot fit on the left within the
///   budget go right.
///
/// Returns the optimal assignment (minimum makespan among assignments
/// whose left time does not exceed `max_time`; such an assignment
/// always exists because "all right" is feasible).
///
/// # Panics
///
/// Panics if `a` and `b` have different lengths.
#[must_use]
pub fn partition_tasks(a: &[u64], b: &[u64], max_time: u64) -> Assignment {
    let mut out = Assignment {
        sides: Vec::new(),
        left_time: 0,
        right_time: 0,
    };
    partition_tasks_into(a, b, max_time, &mut Vec::new(), &mut out);
    out
}

/// [`partition_tasks`] in caller-owned memory: `table` holds the DP
/// table and `out` receives the assignment. Both are overwritten and
/// keep their capacity, so a caller that sized them for its largest
/// call never allocates here.
///
/// # Panics
///
/// Panics if `a` and `b` have different lengths.
pub(crate) fn partition_tasks_into(
    a: &[u64],
    b: &[u64],
    max_time: u64,
    table: &mut Vec<u64>,
    out: &mut Assignment,
) {
    assert_eq!(a.len(), b.len(), "per-side time arrays must pair up");
    let n = a.len();
    out.sides.clear();
    out.left_time = 0;
    out.right_time = 0;
    if n == 0 {
        return;
    }
    // A task whose left time exceeds the budget never goes left, so the
    // useful left budget is the sum of the other tasks' left times,
    // capped by MAXTIME. (Saturating: infeasible sides are encoded as
    // huge times.) The table over that budget is a prefix of the table
    // over all of `sum(a)`, and the cells it leaves out repeat its last
    // one, so the makespan search and the backtrack end where they did.
    let (fits, sum_fit) = a
        .iter()
        .filter(|&&ak| ak <= max_time)
        .fold((false, 0u64), |(_, sum), &ak| {
            (true, sum.saturating_add(ak))
        });
    if !fits {
        // No task fits the budget: every task goes right. The table
        // says the same (every cell takes the right branch, budget 0 is
        // the first minimum, and the backtrack from it finds no left
        // move), so it is not built. In paper runs this is the common
        // case: a whole task needs at least 18 s, MAXTIME is one 12 s
        // slot.
        out.sides.resize(n, Side::Right);
        out.right_time = b.iter().fold(0u64, |acc, &bk| acc.saturating_add(bk));
        return;
    }
    let cap = sum_fit.min(max_time) as usize;

    // OPT(i, k) = least right time placing tasks 1..=k with left ≤ i,
    // stored flat as column k of `width` cells: the build step reads
    // column k − 1 and writes column k as dense runs. Column 0 is the
    // base case OPT(i, 0) = 0; every later column is written in full
    // before it is read. Sizes are bounded by MAXTIME, which callers
    // choose modestly.
    let width = cap + 1;
    table.clear();
    table.resize(width * (n + 1), 0);
    let mut columns = table.chunks_exact_mut(width);
    let mut prev = columns.next().unwrap_or_default();
    for (col, (&ak, &bk)) in columns.zip(a.iter().zip(b)) {
        for (i, (cell, &stay)) in col.iter_mut().zip(prev.iter()).enumerate() {
            // Task k to the right.
            let right = stay.saturating_add(bk);
            // Task k to the left (consumes ak of the budget).
            let left = (i as u64)
                .checked_sub(ak)
                .and_then(|j| prev.get(j as usize))
                .map_or(INF, |&opt| opt);
            *cell = right.min(left);
        }
        prev = col;
    }

    // Find the budget i minimizing the makespan max(i, OPT(i, n)).
    // (The paper's "find the minimum time" step.) `prev` is column n.
    let mut best_i = 0usize;
    let mut best_makespan = INF;
    for (i, &right) in prev.iter().enumerate() {
        let m = (i as u64).max(right);
        if m < best_makespan {
            best_makespan = m;
            best_i = i;
        }
    }

    // Backtrack the assignment (the paper's "generate the assignment
    // output" step): task k reads column k − 1.
    out.sides.resize(n, Side::Right);
    let mut i = best_i;
    let tasks = out.sides.iter_mut().zip(a.iter().zip(b));
    for ((side, (&ak, &bk)), col) in tasks.zip(table.chunks_exact(width)).rev() {
        let via_right = col.get(i).map_or(INF, |&opt| opt).saturating_add(bk);
        let budget_left = (i as u64).checked_sub(ak);
        let via_left = budget_left
            .and_then(|j| col.get(j as usize))
            .map_or(INF, |&opt| opt);
        // The budget guard must be explicit: when BOTH sides are
        // infeasible (INF times), via_left can still compare smaller
        // than a saturated via_right.
        match budget_left {
            Some(j) if via_left < via_right => {
                *side = Side::Left;
                out.left_time += ak;
                i = j as usize;
            }
            // Saturating: a few tasks no side can take (huge times)
            // would overflow the sum.
            _ => out.right_time = out.right_time.saturating_add(bk),
        }
    }
}

/// Algorithm 1 as it was before the budget shortcut: the table always
/// spans `min(sum(a), MAXTIME) + 1` budgets, even when no task fits.
/// Kept as the reference [`partition_tasks_into`] is compared against,
/// side for side.
#[cfg(test)]
mod reference {
    use super::{Assignment, Side, INF};

    pub(super) fn partition_tasks_into(
        a: &[u64],
        b: &[u64],
        max_time: u64,
        table: &mut Vec<u64>,
        out: &mut Assignment,
    ) {
        assert_eq!(a.len(), b.len(), "per-side time arrays must pair up");
        let n = a.len();
        out.sides.clear();
        out.left_time = 0;
        out.right_time = 0;
        if n == 0 {
            return;
        }
        let sum_a: u64 = a.iter().fold(0u64, |acc, &x| acc.saturating_add(x));
        let cap = sum_a.min(max_time) as usize;
        let width = cap + 1;
        table.clear();
        table.resize(width * (n + 1), 0);
        let mut columns = table.chunks_exact_mut(width);
        let mut prev = columns.next().unwrap_or_default();
        for (col, (&ak, &bk)) in columns.zip(a.iter().zip(b)) {
            for (i, (cell, &stay)) in col.iter_mut().zip(prev.iter()).enumerate() {
                let right = stay.saturating_add(bk);
                let left = (i as u64)
                    .checked_sub(ak)
                    .and_then(|j| prev.get(j as usize))
                    .map_or(INF, |&opt| opt);
                *cell = right.min(left);
            }
            prev = col;
        }
        let mut best_i = 0usize;
        let mut best_makespan = INF;
        for (i, &right) in prev.iter().enumerate() {
            let m = (i as u64).max(right);
            if m < best_makespan {
                best_makespan = m;
                best_i = i;
            }
        }
        out.sides.resize(n, Side::Right);
        let mut i = best_i;
        let tasks = out.sides.iter_mut().zip(a.iter().zip(b));
        for ((side, (&ak, &bk)), col) in tasks.zip(table.chunks_exact(width)).rev() {
            let via_right = col.get(i).map_or(INF, |&opt| opt).saturating_add(bk);
            let budget_left = (i as u64).checked_sub(ak);
            let via_left = budget_left
                .and_then(|j| col.get(j as usize))
                .map_or(INF, |&opt| opt);
            match budget_left {
                Some(j) if via_left < via_right => {
                    *side = Side::Left;
                    out.left_time += ak;
                    i = j as usize;
                }
                _ => out.right_time = out.right_time.saturating_add(bk),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exhaustive optimum for small n.
    fn brute_force(a: &[u64], b: &[u64], max_time: u64) -> u64 {
        let n = a.len();
        let mut best = u64::MAX;
        for mask in 0..(1u32 << n) {
            let mut l = 0;
            let mut r = 0;
            for k in 0..n {
                if mask & (1 << k) != 0 {
                    l += a[k];
                } else {
                    r += b[k];
                }
            }
            if l <= max_time {
                best = best.min(l.max(r));
            }
        }
        best
    }

    #[test]
    fn trivial_cases() {
        let asn = partition_tasks(&[], &[], 100);
        assert!(asn.sides.is_empty());
        assert_eq!(asn.makespan(), 0);

        let asn = partition_tasks(&[5], &[100], 100);
        assert_eq!(asn.sides, vec![Side::Left]);
        assert_eq!(asn.makespan(), 5);

        // Left too expensive for the budget → forced right.
        let asn = partition_tasks(&[50], &[3], 10);
        assert_eq!(asn.sides, vec![Side::Right]);
        assert_eq!(asn.makespan(), 3);
    }

    #[test]
    fn balances_identical_tasks() {
        // 4 tasks, each 10 on either side → 2/2 split, makespan 20.
        let a = [10, 10, 10, 10];
        let b = [10, 10, 10, 10];
        let asn = partition_tasks(&a, &b, 1000);
        assert_eq!(asn.makespan(), 20);
        let lefts = asn.sides.iter().filter(|s| **s == Side::Left).count();
        assert_eq!(lefts, 2);
    }

    #[test]
    fn prefers_the_faster_side_per_task() {
        // Task 0 is fast left, task 1 fast right.
        let asn = partition_tasks(&[1, 100], &[100, 1], 1000);
        assert_eq!(asn.sides, vec![Side::Left, Side::Right]);
        assert_eq!(asn.makespan(), 1);
    }

    #[test]
    fn matches_brute_force_on_many_instances() {
        // Deterministic pseudo-random instances, n ≤ 10.
        let mut x = 0x1234_5678u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for trial in 0..200 {
            let n = (next() % 9 + 1) as usize;
            let a: Vec<u64> = (0..n).map(|_| next() % 20 + 1).collect();
            let b: Vec<u64> = (0..n).map(|_| next() % 20 + 1).collect();
            let max_time = next() % 60 + 5;
            let asn = partition_tasks(&a, &b, max_time);
            assert!(asn.left_time <= max_time, "trial {trial}: budget violated");
            let expect = brute_force(&a, &b, max_time);
            assert_eq!(
                asn.makespan(),
                expect,
                "trial {trial}: a={a:?} b={b:?} max={max_time}"
            );
        }
    }

    #[test]
    fn assignment_times_are_consistent_with_sides() {
        let a = [3, 7, 2, 9, 4];
        let b = [5, 2, 8, 3, 6];
        let asn = partition_tasks(&a, &b, 100);
        let l: u64 = asn
            .sides
            .iter()
            .zip(&a)
            .filter(|(s, _)| **s == Side::Left)
            .map(|(_, &t)| t)
            .sum();
        let r: u64 = asn
            .sides
            .iter()
            .zip(&b)
            .filter(|(s, _)| **s == Side::Right)
            .map(|(_, &t)| t)
            .sum();
        assert_eq!(l, asn.left_time);
        assert_eq!(r, asn.right_time);
    }

    #[test]
    fn tight_budget_pushes_everything_right() {
        let a = [10, 10, 10];
        let b = [4, 4, 4];
        let asn = partition_tasks(&a, &b, 0);
        assert!(asn.sides.iter().all(|s| *s == Side::Right));
        assert_eq!(asn.makespan(), 12);
    }

    #[test]
    fn paper_example_two_left_two_right() {
        // Figure 6(d) narration: "two tasks from node 4 are assigned to
        // node 3, and another two to node 5" — four equal tasks split
        // evenly between equally capable neighbours.
        let asn = partition_tasks(&[7, 7, 7, 7], &[7, 7, 7, 7], 14);
        let lefts = asn.sides.iter().filter(|s| **s == Side::Left).count();
        assert_eq!(lefts, 2);
        assert_eq!(asn.makespan(), 14);
    }

    #[test]
    fn infeasible_tasks_saturate_the_right_time() {
        // Nine tasks neither side can take: the right-time sum
        // saturates instead of overflowing.
        let huge = [u64::MAX / 8; 9];
        let asn = partition_tasks(&huge, &huge, 120);
        assert!(asn.sides.iter().all(|s| *s == Side::Right));
        assert_eq!(asn.right_time, u64::MAX);
    }

    #[test]
    fn zero_cost_tasks_are_harmless() {
        let asn = partition_tasks(&[0, 5], &[0, 5], 10);
        assert_eq!(asn.makespan(), 5);
    }

    /// A task time of kind `kind`: zero, small, around `max_time`, or
    /// the balancer's "cannot take it" time.
    fn time(kind: u8, v: u64, max_time: u64) -> u64 {
        match kind {
            0 => 0,
            1 => v,
            2 => (max_time + v % 5).saturating_sub(2),
            _ => u64::MAX / 8,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]

        /// The budget shortcut and the fitted budget give the
        /// reference's assignment, side for side, with the same times.
        /// Half of each case's tasks lean to one kind, so cases where no
        /// task fits, where nine huge times saturate a sum, and where
        /// every cost is zero all occur.
        #[test]
        fn matches_the_reference_assignment(
            lean in 0u8..4,
            tasks in prop::collection::vec((0u8..8, 0u64..25, 0u8..8, 0u64..25), 0..13),
            max_time in 0u64..201,
        ) {
            let kind = |k: u8| if k < 4 { k } else { lean };
            let a: Vec<u64> = tasks.iter().map(|t| time(kind(t.0), t.1, max_time)).collect();
            let b: Vec<u64> = tasks.iter().map(|t| time(kind(t.2), t.3, max_time)).collect();
            let mut out = Assignment { sides: Vec::new(), left_time: 0, right_time: 0 };
            let mut want = out.clone();
            partition_tasks_into(&a, &b, max_time, &mut Vec::new(), &mut out);
            reference::partition_tasks_into(&a, &b, max_time, &mut Vec::new(), &mut want);
            prop_assert_eq!(out, want, "a={:?} b={:?} max_time={}", a, b, max_time);
        }
    }
}
