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
    assert_eq!(a.len(), b.len(), "per-side time arrays must pair up");
    let n = a.len();
    if n == 0 {
        return Assignment {
            sides: Vec::new(),
            left_time: 0,
            right_time: 0,
        };
    }
    // The useful left budget never exceeds sum(a); cap by MAXTIME.
    // (Saturating: infeasible sides are encoded as huge times.)
    let sum_a: u64 = a.iter().fold(0u64, |acc, &x| acc.saturating_add(x));
    let cap = sum_a.min(max_time) as usize;

    // OPT(i, k) = least right time placing tasks 1..=k with left ≤ i,
    // stored flat at p[k * width + i]: one allocation per call, and
    // the build step reads column k − 1 and writes column k as dense
    // runs. Column 0 is the base case OPT(i, 0) = 0; every later
    // column is written in full before it is read. Sizes are bounded
    // by MAXTIME, which callers choose modestly.
    let width = cap + 1;
    let at = |i: usize, k: usize| k * width + i;
    let mut p = vec![0u64; width * (n + 1)];
    for k in 1..=n {
        let (ak, bk) = (a[k - 1], b[k - 1]);
        for i in 0..width {
            // Task k to the right.
            let right = p[at(i, k - 1)].saturating_add(bk);
            // Task k to the left (consumes ak of the budget).
            let left = if (i as u64) >= ak {
                p[at(i - ak as usize, k - 1)]
            } else {
                INF
            };
            p[at(i, k)] = right.min(left);
        }
    }

    // Find the budget i minimizing the makespan max(i, OPT(i, n)).
    // (The paper's "find the minimum time" step.)
    let mut best_i = 0usize;
    let mut best_makespan = INF;
    for (i, &right) in p[at(0, n)..].iter().enumerate() {
        let m = (i as u64).max(right);
        if m < best_makespan {
            best_makespan = m;
            best_i = i;
        }
    }

    // Backtrack the assignment (the paper's "generate the assignment
    // output" step).
    let mut sides = vec![Side::Right; n];
    let mut i = best_i;
    let mut left_time = 0u64;
    let mut right_time = 0u64;
    for k in (1..=n).rev() {
        let (ak, bk) = (a[k - 1], b[k - 1]);
        let via_right = p[at(i, k - 1)].saturating_add(bk);
        let via_left = if (i as u64) >= ak {
            p[at(i - ak as usize, k - 1)]
        } else {
            INF
        };
        // The budget guard must be explicit: when BOTH sides are
        // infeasible (INF times), via_left can still compare smaller
        // than a saturated via_right.
        if (i as u64) >= ak && via_left < via_right {
            sides[k - 1] = Side::Left;
            left_time += ak;
            i -= ak as usize;
        } else {
            sides[k - 1] = Side::Right;
            right_time += bk;
        }
    }

    Assignment {
        sides,
        left_time,
        right_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn zero_cost_tasks_are_harmless() {
        let asn = partition_tasks(&[0, 5], &[0, 5], 10);
        assert_eq!(asn.makespan(), 5);
    }
}
