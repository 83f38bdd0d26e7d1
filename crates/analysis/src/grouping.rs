//! Figure 4's decomposition: interactions per *i-th grouping*.
//!
//! The paper defines `NI_i` as the number of interactions until the `i`-th
//! complete set `{g_1, …, g_k}` exists (equivalently, until `#g_k`
//! first reaches `i`; `NI_0 = 0`), and studies the *increments*
//! `NI'_i = NI_i − NI_{i−1}` — the cost of each successive grouping. The
//! final `n mod k` leftover agents settle after the last grouping; that
//! tail (`total − NI_{⌊n/k⌋}`) is the "last part" the paper's Figure 4
//! plots on top of each bar.

use crate::runner::WatchedTrial;
use crate::stats::Summary;

/// Aggregated grouping decomposition across trials.
#[derive(Clone, Debug)]
pub struct GroupingBreakdown {
    /// `increments[i]` summarises `NI'_{i+1}` across trials.
    pub increments: Vec<Summary>,
    /// Summary of the tail (interactions after the final grouping, i.e.
    /// settling the `n mod k` leftover agents). All-zero when `k | n`
    /// *and* stability coincides with the last grouping.
    pub tail: Summary,
    /// Number of trials aggregated (censored trials are skipped).
    pub trials_used: usize,
}

/// Aggregate per-trial completion logs (see
/// [`crate::runner::WatchedTrial`]) into mean `NI'_i` increments.
///
/// All non-censored trials must have completed the same number of
/// groupings (they do for the k-partition protocol, where the count is
/// `⌊n/k⌋` by Lemma 4).
///
/// # Panics
/// If no trial completed, or completion counts disagree across trials.
pub fn grouping_breakdown(trials: &[WatchedTrial]) -> GroupingBreakdown {
    let complete: Vec<&WatchedTrial> = trials.iter().filter(|t| t.total.is_some()).collect();
    assert!(!complete.is_empty(), "all trials censored");
    let groupings = complete[0].completions.len();
    for t in &complete {
        assert_eq!(
            t.completions.len(),
            groupings,
            "trials disagree on the number of groupings"
        );
    }
    let mut increments = Vec::with_capacity(groupings);
    for i in 0..groupings {
        let samples: Vec<u64> = complete
            .iter()
            .map(|t| {
                let prev = if i == 0 { 0 } else { t.completions[i - 1] };
                t.completions[i] - prev
            })
            .collect();
        increments.push(Summary::of_u64(&samples));
    }
    let tails: Vec<u64> = complete
        .iter()
        .map(|t| {
            let last = t.completions.last().copied().unwrap_or(0);
            t.total.expect("filtered to complete") - last
        })
        .collect();
    GroupingBreakdown {
        increments,
        tail: Summary::of_u64(&tails),
        trials_used: complete.len(),
    }
}

impl GroupingBreakdown {
    /// Mean `NI'_i` values in order, ending with the mean tail — one bar
    /// segment per entry, bottom to top, exactly as the paper stacks
    /// Figure 4.
    pub fn mean_stack(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.increments.iter().map(|s| s.mean).collect();
        v.push(self.tail.mean);
        v
    }

    /// Sum of the mean stack — equals the mean total interaction count.
    pub fn mean_total(&self) -> f64 {
        self.mean_stack().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(completions: Vec<u64>, total: u64) -> WatchedTrial {
        WatchedTrial {
            total: Some(total),
            completions,
        }
    }

    #[test]
    fn increments_and_tail() {
        let trials = vec![trial(vec![10, 30, 60], 70), trial(vec![20, 40, 80], 100)];
        let b = grouping_breakdown(&trials);
        assert_eq!(b.trials_used, 2);
        assert_eq!(b.increments.len(), 3);
        assert!((b.increments[0].mean - 15.0).abs() < 1e-12); // (10+20)/2
        assert!((b.increments[1].mean - 20.0).abs() < 1e-12); // (20+20)/2
        assert!((b.increments[2].mean - 35.0).abs() < 1e-12); // (30+40)/2
        assert!((b.tail.mean - 15.0).abs() < 1e-12); // (10+20)/2
        assert!((b.mean_total() - 85.0).abs() < 1e-12);
        assert_eq!(b.mean_stack().len(), 4);
    }

    #[test]
    fn censored_trials_are_skipped() {
        let trials = vec![
            trial(vec![10], 12),
            WatchedTrial {
                total: None,
                completions: vec![5],
            },
        ];
        let b = grouping_breakdown(&trials);
        assert_eq!(b.trials_used, 1);
        assert!((b.increments[0].mean - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "all trials censored")]
    fn all_censored_panics() {
        grouping_breakdown(&[WatchedTrial {
            total: None,
            completions: vec![],
        }]);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn mismatched_grouping_counts_panic() {
        grouping_breakdown(&[trial(vec![1], 2), trial(vec![1, 2], 3)]);
    }
}
