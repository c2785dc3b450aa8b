//! Order statistics: medians, nearest-rank percentiles, and the tail
//! rule every timing metric follows.
//!
//! A timing is reported as its median (`_p50`) and its `_tail`: the
//! highest percentile of a fixed ladder that still leaves at least
//! [`MIN_BEYOND`] samples beyond it at the workload's expected sample
//! count. The percentile is fixed per workload (see [`TailSpec`]) so a
//! faster program, which collects more samples, is not judged on a
//! higher percentile.

/// Samples that must lie beyond the tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, ascending.
pub const LADDER: [f64; 8] = [50.0, 75.0, 80.0, 85.0, 90.0, 95.0, 98.0, 99.0];

/// A workload's fixed tail percentile and the sample count it was
/// chosen for (at the benchmark's fixed run length).
#[derive(Debug, Clone, Copy)]
pub struct TailSpec {
    /// The percentile `_tail` reports.
    pub pct: f64,
    /// Operations one run is expected to measure.
    pub expected_n: usize,
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
pub fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples beyond the nearest-rank percentile `pct` of `n` samples.
pub fn beyond(n: usize, pct: f64) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The highest ladder percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond it among `n`, or `None` when even the median does not.
pub fn tail_percentile_for(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of `values` (sorted in place). 0 when empty.
pub fn percentile(values: &mut [f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[rank(values.len(), pct) - 1]
}

/// Median: the mean of the two middle values for an even count. 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Work per second measured in blocks of equal work: `work_per_block`
/// over the median block time, so a host stall that slows a few blocks
/// does not move it. Falls back to `total_work / total_s` when no block
/// completed.
pub fn block_rate(work_per_block: f64, block_s: &[f64], total_work: f64, total_s: f64) -> f64 {
    if block_s.is_empty() {
        total_work / total_s.max(1e-9)
    } else {
        work_per_block / median(block_s).max(1e-9)
    }
}

/// Pools timing series of different scale (one per circuit, or per
/// operation class) so every sample comes from the same distribution.
/// Returns the mean of the group medians, weighted by group size, and
/// every sample multiplied by that mean over its own group's median. A
/// percentile of the result is the groups' shared relative spread at
/// the average operation's scale: it moves with every group and, unlike
/// a percentile of the raw pool, does not jump from one group to the
/// next when the sample count changes. Empty groups are skipped.
pub fn rescale_groups(groups: &[Vec<f64>]) -> (f64, Vec<f64>) {
    let n: usize = groups.iter().map(Vec::len).sum();
    if n == 0 {
        return (0.0, Vec::new());
    }
    let medians: Vec<f64> = groups.iter().map(|g| median(g)).collect();
    let mean = groups
        .iter()
        .zip(&medians)
        .map(|(g, m)| g.len() as f64 * m)
        .sum::<f64>()
        / n as f64;
    let pooled = groups
        .iter()
        .zip(&medians)
        .flat_map(|(g, &m)| g.iter().map(move |x| x * mean / m.max(1e-12)))
        .collect();
    (mean, pooled)
}

/// Median and tail of one timing series.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The median.
    pub p50: f64,
    /// The value at the tail percentile.
    pub tail: f64,
    /// Sample count.
    pub n: usize,
    /// Samples beyond the tail percentile.
    pub beyond: usize,
}

impl Summary {
    /// Summarizes `values` with the tail at `spec.pct`.
    pub fn of(values: &[f64], spec: TailSpec) -> Summary {
        let mut v = values.to_vec();
        let tail = percentile(&mut v, spec.pct);
        Summary {
            p50: median(values),
            tail,
            n: values.len(),
            beyond: beyond(values.len(), spec.pct),
        }
    }

    /// One line for the human-readable part of the output; flags a
    /// run too short for its tail.
    pub fn describe(&self, what: &str, spec: TailSpec) -> String {
        let warn = if self.beyond < MIN_BEYOND {
            " (WARNING: fewer than 10 samples beyond the tail)"
        } else {
            ""
        };
        format!(
            "{what}: p50 {:.3} ms, p{} {:.3} ms, n = {}, {} beyond the tail{warn}",
            self.p50, spec.pct, self.tail, self.n, self.beyond
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in [20usize, 50, 67, 100, 199, 200, 500, 999, 1000, 5000] {
            let p = tail_percentile_for(n).expect("n >= 20 has a tail");
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            // ...and it is the highest such ladder step.
            if let Some(&next) = LADDER.iter().find(|&&q| q > p) {
                assert!(
                    beyond(n, next) < MIN_BEYOND,
                    "n={n}: p{next} also qualifies"
                );
            }
        }
        assert_eq!(tail_percentile_for(1000), Some(99.0));
        assert_eq!(tail_percentile_for(500), Some(98.0));
        assert_eq!(tail_percentile_for(100), Some(90.0));
        assert_eq!(tail_percentile_for(15), None);
    }

    #[test]
    fn block_rate_ignores_a_stalled_block() {
        assert_eq!(block_rate(10.0, &[1.0, 1.0, 9.0], 30.0, 11.0), 10.0);
        assert_eq!(block_rate(10.0, &[], 5.0, 2.0), 2.5);
    }

    #[test]
    fn rescaled_groups_share_one_centre() {
        let (mean, pooled) = rescale_groups(&[vec![1.0, 2.0, 3.0], vec![], vec![10.0, 20.0, 30.0]]);
        assert_eq!(mean, 11.0);
        assert_eq!(pooled, vec![5.5, 11.0, 16.5, 5.5, 11.0, 16.5]);
        assert_eq!(median(&pooled), mean);
        // Weighted by group size: 3 samples at median 2, 1 at median 6.
        let (mean, pooled) = rescale_groups(&[vec![1.0, 2.0, 3.0], vec![6.0]]);
        assert_eq!(mean, 3.0);
        assert_eq!(pooled, vec![1.5, 3.0, 4.5, 3.0]);
        assert_eq!(rescale_groups(&[]), (0.0, vec![]));
    }

    #[test]
    fn summary_counts_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(
            &v,
            TailSpec {
                pct: 95.0,
                expected_n: 200,
            },
        );
        assert_eq!(s.tail, 190.0);
        assert_eq!(s.beyond, 10);
        assert_eq!(s.n, 200);
    }
}
