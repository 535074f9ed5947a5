//! Order statistics and span arithmetic used by every workload.
//!
//! Percentiles here refuse to answer from too few samples: a p90 over
//! twelve samples is one job's time, which moves from run to run with
//! whichever job it lands on.

/// Samples that must lie strictly above a percentile's rank before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by nearest rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} is outside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    if n - 1 - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank])
}

/// The median of `samples` (the mean of the middle two for an even
/// count); `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The mean of `samples`; `None` when there are none.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The least of `samples`: the repeat the host slowed least (see
/// [`fastest_per_job`]); infinite when there are none.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Each job's sample from its fastest pass: `passes[p][job]` holds one
/// sample per job, and `time` says how long a sample took.
///
/// The host this runs on only ever adds time (other tenants, frequency
/// changes), so a job's fastest pass is the estimate of its own cost
/// that moves least between runs, and a slow pass does not move it at
/// all. The whole sample is kept, so the phase times reported for a job
/// add up to the call time reported for it.
pub fn fastest_per_job<'a, T>(passes: &[&'a [T]], time: impl Fn(&T) -> f64) -> Vec<&'a T> {
    let jobs = passes.first().map_or(0, |p| p.len());
    (0..jobs)
        .filter_map(|j| {
            passes
                .iter()
                .map(|p| &p[j])
                .min_by(|a, b| time(a).total_cmp(&time(b)))
        })
        .collect()
}

/// A closed interval of time in nanoseconds since a common origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

impl Interval {
    pub fn len(self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of `span`: its length minus the part of it that the union
/// of `children` covers. Children may overlap each other and may stick
/// out of the parent; only the overlap with the parent counts.
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start: c.start.max(span.start),
            end: c.end.min(span.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = 0;
    let mut cursor = span.start;
    for c in clipped {
        let from = c.start.max(cursor);
        if c.end > from {
            covered += c.end - from;
            cursor = c.end;
        }
    }
    span.len() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        // Rank of p50 over 19 samples is the 10th; only 9 lie above it.
        assert_eq!(percentile(&xs, 0.5), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(10.0));
        // p90 over 100 samples has exactly 10 above it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        // p99 over 100 samples has one above it: refused.
        assert_eq!(percentile(&xs, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn fastest_per_job_keeps_each_jobs_quickest_sample() {
        // Two jobs over three passes, as (time, tag) samples.
        let p1 = [(1.0, 'a'), (2.0, 'x')];
        let p2 = [(1.0, 'b'), (3.0, 'y')];
        let p3 = [(9.0, 'c'), (2.5, 'z')];
        let best = fastest_per_job(&[&p1[..], &p2[..], &p3[..]], |s| s.0);
        // Ties go to the earlier pass; one slow pass moves nothing.
        assert_eq!(best, vec![&(1.0, 'a'), &(2.0, 'x')]);
        assert!(fastest_per_job::<(f64, char)>(&[], |s| s.0).is_empty());
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = Interval {
            start: 10,
            end: 110,
        };
        assert_eq!(self_time(span, &[]), 100);
        let kids = [
            Interval { start: 20, end: 40 },
            Interval { start: 30, end: 50 }, // overlaps the first
            Interval {
                start: 100,
                end: 130,
            }, // sticks out of the parent
            Interval { start: 0, end: 5 },   // entirely outside
        ];
        assert_eq!(self_time(span, &kids), 100 - 30 - 10);
        let all = [Interval { start: 0, end: 200 }];
        assert_eq!(self_time(span, &all), 0);
    }
}
