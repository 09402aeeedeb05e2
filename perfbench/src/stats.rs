//! Order statistics, a latency histogram, and the process high-water
//! mark.

/// Median of a sample (mean of the two middle values for even counts);
/// NaN for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
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

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Histogram over non-negative integers: exact below `exact`, then one
/// bucket per power of two. Latencies are kept in nanoseconds, so every
/// percentile under 65 µs reads to the nanosecond.
#[derive(Clone, Debug)]
pub struct Histogram {
    exact: Vec<u64>,
    log2: [u64; 64],
    count: u64,
}

impl Histogram {
    pub fn new(exact: usize) -> Histogram {
        Histogram {
            exact: vec![0; exact],
            log2: [0; 64],
            count: 0,
        }
    }

    #[inline]
    pub fn add(&mut self, value: u64) {
        match self.exact.get_mut(value as usize) {
            Some(slot) => *slot += 1,
            None => self.log2[63 - value.leading_zeros() as usize] += 1,
        }
        self.count += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.exact.iter_mut().zip(&other.exact) {
            *a += b;
        }
        for (a, b) in self.log2.iter_mut().zip(&other.log2) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The smallest recorded value with at least `q · count` values at or
    /// below it (the lower bound of its bucket above the exact range).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (v, &c) in self.exact.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return v as f64;
            }
        }
        for (b, &c) in self.log2.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << b) as f64;
            }
        }
        unreachable!("rank is at most count")
    }
}

/// Cumulative CPU time of the host as `/proc/stat` counts it (jiffies).
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// Now, or zeros where `/proc/stat` cannot be read.
    pub fn now() -> CpuTimes {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest ...]; guest
        // time is already counted in user.
        let counted = &fields[..fields.len().min(8)];
        CpuTimes {
            steal: counted.get(7).copied().unwrap_or(0),
            total: counted.iter().sum(),
        }
    }

    /// Share of CPU time since `earlier` that the hypervisor gave to other
    /// guests: on a shared host, the main source of timing noise.
    pub fn steal_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn histogram_quantiles_are_exact_in_range() {
        let mut h = Histogram::new(1000);
        for v in 1..=100u64 {
            h.add(v);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        h.add(5000);
        assert_eq!(h.quantile(1.0), 4096.0);
    }
}
