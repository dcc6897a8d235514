//! Latency histogram of constant size, so that the benchmark's own
//! memory does not grow with the number of requests it measures.

/// Log-linear buckets: values below 128 ns exactly, then 128 buckets per
/// power of two (each under 0.8% wide). Every bucket keeps the count and
/// the sum of its samples, so a quantile reads the mean of the samples in
/// the bucket that holds it.
#[derive(Clone)]
pub struct Hist {
    count: Vec<u32>,
    sum: Vec<u64>,
    pub n: u64,
    total_ns: u64,
}

const SUB_BITS: u32 = 7;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

fn bucket(ns: u64) -> usize {
    if ns < 1 << SUB_BITS {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let mantissa = (ns >> (exp - SUB_BITS)) as usize & ((1 << SUB_BITS) - 1);
    ((exp - SUB_BITS + 1) as usize) << SUB_BITS | mantissa
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            count: vec![0; BUCKETS],
            sum: vec![0; BUCKETS],
            n: 0,
            total_ns: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        let b = bucket(ns);
        self.count[b] += 1;
        self.sum[b] += ns;
        self.n += 1;
        self.total_ns += ns;
    }

    pub fn merge(&mut self, other: &Hist) {
        for b in 0..BUCKETS {
            self.count[b] += other.count[b];
            self.sum[b] += other.sum[b];
        }
        self.n += other.n;
        self.total_ns += other.total_ns;
    }

    /// Nearest-rank quantile `q`, in nanoseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0;
        for b in 0..BUCKETS {
            seen += u64::from(self.count[b]);
            if seen >= rank {
                return self.sum[b] as f64 / f64::from(self.count[b]);
            }
        }
        0.0
    }

    /// Forget every sample.
    pub fn clear(&mut self) {
        self.count.fill(0);
        self.sum.fill(0);
        self.n = 0;
        self.total_ns = 0;
    }

    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.n.max(1) as f64 / 1e3
    }

    /// Samples above the nearest-rank quantile `q`.
    pub fn beyond(&self, q: f64) -> u64 {
        self.n - ((q * self.n as f64).ceil() as u64).min(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_ordered_and_narrow() {
        let mut last = 0;
        for ns in (1..1u64 << 40).step_by(997_003) {
            let b = bucket(ns);
            assert!(b >= last && b < BUCKETS);
            last = b;
        }
        let mut h = Hist::default();
        for ns in 1..=1000u64 {
            h.record(ns * 1000);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.008, "{p50}");
        assert_eq!(h.beyond(0.99), 10);
    }
}
