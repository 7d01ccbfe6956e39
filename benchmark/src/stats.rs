//! Order statistics, the virtual-time queue, and the cycle digest.
//!
//! Everything here is pure arithmetic on slices, so the harness tests
//! can check it against hand-computed cases.

/// Index of the `q`-quantile (`0 < q <= 1`) in a sorted slice of `n`
/// values by the nearest-rank rule: the smallest index with at least
/// `q * n` values at or below it, `ceil(q * n) - 1`.
pub fn quantile_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many samples of `n` lie strictly beyond the `q`-quantile's index.
/// A percentile is only reported as a tail figure when this is >= 10.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - 1 - quantile_index(n, q)
}

/// The `q`-quantile of `values` (reordered in place).
pub fn quantile_u64(values: &mut [u64], q: f64) -> u64 {
    *values
        .select_nth_unstable(quantile_index(values.len(), q))
        .1
}

/// The `q`-quantile of `values` (sorted in place).
pub fn quantile_f64(values: &mut [f64], q: f64) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    values[quantile_index(values.len(), q)]
}

/// Distance between the largest and the least of `values` as a share of
/// their median: how far estimates of one figure made from different
/// parts of a run lie apart. 0 for fewer than two values.
pub fn relative_range(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    if v.len() < 2 {
        return 0.0;
    }
    let median = quantile_f64(&mut v, 0.5);
    if median == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / median
}

/// One request's outcome in the virtual-time FIFO queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sojourn {
    /// Arrival to exit: queueing + maintenance tick + service.
    pub sojourn: u64,
    /// `sojourn` minus the request's own service cycles.
    pub wait: u64,
}

/// One FIFO server in virtual time (the Lindley recursion). Requests
/// arrive on their own schedule; the server idles until the next one is
/// due, then spends its maintenance tick and its service cycles on it.
/// Every request is timed from when it was due, so a stall is charged to
/// all who queue behind it.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoServer {
    arrival: u64,
    free_at: u64,
}

impl FifoServer {
    /// The next request arrives `gap` cycles after the previous one (the
    /// first one `gap` after time zero) and costs `tick + service`.
    pub fn serve(&mut self, gap: u64, tick: u64, service: u64) -> Sojourn {
        self.arrival += gap;
        self.free_at = self.free_at.max(self.arrival) + tick + service;
        let sojourn = self.free_at - self.arrival;
        Sojourn {
            sojourn,
            wait: sojourn - service,
        }
    }
}

/// FNV-1a over the little-endian bytes of a cycle sequence. Two runs that
/// charged the same cycles to the same requests in the same order agree;
/// it is how a simulator-speed change proves the model did not move.
pub fn digest(cycles: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in cycles {
        for b in c.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_index_rule() {
        // p25 of 40 batches is the 10th smallest.
        assert_eq!(quantile_index(40, 0.25), 9);
        assert_eq!(quantile_index(4, 0.25), 0);
        // The median of an even sample is the lower middle value.
        assert_eq!(quantile_index(4, 0.5), 1);
        assert_eq!(quantile_index(5, 0.5), 2);
        assert_eq!(quantile_index(100, 0.99), 98);
        assert_eq!(quantile_index(1, 0.99), 0);
        assert_eq!(quantile_index(10, 1.0), 9);
        let mut v = [50, 10, 40, 20, 30];
        assert_eq!(quantile_u64(&mut v, 0.5), 30);
        assert_eq!(quantile_u64(&mut v, 0.25), 20);
        assert_eq!(quantile_u64(&mut v, 0.99), 50);
    }

    #[test]
    fn ten_samples_beyond_the_tail() {
        // p99 of 1000 sits at index 989: exactly 10 values above it.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(6000, 0.99), 60);
        assert_eq!(samples_beyond(28, 0.99), 0);
    }

    #[test]
    fn relative_range_of_a_known_sample() {
        // Sorted 2, 4, 5, 8: the median by the index rule is 4.
        assert_eq!(relative_range(&[8.0, 2.0, 5.0, 4.0]), 1.5);
        assert_eq!(relative_range(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(relative_range(&[3.0]), 0.0);
        assert_eq!(relative_range(&[]), 0.0);
    }

    #[test]
    fn fifo_server_matches_a_hand_computed_queue() {
        // Arrivals at 10, 12, 30, 31; service 5, 10, 2, 4; a 3-cycle tick
        // before the third request.
        //   r0: starts 10, done 15            -> sojourn 5,  wait 0
        //   r1: due 12, server free 15, done 25 -> sojourn 13, wait 3
        //   r2: due 30 (idle), tick 3, done 35  -> sojourn 5,  wait 3
        //   r3: due 31, server free 35, done 39 -> sojourn 8,  wait 4
        let mut server = FifoServer::default();
        let requests = [(10, 0, 5), (2, 0, 10), (18, 3, 2), (1, 0, 4)];
        let want = [(5, 0), (13, 3), (5, 3), (8, 4)];
        for ((gap, tick, service), (sojourn, wait)) in requests.into_iter().zip(want) {
            let got = server.serve(gap, tick, service);
            assert_eq!((got.sojourn, got.wait), (sojourn, wait));
        }
    }

    #[test]
    fn digest_sees_order_and_value() {
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 2, 4]));
        assert_ne!(digest(&[]), digest(&[0]));
    }
}
