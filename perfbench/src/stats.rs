//! Simulated counters read back from a cell's `MachineStats` JSON, and
//! the stats fingerprint the correctness gate compares.
//!
//! Live cells hand back only the JSON (inside `BenchRow`), replayed
//! cells produce it via `MachineStats::to_json`; reading every cell from
//! the same string keeps the three workloads' figures comparable.

/// The counters the benchmark's simulated metrics are built from,
/// summed over every core of one simulation (or several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub instructions: u64,
    pub app_ops: u64,
    pub total_cycles: u64,
    pub msgs: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub dir_queue_wait_cycles: u64,
    pub invalidations: u64,
    pub flit_hops: u64,
    pub cross_socket_msgs: u64,
    pub leases_taken: u64,
    pub releases_voluntary: u64,
    pub releases_involuntary: u64,
    pub probes_queued: u64,
    pub probe_queued_cycles: u64,
    pub cas_attempts: u64,
    pub cas_failures: u64,
}

/// Sum of every integer value stored under `"key":` in `json`. Per-core
/// keys occur once per core, machine-wide keys once; no key name is a
/// quoted suffix of another, so the quoted match is exact.
fn sum_field(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    json.match_indices(&pat)
        .map(|(at, _)| {
            let digits: String = json[at + pat.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits
                .parse::<u64>()
                .expect("stats JSON holds unsigned integers")
        })
        .sum()
}

impl Counters {
    pub fn from_json(json: &str) -> Self {
        let f = |k| sum_field(json, k);
        Counters {
            instructions: f("instructions"),
            app_ops: f("app_ops"),
            total_cycles: f("total_cycles"),
            msgs: f("msgs_control") + f("msgs_data"),
            l1_hits: f("l1_hits"),
            l1_misses: f("l1_misses"),
            dir_queue_wait_cycles: f("dir_queue_wait_cycles"),
            invalidations: f("invalidations"),
            flit_hops: f("flit_hops"),
            cross_socket_msgs: f("cross_socket_msgs"),
            leases_taken: f("leases_taken"),
            releases_voluntary: f("releases_voluntary"),
            releases_involuntary: f("releases_involuntary"),
            probes_queued: f("probes_queued"),
            probe_queued_cycles: f("probe_queued_cycles"),
            cas_attempts: f("cas_attempts"),
            cas_failures: f("cas_failures"),
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.instructions += o.instructions;
        self.app_ops += o.app_ops;
        self.total_cycles += o.total_cycles;
        self.msgs += o.msgs;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.dir_queue_wait_cycles += o.dir_queue_wait_cycles;
        self.invalidations += o.invalidations;
        self.flit_hops += o.flit_hops;
        self.cross_socket_msgs += o.cross_socket_msgs;
        self.leases_taken += o.leases_taken;
        self.releases_voluntary += o.releases_voluntary;
        self.releases_involuntary += o.releases_involuntary;
        self.probes_queued += o.probes_queued;
        self.probe_queued_cycles += o.probe_queued_cycles;
        self.cas_attempts += o.cas_attempts;
        self.cas_failures += o.cas_failures;
    }

    /// Simulated throughput in operations per cycle.
    pub fn ops_per_cycle(&self) -> f64 {
        ratio(self.app_ops, self.total_cycles)
    }
}

/// `num / den`, with 0/0 read as 0 (a workload that never leases has no
/// involuntary-release share to report).
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Geometric mean of positive values (1.0 for an empty list).
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for x in xs {
        assert!(x > 0.0, "geometric mean of a non-positive value {x}");
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// FNV-1a 64 of a stats JSON: the committed per-cell fingerprint.
pub fn fingerprint(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_per_core_fields_and_keep_quoted_keys_apart() {
        let json = "{\"total_cycles\":100,\"app_ops\":4,\"flit_hops\":7,\
                    \"cross_socket_msgs\":2,\"socket_flit_hops\":9,\"msgs_control\":3,\
                    \"msgs_data\":5,\"cores\":[{\"instructions\":10,\"l1_hits\":1},\
                    {\"instructions\":32,\"l1_hits\":2}]}";
        let c = Counters::from_json(json);
        assert_eq!(c.instructions, 42);
        assert_eq!(c.l1_hits, 3);
        assert_eq!(c.flit_hops, 7, "socket_flit_hops must not be summed in");
        assert_eq!(c.msgs, 8);
        assert_eq!(c.total_cycles, 100);
    }

    #[test]
    fn fingerprint_sees_every_byte() {
        assert_ne!(fingerprint("{\"a\":1}"), fingerprint("{\"a\":2}"));
    }
}
