//! System configuration.
//!
//! [`SystemConfig`] mirrors Table 1 of the paper (core model, cache
//! hierarchy, coherence protocol) and adds the Lease/Release parameters
//! from Sections 3–5 plus the analytic energy model documented in
//! `DESIGN.md`.

use crate::Cycle;

/// Base coherence protocol of the simulated machine.
///
/// The paper evaluates on MSI (Table 1) and argues in §8 that
/// Lease/Release carries over to MESI/MOESI unchanged: "a core leasing a
/// line demands it in Exclusive state, and will delay incoming coherence
/// requests on the line until the release". The MESI mode exists to
/// check that claim (see the `tab_mesi` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherenceProtocol {
    /// Modified / Shared / Invalid (the paper's configuration).
    #[default]
    Msi,
    /// MESI: a sole reader is granted Exclusive and upgrades to Modified
    /// silently on its first write.
    Mesi,
}

/// Lease/Release mechanism parameters (Section 3 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseConfig {
    /// `MAX_LEASE_TIME`: system-wide upper bound on the length of any
    /// lease, in core cycles. The paper's evaluation uses 20 000 cycles
    /// (20 µs at 1 GHz) and checks 1 000 as a sensitivity point.
    pub max_lease_time: Cycle,
    /// `MAX_NUM_LEASES`: upper bound on the number of leases a core may
    /// hold at any time. The paper's recommended hardware proposal
    /// (Section 8) is 1; multi-lease experiments need ≥ the group size.
    pub max_num_leases: usize,
    /// Enable the prioritization optimization (Section 5): "regular"
    /// requests (plain loads/stores/RMWs) break an existing lease
    /// immediately instead of queuing, while lease-tagged requests queue.
    pub prioritization: bool,
    /// `X` parameter of the *software* MultiLease emulation (Section 4):
    /// the approximate time to fulfil one exclusive-ownership request.
    /// The j-th outer lease of a group is requested for `time + j·X`.
    pub software_multilease_x: Cycle,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            max_lease_time: 20_000,
            max_num_leases: 8,
            prioritization: false,
            software_multilease_x: 200,
        }
    }
}

/// Analytic energy model constants (nanojoules).
///
/// The paper reports energy per operation and notes that it is correlated
/// with coherence-message and cache-miss counts; this model makes the
/// correlation explicit: every L1/L2/DRAM access, network flit-hop and
/// retired instruction has a fixed dynamic cost, and each core burns a
/// static cost per cycle (so wasted waiting/retry time shows up as energy,
/// exactly the effect the paper measures).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Dynamic energy per L1 access (hit or fill), nJ.
    pub l1_access_nj: f64,
    /// Dynamic energy per L2 access, nJ.
    pub l2_access_nj: f64,
    /// Dynamic energy per DRAM access, nJ.
    pub dram_access_nj: f64,
    /// Dynamic energy per flit per mesh hop, nJ.
    pub flit_hop_nj: f64,
    /// Dynamic energy per flit traversing an inter-socket link, nJ.
    /// Off-package links drive long board traces / serdes and cost an
    /// order of magnitude more per flit than an on-die mesh hop.
    pub socket_flit_hop_nj: f64,
    /// Dynamic energy per retired instruction, nJ.
    pub instruction_nj: f64,
    /// Static (leakage) energy per core per cycle, nJ.
    pub static_core_nj_per_cycle: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            l1_access_nj: 0.1,
            l2_access_nj: 0.4,
            dram_access_nj: 20.0,
            flit_hop_nj: 0.02,
            socket_flit_hop_nj: 0.2,
            instruction_nj: 0.05,
            static_core_nj_per_cycle: 0.05,
        }
    }
}

/// Full system configuration (Table 1 of the paper + simulator knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores/tiles. The paper evaluates 2–64.
    pub num_cores: usize,
    /// Core frequency in GHz (Table 1: 1 GHz, in-order).
    pub freq_ghz: f64,
    /// L1 data cache capacity per tile, KiB (Table 1: 32 KB).
    pub l1_kib: usize,
    /// L1 associativity (Table 1: 4-way).
    pub l1_ways: usize,
    /// L1 access latency, cycles (Table 1: 1).
    pub l1_latency: Cycle,
    /// L2 slice capacity per tile, KiB (Table 1: 256 KB).
    pub l2_slice_kib: usize,
    /// L2 associativity (Table 1: 8-way).
    pub l2_ways: usize,
    /// L2 tag access latency, cycles (Table 1: 3).
    pub l2_tag_latency: Cycle,
    /// L2 data access latency, cycles (Table 1: 8).
    pub l2_data_latency: Cycle,
    /// DRAM access latency, cycles.
    pub dram_latency: Cycle,
    /// Base coherence protocol (Table 1: MSI).
    pub protocol: CoherenceProtocol,
    /// Per-hop mesh link latency, cycles.
    pub mesh_hop_latency: Cycle,
    /// Number of sockets (NUMA nodes). Tiles are numbered socket-major:
    /// tiles `[s·(num_cores/sockets), (s+1)·(num_cores/sockets))` form
    /// socket `s`, each socket running its own 2-D mesh. `num_cores`
    /// must be a multiple of `sockets`. 1 (the default) is the paper's
    /// single-socket machine and is bit-exact with the flat mesh.
    pub sockets: usize,
    /// Latency of one inter-socket link traversal, cycles. Charged once
    /// per cross-socket message on top of the mesh hops at either end.
    pub socket_link_latency: Cycle,
    /// Flits in a control (data-less) coherence message.
    pub control_flits: u32,
    /// Flits in a data-carrying coherence message (64 B line + header).
    pub data_flits: u32,
    /// Cost charged per simulated instruction (API call), cycles.
    pub instruction_cost: Cycle,
    /// Lease/Release parameters.
    pub lease: LeaseConfig,
    /// Energy model constants.
    pub energy: EnergyModel,
    /// Deterministic seed for all workload randomness.
    pub seed: u64,
    /// Watchdog: abort the simulation beyond this many cycles (guards
    /// against protocol-level livelock/deadlock bugs; a triggered
    /// watchdog is always a bug, per Propositions 2/3).
    pub watchdog_max_cycles: Cycle,
    /// Watchdog: abort beyond this many processed events.
    pub watchdog_max_events: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            num_cores: 64,
            freq_ghz: 1.0,
            l1_kib: 32,
            l1_ways: 4,
            l1_latency: 1,
            l2_slice_kib: 256,
            l2_ways: 8,
            l2_tag_latency: 3,
            l2_data_latency: 8,
            dram_latency: 100,
            protocol: CoherenceProtocol::default(),
            mesh_hop_latency: 2,
            sockets: 1,
            socket_link_latency: 40,
            control_flits: 1,
            data_flits: 9,
            instruction_cost: 1,
            lease: LeaseConfig::default(),
            energy: EnergyModel::default(),
            seed: 0x1ea5e_2e1ea5e,
            watchdog_max_cycles: 50_000_000_000,
            watchdog_max_events: 20_000_000_000,
        }
    }
}

impl SystemConfig {
    /// The largest simulated core count (the width of the directory's
    /// sharer set).
    pub const MAX_CORES: usize = 1024;

    /// Configuration with `n` cores and defaults otherwise.
    pub fn with_cores(n: usize) -> Self {
        SystemConfig {
            num_cores: n,
            ..SystemConfig::default()
        }
    }

    /// Check the configuration once, where it enters the simulator
    /// (`Machine::new`, `CoherenceEngine::new`, replay): the core count
    /// is in `1..=MAX_CORES`, the sockets evenly divide the cores (the
    /// topology has no notion of a partially filled socket), and both
    /// cache levels have at least one set. Accessors such as
    /// [`SystemConfig::tiles_per_socket`] rely on it and do not re-check.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=Self::MAX_CORES).contains(&self.num_cores) {
            return Err(format!(
                "num_cores ({}) must be between 1 and {}",
                self.num_cores,
                Self::MAX_CORES
            ));
        }
        if self.sockets < 1 || !self.num_cores.is_multiple_of(self.sockets) {
            return Err(format!(
                "sockets ({}) must be at least 1 and divide num_cores ({})",
                self.sockets, self.num_cores
            ));
        }
        if self.l1_ways == 0 || self.l1_sets() == 0 {
            return Err(format!(
                "L1 geometry ({} KiB, {} ways) yields no sets",
                self.l1_kib, self.l1_ways
            ));
        }
        if self.l2_ways == 0 || self.l2_sets() == 0 {
            return Err(format!(
                "L2 geometry ({} KiB per slice, {} ways) yields no sets",
                self.l2_slice_kib, self.l2_ways
            ));
        }
        Ok(())
    }

    /// Tiles per socket (a [`SystemConfig::validate`]d configuration's
    /// sockets divide its cores evenly).
    pub fn tiles_per_socket(&self) -> usize {
        self.num_cores / self.sockets
    }

    /// Socket housing core/tile index `t` (socket-major numbering).
    pub fn socket_of(&self, t: usize) -> usize {
        t / self.tiles_per_socket()
    }

    /// Number of L1 sets implied by capacity/ways/line size.
    pub fn l1_sets(&self) -> usize {
        self.l1_kib * 1024 / crate::LINE_SIZE as usize / self.l1_ways
    }

    /// Number of L2 sets per slice implied by capacity/ways/line size.
    pub fn l2_sets(&self) -> usize {
        self.l2_slice_kib * 1024 / crate::LINE_SIZE as usize / self.l2_ways
    }

    /// Convert a cycle count to seconds at the configured frequency.
    pub fn cycles_to_secs(&self, cycles: Cycle) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Render the configuration as the paper's Table 1.
    pub fn table1(&self) -> String {
        format!(
            "Table 1: System Configuration\n\
             Core model           | {} cores, {} GHz, in-order\n\
             L1-I/D Cache per tile| {} KB, {}-way, {} cycle\n\
             L2 Cache per tile    | {} KB, {}-way, Inclusive, Tag/Data: {}/{} cycles\n\
             Cacheline size       | {} Bytes\n\
             Coherence Protocol   | MSI (Private L1, Shared L2 Cache hierarchy)\n\
             MAX_LEASE_TIME       | {} cycles\n\
             MAX_NUM_LEASES       | {}",
            self.num_cores,
            self.freq_ghz,
            self.l1_kib,
            self.l1_ways,
            self.l1_latency,
            self.l2_slice_kib,
            self.l2_ways,
            self.l2_tag_latency,
            self.l2_data_latency,
            crate::LINE_SIZE,
            self.lease.max_lease_time,
            self.lease.max_num_leases,
        )
    }
}

// The sweep driver in `lr-bench` instantiates one simulation per
// (series × threads) grid cell on parallel host worker threads;
// configurations are built once and moved/cloned into workers. Keep
// that property explicit: a non-Send/Sync field sneaking in here should
// fail compilation, not surface as a driver refactor.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SystemConfig>();
    assert_send_sync::<LeaseConfig>();
    assert_send_sync::<CoherenceProtocol>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = SystemConfig::default();
        assert_eq!(c.num_cores, 64);
        assert_eq!(c.l1_kib, 32);
        assert_eq!(c.l1_ways, 4);
        assert_eq!(c.l1_latency, 1);
        assert_eq!(c.l2_slice_kib, 256);
        assert_eq!(c.l2_ways, 8);
        assert_eq!(c.l2_tag_latency, 3);
        assert_eq!(c.l2_data_latency, 8);
        assert_eq!(c.lease.max_lease_time, 20_000);
    }

    #[test]
    fn derived_set_counts() {
        let c = SystemConfig::default();
        // 32 KiB / 64 B / 4 ways = 128 sets.
        assert_eq!(c.l1_sets(), 128);
        // 256 KiB / 64 B / 8 ways = 512 sets.
        assert_eq!(c.l2_sets(), 512);
    }

    #[test]
    fn default_configs_validate() {
        for n in [1, 64, SystemConfig::MAX_CORES] {
            assert_eq!(SystemConfig::with_cores(n).validate(), Ok(()));
        }
    }

    fn rejection(edit: impl FnOnce(&mut SystemConfig)) -> String {
        let mut c = SystemConfig::default();
        edit(&mut c);
        c.validate().expect_err("invalid config accepted")
    }

    #[test]
    fn validate_rejects_core_count_out_of_range() {
        assert!(rejection(|c| c.num_cores = 0).contains("num_cores (0)"));
        let e = rejection(|c| c.num_cores = SystemConfig::MAX_CORES + 1);
        assert!(e.contains("between 1 and 1024"), "{e}");
    }

    #[test]
    fn validate_rejects_bad_socket_layout() {
        assert!(rejection(|c| c.sockets = 0).contains("sockets (0)"));
        let e = rejection(|c| c.sockets = 3);
        assert!(e.contains("divide num_cores (64)"), "{e}");
    }

    #[test]
    fn validate_rejects_empty_l1() {
        assert!(rejection(|c| c.l1_ways = 0).contains("L1 geometry"));
        assert!(rejection(|c| c.l1_kib = 0).contains("L1 geometry"));
    }

    #[test]
    fn validate_rejects_empty_l2() {
        assert!(rejection(|c| c.l2_ways = 0).contains("L2 geometry"));
        assert!(rejection(|c| c.l2_slice_kib = 0).contains("L2 geometry"));
    }

    #[test]
    fn cycle_time_conversion() {
        let c = SystemConfig::default();
        assert!((c.cycles_to_secs(1_000_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table1_render_mentions_msi() {
        let t = SystemConfig::default().table1();
        assert!(t.contains("MSI"));
        assert!(t.contains("64 cores"));
    }
}
