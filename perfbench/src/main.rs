//! Simulator-speed benchmark: how fast this repository's simulator runs
//! the paper's cells, live and as engine-only replay, and at 1024 cores.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_live|paper_replay|numa_kilocore|all \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The process first confines itself to one host CPU, then for the
//! chosen workload sets up (several times, reporting the median), runs
//! whole passes over the workload's cells until `--seconds` are spent,
//! checks every simulated result, and prints a table and, as its last
//! line, one JSON object. `--trace 1` alternates untraced passes with
//! passes that record spans around every layer call, and reports
//! per-layer metrics instead of end-to-end ones. See NOTES.md.

mod cells;
mod host;
mod spans;
mod stats;

use cells::{Cell, DEFAULT_SEED};
use lr_sim_core::tracefmt::MachineTrace;
use spans::{SpanSet, Tracer};
use stats::{geomean, ratio, Counters};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Committed stats fingerprints of every cell at [`DEFAULT_SEED`].
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");
const PKG_DIR: &str = env!("CARGO_MANIFEST_DIR");
/// Untraced set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of the timed passes, the fastest ones, that the host-time
/// end-to-end metrics are taken from (see [`Phase::fastest`]).
const FAST_SHARE: f64 = 0.25;

const PAPER_THREADS: usize = 8;
const NUMA_THREADS: usize = 1024;

/// The paper cells, as `lr-bench` names them.
const PAPER_CELLS: [(&str, &str); 14] = [
    ("fig2_stack", "treiber-base"),
    ("fig2_stack", "treiber-lease"),
    ("fig3_queue", "msqueue-base"),
    ("fig3_queue", "msqueue-lease"),
    ("fig3_queue", "msqueue-multilease"),
    ("fig3_counter", "counter-tts-base"),
    ("fig3_counter", "counter-tts-lease"),
    ("fig4_tl2", "tl2-base"),
    ("fig4_tl2", "tl2-hw-multilease"),
    ("lock_showdown", "fc"),
    ("lock_showdown", "fc-lease"),
    ("tab_low_contention", "hashtable-base"),
    ("tab_low_contention", "hashtable-lease"),
    ("tab_lease_sensitivity", "stack-lease-1k"),
];

/// (lease series, base series) whose simulated throughput ratio makes
/// up `lease_speedup`. `stack-lease-1k` runs the Treiber cell's traffic
/// under a 1K-cycle lease bound, so its base is `treiber-base`.
const PAPER_PAIRS: [(&str, &str); 8] = [
    ("treiber-lease", "treiber-base"),
    ("msqueue-lease", "msqueue-base"),
    ("msqueue-multilease", "msqueue-base"),
    ("counter-tts-lease", "counter-tts-base"),
    ("tl2-hw-multilease", "tl2-base"),
    ("fc-lease", "fc"),
    ("hashtable-lease", "hashtable-base"),
    ("stack-lease-1k", "treiber-base"),
];

const NUMA_CELLS: [(&str, &str); 3] = [
    ("numa_serving", "msi.s4"),
    ("numa_serving", "lease.s4"),
    ("numa_serving", "nr.s4"),
];
const NUMA_PAIRS: [(&str, &str); 1] = [("lease.s4", "msi.s4")];

/// Scenarios whose `run_cell` runs a second simulation that it does
/// not record (`lock_showdown` adds a mild-contention run to the hot,
/// recorded one). Their live wall has no engine-only counterpart, so
/// the rendezvous split leaves them out.
const UNRECORDED_COMPANION: [&str; 1] = ["lock_showdown"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperLive,
    PaperReplay,
    NumaKilocore,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperLive,
        Workload::PaperReplay,
        Workload::NumaKilocore,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperLive => "paper_live",
            Workload::PaperReplay => "paper_replay",
            Workload::NumaKilocore => "numa_kilocore",
        }
    }

    fn cells(self, seed: u64) -> Vec<Cell> {
        let (list, threads): (&[(&str, &str)], usize) = match self {
            Workload::PaperLive | Workload::PaperReplay => (&PAPER_CELLS, PAPER_THREADS),
            Workload::NumaKilocore => (&NUMA_CELLS, NUMA_THREADS),
        };
        list.iter()
            .map(|&(sc, series)| Cell::new(sc, series, threads, seed))
            .collect()
    }

    fn pairs(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::NumaKilocore => &NUMA_PAIRS,
            _ => &PAPER_PAIRS,
        }
    }

    /// Whether set-up records the cells (the replay workloads replay
    /// what set-up recorded; a traced run records on every workload).
    fn records(self) -> bool {
        self != Workload::PaperLive
    }
}

/// Attempted and failed cell executions, with the first failures kept
/// for the report.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    first: Vec<String>,
}

impl Ledger {
    fn record<T>(&mut self, id: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                let msg = format!("{id}: {e}");
                eprintln!("FAILED {msg}");
                if self.first.len() < 8 {
                    self.first.push(msg);
                }
                None
            }
        }
    }
}

/// One cell's state across set-up and the timed phase.
struct CellRun {
    cell: Cell,
    /// Fingerprint every execution's stats must hash to: the committed
    /// one at the default seed, otherwise the first execution's.
    expect: Result<Option<u64>, String>,
    /// Simulated counters of the cell (identical on every execution).
    counters: Option<Counters>,
    /// The trace set-up recorded.
    bytes: Vec<u8>,
    /// `bytes`, decoded by set-up (numa_kilocore replays it as is).
    trace: Option<MachineTrace>,
    /// A failed cell is not run again.
    broken: bool,
}

impl CellRun {
    fn new(cell: Cell, committed: &BTreeMap<String, u64>, seed: u64) -> Self {
        let expect = if seed == DEFAULT_SEED {
            committed
                .get(&cell.id)
                .map(|&fp| Some(fp))
                .ok_or_else(|| format!("no committed fingerprint for {}", cell.id))
        } else {
            Ok(None)
        };
        CellRun {
            cell,
            expect,
            counters: None,
            bytes: Vec::new(),
            trace: None,
            broken: false,
        }
    }

    /// Check one execution's stats JSON against the expected fingerprint.
    fn check(&mut self, json: &str) -> Result<(), String> {
        let got = stats::fingerprint(json);
        match self.expect.clone()? {
            Some(want) if want != got => {
                return Err(format!(
                    "stats fingerprint {got:016x}, expected {want:016x}"
                ))
            }
            Some(_) => {}
            None => self.expect = Ok(Some(got)),
        }
        if self.counters.is_none() {
            self.counters = Some(Counters::from_json(json));
        }
        Ok(())
    }

    fn instructions(&self) -> u64 {
        self.counters.map_or(0, |c| c.instructions)
    }
}

fn parse_fingerprints(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (id, hex) = l
                .split_once(' ')
                .expect("fingerprint line is `<cell> <hex>`");
            let fp = u64::from_str_radix(hex.trim(), 16).expect("fingerprint is 64-bit hex");
            (id.to_string(), fp)
        })
        .collect()
}

/// Record one cell into `dir` and check the trace against the live
/// result. Keeps the decoded trace when `keep` asks for it.
fn record(
    run: &mut CellRun,
    i: usize,
    tr: &mut Tracer,
    dir: &Path,
    keep: bool,
) -> Result<(), String> {
    let (json, bytes) = tr.span("setup_record", i, |tr| {
        tr.span("run_cell", i, |_| run.cell.record(&dir.join(i.to_string())))
    })?;
    run.check(&json)?;
    let trace = cells::decode(tr, i, &bytes)?;
    if trace.stats_json != json {
        return Err("the recorded trace holds other stats than the live run".into());
    }
    run.trace = keep.then_some(trace);
    run.bytes = bytes;
    Ok(())
}

/// One set-up: record every cell (on the replay workloads, and on every
/// workload when traced), then execute every cell once, so the timed
/// phase starts warm. Returns its wall time.
fn set_up(
    w: Workload,
    runs: &mut [CellRun],
    ledger: &mut Ledger,
    tr: &mut Tracer,
    dir: &Path,
) -> Duration {
    let traced = tr.is_on();
    let t0 = Instant::now();
    if w.records() || traced {
        for (i, run) in runs.iter_mut().enumerate().filter(|(_, r)| !r.broken) {
            let mut res = record(run, i, tr, dir, traced || w == Workload::NumaKilocore);
            if res.is_ok() && traced {
                // The same cell live without recording: the base of
                // record.overhead_share.
                res = tr
                    .span("setup_live", i, |tr| {
                        tr.span("run_cell", i, |_| run.cell.run_live(None))
                    })
                    .and_then(|json| run.check(&json));
            }
            run.broken = ledger.record(&run.cell.id, res).is_none();
        }
    }
    for (i, run) in runs.iter_mut().enumerate().filter(|(_, r)| !r.broken) {
        let res = tr.span("setup_warmup", i, |tr| execute(w, run, i, tr));
        run.broken = ledger.record(&run.cell.id, res).is_none();
    }
    t0.elapsed()
}

/// The workload's path for one cell execution, timed end to end.
fn execute(w: Workload, run: &mut CellRun, i: usize, tr: &mut Tracer) -> Result<(), String> {
    let json = tr.span("cell", i, |tr| match w {
        Workload::PaperLive => tr.span("run_cell", i, |_| run.cell.run_live(None)),
        Workload::PaperReplay => {
            let trace = cells::decode(tr, i, &run.bytes)?;
            cells::verify(tr, i, &trace)
        }
        Workload::NumaKilocore => {
            let trace = run.trace.as_ref().expect("set-up decoded the trace");
            tr.span("engine_only", i, |tr| cells::verify_source(tr, i, trace))
                .map(|(json, _)| json)
        }
    })?;
    run.check(&json)
}

/// Traced runs only: the layer calls the per-layer metrics need, on
/// the cell's recorded trace. Returns (engine events, trace bytes).
fn reference(run: &mut CellRun, i: usize, tr: &mut Tracer) -> Result<(u64, u64), String> {
    let (json, events) = tr.span("reference", i, |tr| {
        let trace = cells::decode(tr, i, &run.bytes)?;
        cells::encode(tr, i, &trace);
        // lr_replay::verify refuses traces of more than 64 cores (see
        // NOTES.md); those are verified through run_source instead.
        let json = if trace.config.num_cores > 64 {
            tr.span("verify_source", i, |tr| cells::verify_source(tr, i, &trace))?
                .0
        } else {
            cells::verify(tr, i, &trace)?
        };
        let (_, events) = tr.span("engine_only_a", i, |tr| cells::engine_only(tr, i, &trace))?;
        tr.span("engine_only_b", i, |tr| cells::engine_only(tr, i, &trace))?;
        Ok::<_, String>((json, events))
    })?;
    run.check(&json)?;
    Ok((events, run.bytes.len() as u64))
}

/// What the passes of one kind (untraced or traced) measured.
#[derive(Default)]
struct Phase {
    /// Host ns per simulated instruction, one sample per execution.
    samples: Vec<f64>,
    instr: u64,
    ns: u64,
    passes: usize,
    /// Per pass: its simulated instructions, its host ns and the end of
    /// its run of `samples`.
    pass_log: Vec<(u64, u64, usize)>,
    /// Successful executions and their host ns, per cell.
    execs: Vec<u64>,
    cell_ns: Vec<u64>,
    /// Traced passes: engine events and trace bytes over the reference
    /// calls.
    events: u64,
    bytes: u64,
}

impl Phase {
    fn new(cells: usize) -> Self {
        Phase {
            execs: vec![0; cells],
            cell_ns: vec![0; cells],
            ..Phase::default()
        }
    }

    fn ns_per_instr(&self) -> f64 {
        ratio(self.ns, self.instr)
    }

    /// Simulated instructions over the executions of the cells `keep`
    /// accepts.
    fn instr_where(&self, runs: &[CellRun], keep: impl Fn(usize) -> bool) -> u64 {
        (0..runs.len())
            .filter(|&c| keep(c))
            .map(|c| self.execs[c] * runs[c].instructions())
            .sum()
    }

    /// One pass over the cells; a traced pass adds the reference calls.
    fn pass(&mut self, w: Workload, runs: &mut [CellRun], ledger: &mut Ledger, tr: &mut Tracer) {
        let (instr0, ns0) = (self.instr, self.ns);
        for (i, run) in runs.iter_mut().enumerate() {
            if run.broken {
                continue;
            }
            let t0 = Instant::now();
            let res = execute(w, run, i, tr);
            let dt = t0.elapsed().as_nanos() as u64;
            if ledger.record(&run.cell.id, res).is_none() {
                run.broken = true;
                continue;
            }
            let instr = run.instructions();
            self.samples.push(dt as f64 / instr as f64);
            self.instr += instr;
            self.ns += dt;
            self.execs[i] += 1;
            self.cell_ns[i] += dt;
            if tr.is_on() {
                let res = reference(run, i, tr);
                match ledger.record(&run.cell.id, res) {
                    Some((events, bytes)) => {
                        self.events += events;
                        self.bytes += bytes;
                    }
                    None => run.broken = true,
                }
            }
        }
        self.passes += 1;
        self.pass_log
            .push((self.instr - instr0, self.ns - ns0, self.samples.len()));
    }

    /// Simulated instructions per host second of each pass.
    fn pass_rates(&self) -> Vec<f64> {
        self.pass_log
            .iter()
            .map(|&(instr, ns, _)| ratio(instr, ns) * 1e9)
            .collect()
    }

    /// The fastest `share` of the passes, at least one. Load from other
    /// tenants of the host only ever adds time, and on a shared host it
    /// drifts over tens of seconds; these passes carry the least of it.
    /// A slower program slows every pass, so it shows here in full.
    fn fastest(&self, share: f64) -> Fastest {
        let rates = self.pass_rates();
        let mut order: Vec<usize> = (0..rates.len()).collect();
        order.sort_by(|&a, &b| rates[b].total_cmp(&rates[a]));
        order.truncate(((rates.len() as f64 * share).round() as usize).max(1));
        let mut out = Fastest {
            passes: order.len(),
            ..Fastest::default()
        };
        for k in order {
            let (instr, ns, end) = self.pass_log[k];
            let start = k.checked_sub(1).map_or(0, |j| self.pass_log[j].2);
            out.instr += instr;
            out.ns += ns;
            out.samples.extend_from_slice(&self.samples[start..end]);
        }
        out
    }
}

/// The passes [`Phase::fastest`] keeps.
#[derive(Default)]
struct Fastest {
    passes: usize,
    instr: u64,
    ns: u64,
    /// Host ns per simulated instruction, one sample per execution.
    samples: Vec<f64>,
}

/// Whole passes over the cells until `budget` is spent. Returns the
/// untraced passes and the traced ones. With a traced `tr`, untraced
/// and traced passes alternate, so drift in host speed falls on both
/// alike; otherwise the second phase stays empty.
fn timed(
    w: Workload,
    runs: &mut [CellRun],
    ledger: &mut Ledger,
    tr: &mut Tracer,
    budget: Duration,
) -> (Phase, Phase) {
    let mut off = Tracer::new(false);
    let (mut plain, mut traced) = (Phase::new(runs.len()), Phase::new(runs.len()));
    let start = Instant::now();
    while plain.passes == 0 || start.elapsed() < budget {
        if runs.iter().all(|r| r.broken) {
            break;
        }
        plain.pass(w, runs, ledger, &mut off);
        if tr.is_on() {
            traced.pass(w, runs, ledger, tr);
        }
    }
    (plain, traced)
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// The simulated results: deterministic, and guards only (the model is
/// not validated against hardware).
fn simulated(w: Workload, runs: &[CellRun]) -> Vec<Metric> {
    let by_series: BTreeMap<&str, Counters> = runs
        .iter()
        .filter_map(|r| Some((r.cell.series_name(), r.counters?)))
        .collect();
    let speedup = geomean(w.pairs().iter().filter_map(|(lease, base)| {
        Some(by_series.get(lease)?.ops_per_cycle() / by_series.get(base)?.ops_per_cycle())
    }));
    vec![
        metric(
            "sim_cycles_per_op",
            geomean(by_series.values().map(|c| ratio(c.total_cycles, c.app_ops))),
            "cycles",
        ),
        metric(
            "coh_msgs_per_op",
            geomean(by_series.values().map(|c| ratio(c.msgs, c.app_ops))),
            "msgs",
        ),
        metric("lease_speedup", speedup, "x"),
    ]
}

fn end_to_end(
    w: Workload,
    runs: &[CellRun],
    ledger: &Ledger,
    setups: &[f64],
    p: &Phase,
) -> Vec<Metric> {
    let fast = p.fastest(FAST_SHARE);
    let mut sorted = fast.samples;
    sorted.sort_by(f64::total_cmp);
    // The p90 is printed, not reported: it falls on the smallest cells,
    // whose fixed costs swing most with host load (see NOTES.md).
    let mut out = vec![
        Metric {
            note: format!("fastest {} of {} passes", fast.passes, p.passes),
            ..metric("sim_instr_per_s", ratio(fast.instr, fast.ns) * 1e9, "1/s")
        },
        Metric {
            note: format!("n={}, p90 {:.1}", sorted.len(), quantile(&sorted, 0.9)),
            ..metric("instr_ns_p50", quantile(&sorted, 0.5), "ns")
        },
        Metric {
            note: format!("median of {} set-ups", setups.len()),
            ..metric("setup_s", median(setups), "s")
        },
        metric("peak_rss_mib", host::peak_rss_mib(), "MiB"),
        Metric {
            note: format!(
                "cell_fail_ratio {} = {} of {} failed",
                ratio(ledger.failed, ledger.attempted),
                ledger.failed,
                ledger.attempted
            ),
            ..metric(
                "cell_pass_ratio",
                1.0 - ratio(ledger.failed, ledger.attempted),
                "ratio",
            )
        },
    ];
    out.extend(simulated(w, runs));
    out
}

/// Whether the cell's recording holds all the simulation its live run
/// does.
fn complete(run: &CellRun) -> bool {
    !UNRECORDED_COMPANION.contains(&run.cell.scenario.name)
}

fn per_layer(
    w: Workload,
    runs: &[CellRun],
    untraced: &Phase,
    traced: &Phase,
    set: &SpanSet,
    setup: &SpanSet,
) -> Vec<Metric> {
    let all = |_: usize| true;
    let instr = traced.instr_where(runs, all) as f64;
    let per_instr = |ns: u64| ns as f64 / instr;
    let eng_a = set.total("engine_only_a", "reference", all);
    let eng_b = set.total("engine_only_b", "reference", all);
    // Rendezvous: the live wall minus the engine-only wall on identical
    // traffic. The replay workloads have no handoff; there the two
    // engine-only passes are subtracted, which reads the noise floor.
    let (rdv_ns, rdv_base, rdv_instr) = if w == Workload::PaperLive {
        let full = |c: usize| complete(&runs[c]);
        let live = set.total("run_cell", "cell", full);
        let eng = set.total("engine_only_a", "reference", full);
        (
            live as f64 - eng as f64,
            live,
            traced.instr_where(runs, full),
        )
    } else {
        let cell_ns = set.total("cell", "", all);
        (
            eng_a as f64 - eng_b as f64,
            cell_ns,
            traced.instr_where(runs, all),
        )
    };
    let machine_setup: u64 = ["Machine::new", "restore"]
        .iter()
        .map(|n| set.total(n, "engine_only_a", all))
        .sum();
    let engine_execs: u64 = traced.execs.iter().sum();
    let verify_ns =
        set.total("verify", "reference", all) + set.total("verify_source", "reference", all);
    let recorded = setup.total("run_cell", "setup_record", all);
    let live = setup.total("run_cell", "setup_live", all);

    let mut c = Counters::default();
    for r in runs {
        if let Some(rc) = &r.counters {
            c.add(rc);
        }
    }
    vec![
        metric("rendezvous.ns_per_instr", rdv_ns / rdv_instr as f64, "ns"),
        metric("rendezvous.share", rdv_ns / rdv_base as f64, "ratio"),
        metric(
            "machine.ns_per_event",
            set.total("run_source", "engine_only_a", all) as f64 / traced.events as f64,
            "ns",
        ),
        metric(
            "machine.events_per_instr",
            traced.events as f64 / instr,
            "count",
        ),
        metric(
            "machine.setup_ms",
            machine_setup as f64 / 1e6 / engine_execs as f64,
            "ms",
        ),
        metric(
            "replay.check_ns_per_instr",
            per_instr(verify_ns) - per_instr(eng_a),
            "ns",
        ),
        metric(
            "tracefmt.decode_ns_per_instr",
            per_instr(set.total("decode", "reference", all)),
            "ns",
        ),
        metric(
            "tracefmt.encode_ns_per_instr",
            per_instr(set.total("encode", "reference", all)),
            "ns",
        ),
        metric("tracefmt.bytes_per_instr", traced.bytes as f64 / instr, "B"),
        metric(
            "record.overhead_share",
            (recorded as f64 - live as f64) / recorded as f64,
            "ratio",
        ),
        metric(
            "coherence.msgs_per_instr",
            ratio(c.msgs, c.instructions),
            "count",
        ),
        metric(
            "coherence.l1_miss_ratio",
            ratio(c.l1_misses, c.l1_hits + c.l1_misses),
            "ratio",
        ),
        metric(
            "coherence.dir_queue_wait_cycles_per_op",
            ratio(c.dir_queue_wait_cycles, c.app_ops),
            "cycles",
        ),
        metric(
            "coherence.invalidations_per_op",
            ratio(c.invalidations, c.app_ops),
            "count",
        ),
        metric("noc.flit_hops_per_msg", ratio(c.flit_hops, c.msgs), "count"),
        metric(
            "noc.cross_socket_msgs_per_op",
            ratio(c.cross_socket_msgs, c.app_ops),
            "count",
        ),
        metric(
            "lease.taken_per_op",
            ratio(c.leases_taken, c.app_ops),
            "count",
        ),
        metric(
            "lease.involuntary_share",
            ratio(
                c.releases_involuntary,
                c.releases_voluntary + c.releases_involuntary,
            ),
            "ratio",
        ),
        metric(
            "lease.probe_queued_cycles_per_probe",
            ratio(c.probe_queued_cycles, c.probes_queued),
            "cycles",
        ),
        metric(
            "ds.cas_success_ratio",
            1.0 - ratio(c.cas_failures, c.cas_attempts),
            "ratio",
        ),
        metric(
            "tracing.overhead_share",
            traced.ns_per_instr() / untraced.ns_per_instr() - 1.0,
            "ratio",
        ),
    ]
}

fn print_table(metrics: &[Metric]) {
    println!("  {:<42} {:>16}  {:<6}", "metric", "value", "unit");
    for m in metrics {
        println!(
            "  {:<42} {:>16.6}  {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, &Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

struct Report {
    ledger: Ledger,
    metrics: Vec<Metric>,
}

fn run_workload(w: Workload, seed: u64, seconds: f64, trace: bool, scratch: &Path) -> Report {
    let committed = parse_fingerprints(FINGERPRINTS);
    let mut runs: Vec<CellRun> = w
        .cells(seed)
        .into_iter()
        .map(|c| CellRun::new(c, &committed, seed))
        .collect();
    let mut ledger = Ledger::default();
    let dir = scratch.join(w.name());
    let budget = Duration::from_secs_f64(seconds);
    println!(
        "workload {}: {} cells at {} simulated cores, ops/thread {:?}",
        w.name(),
        runs.len(),
        runs[0].cell.threads,
        runs.iter()
            .map(|r| r.cell.ops)
            .collect::<std::collections::BTreeSet<_>>()
    );

    if !trace {
        let mut off = Tracer::new(false);
        let setups: Vec<f64> = (0..SETUP_REPS)
            .map(|_| set_up(w, &mut runs, &mut ledger, &mut off, &dir).as_secs_f64())
            .collect();
        let (p, _) = timed(w, &mut runs, &mut ledger, &mut off, budget);
        let mut rates = p.pass_rates();
        rates.sort_by(f64::total_cmp);
        let (lo, hi) = (rates.first(), rates.last());
        println!(
            "  set-up {:?} s; timed {} passes, {} executions, {:.3} s measured; \
             instr/s per pass min {:.0} median {:.0} max {:.0}",
            setups,
            p.passes,
            p.samples.len(),
            p.ns as f64 / 1e9,
            lo.copied().unwrap_or(0.0),
            quantile(&rates, 0.5),
            hi.copied().unwrap_or(0.0)
        );
        let metrics = end_to_end(w, &runs, &ledger, &setups, &p);
        print_table(&metrics);
        return Report { ledger, metrics };
    }

    let mut tr = Tracer::new(true);
    set_up(w, &mut runs, &mut ledger, &mut tr, &dir);
    let mark = tr.mark();
    let (untraced, traced) = timed(w, &mut runs, &mut ledger, &mut tr, budget);
    let set = SpanSet {
        spans: tr.since(mark),
        base: mark,
    };
    let setup = SpanSet {
        spans: &tr.since(0)[..mark],
        base: 0,
    };
    let metrics = per_layer(w, &runs, &untraced, &traced, &set, &setup);
    println!(
        "  {} untraced and {} traced passes, alternating; self time per span over the traced passes:",
        untraced.passes, traced.passes
    );
    let self_times = set.self_times();
    let total: u64 = self_times.values().sum();
    for (name, ns) in &self_times {
        println!(
            "    {:<16} {:>10.3} ms  {:>6.2}%",
            name,
            *ns as f64 / 1e6,
            100.0 * ratio(*ns, total)
        );
    }
    if w == Workload::PaperLive {
        // The live wall, untraced, against its traced split into
        // rendezvous and engine-only, over the same cells.
        let keep = |c: usize| complete(&runs[c]);
        let cells = (0..runs.len()).filter(|&c| keep(c)).count();
        let plain: u64 = (0..runs.len())
            .filter(|&c| keep(c))
            .map(|c| untraced.cell_ns[c])
            .sum();
        let plain = plain as f64 / untraced.instr_where(&runs, keep) as f64;
        let instr = traced.instr_where(&runs, keep) as f64;
        let live = set.total("run_cell", "cell", keep) as f64 / instr;
        let eng = set.total("engine_only_a", "reference", keep) as f64 / instr;
        println!(
            "  live wall over the {cells} cells with complete traces: untraced {plain:.1} ns/instr; \
             traced rendezvous {:.1} + engine-only {eng:.1} = {live:.1} ns/instr \
             (shares {:.4} + {:.4}); traced/untraced - 1 = {:+.4}, tracing overhead {:+.4}",
            live - eng,
            (live - eng) / live,
            eng / live,
            live / plain - 1.0,
            traced.ns_per_instr() / untraced.ns_per_instr() - 1.0,
        );
    }
    print_table(&metrics);
    let path = Path::new(PKG_DIR)
        .join("out")
        .join(format!("spans_{}.jsonl", w.name()));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| tr.write_jsonl(&path));
    if let Err(e) = written {
        eprintln!("cannot write spans to {}: {e}", path.display());
    }
    Report { ledger, metrics }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => a.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                a.workloads = vec![w];
            }
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Rewrite fingerprints.txt from live runs of every cell at the default
/// seed. Only for a change that is meant to alter simulated results.
fn bless() -> Result<(), String> {
    let mut text = String::from(
        "# FNV-1a 64 of each cell's MachineStats JSON at the default seed.\n\
         # Regenerate only for a change meant to alter simulated results:\n\
         # cargo run --release --manifest-path perfbench/Cargo.toml -- --bless\n",
    );
    for w in [Workload::PaperLive, Workload::NumaKilocore] {
        for cell in w.cells(DEFAULT_SEED) {
            let json = cell
                .run_live(None)
                .map_err(|e| format!("{}: {e}", cell.id))?;
            text.push_str(&format!("{} {:016x}\n", cell.id, stats::fingerprint(&json)));
        }
    }
    let path = Path::new(PKG_DIR).join("fingerprints.txt");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    // Default engine configuration only: an LR_* knob would measure
    // something users do not run.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("LR_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: unset {knobs:?}; the benchmark measures the default configuration");
        std::process::exit(2);
    }
    let pin = host::confine_to_one_cpu().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    println!(
        "perfbench: confined to CPU {} (nproc {} before confinement); seed {}; {} s per workload; trace {}",
        pin.cpu,
        pin.nproc,
        args.seed,
        args.seconds,
        args.trace as u8
    );
    if args.bless {
        if let Err(e) = bless() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        println!("fingerprints.txt rewritten");
        return;
    }

    let out = PathBuf::from(PKG_DIR).join("out");
    let scratch = out.join(format!("run-{}", std::process::id()));
    let reports: Vec<(Workload, Report)> = args
        .workloads
        .iter()
        .map(|&w| {
            (
                w,
                run_workload(w, args.seed, args.seconds, args.trace, &scratch),
            )
        })
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);

    let (attempted, failed) = reports.iter().fold((0, 0), |(a, f), (_, r)| {
        (a + r.ledger.attempted, f + r.ledger.failed)
    });
    for (w, r) in &reports {
        for msg in &r.ledger.first {
            println!("  {} failure: {msg}", w.name());
        }
    }
    let single = reports.len() == 1;
    let named: Vec<(String, &Metric)> = reports
        .iter()
        .flat_map(|(w, r)| {
            r.metrics.iter().map(move |m| {
                let name = if single {
                    m.name.to_string()
                } else {
                    format!("{}.{}", w.name(), m.name)
                };
                (name, m)
            })
        })
        .collect();
    let line = json_line(failed == 0, attempted, failed, &named);
    let file = out.join(format!(
        "result_{}_trace{}.json",
        if single { reports[0].0.name() } else { "all" },
        args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&file, &line)) {
        eprintln!("cannot write {}: {e}", file.display());
    }
    println!("{line}");
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        Path::new(PKG_DIR)
            .join("out")
            .join(format!("test-{name}-{}", std::process::id()))
    }

    /// A small cell with its true fingerprint flipped by one bit.
    fn corrupted(seed: u64) -> (Cell, BTreeMap<String, u64>) {
        let cell = Cell::new("fig3_counter", "counter-tts-lease", 2, seed);
        let json = cell.run_live(None).expect("cell runs");
        let committed = BTreeMap::from([(cell.id.clone(), stats::fingerprint(&json) ^ 1)]);
        (cell, committed)
    }

    #[test]
    fn corrupted_fingerprint_is_a_failed_cell_live_and_replayed() {
        for w in [Workload::PaperLive, Workload::PaperReplay] {
            let (cell, committed) = corrupted(DEFAULT_SEED);
            let mut runs = vec![CellRun::new(cell, &committed, DEFAULT_SEED)];
            let mut ledger = Ledger::default();
            let dir = scratch(w.name());
            set_up(w, &mut runs, &mut ledger, &mut Tracer::new(false), &dir);
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!((ledger.attempted, ledger.failed), (1, 1), "{}", w.name());
            assert!(runs[0].broken);
            assert!(
                ledger.first[0].contains("fingerprint"),
                "{}",
                ledger.first[0]
            );
        }
    }

    #[test]
    fn true_fingerprint_passes_and_other_seeds_learn_theirs() {
        let (cell, mut committed) = corrupted(DEFAULT_SEED);
        for fp in committed.values_mut() {
            *fp ^= 1;
        }
        let mut run = CellRun::new(cell, &committed, DEFAULT_SEED);
        let json = run.cell.run_live(None).expect("cell runs");
        assert_eq!(run.check(&json), Ok(()));

        // Off the default seed the first result is learned, and any
        // later result must repeat it.
        let other = Cell::new("fig3_counter", "counter-tts-lease", 2, 7);
        let mut run = CellRun::new(other, &BTreeMap::new(), 7);
        let json = run.cell.run_live(None).expect("cell runs");
        assert_eq!(run.check(&json), Ok(()));
        assert!(run.check(&json.replacen('1', "2", 1)).is_err());
    }

    #[test]
    fn fastest_keeps_the_quickest_passes_and_their_samples() {
        // Three passes at 2, 1 and 4 instructions per ns; the second
        // has one sample, the others two.
        let p = Phase {
            samples: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            passes: 3,
            pass_log: vec![(20, 10, 2), (10, 10, 3), (40, 10, 5)],
            ..Phase::default()
        };
        let f = p.fastest(0.5);
        assert_eq!((f.passes, f.instr, f.ns), (2, 60, 20));
        assert_eq!(f.samples, vec![0.4, 0.5, 0.1, 0.2]);
        let f = p.fastest(0.1);
        assert_eq!((f.passes, f.samples.len()), (1, 2), "at least one pass");
    }

    #[test]
    fn peak_rss_counts_memory_this_process_touched() {
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        let peak = host::peak_rss_mib();
        assert!(peak >= 64.0, "{peak} MiB");
        drop(block);
    }

    #[test]
    fn every_cell_has_a_committed_fingerprint() {
        let committed = parse_fingerprints(FINGERPRINTS);
        for w in Workload::ALL {
            for cell in w.cells(DEFAULT_SEED) {
                assert!(committed.contains_key(&cell.id), "{} missing", cell.id);
            }
        }
    }

    #[test]
    fn seed_perturbs_ops_within_an_eighth() {
        let sc = lr_bench::find("fig2_stack").expect("registered");
        assert_eq!(cells::ops_for(sc, DEFAULT_SEED), sc.default_ops);
        let ops: Vec<u64> = (1..50).map(|s| cells::ops_for(sc, s)).collect();
        assert!(ops
            .iter()
            .all(|&o| o > sc.default_ops && o <= sc.default_ops + sc.default_ops / 8));
        assert!(ops.iter().any(|&o| o != ops[0]), "the seed must matter");
    }
}
