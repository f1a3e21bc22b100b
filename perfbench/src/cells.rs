//! The registry cells the benchmark runs, the seed's effect on them,
//! and the layer calls one cell execution is made of. Every call goes
//! through a layer's public API, exactly as `lr-bench`, `lr-replay` and
//! the fuzz farm call it; spans wrap each call from out here.

use crate::spans::Tracer;
use lr_bench::{CellCtx, RecordTo, Scenario};
use lr_machine::{Machine, MachineStats};
use lr_replay::ReplaySource;
use lr_sim_core::tracefmt::{self, MachineTrace};
use lr_sim_mem::SimMemory;
use std::path::Path;

/// The seed the committed fingerprints cover: cells run at their
/// registry default operation counts.
pub const DEFAULT_SEED: u64 = 0;

/// One registry cell at a fixed thread count and operation count.
pub struct Cell {
    /// `scenario/series/tN`, the key of the fingerprint file.
    pub id: String,
    pub scenario: &'static Scenario,
    pub series: usize,
    pub threads: usize,
    pub ops: u64,
}

/// Per-thread operation count for a scenario under `seed`: the registry
/// default at [`DEFAULT_SEED`], otherwise up to 1/8 more, drawn from the
/// seed and the scenario name. Every series of a scenario gets the same
/// count, so paired base/lease cells keep running the same traffic (and
/// `numa_serving`'s key streams, generated from the count, change with
/// the seed).
pub fn ops_for(scenario: &Scenario, seed: u64) -> u64 {
    let base = scenario.default_ops;
    if seed == DEFAULT_SEED {
        return base;
    }
    let name_hash = scenario
        .name
        .bytes()
        .fold(seed, |h, b| h.rotate_left(5) ^ b as u64);
    let extra = lr_sim_core::SplitMix64::new(name_hash).next_u64() % (base / 8).max(1);
    base + 1 + extra
}

impl Cell {
    /// Look up `scenario/series` in the registry.
    pub fn new(scenario: &str, series: &str, threads: usize, seed: u64) -> Self {
        let sc = lr_bench::find(scenario).unwrap_or_else(|| panic!("no scenario {scenario}"));
        let idx = sc
            .series_index(series)
            .unwrap_or_else(|| panic!("{scenario} has no series {series}"));
        Cell {
            id: format!("{scenario}/{series}/t{threads}"),
            scenario: sc,
            series: idx,
            threads,
            ops: ops_for(sc, seed),
        }
    }

    pub fn series_name(&self) -> &'static str {
        self.scenario.series[self.series]
    }

    fn ctx(&self, record: Option<RecordTo>) -> CellCtx {
        CellCtx {
            series: self.series,
            threads: self.threads,
            ops: self.ops,
            record,
        }
    }

    /// Run the cell live through `Scenario::run_cell`, as `lr-bench`
    /// runs a figure, and return its stats JSON. A panic (including an
    /// in-cell assert) becomes an `Err`.
    pub fn run_live(&self, record: Option<RecordTo>) -> Result<String, String> {
        let ctx = self.ctx(record);
        let run = self.scenario.run_cell;
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&ctx)))
            .map_err(|p| format!("panicked: {}", panic_message(&p)))?;
        Ok(out.row.stats_json)
    }

    /// Run the cell live with `CellCtx.record` pointing at `dir`, and
    /// return its stats JSON and the encoded trace it wrote.
    pub fn record(&self, dir: &Path) -> Result<(String, Vec<u8>), String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        let json = self.run_live(Some(RecordTo {
            dir: dir.to_path_buf(),
            label: self.id.replace('/', "."),
        }))?;
        let files = lr_replay::trace_files(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let [file] = files.as_slice() else {
            return Err(format!(
                "expected one trace in {}, found {}",
                dir.display(),
                files.len()
            ));
        };
        let bytes = std::fs::read(file).map_err(|e| format!("{}: {e}", file.display()))?;
        Ok((json, bytes))
    }
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// `tracefmt::decode`.
pub fn decode(tr: &mut Tracer, cell: usize, bytes: &[u8]) -> Result<MachineTrace, String> {
    tr.span("decode", cell, |_| tracefmt::decode(bytes))
        .map_err(|e| format!("decode: {e}"))
}

/// `tracefmt::encode`; returns the encoded size.
pub fn encode(tr: &mut Tracer, cell: usize, trace: &MachineTrace) -> usize {
    tr.span("encode", cell, |_| {
        std::hint::black_box(tracefmt::encode(trace)).len()
    })
}

/// `lr_replay::verify`: replay with in-flight reply checks, then the
/// stats-JSON and event-count checks. Returns the replayed stats JSON.
pub fn verify(tr: &mut Tracer, cell: usize, trace: &MachineTrace) -> Result<String, String> {
    tr.span("verify", cell, |_| lr_replay::verify(trace))
        .map(|s| s.to_json())
        .map_err(|d| format!("replay diverged: {d}"))
}

/// Raw engine-only replay: `Machine::new`, `SimMemory::restore` and
/// `Machine::run_source` fed by a `ReplaySource`, which still checks
/// every reply in flight. Returns the stats and the engine event count.
pub fn engine_only(
    tr: &mut Tracer,
    cell: usize,
    trace: &MachineTrace,
) -> Result<(MachineStats, u64), String> {
    let mut m = tr.span("Machine::new", cell, |_| Machine::new(trace.config.clone()));
    tr.span("restore", cell, |_| {
        m.setup(|mem| *mem = SimMemory::restore(&trace.mem))
    });
    let mut source = ReplaySource::new(trace);
    let run = tr.span("run_source", cell, |_| {
        m.run_source(trace.cores.len(), &mut source)
    });
    match run {
        Ok((stats, _mem, events)) => Ok((stats, events)),
        Err(abort) => Err(match source.take_divergence() {
            Some(d) => format!("replay diverged: {d}"),
            None => format!("replay aborted: {}", abort.reason),
        }),
    }
}

/// [`engine_only`] plus the two end-of-run checks `verify` makes — the
/// stats JSON and the event count must equal the recording's. This is
/// how traces with more than 64 cores are verified (see NOTES.md).
/// Returns the replayed stats JSON and the event count.
pub fn verify_source(
    tr: &mut Tracer,
    cell: usize,
    trace: &MachineTrace,
) -> Result<(String, u64), String> {
    let (stats, events) = engine_only(tr, cell, trace)?;
    tr.span("check", cell, |_| {
        let json = stats.to_json();
        if json != trace.stats_json {
            return Err("replayed MachineStats differ from the recording".to_string());
        }
        if events != trace.live_events {
            return Err(format!(
                "replay processed {events} events, the recording {}",
                trace.live_events
            ));
        }
        Ok((json, events))
    })
}
