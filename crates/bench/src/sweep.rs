//! The deterministic sweep driver: expands scenarios into a flat list
//! of independent (series × threads) grid cells, executes sim cells
//! across parallel host workers, and merges rows back in canonical
//! order — the output stream is byte-identical to a serial run
//! (`--jobs 1`), because every cell is a deterministic simulation and
//! emission order is fixed by the plan, not by completion order.
//!
//! Host (wall-clock) cells run serially on the calling thread after all
//! sim cells, so worker contention never perturbs native timing; the
//! registry keeps host scenarios last so the merge stays in order.

use crate::harness::{threads_sweep, BenchRow};
use crate::report::{JsonPolicy, Report};
use crate::scenario::{CellCtx, CellOut, RecordTo, Scenario, ScenarioKind};
use crate::scenarios;
use lr_sim_core::SystemConfig;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One grid cell: a single deterministic measurement.
#[derive(Clone, Copy)]
pub struct CellSpec {
    pub scenario: &'static Scenario,
    pub series: usize,
    pub threads: usize,
    pub ops: u64,
}

/// A fully expanded sweep: cells in canonical emission order.
pub struct Plan {
    pub cells: Vec<CellSpec>,
    pub jobs: usize,
    pub json: JsonPolicy,
    /// When set, every cell's simulations dump traces into this
    /// directory (the `--record` flag), labelled per cell.
    pub record_dir: Option<PathBuf>,
}

/// Everything that selects and scales a sweep. `Default` gives the full
/// registry at the paper's thread counts and per-scenario default ops.
pub struct PlanOpts {
    /// Scenarios to run, in canonical order (default: whole registry).
    pub scenarios: Vec<&'static Scenario>,
    /// Keep only series whose name contains this substring.
    pub series_filter: Option<String>,
    /// Explicit thread axis (default: paper sweep capped by
    /// `env.max_threads`).
    pub threads: Option<Vec<usize>>,
    /// Per-thread operation-count override (`--ops` / smoke mode);
    /// takes precedence over every environment knob.
    pub ops: Option<u64>,
    /// Environment knobs, read once at the entry point (default: none
    /// set), so planning itself never consults the environment.
    pub env: EnvKnobs,
    /// Worker thread count for sim cells.
    pub jobs: usize,
    pub json: JsonPolicy,
    /// Trace-record directory (`--record DIR` / [`EnvKnobs::trace_dir`]).
    /// Threaded through the plan to each cell explicitly; workers never
    /// consult the environment.
    pub record_dir: Option<PathBuf>,
}

impl Default for PlanOpts {
    fn default() -> Self {
        PlanOpts {
            scenarios: scenarios::registry().to_vec(),
            series_filter: None,
            threads: None,
            ops: None,
            env: EnvKnobs::default(),
            jobs: default_jobs(),
            json: JsonPolicy::disabled(),
            record_dir: None,
        }
    }
}

/// Host parallelism, the default `--jobs`.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Cap the sim-cell worker count at host parallelism. Every cell's
/// machine runs on one host thread of its own, so more concurrent
/// cells than host threads only oversubscribe. Pure — the caller supplies host parallelism.
pub fn clamp_jobs(jobs: usize, host: usize) -> usize {
    jobs.min(host).max(1)
}

/// Cap for the default paper thread sweep when `LR_MAX_THREADS` is unset.
const DEFAULT_MAX_THREADS: usize = 64;

/// The sweep driver's sizing and output knobs from the environment.
/// Read them once, at an entry point ([`EnvKnobs::from_env`]); a set but
/// unparsable value is an error that names the variable, never silently
/// ignored. An empty value counts as unset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvKnobs {
    /// `LR_MAX_THREADS`: cap for the default paper thread sweep.
    pub max_threads: Option<usize>,
    /// `LR_OPS`: per-thread operations for every scenario.
    pub ops: Option<u64>,
    /// The scenario-specific op knobs that are set (`Scenario::ops_env`,
    /// e.g. `LR_NUMA_OPS`), which beat `LR_OPS` for their scenario.
    pub scenario_ops: Vec<(&'static str, u64)>,
    /// `LR_NO_JSON=1`: write no `BENCH_*.json` files (`0` keeps them).
    pub no_json: bool,
    /// Where `BENCH_*.json` files go: `LR_JSON_DIR`, else the workspace
    /// root when cargo runs the driver (`CARGO_MANIFEST_DIR/../..`);
    /// `None` means the working directory.
    pub json_dir: Option<PathBuf>,
    /// `LR_TRACE_DIR`: entry-point alias for `--record DIR`.
    pub trace_dir: Option<PathBuf>,
}

impl EnvKnobs {
    /// Read every knob from the process environment.
    pub fn from_env() -> Result<EnvKnobs, String> {
        Self::parse(|k| std::env::var_os(k).map(|v| v.to_string_lossy().into_owned()))
    }

    /// Read every knob through `get` (a variable's value, if set).
    fn parse(get: impl Fn(&str) -> Option<String>) -> Result<EnvKnobs, String> {
        let set = |var: &str| get(var).filter(|v| !v.is_empty());
        let count = |var: &str| -> Result<Option<u64>, String> {
            match set(var) {
                None => Ok(None),
                Some(v) => match v.trim().parse::<u64>() {
                    Ok(n) if n > 0 => Ok(Some(n)),
                    _ => Err(format!("{var} must be a positive integer, got {v:?}")),
                },
            }
        };
        let mut scenario_ops = Vec::new();
        for var in scenarios::registry().iter().filter_map(|sc| sc.ops_env) {
            if let Some(n) = count(var)? {
                scenario_ops.push((var, n));
            }
        }
        let no_json = match set("LR_NO_JSON").as_deref().map(str::trim) {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("LR_NO_JSON must be 1, 0 or empty, got {v:?}")),
        };
        // Cargo runs the driver with cwd = the package dir; default to
        // the workspace root instead of scattering files under
        // crates/bench/.
        let json_dir =
            set("LR_JSON_DIR").or_else(|| set("CARGO_MANIFEST_DIR").map(|m| format!("{m}/../..")));
        Ok(EnvKnobs {
            max_threads: count("LR_MAX_THREADS")?.map(|n| n as usize),
            ops: count("LR_OPS")?,
            scenario_ops,
            no_json,
            json_dir: json_dir.map(PathBuf::from),
            trace_dir: set("LR_TRACE_DIR").map(PathBuf::from),
        })
    }

    /// The JSON export these knobs select. Creates the directory if it
    /// is missing; an unusable one warns once and disables the export.
    pub fn json_policy(&self) -> JsonPolicy {
        if self.no_json {
            return JsonPolicy::disabled();
        }
        JsonPolicy::in_dir(self.json_dir.clone().unwrap_or_else(|| PathBuf::from(".")))
    }

    /// One scenario's per-thread operation count: explicit override
    /// (`--ops`) > its own env knob (e.g. `LR_NATIVE_OPS`) > `LR_OPS` >
    /// the scenario default.
    fn ops_for(&self, sc: &Scenario, over: Option<u64>) -> u64 {
        let own = sc.ops_env.and_then(|var| {
            self.scenario_ops
                .iter()
                .find(|&&(v, _)| v == var)
                .map(|&(_, n)| n)
        });
        over.or(own).or(self.ops).unwrap_or(sc.default_ops)
    }
}

/// Expand `opts` into the canonical cell list: scenario-major (registry
/// order), series-major within a scenario, threads ascending.
pub fn build_plan(opts: &PlanOpts) -> Plan {
    let host_cap = default_jobs();
    let mut cells = Vec::new();
    for sc in &opts.scenarios {
        let ops = opts.env.ops_for(sc, opts.ops);
        let mut axis = opts
            .threads
            .clone()
            .unwrap_or_else(|| threads_sweep(opts.env.max_threads.unwrap_or(DEFAULT_MAX_THREADS)));
        if sc.kind == ScenarioKind::Host {
            // Wall-clock cells beyond the host's cores only oversubscribe.
            axis.retain(|&t| t <= host_cap);
            if axis.is_empty() {
                axis.push(1);
            }
        }
        for (series, name) in sc.series.iter().enumerate() {
            if let Some(f) = &opts.series_filter {
                if !name.contains(f.as_str()) {
                    continue;
                }
            }
            for &threads in &axis {
                cells.push(CellSpec {
                    scenario: sc,
                    series,
                    threads,
                    ops,
                });
            }
        }
    }
    // Sim cells form a prefix (registry keeps host scenarios last);
    // the executor depends on that.
    debug_assert!(cells
        .windows(2)
        .all(|w| !(w[0].scenario.kind != ScenarioKind::Sim
            && w[1].scenario.kind == ScenarioKind::Sim)));
    let jobs = clamp_jobs(opts.jobs.max(1), host_cap);
    if jobs < opts.jobs.max(1) {
        eprintln!(
            "lr-bench: clamping --jobs {} to {jobs}: every cell runs on one \
             host thread and the host has {host_cap} (output is byte-identical \
             for any job count)",
            opts.jobs.max(1)
        );
    }
    Plan {
        cells,
        jobs,
        json: opts.json.clone(),
        record_dir: opts.record_dir.clone(),
    }
}

/// The full per-cell context handed to `run_cell`: the grid coordinates
/// plus this cell's trace destination, labelled
/// `scenario.series-name.tN` so concurrent cells recording into one
/// directory produce distinct, meaningful filenames.
fn cell_ctx(plan: &Plan, c: &CellSpec) -> CellCtx {
    CellCtx {
        series: c.series,
        threads: c.threads,
        ops: c.ops,
        record: plan.record_dir.as_ref().map(|dir| RecordTo {
            dir: dir.clone(),
            label: format!(
                "{}.{}.t{}",
                c.scenario.name, c.scenario.series[c.series], c.threads
            ),
        }),
    }
}

/// Streaming merge state: emits completed cells strictly in plan order,
/// opening/closing one [`Report`] per scenario as the cursor crosses
/// scenario boundaries.
struct Emitter<'a> {
    plan: &'a Plan,
    out: &'a mut (dyn Write + Send),
    results: Vec<Option<CellOut>>,
    cursor: usize,
    report: Option<Report>,
    /// Rows already emitted for the cursor's current series (input to
    /// the scenario's `annotate` hook).
    series_rows: Vec<BenchRow>,
    header_cfg: SystemConfig,
}

impl<'a> Emitter<'a> {
    fn new(plan: &'a Plan, out: &'a mut (dyn Write + Send)) -> Self {
        Emitter {
            results: (0..plan.cells.len()).map(|_| None).collect(),
            cursor: 0,
            report: None,
            series_rows: Vec::new(),
            // Headers print the paper's Table 1 (the full 64-core
            // configuration), as the standalone benches always did.
            header_cfg: SystemConfig::default(),
            plan,
            out,
        }
    }

    /// Record cell `i`'s result and emit every cell that is now ready
    /// in canonical order.
    fn complete(&mut self, i: usize, cell_out: CellOut) {
        self.results[i] = Some(cell_out);
        while self.cursor < self.results.len() && self.results[self.cursor].is_some() {
            let co = self.results[self.cursor].take().expect("checked above");
            self.emit(self.cursor, co);
            self.cursor += 1;
        }
        if self.cursor == self.results.len() {
            self.close_report();
        }
    }

    fn emit(&mut self, idx: usize, co: CellOut) {
        let cell = &self.plan.cells[idx];
        let scenario_changed =
            idx == 0 || !std::ptr::eq(self.plan.cells[idx - 1].scenario, cell.scenario);
        if scenario_changed {
            self.close_report();
            self.report = Some(Report::begin(
                self.out,
                cell.scenario.title,
                &self.header_cfg,
                &self.plan.json,
            ));
            self.series_rows.clear();
        } else if self.plan.cells[idx - 1].series != cell.series {
            self.series_rows.clear();
        }
        let report = self.report.as_mut().expect("opened above");
        if let Some(annotate) = cell.scenario.annotate {
            for line in annotate(&self.series_rows, &co.row) {
                report.extra(self.out, &line);
            }
        }
        report.row(self.out, &co.row);
        for line in &co.post {
            report.extra(self.out, line);
        }
        self.series_rows.push(co.row);
    }

    fn close_report(&mut self) {
        if let Some(mut r) = self.report.take() {
            // The scenario that just finished is the one owning the
            // previous cell.
            if self.cursor > 0 {
                if let Some(f) = self.plan.cells[self.cursor - 1].scenario.footer {
                    r.line(self.out, f);
                }
            }
            r.finish(self.out);
        }
    }

    fn assert_drained(&self) {
        assert_eq!(
            self.cursor,
            self.results.len(),
            "sweep ended with unemitted cells"
        );
    }
}

/// Execute the plan: sim cells on `plan.jobs` worker threads (merged in
/// canonical order as they complete), then host cells serially.
pub fn run(plan: &Plan, out: &mut (dyn Write + Send)) {
    let sim_cells = plan
        .cells
        .iter()
        .take_while(|c| c.scenario.kind == ScenarioKind::Sim)
        .count();
    let emit = Mutex::new(Emitter::new(plan, out));
    let next = AtomicUsize::new(0);
    let workers = plan.jobs.min(sim_cells);
    if workers > 1 {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= sim_cells {
                        break;
                    }
                    let c = &plan.cells[i];
                    let co = (c.scenario.run_cell)(&cell_ctx(plan, c));
                    emit.lock().unwrap().complete(i, co);
                });
            }
        });
    } else {
        for i in 0..sim_cells {
            let c = &plan.cells[i];
            let co = (c.scenario.run_cell)(&cell_ctx(plan, c));
            emit.lock().unwrap().complete(i, co);
        }
    }
    let mut em = emit.into_inner().unwrap();
    for i in sim_cells..plan.cells.len() {
        let c = &plan.cells[i];
        let co = (c.scenario.run_cell)(&cell_ctx(plan, c));
        em.complete(i, co);
    }
    em.assert_drained();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(vars: &[(&str, &str)]) -> Result<EnvKnobs, String> {
        EnvKnobs::parse(|k| {
            vars.iter()
                .find(|&&(name, _)| name == k)
                .map(|&(_, v)| v.to_string())
        })
    }

    #[test]
    fn env_knobs_parse_set_values_and_skip_unset_or_empty() {
        assert_eq!(knobs(&[]), Ok(EnvKnobs::default()));
        let k = knobs(&[
            ("LR_OPS", "20"),
            ("LR_MAX_THREADS", " 4 "),
            ("LR_NUMA_OPS", "7"),
            ("LR_NO_JSON", ""),
            ("LR_TRACE_DIR", ""),
        ])
        .unwrap();
        assert_eq!(k.ops, Some(20));
        assert_eq!(k.max_threads, Some(4));
        assert_eq!(k.scenario_ops, [("LR_NUMA_OPS", 7)]);
        assert!(!k.no_json);
        assert_eq!(k.trace_dir, None);
        let numa = scenarios::find("numa_serving").unwrap();
        let stack = scenarios::find("fig2_stack").unwrap();
        assert_eq!(k.ops_for(numa, None), 7, "own knob beats LR_OPS");
        assert_eq!(k.ops_for(stack, None), 20);
        assert_eq!(k.ops_for(numa, Some(3)), 3, "--ops beats every knob");
        assert_eq!(EnvKnobs::default().ops_for(stack, None), stack.default_ops);
    }

    #[test]
    fn env_knobs_reject_unparsable_values_by_name() {
        for var in ["LR_OPS", "LR_MAX_THREADS", "LR_NUMA_OPS"] {
            for bad in ["abc", "-3", "0", "1.5"] {
                let err = knobs(&[(var, bad)]).expect_err(bad);
                assert!(
                    err.starts_with(var) && err.contains(&format!("{bad:?}")),
                    "{var}={bad}: {err}"
                );
            }
        }
    }

    #[test]
    fn json_knobs_accept_only_one_zero_or_empty() {
        for (v, off) in [("1", true), (" 1 ", true), ("0", false), ("", false)] {
            assert_eq!(knobs(&[("LR_NO_JSON", v)]).unwrap().no_json, off, "{v:?}");
        }
        for bad in ["true", "yes", "2", "on"] {
            let err = knobs(&[("LR_NO_JSON", bad)]).expect_err(bad);
            assert!(
                err.starts_with("LR_NO_JSON") && err.contains(&format!("{bad:?}")),
                "LR_NO_JSON={bad}: {err}"
            );
        }
        let dir = |vars: &[(&str, &str)]| knobs(vars).unwrap().json_dir;
        assert_eq!(dir(&[]), None, "no knob and no cargo: working directory");
        assert_eq!(
            dir(&[("CARGO_MANIFEST_DIR", "/w/crates/bench")]),
            Some(PathBuf::from("/w/crates/bench/../..")),
            "under cargo: the workspace root"
        );
        assert_eq!(
            dir(&[
                ("CARGO_MANIFEST_DIR", "/w/crates/bench"),
                ("LR_JSON_DIR", "out")
            ]),
            Some(PathBuf::from("out")),
            "LR_JSON_DIR beats the workspace root"
        );
        assert_eq!(
            dir(&[("LR_JSON_DIR", "")]),
            None,
            "an empty LR_JSON_DIR counts as unset"
        );
        let trace = knobs(&[("LR_TRACE_DIR", "traces")]).unwrap().trace_dir;
        assert_eq!(trace, Some(PathBuf::from("traces")));
    }

    #[test]
    fn plan_is_scenario_then_series_then_threads_ordered() {
        let opts = PlanOpts {
            scenarios: vec![
                scenarios::find("fig2_stack").unwrap(),
                scenarios::find("fig3_queue").unwrap(),
            ],
            threads: Some(vec![2, 4]),
            ops: Some(4),
            ..PlanOpts::default()
        };
        let plan = build_plan(&opts);
        let got: Vec<_> = plan
            .cells
            .iter()
            .map(|c| (c.scenario.name, c.series, c.threads))
            .collect();
        assert_eq!(
            got,
            vec![
                ("fig2_stack", 0, 2),
                ("fig2_stack", 0, 4),
                ("fig2_stack", 1, 2),
                ("fig2_stack", 1, 4),
                ("fig3_queue", 0, 2),
                ("fig3_queue", 0, 4),
                ("fig3_queue", 1, 2),
                ("fig3_queue", 1, 4),
                ("fig3_queue", 2, 2),
                ("fig3_queue", 2, 4),
            ]
        );
    }

    #[test]
    fn series_filter_selects_matching_series_only() {
        let opts = PlanOpts {
            scenarios: vec![scenarios::find("fig2_stack").unwrap()],
            series_filter: Some("lease".to_string()),
            threads: Some(vec![2]),
            ops: Some(4),
            ..PlanOpts::default()
        };
        let plan = build_plan(&opts);
        assert_eq!(plan.cells.len(), 1);
        assert_eq!(plan.cells[0].series, 1);
    }

    #[test]
    fn explicit_ops_override_beats_env_default() {
        let sc = scenarios::find("fig2_stack").unwrap();
        let env = EnvKnobs {
            ops: Some(9),
            ..EnvKnobs::default()
        };
        assert_eq!(env.ops_for(sc, Some(7)), 7);
    }

    #[test]
    fn jobs_clamp_respects_host_parallelism_budget() {
        // Within the host's threads: jobs pass through untouched.
        assert_eq!(clamp_jobs(8, 8), 8);
        assert_eq!(clamp_jobs(3, 8), 3);
        assert_eq!(clamp_jobs(1, 8), 1);
        // One host thread per cell on an 8-way host: at most 8 cells.
        assert_eq!(clamp_jobs(64, 8), 8);
        // Degenerate inputs stay sane: never zero.
        assert_eq!(clamp_jobs(0, 0), 1);
        assert_eq!(clamp_jobs(8, 0), 1);
    }
}
