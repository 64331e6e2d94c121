//! Deterministic parallel sweep executor and the `Experiment` descriptor
//! API every figure/ablation binary drives.
//!
//! An experiment is a named parameter grid plus a cell runner and a
//! renderer ([`Experiment`]). The harness shards the grid's independent
//! `(experiment, config)` cells across worker threads
//! ([`run_indexed`]: `std::thread::scope` + one shared atomic work
//! index) and merges every output **in submission order**, so a sweep's
//! stdout, trace JSONL, and report JSON are byte-identical at any
//! `--jobs` value — including `--jobs 1`. The determinism contract rests
//! on three properties:
//!
//! 1. cells never share mutable state — each builds its own `System`
//!    from its [`Params`] and buffers observability output in a private
//!    [`MemSink`] / report list;
//! 2. results land in per-cell slots indexed by submission position, not
//!    in completion order;
//! 3. rendering and file writes happen serially, after the sweep, from
//!    those ordered slots.
//!
//! Worker count defaults to [`std::thread::available_parallelism`] and
//! is capped (or oversubscribed, for scheduling tests) by `--jobs`.
//! Progress lines on **stderr** may interleave under parallel execution;
//! only stdout and the `--trace`/`--report-json` files are covered by
//! the byte-identical guarantee.
//!
//! Cells are additionally **failure-isolated**: each runs under
//! [`std::panic::catch_unwind`], so one panicking cell (an invariant
//! violation, a scenario bug) becomes a [`CellFailure`] record in the
//! merged output — tagged with experiment/config/seed for one-command
//! repro — instead of killing the whole sweep. Failure records occupy the failed cell's
//! submission-order slot, so the merged report stays deterministic at
//! any `--jobs` value. [`run_cli`] stops after the first experiment with
//! failures unless `--keep-going` is set, and exits non-zero either way.
//!
//! This module is the only place in the workspace allowed to touch
//! `std::thread` (the `thread` simlint rule enforces it).

use std::fs::File;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pabst_simkit::trace::MemSink;
use pabst_soc::report::SystemReport;
use pabst_soc::system::System;

use crate::obs::CliArgs;
use crate::registry;

/// One grid cell of an experiment: everything a worker needs to rebuild
/// and run the cell, plus the labels the merged output is tagged with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Params {
    /// Name of the owning experiment (registry key).
    pub experiment: &'static str,
    /// Human-readable cell name, unique within the experiment.
    pub config: String,
    /// Position of this cell in the experiment's grid; the cell runner
    /// uses it to recover the typed cell descriptor.
    pub index: usize,
    /// Measured epoch budget.
    pub epochs: usize,
    /// Base RNG seed the cell's workload generators derive from.
    pub seed: u64,
    /// Optional provenance the grid computed up front:
    /// `(mechanism_hash, fault-plan digest)`. Carried into failure
    /// records so a panicking cell still identifies exactly which
    /// mechanism stack and fault plan it was running.
    pub provenance: Option<(u64, u64)>,
}

impl Params {
    /// A cell with seed 0 (the paper runs' default generator base).
    pub fn new(
        experiment: &'static str,
        config: impl Into<String>,
        index: usize,
        epochs: usize,
    ) -> Self {
        Self { experiment, config: config.into(), index, epochs, seed: 0, provenance: None }
    }

    /// Attaches `(mechanism_hash, fault-plan digest)` provenance.
    pub fn with_provenance(mut self, mechanism_hash: u64, fault_digest: u64) -> Self {
        self.provenance = Some((mechanism_hash, fault_digest));
        self
    }
}

/// Per-cell observability context handed to the cell runner.
///
/// Scenario builders call [`RunCtx::attach`] on every `System` they
/// construct and [`RunCtx::report`] after each run; the buffers are
/// merged by the harness in submission order after the sweep.
#[derive(Debug)]
pub struct RunCtx {
    experiment: &'static str,
    config: String,
    seed: u64,
    tracing: bool,
    sink: MemSink,
    reports: Vec<String>,
}

impl RunCtx {
    /// Creates the context for one cell. `tracing` buffers epoch records
    /// (requested via `--trace`); reports are always collected — they
    /// are a few lines per run.
    pub fn new(params: &Params, tracing: bool) -> Self {
        Self {
            experiment: params.experiment,
            config: params.config.clone(),
            seed: params.seed,
            tracing,
            sink: MemSink::new(),
            reports: Vec::new(),
        }
    }

    /// A context outside any sweep (micro-benchmarks, tests): no tracing,
    /// reports tagged `detached`.
    pub fn detached() -> Self {
        Self {
            experiment: "detached",
            config: String::new(),
            seed: 0,
            tracing: false,
            sink: MemSink::new(),
            reports: Vec::new(),
        }
    }

    /// Attaches the cell's buffered trace sink to a freshly built system.
    pub fn attach(&mut self, sys: &mut System) {
        if self.tracing {
            sys.add_trace_sink(Box::new(self.sink.clone()));
        }
    }

    /// Collects the system's end-of-run report, tagged with this cell's
    /// experiment/config/seed.
    pub fn report(&mut self, sys: &System) {
        self.report_labeled(sys, "");
    }

    /// [`RunCtx::report`] with a sub-label for cells that run several
    /// systems (e.g. `fig10`'s isolated baseline plus one per mode).
    pub fn report_labeled(&mut self, sys: &System, label: &str) {
        let config = if label.is_empty() {
            self.config.clone()
        } else {
            format!("{}/{}", self.config, label)
        };
        self.reports.push(
            SystemReport::collect(sys).with_context(self.experiment, &config, self.seed).to_json(),
        );
    }

    /// Seals the context into the cell's result.
    pub fn finish(
        self,
        params: &Params,
        metrics: Vec<(&'static str, f64)>,
        series: Vec<(&'static str, Vec<f64>)>,
    ) -> ExperimentResult {
        ExperimentResult {
            params: params.clone(),
            metrics,
            series,
            trace: self.sink.take(),
            reports: self.reports,
        }
    }
}

/// Everything one cell produced: named scalar metrics, named series, and
/// the buffered observability output.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The cell that produced this result.
    pub params: Params,
    /// Named scalar metrics (the renderer's table cells).
    pub metrics: Vec<(&'static str, f64)>,
    /// Named per-epoch series (for time-series figures).
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// Buffered JSONL epoch records from every system the cell ran.
    pub trace: String,
    /// Tagged report JSON lines from every system the cell ran.
    pub reports: Vec<String>,
}

impl ExperimentResult {
    /// Looks up a scalar metric by name.
    ///
    /// # Panics
    ///
    /// Panics when the cell runner did not record the metric — a renderer
    /// asking for a missing key is a registry bug, not a runtime state.
    pub fn metric(&self, name: &str) -> f64 {
        match self.metrics.iter().find(|(k, _)| *k == name) {
            Some((_, v)) => *v,
            None => panic!("{}/{}: no metric `{name}`", self.params.experiment, self.params.config),
        }
    }

    /// Looks up a series by name.
    ///
    /// # Panics
    ///
    /// Panics when the series was not recorded (registry bug).
    pub fn series(&self, name: &str) -> &[f64] {
        match self.series.iter().find(|(k, _)| *k == name) {
            Some((_, v)) => v,
            None => panic!("{}/{}: no series `{name}`", self.params.experiment, self.params.config),
        }
    }
}

/// One figure/table/ablation: a parameter grid, a cell runner, and a
/// renderer that rebuilds the printed output from the ordered results.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Registry key (`fig05`, `ablate`, ...); also the binary name.
    pub name: &'static str,
    /// One-line description shown by drivers.
    pub title: &'static str,
    /// Expands the grid for a full or `--quick` run. Cell `index` fields
    /// must match their position in the returned vector.
    pub grid: fn(quick: bool) -> Vec<Params>,
    /// Runs one cell. Must derive everything from `Params` and touch no
    /// shared state — the harness may invoke it from any worker thread.
    pub run: fn(&Params, RunCtx) -> ExperimentResult,
    /// Renders the experiment's stdout from the ordered cell results.
    pub render: fn(&[ExperimentResult]) -> String,
}

impl Experiment {
    /// Runs one grid cell through the experiment's cell runner. The
    /// canonical dispatch point for every sweep: simlint roots its
    /// determinism taint analysis here (entropy and hasher-iteration
    /// sinks must be unreachable from any registered runner).
    pub fn run(&self, p: &Params, ctx: RunCtx) -> ExperimentResult {
        (self.run)(p, ctx)
    }
}

/// Resolves the worker count for a sweep of `cells` runnable cells.
///
/// `None` or `Some(0)` take the size from
/// [`std::thread::available_parallelism`];
/// an explicit nonzero `--jobs` is honored exactly (oversubscription is
/// allowed — the determinism test relies on `--jobs 4` meaning four
/// workers even on a single-core host). The count never exceeds the cell
/// count and is at least 1.
pub fn worker_count(requested: Option<usize>, cells: usize) -> usize {
    let auto = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let req = match requested {
        None | Some(0) => auto,
        Some(n) => n,
    };
    req.min(cells.max(1))
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning the
/// results **in item order** regardless of completion order.
///
/// Workers claim items through one shared atomic index and write each
/// result into the slot of the item that produced it, so the output
/// vector is independent of scheduling. With `jobs <= 1` (or a single
/// item) no threads are spawned at all.
pub fn run_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(items.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every slot is filled once the scope joins")
        })
        .collect()
}

/// One grid cell that panicked instead of producing a result.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// The cell that failed (experiment/config/index/seed identify it for
    /// a one-command repro).
    pub params: Params,
    /// The panic payload, stringified (`<non-string panic payload>` when
    /// the payload was neither `String` nor `&str`).
    pub panic: String,
}

impl CellFailure {
    /// The failure's merged-report line: same leading context keys as a
    /// success report, plus `"failed":true` and the panic text, so report
    /// consumers can split successes from failures on one key. When the
    /// grid attached provenance, the mechanism hash and fault-plan
    /// digest are appended (as hex strings — they exceed JSON's exact
    /// integer range) so the record pins the exact mechanism stack and
    /// plan alongside the `(seed, index)` pair.
    pub fn to_json(&self) -> String {
        let mut line = format!(
            "{{\"experiment\":\"{}\",\"config\":\"{}\",\"seed\":{},\"failed\":true,\
             \"index\":{},\"panic\":\"{}\"",
            escape_json(self.params.experiment),
            escape_json(&self.params.config),
            self.params.seed,
            self.params.index,
            escape_json(&self.panic)
        );
        if let Some((mech, digest)) = self.params.provenance {
            line.push_str(&format!(
                ",\"mechanism_hash\":\"{mech:#018x}\",\"fault_digest\":\"{digest:#018x}\""
            ));
        }
        line.push('}');
        line
    }

    /// The one-command repro for this cell.
    pub fn repro(&self, bin: &str) -> String {
        format!(
            "cargo run --release -p pabst-bench --bin {bin} -- --filter {} --jobs 1",
            self.params.experiment
        )
    }
}

/// Stringifies a `catch_unwind` payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) for
/// failure records; panic messages may contain anything.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The merged, submission-ordered output of one experiment sweep.
#[derive(Debug, Clone)]
pub struct SweepOutput {
    /// The experiment's rendered stdout (with one trailing `FAILED` line
    /// per failed cell).
    pub rendered: String,
    /// Concatenated JSONL epoch records (empty unless tracing).
    pub trace: String,
    /// Concatenated report JSON lines, `\n`-terminated; failed cells
    /// contribute a [`CellFailure::to_json`] line in their slot.
    pub reports: String,
    /// Cells that panicked, in submission order.
    pub failures: Vec<CellFailure>,
}

/// Expands an experiment's grid, runs every cell (in parallel when
/// `jobs > 1`) under per-cell panic isolation, and merges rendered
/// output, trace, and reports in submission order.
///
/// A panicking cell yields a [`CellFailure`] in its submission-order
/// slot: its failure record lands in `reports`, a deterministic `FAILED`
/// line is appended to `rendered`, and the remaining cells still run.
/// The renderer sees only the successful cells (and is itself isolated —
/// a renderer that cannot cope with the survivors degrades to an error
/// line, not a dead sweep).
pub fn run_sweep(exp: &Experiment, quick: bool, jobs: usize, tracing: bool) -> SweepOutput {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let cells = (exp.grid)(quick);
    let outcomes: Vec<Result<ExperimentResult, CellFailure>> = run_indexed(jobs, &cells, |_, p| {
        catch_unwind(AssertUnwindSafe(|| exp.run(p, RunCtx::new(p, tracing))))
            .map_err(|payload| CellFailure { params: p.clone(), panic: panic_message(payload) })
    });
    let successes: Vec<ExperimentResult> =
        outcomes.iter().filter_map(|o| o.as_ref().ok().cloned()).collect();
    let mut rendered = match catch_unwind(AssertUnwindSafe(|| (exp.render)(&successes))) {
        Ok(s) => s,
        Err(payload) => format!("render failed: {}\n", panic_message(payload)),
    };
    let mut trace = String::new();
    let mut reports = String::new();
    for o in &outcomes {
        match o {
            Ok(r) => {
                trace.push_str(&r.trace);
                for line in &r.reports {
                    reports.push_str(line);
                    reports.push('\n');
                }
            }
            Err(f) => {
                reports.push_str(&f.to_json());
                reports.push('\n');
            }
        }
    }
    let failures: Vec<CellFailure> = outcomes.into_iter().filter_map(Result::err).collect();
    for f in &failures {
        let first = f.panic.lines().next().unwrap_or("");
        rendered.push_str(&format!(
            "FAILED {}/{} (seed {}): {first}\n  repro: {}\n",
            f.params.experiment,
            f.params.config,
            f.params.seed,
            f.repro(exp.name)
        ));
    }
    SweepOutput { rendered, trace, reports, failures }
}

/// CLI entry point shared by every figure binary: parses [`CliArgs`] and
/// runs the named experiments. Binaries are one-liners over this.
pub fn drive(names: &[&str]) {
    let args = CliArgs::parse();
    run_cli(names, &args);
}

/// [`drive`] with pre-parsed arguments. Prints each experiment's output
/// to stdout (with a banner between experiments when more than one runs)
/// and writes the merged trace/report files at the end, so one
/// invocation produces one coherent file per flag even across
/// experiments.
pub fn run_cli(names: &[&str], args: &CliArgs) {
    if args.no_skip {
        // The CI A/B arm: every system this invocation builds steps
        // naively, as under PABST_NO_SKIP=1. Output must be identical.
        pabst_soc::system::force_no_skip();
    }
    let selected: Vec<&'static Experiment> = names
        .iter()
        .filter(|n| args.filter.as_deref().is_none_or(|f| f == **n))
        .map(|n| match registry::find(n) {
            Some(exp) => exp,
            None => {
                eprintln!("error: no experiment named `{n}`");
                std::process::exit(2);
            }
        })
        .collect();
    if selected.is_empty() {
        eprintln!(
            "error: --filter `{}` matches none of: {}",
            args.filter.as_deref().unwrap_or(""),
            names.join(", ")
        );
        std::process::exit(2);
    }
    let banner = names.len() > 1;
    let mut trace = String::new();
    let mut reports = String::new();
    let mut failed_cells = 0usize;
    for exp in selected {
        if banner {
            println!("\n================================================================");
            println!("== {}", exp.name);
            println!("================================================================\n");
        }
        let cells = (exp.grid)(args.quick).len();
        let jobs = worker_count(args.jobs, cells);
        let out = run_sweep(exp, args.quick, jobs, args.trace.is_some());
        print!("{}", out.rendered);
        trace.push_str(&out.trace);
        reports.push_str(&out.reports);
        if !out.failures.is_empty() {
            failed_cells += out.failures.len();
            if !args.keep_going {
                eprintln!(
                    "error: {} cell(s) failed in `{}`; stopping (pass --keep-going to continue)",
                    out.failures.len(),
                    exp.name
                );
                break;
            }
        }
    }
    if let Some(path) = &args.trace {
        write_merged(path, &trace);
    }
    if let Some(path) = &args.report_json {
        write_merged(path, &reports);
    }
    if failed_cells > 0 {
        eprintln!("error: {failed_cells} cell(s) failed");
        std::process::exit(1);
    }
}

/// Writes one merged observability file, warning (not failing) on I/O
/// errors like the pre-harness per-binary hooks did.
fn write_merged(path: &str, contents: &str) {
    let res = File::create(path).and_then(|mut f| f.write_all(contents.as_bytes()));
    if let Err(e) = res {
        eprintln!("warning: cannot write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn run_indexed_preserves_submission_order_under_reverse_completion() {
        // Adversarial schedule: item i sleeps (n - i) * 10ms, so with one
        // worker per item the cells *complete* in exactly reverse
        // submission order. The result vector must not care.
        let items: Vec<usize> = (0..4).collect();
        let done = Mutex::new(Vec::new());
        let results = run_indexed(items.len(), &items, |i, &item| {
            assert_eq!(i, item, "index matches the item's position");
            std::thread::sleep(Duration::from_millis(10 * (items.len() - i) as u64));
            done.lock().unwrap().push(i);
            i * 100
        });
        assert_eq!(results, vec![0, 100, 200, 300], "slots, not completion order");
        let completion = done.into_inner().unwrap();
        assert_eq!(completion, vec![3, 2, 1, 0], "the schedule really was adversarial");
    }

    #[test]
    fn run_indexed_serial_and_parallel_agree() {
        let items: Vec<u64> = (0..23).collect();
        let f = |i: usize, &x: &u64| x * x + i as u64;
        assert_eq!(run_indexed(1, &items, f), run_indexed(7, &items, f));
    }

    #[test]
    fn run_indexed_handles_empty_and_oversubscribed_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_indexed::<_, u8, _>(4, &empty, |_, &x| x).is_empty());
        let one = [9u8];
        assert_eq!(run_indexed(16, &one, |_, &x| x), vec![9]);
    }

    #[test]
    fn worker_count_clamps_to_cells_and_floor_one() {
        assert_eq!(worker_count(Some(8), 3), 3, "never more workers than cells");
        assert_eq!(worker_count(Some(2), 100), 2, "--jobs caps the count");
        assert!(worker_count(None, 100) >= 1);
        assert_eq!(worker_count(Some(0), 0), 1, "empty grid still gets one worker");
    }

    #[test]
    fn detached_ctx_buffers_nothing() {
        let ctx = RunCtx::detached();
        assert!(!ctx.tracing);
        let p = Params::new("t", "c", 0, 1);
        let r = ctx.finish(&p, vec![("m", 1.0)], Vec::new());
        assert!(r.trace.is_empty());
        assert!(r.reports.is_empty());
        assert_eq!(r.metric("m"), 1.0);
    }

    #[test]
    #[should_panic(expected = "no metric")]
    fn missing_metric_names_the_cell() {
        let p = Params::new("t", "c", 0, 1);
        let r = RunCtx::new(&p, false).finish(&p, Vec::new(), Vec::new());
        let _ = r.metric("absent");
    }

    fn flaky_grid(_quick: bool) -> Vec<Params> {
        (0..4).map(|i| Params::new("flaky", format!("cell{i}"), i, 1)).collect()
    }
    fn flaky_run(p: &Params, ctx: RunCtx) -> ExperimentResult {
        assert!(p.index != 2, "deliberate cell panic for the harness isolation test");
        ctx.finish(p, vec![("v", p.index as f64)], Vec::new())
    }
    fn flaky_render(rs: &[ExperimentResult]) -> String {
        let cells: Vec<String> = rs.iter().map(|r| format!("{}", r.metric("v"))).collect();
        format!("flaky: {}\n", cells.join(" "))
    }
    const FLAKY: Experiment = Experiment {
        name: "flaky",
        title: "deliberately panicking grid",
        grid: flaky_grid,
        run: flaky_run,
        render: flaky_render,
    };

    #[test]
    fn panicking_cell_becomes_a_failure_record_not_a_dead_sweep() {
        let out = run_sweep(&FLAKY, true, 1, false);
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].params.config, "cell2");
        assert!(
            out.failures[0].panic.contains("deliberate cell panic"),
            "{}",
            out.failures[0].panic
        );
        assert!(out.rendered.starts_with("flaky: 0 1 3\n"), "{}", out.rendered);
        assert!(out.rendered.contains("FAILED flaky/cell2 (seed 0):"), "{}", out.rendered);
        assert!(out.rendered.contains("--filter flaky --jobs 1"), "{}", out.rendered);
        let recs: Vec<&str> = out.reports.lines().collect();
        assert_eq!(recs.len(), 1, "the failure record holds the failed cell's report slot");
        assert!(
            recs[0].starts_with(
                "{\"experiment\":\"flaky\",\"config\":\"cell2\",\"seed\":0,\"failed\":true"
            ),
            "{}",
            recs[0]
        );
    }

    #[test]
    fn failure_records_are_deterministic_across_job_counts() {
        let serial = run_sweep(&FLAKY, true, 1, false);
        let parallel = run_sweep(&FLAKY, true, 4, false);
        assert_eq!(serial.rendered, parallel.rendered);
        assert_eq!(serial.reports, parallel.reports);
        assert_eq!(serial.failures.len(), parallel.failures.len());
    }

    #[test]
    fn escape_json_handles_quotes_newlines_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
