//! The run loop every workload shares: set-up, one checked warm-up round
//! charged to `setup_s`, then identical rounds with the phases
//! interleaved until `--seconds` is used up. A workload is a [`Pair`] of
//! parts, each part one fixture with the phases timed on it.
//!
//! A phase is timed in *laps* — fixed slices of its script, the same
//! slices in every round — and reports the sum over its laps of each
//! lap's steady time ([`stats::steady`]: the mean of the fastest fifth of
//! that lap's times over the kept rounds), divided by the operations in
//! the phase. Like is compared with like, lap by lap, and a burst of
//! interference costs the laps it hits, not the round.

use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use crate::catalog;
use crate::data::{parallelism, Releases};
use crate::stats;
use crate::trace::Tracer;

/// Rounds kept at the very least, however short `--seconds` is.
const MIN_KEPT_ROUNDS: usize = 5;
/// Share of a traced run's `--seconds` spent on whole rounds (half of
/// them untraced, half traced); the peeling replays take the rest.
const TRACE_ROUND_SHARE: f64 = 0.4;

/// Operations attempted and failed. A wrong answer, an error and a
/// refused request all count as failures.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    /// Verifies the answer of an operation already counted by
    /// [`Tally::ok`]: a wrong answer makes it a failed operation.
    pub fn verify(&mut self, passed: bool, what: impl FnOnce() -> String) {
        if !passed {
            self.fail(what());
        }
    }

    /// Counts one operation by its result, keeping the value.
    pub fn ok<T, E: std::fmt::Display>(&mut self, result: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            eprintln!("xarch-bench: failed operation: {what}");
            self.first_failure = Some(what);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// A stopwatch that records consecutive laps in milliseconds.
pub struct Laps {
    last: Instant,
    laps: Vec<f64>,
}

impl Laps {
    pub fn start() -> Self {
        Laps {
            last: Instant::now(),
            laps: Vec::new(),
        }
    }

    /// Ends the current lap and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.laps.push((now - self.last).as_secs_f64() * 1e3);
        self.last = now;
    }

    /// Ends a lap after every `every`-th item: call with the item's index.
    pub fn lap_every(&mut self, index: usize, every: usize) {
        if (index + 1).is_multiple_of(every) {
            self.lap();
        }
    }

    pub fn finish(self) -> Vec<f64> {
        self.laps
    }
}

/// What a run hands its workload.
pub struct Ctx {
    pub seed: u64,
    /// Release sequences generated so far, by length.
    releases: Vec<Rc<Releases>>,
    /// The run's measurement budget (`--seconds`).
    pub seconds: f64,
    /// Directory segment files live in (removed when the run ends).
    pub dir: PathBuf,
    /// Server workers where two connections are open at once.
    pub p: usize,
    pub tally: Tally,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, dir: PathBuf, tracer: Tracer) -> Self {
        Ctx {
            seed,
            releases: Vec::new(),
            seconds,
            dir,
            p: parallelism(),
            tally: Tally::default(),
            tracer,
        }
    }

    /// The first `versions` releases of the seed's sequence; the two
    /// parts of a workload that ask for the same length share them.
    pub fn releases(&mut self, versions: usize) -> Rc<Releases> {
        if let Some(known) = self.releases.iter().find(|r| r.docs.len() == versions) {
            return Rc::clone(known);
        }
        let fresh = Rc::new(Releases::generate(self.seed, versions));
        self.releases.push(Rc::clone(&fresh));
        fresh
    }

    /// A fresh segment path under the run's directory.
    pub fn segment(&self, tag: &str) -> PathBuf {
        let path = self.dir.join(format!("{tag}.seg"));
        let _ = std::fs::remove_file(&path);
        path
    }
}

/// Per-layer metric values by name; layers a workload leaves idle stay 0.
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn new() -> Self {
        Layers(catalog::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not in the catalogue"));
        slot.1 = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}

/// A part of a workload: one archive fixture and the phases timed on it.
/// A workload (see [`Pair`]) runs two parts in every round.
pub trait Workload: Sized {
    /// Generates inputs and builds fixtures.
    fn setup(ctx: &mut Ctx) -> Self;

    /// Runs the phases once and returns each phase's lap times in
    /// milliseconds — the same laps in every round. With `check`, every
    /// answer is verified (the warm-up round); calls are wrapped in spans
    /// of `ctx.tracer`.
    fn round(&mut self, ctx: &mut Ctx, check: bool) -> Vec<Vec<f64>>;

    /// What each phase's summed laps are divided by: its operations.
    fn divisors(&self) -> Vec<f64>;

    /// Bytes the archive occupies where it lives, and the bytes of user
    /// data ingested into it.
    fn stored_and_user_bytes(&self) -> (f64, f64);

    /// The peeling replays and registry counts of a traced run; `phases`
    /// are this part's phases over the run's untraced rounds.
    fn layers(&mut self, ctx: &mut Ctx, phases: &[PhaseSamples], out: &mut Layers);
}

/// Two parts run one after the other in every round: the first's phases,
/// then the second's.
pub struct Pair<A, B>(A, B);

impl<A: Workload, B: Workload> Workload for Pair<A, B> {
    fn setup(ctx: &mut Ctx) -> Self {
        let a = A::setup(ctx);
        Pair(a, B::setup(ctx))
    }

    fn round(&mut self, ctx: &mut Ctx, check: bool) -> Vec<Vec<f64>> {
        let mut phases = self.0.round(ctx, check);
        phases.extend(self.1.round(ctx, check));
        phases
    }

    fn divisors(&self) -> Vec<f64> {
        let mut divisors = self.0.divisors();
        divisors.extend(self.1.divisors());
        divisors
    }

    fn stored_and_user_bytes(&self) -> (f64, f64) {
        let (a, b) = (
            self.0.stored_and_user_bytes(),
            self.1.stored_and_user_bytes(),
        );
        (a.0 + b.0, a.1 + b.1)
    }

    fn layers(&mut self, ctx: &mut Ctx, phases: &[PhaseSamples], out: &mut Layers) {
        let (first, second) = phases.split_at(self.0.divisors().len());
        self.0.layers(ctx, first, out);
        self.1.layers(ctx, second, out);
    }
}

/// The kept rounds of one phase.
pub struct PhaseSamples {
    /// Lap times (ms) of each kept round.
    rounds: Vec<Vec<f64>>,
    divisor: f64,
}

impl PhaseSamples {
    /// The phase's reported time per operation, in milliseconds.
    pub fn value(&self) -> f64 {
        let laps = self.rounds.iter().map(Vec::len).min().unwrap_or(0);
        let steady: f64 = (0..laps)
            .map(|lap| {
                let column: Vec<f64> = self.rounds.iter().map(|r| r[lap]).collect();
                stats::steady(&column)
            })
            .sum();
        steady / self.divisor
    }

    /// Each kept round's own time per operation.
    pub fn per_round(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|laps| laps.iter().sum::<f64>() / self.divisor)
            .collect()
    }
}

/// What one run measured.
pub struct Outcome {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub stored_bytes_per_user_byte: f64,
    pub phases: Vec<PhaseSamples>,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values; `Some` for a traced run.
    pub layers: Option<Layers>,
}

fn run_rounds<W: Workload>(w: &mut W, ctx: &mut Ctx, seconds: f64) -> Vec<PhaseSamples> {
    let mut kept: Vec<PhaseSamples> = w
        .divisors()
        .into_iter()
        .map(|divisor| PhaseSamples {
            rounds: Vec::new(),
            divisor,
        })
        .collect();
    let start = Instant::now();
    loop {
        let n = kept[0].rounds.len();
        let elapsed = start.elapsed().as_secs_f64();
        // stop before the round that would overrun the budget
        if n >= MIN_KEPT_ROUNDS && elapsed + elapsed / n as f64 > seconds {
            return kept;
        }
        for (phase, laps) in kept.iter_mut().zip(w.round(ctx, false)) {
            phase.rounds.push(laps);
        }
    }
}

/// Runs workload `W` for `ctx.seconds` of measurement. `started` is the
/// process's start, so `setup_s` covers everything up to the end of the
/// warm-up round. A traced run splits [`TRACE_ROUND_SHARE`] of its budget
/// between untraced and traced rounds — their difference is what the
/// spans cost — then runs the workload's peeling replays and writes the
/// spans to `trace_path`; a run is traced when it is given one.
pub fn measure<W: Workload>(
    started: Instant,
    mut ctx: Ctx,
    trace_path: Option<PathBuf>,
) -> Outcome {
    let mut w = W::setup(&mut ctx);
    w.round(&mut ctx, true);
    let setup_s = started.elapsed().as_secs_f64();
    // read here, after set-up and one whole round: later rounds repeat the
    // same work, and how the allocator's arenas fragment over them differs
    // from run to run by tens of MiB
    let peak_rss_mb = stats::peak_rss_mb();

    let mut layers = None;
    let phases;
    if trace_path.is_some() {
        let share = ctx.seconds * TRACE_ROUND_SHARE / 2.0;
        phases = run_rounds(&mut w, &mut ctx, share);
        ctx.tracer = Tracer::new(started, true);
        let traced = run_rounds(&mut w, &mut ctx, share);
        let slowdowns: Vec<f64> = traced
            .iter()
            .zip(&phases)
            .map(|(t, u)| t.value() / u.value())
            .collect();
        let mut out = Layers::new();
        out.set(
            "trace.overhead_pct",
            (stats::mean(&slowdowns) - 1.0) * 100.0,
        );
        w.layers(&mut ctx, &phases, &mut out);
        out.set("trace.spans", ctx.tracer.len() as f64);
        layers = Some(out);
    } else {
        let seconds = ctx.seconds;
        phases = run_rounds(&mut w, &mut ctx, seconds);
    }

    let (stored, user) = w.stored_and_user_bytes();
    drop(w);
    if let Some(path) = trace_path {
        if let Err(e) = ctx.tracer.write_jsonl(&path) {
            ctx.tally
                .verify(false, || format!("writing {}: {e}", path.display()));
        }
    }
    Outcome {
        setup_s,
        peak_rss_mb,
        stored_bytes_per_user_byte: stored / user,
        phases,
        attempted: ctx.tally.attempted,
        failed: ctx.tally.failed,
        layers,
    }
}
