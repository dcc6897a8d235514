//! The three workloads. Each one runs in four ways: `setup` (build and
//! warm up, timed as `setup_s`), `measure` (the untraced closed loop the
//! end-to-end metrics come from), `count` (a fixed request list on one
//! client with the counting allocator armed, for the exact counters) and
//! `traced` (the closed loop again, with spans around each layer call).

use crate::alloc::{self, AllocCount};
use crate::calib::{self, Ticks};
use crate::expected::Expected;
use crate::hist::Hist;
use crate::inputs::{shape_hash, sql_texts, zipf_sequences, Universe};
use crate::trace::{Layer, Req, Tracer};
use dpnext::{Algorithm, Memo, Optimized, Optimizer};
use dpnext_core::OptContext;
use dpnext_query::Query;
use dpnext_serve::{
    fingerprint_query, CacheKey, MemoPool, OptimizerService, PlanCache, ResourceLedger, ServeError,
    ServeResult, ServiceConfig, ServiceStats,
};
use dpnext_sql::SqlError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Input and pass sizes. `tiny` shrinks everything for the benchmark's
/// own tests.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Set-ups before the measured phase of an end-to-end run (the last
    /// one is measured); more follow between its windows.
    pub setups: usize,
    /// Per relation count: queries in a run's stream (all by default).
    pub cold_take: usize,
    /// Requests in `cold_small`'s counter pass.
    pub cold_count: usize,
    pub sweep_take: usize,
    /// Queries (each sent once per algorithm) in `paper_sweep`'s counter pass.
    pub sweep_count: usize,
    /// Length of each `sql_hot` client's arrival sequence (it cycles).
    pub sql_seq: usize,
    /// Requests in `sql_hot`'s counter pass.
    pub sql_count: usize,
    /// Spans kept in memory per traced run.
    pub span_cap: usize,
}

impl Params {
    pub fn new(tiny: bool) -> Params {
        if tiny {
            Params {
                setups: 2,
                cold_take: 8,
                cold_count: 60,
                sweep_take: 2,
                sweep_count: 3,
                sql_seq: 4096,
                sql_count: 2000,
                span_cap: 10_000,
            }
        } else {
            Params {
                setups: 5,
                cold_take: usize::MAX,
                cold_count: 1200,
                sweep_take: usize::MAX,
                sweep_count: 90,
                sql_seq: 1 << 14,
                sql_count: 20_000,
                span_cap: 100_000,
            }
        }
    }
}

/// Seed of the counter passes' request order: the exact counters are
/// the same for every `--seed`.
const COUNT_SEED: u64 = 0;

/// Clients of the concurrent phase of a traced run (`nproc` on the
/// development box).
pub const CONCURRENT_CLIENTS: usize = 2;

/// `sql_hot` bumps the statistics epoch once per this many requests:
/// with several clients, each bumps once per `clients * SQL_EPOCH_CADENCE`
/// of its own requests, the clients evenly staggered, so that they share
/// no counter of the benchmark's own.
pub const SQL_EPOCH_CADENCE: usize = 1000;

/// Does client `c` of `clients` bump the epoch before its `k`-th request?
fn sql_bumps(clients: usize, c: usize, k: usize) -> bool {
    k % (clients * SQL_EPOCH_CADENCE) == (c + 1) * SQL_EPOCH_CADENCE - 1
}

/// Checked outputs: every request counts as attempted; an error, a panic
/// or a plan whose cost differs from the expected file counts as failed.
/// Attempts are counted in per-thread slots on separate cache lines, so
/// concurrent clients do not contend on the benchmark's own counter.
#[derive(Default)]
pub struct Tally {
    attempted: [Slot; 8],
    pub failed: AtomicU64,
    notes: Mutex<Vec<String>>,
}

#[derive(Default)]
#[repr(align(128))]
struct Slot(AtomicU64);

fn thread_slot() -> usize {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static SLOT: usize = NEXT.fetch_add(1, Relaxed) as usize % 8);
    SLOT.with(|s| *s)
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.attempted.iter().map(|s| s.0.load(Relaxed)).sum()
    }

    fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted[thread_slot()].0.fetch_add(1, Relaxed);
        if !ok {
            self.failed.fetch_add(1, Relaxed);
            let mut notes = self
                .notes
                .lock()
                .expect("no client panicked holding the notes");
            if notes.len() < 5 {
                notes.push(what());
            }
        }
    }

    pub fn notes(&self) -> Vec<String> {
        self.notes
            .lock()
            .expect("no client panicked holding the notes")
            .clone()
    }
}

/// Does `opt` carry the expected plan (and the EXPLAIN users get by
/// default)?
fn plan_ok(opt: &Optimized, expected: Option<u64>) -> bool {
    expected == Some(opt.plan.cost.to_bits()) && !opt.explain.is_empty()
}

fn served_ok(r: &Result<ServeResult, ServeError>, expected: Option<u64>) -> bool {
    r.as_ref().is_ok_and(|s| plan_ok(&s.result, expected))
}

fn describe<T, E: std::fmt::Debug>(r: &Result<T, E>, input: String) -> String {
    match r {
        Ok(_) => format!("{input}: wrong plan cost or empty EXPLAIN"),
        Err(e) => format!("{input}: {e:?}"),
    }
}

/// One untraced closed-loop phase, split into windows: window `i` is
/// client 0's `i`-th pass over its inputs, counting every request (of any
/// client) that completed during it.
pub struct Timed {
    pub windows: Vec<Window>,
    /// Latency of every request.
    pub latency: Hist,
}

#[derive(Default)]
pub struct Window {
    pub wall: Duration,
    pub cpu: Duration,
    pub requests: u64,
    /// Client 0's latency quantiles in this window, in nanoseconds.
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// The reference kernel's ticks in this window (1-client end-to-end
    /// runs only).
    pub ticks: Ticks,
}

impl Window {
    pub fn throughput(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64()
    }

    pub fn cpu_us_per_request(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e6 / self.requests.max(1) as f64
    }
}

impl Timed {
    /// Every window summed.
    pub fn total(&self) -> Window {
        let mut all = Window::default();
        for w in &self.windows {
            all.wall += w.wall;
            all.cpu += w.cpu;
            all.requests += w.requests;
        }
        all
    }

    /// Requests completed per second, over every window.
    pub fn throughput(&self) -> f64 {
        self.total().throughput()
    }
}

/// Work counters summed over the optimizer runs of a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreSums {
    pub optimized: u64,
    pub plans_built: u64,
    pub prune_attempts: u64,
    pub prune_hits: u64,
    pub arena_plans: u64,
    pub live_bytes_peak: u64,
    pub threads_used_max: u64,
    pub par_bucket_strata: u64,
    pub enumerate_ns: u64,
    pub worker_ns: u64,
    pub replay_ns: u64,
}

impl CoreSums {
    fn add(&mut self, opt: &Optimized) {
        let m = &opt.memo;
        self.optimized += 1;
        self.plans_built += opt.plans_built;
        self.prune_attempts += m.prune_attempts;
        self.prune_hits += m.prune_rejected + m.prune_evicted;
        self.arena_plans += m.arena_plans;
        self.live_bytes_peak = self.live_bytes_peak.max(m.live_bytes_peak);
        self.threads_used_max = self.threads_used_max.max(m.threads_used);
        self.par_bucket_strata += m.par_bucket_strata;
        self.enumerate_ns += opt.elapsed.as_nanos() as u64;
        self.worker_ns += m.worker_nanos;
        self.replay_ns += m.replay_nanos;
    }
}

/// The exact counters of a counter pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub requests: u64,
    pub alloc: AllocCount,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub pool_created: u64,
    pub pool_reused: u64,
    pub core: CoreSums,
}

impl Counters {
    fn service_delta(&mut self, b: &ServiceStats, a: &ServiceStats) {
        self.cache_hits = a.cache.hits - b.cache.hits;
        self.cache_misses = a.cache.misses - b.cache.misses;
        self.cache_evictions = a.cache.evictions - b.cache.evictions;
        self.pool_created = a.pool.created - b.pool.created;
        self.pool_reused = a.pool.reused - b.pool.reused;
    }
}

/// A traced phase: the tracer (layer totals and kept spans) and the
/// optimizer work.
pub struct Traced {
    pub tracer: Tracer,
    pub core: CoreSums,
}

/// Work that client 0 of a 1-client end-to-end run does before each
/// window and after the last one, outside the windows: the run repeats
/// its set-up there, so that `setup_s` is a median over the whole run.
pub type Between<'a> = Option<&'a mut (dyn FnMut() + Send)>;

pub trait Workload: Sync {
    type State: Sync;
    fn setup(&self, tally: &Tally) -> Self::State;
    /// The closed loop with `clients` clients; client `c`'s `k`-th
    /// request is the workload's request `k * clients + c`. See
    /// [`closed_loop`] for `between`.
    fn measure(
        &self,
        state: &Self::State,
        clients: usize,
        dur: Duration,
        tally: &Tally,
        between: Between,
    ) -> Timed;
    fn count(&self, tally: &Tally) -> Counters;
    fn traced(&self, dur: Duration, tally: &Tally, span_cap: usize) -> Traced;
}

/// Client 0's record of one window.
struct Mark {
    start: (Instant, Duration),
    end: (Instant, Duration),
    p50_ns: f64,
    p99_ns: f64,
    ticks: Ticks,
}

/// Wall clock and process CPU time, read together.
fn clocks() -> (Instant, Duration) {
    (Instant::now(), crate::sys::process_cpu())
}

/// One client's latencies, its requests per window, and (client 0 only)
/// its windows.
type ClientRun = (Hist, Vec<u64>, Vec<Mark>);

/// Run `send` in a closed loop on `clients` threads; `send(client, k)`
/// issues the client's `k`-th request. Each client stops at the first
/// multiple of `pass` requests reached after `dur`, so that every run
/// sends whole passes over its inputs.
///
/// With `between` given, client 0 runs it before each window and after
/// the last one. It also ticks the reference kernel ([`calib`]) at the
/// start of each window and then every [`calib::TICK_EVERY`] between two
/// requests. Neither counts in the window's wall or CPU time.
fn closed_loop(
    clients: usize,
    dur: Duration,
    pass: usize,
    between: Between,
    send: impl Fn(usize, usize) + Sync,
) -> Timed {
    let barrier = Barrier::new(clients);
    // Client 0's current pass: the window every client records into.
    let window = AtomicUsize::new(0);
    let mut between = Some(between);
    let per_client: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, window, send) = (&barrier, &window, &send);
                let mut between = between.take().flatten();
                s.spawn(move || {
                    let mut latency = Hist::default();
                    // Client 0's latencies in the current window.
                    let mut current = Hist::default();
                    let mut per_window: Vec<u64> = Vec::new();
                    let mut marks = Vec::new();
                    // Client 0's open window: its start, its ticks, and
                    // the wall and CPU time its pauses took.
                    let mut open: Option<((Instant, Duration), Ticks)> = None;
                    let mut paused = (Duration::ZERO, Duration::ZERO);
                    let mut last_tick = Instant::now();
                    barrier.wait();
                    let deadline = Instant::now() + dur;
                    let mut k = 0;
                    loop {
                        if k % pass == 0 {
                            if let Some((start, ticks)) = open.take() {
                                let end = clocks();
                                marks.push(Mark {
                                    start,
                                    end: (end.0 - paused.0, end.1 - paused.1),
                                    p50_ns: current.quantile(0.50),
                                    p99_ns: current.quantile(0.99),
                                    ticks,
                                });
                                current.clear();
                            }
                            let done = Instant::now() >= deadline;
                            if let Some(between) = between.as_mut() {
                                between();
                            }
                            if done {
                                break;
                            }
                            if c == 0 {
                                let mut ticks = Ticks::default();
                                if between.is_some() {
                                    ticks.add(calib::tick());
                                    last_tick = Instant::now();
                                }
                                window.store(marks.len(), Relaxed);
                                paused = (Duration::ZERO, Duration::ZERO);
                                open = Some((clocks(), ticks));
                            }
                        } else if between.is_some() && last_tick.elapsed() >= calib::TICK_EVERY {
                            let a = clocks();
                            let t = calib::tick();
                            let b = clocks();
                            if let Some((_, ticks)) = open.as_mut() {
                                ticks.add(t);
                            }
                            paused.0 += b.0 - a.0;
                            paused.1 += b.1 - a.1;
                            last_tick = b.0;
                        }
                        let t0 = Instant::now();
                        send(c, k);
                        let ns = t0.elapsed().as_nanos() as u64;
                        latency.record(ns);
                        if c == 0 {
                            current.record(ns);
                        }
                        let w = window.load(Relaxed);
                        if per_window.len() <= w {
                            per_window.resize(w + 1, 0);
                        }
                        per_window[w] += 1;
                        k += 1;
                    }
                    (latency, per_window, marks)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client panicked"))
            .collect()
    });
    let mut windows: Vec<Window> = per_client[0]
        .2
        .iter()
        .map(|m| Window {
            wall: m.end.0.duration_since(m.start.0),
            cpu: m.end.1 - m.start.1,
            requests: 0,
            p50_ns: m.p50_ns,
            p99_ns: m.p99_ns,
            ticks: m.ticks,
        })
        .collect();
    let mut latency = Hist::default();
    for (hist, per_window, _) in &per_client {
        latency.merge(hist);
        // Requests completed after client 0's last pass belong to no
        // window: they are not counted in the throughput.
        for (win, n) in windows.iter_mut().zip(per_window) {
            win.requests += n;
        }
    }
    Timed { windows, latency }
}

/// Run `trace` like [`closed_loop`] runs `send` on one client.
fn traced_loop(
    dur: Duration,
    pass: usize,
    span_cap: usize,
    mut trace: impl FnMut(usize, &mut Tracer, &mut CoreSums),
) -> Traced {
    let mut tracer = Tracer::new(span_cap);
    let mut core = CoreSums::default();
    let deadline = Instant::now() + dur;
    let mut k = 0;
    while k % pass != 0 || Instant::now() < deadline {
        trace(k, &mut tracer, &mut core);
        k += 1;
    }
    Traced { tracer, core }
}

/// After a traced miss, attach what the facade does where no span can
/// reach under the request's `Optimize` span: the memo reset (pooled
/// memos only: `pooled` re-optimizes the query into a fresh memo and
/// times `Memo::reset` on it), the context build (`OptContext::new` on
/// the same query) and the optimizer's own enumeration time.
fn attach_core(
    tracer: &mut Tracer,
    req: &mut Req,
    query: &Query,
    opt: &Optimized,
    pooled: Option<&Optimizer>,
) {
    let reset = pooled.map_or(Duration::ZERO, |optimizer| {
        let mut memo = Memo::new();
        optimizer.optimize_pooled(query, &mut memo);
        let t0 = Instant::now();
        memo.reset();
        t0.elapsed()
    });
    let t0 = Instant::now();
    let ctx = OptContext::new(query.clone());
    let build = t0.elapsed();
    drop(ctx);
    if pooled.is_some() {
        tracer.derived(req, Layer::MemoReset, Duration::ZERO, reset);
    }
    tracer.derived(req, Layer::ContextBuild, reset, build);
    tracer.derived(req, Layer::Enumerate, reset + build, opt.elapsed);
}

fn new_service() -> OptimizerService {
    OptimizerService::new(Optimizer::new(Algorithm::EaPrune))
}

/// The service's default-configuration request path, step by step
/// through the same public functions, so each step can carry a span:
/// parse, bind, fingerprint, cache probe, and on a miss pool checkout,
/// the facade call (which resets the memo), check-in and cache insert.
struct Replica {
    optimizer: Optimizer,
    cache: PlanCache,
    pool: MemoPool,
    epoch: AtomicU64,
}

impl Replica {
    fn new() -> Replica {
        let config = ServiceConfig::default();
        let ledger = Arc::new(ResourceLedger::new(config.memory_cap_bytes));
        Replica {
            optimizer: Optimizer::new(Algorithm::EaPrune),
            cache: PlanCache::new(config.cache_capacity),
            pool: MemoPool::with_ledger(config.pool_capacity, ledger),
            epoch: AtomicU64::new(0),
        }
    }

    fn bump_stats_epoch(&self) {
        self.epoch.fetch_add(1, Relaxed);
    }

    /// Returns the plan and whether this request ran the optimizer.
    fn optimize(&self, query: &Query, tr: &mut Tracer, req: &mut Req) -> (Arc<Optimized>, bool) {
        let epoch = self.epoch.load(Relaxed);
        let shape = tr.span(req, Layer::Fingerprint, || fingerprint_query(query));
        let key = CacheKey { epoch, shape };
        if let Some(hit) = tr.span(req, Layer::CacheProbe, || self.cache.lookup(&key)) {
            return (hit, false);
        }
        let mut memo = self.pool.checkout();
        let opt = tr.span(req, Layer::Optimize, || {
            self.optimizer.optimize_pooled(query, &mut memo)
        });
        drop(memo);
        let result = Arc::new(opt);
        self.cache.insert(key, result.clone());
        (result, true)
    }

    /// Like [`Replica::optimize`] from SQL text; on a miss also returns
    /// the bound query.
    fn optimize_sql(
        &self,
        sql: &str,
        tr: &mut Tracer,
        req: &mut Req,
    ) -> Result<(Arc<Optimized>, Option<Query>), SqlError> {
        let ast = tr.span(req, Layer::SqlParse, || dpnext_sql::parse(sql))?;
        let bound = tr.span(req, Layer::SqlBind, || {
            dpnext_sql::bind(&ast, self.optimizer.catalog())
        })?;
        let (opt, miss) = self.optimize(&bound.query, tr, req);
        Ok((opt, miss.then_some(bound.query)))
    }
}

// ---------------------------------------------------------------- cold_small

/// `cold_small`: `OptimizerService::optimize` over a stream of distinct
/// paper queries, n cycling through 3..=8, EA-Prune. The stream is the
/// fixed universe in seeded order; each lap over it starts with an epoch
/// bump, so every request misses the cache.
pub struct ColdSmall {
    universe: Universe,
    stream: Vec<usize>,
    count_stream: Vec<usize>,
    warm: Vec<usize>,
    expected: Vec<Option<u64>>,
    count_len: usize,
}

impl ColdSmall {
    pub fn new(seed: u64, p: &Params, expected: &Expected) -> ColdSmall {
        let universe = Universe::cold();
        let expected = universe
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| expected.costs("cold", i, shape_hash(q)).map(|c| c[0]))
            .collect();
        ColdSmall {
            stream: universe.stream(seed, p.cold_take),
            count_stream: universe.stream(COUNT_SEED, p.cold_take),
            warm: universe.warmup(),
            universe,
            expected,
            count_len: p.cold_count,
        }
    }

    /// Send request `g` of `stream` to `svc`. The client that starts a
    /// new lap over the stream bumps the epoch first.
    fn send(
        &self,
        svc: &OptimizerService,
        stream: &[usize],
        g: usize,
        clients: usize,
        tally: &Tally,
    ) -> Option<Arc<Optimized>> {
        let (lap, at) = (g / stream.len(), g % stream.len());
        if at < clients && lap > 0 {
            svc.bump_stats_epoch();
        }
        let i = stream[at];
        let r = svc.optimize(&self.universe.queries[i]);
        tally.check(served_ok(&r, self.expected[i]), || {
            describe(&r, format!("cold {i}"))
        });
        r.ok().map(|s| s.result)
    }
}

impl Workload for ColdSmall {
    type State = OptimizerService;

    fn setup(&self, tally: &Tally) -> OptimizerService {
        let svc = new_service();
        for &i in &self.warm {
            let r = svc.optimize(&self.universe.queries[i]);
            tally.check(served_ok(&r, self.expected[i]), || {
                describe(&r, format!("cold {i}"))
            });
        }
        svc
    }

    fn measure(
        &self,
        svc: &OptimizerService,
        clients: usize,
        dur: Duration,
        tally: &Tally,
        between: Between,
    ) -> Timed {
        let pass = self.stream.len().div_ceil(clients);
        closed_loop(clients, dur, pass, between, |c, k| {
            self.send(svc, &self.stream, k * clients + c, clients, tally);
        })
    }

    fn count(&self, tally: &Tally) -> Counters {
        let svc = self.setup(tally);
        let before = svc.stats();
        let mut c = Counters::default();
        let mut runs = Vec::with_capacity(self.count_len);
        alloc::arm();
        for k in 0..self.count_len {
            runs.push(self.send(&svc, &self.count_stream, k, 1, tally));
        }
        c.alloc = alloc::disarm();
        for opt in runs.iter().flatten() {
            c.core.add(opt);
        }
        c.requests = self.count_len as u64;
        c.service_delta(&before, &svc.stats());
        c
    }

    fn traced(&self, dur: Duration, tally: &Tally, span_cap: usize) -> Traced {
        let replica = Replica::new();
        let mut warm_tracer = Tracer::new(0);
        for &i in &self.warm {
            let mut req = warm_tracer.begin();
            replica.optimize(&self.universe.queries[i], &mut warm_tracer, &mut req);
        }
        traced_loop(dur, self.stream.len(), span_cap, |k, tr, core| {
            let (lap, at) = (k / self.stream.len(), k % self.stream.len());
            if at == 0 && lap > 0 {
                replica.bump_stats_epoch();
            }
            let i = self.stream[at];
            let query = &self.universe.queries[i];
            let mut req = tr.begin();
            let (opt, miss) = replica.optimize(query, tr, &mut req);
            tr.stop(&mut req);
            if miss {
                attach_core(tr, &mut req, query, &opt, Some(&replica.optimizer));
                core.add(&opt);
            }
            tr.finish(req);
            tally.check(plan_ok(&opt, self.expected[i]), || {
                format!("cold {i}: wrong plan")
            });
        })
    }
}

// ------------------------------------------------------------------ sql_hot

/// `sql_hot`: `optimize_sql` over a few dozen SQL texts with Zipf-skewed
/// arrivals, each client on its own sequence; one request in
/// [`SQL_EPOCH_CADENCE`] first bumps the statistics epoch, so known
/// shapes are re-optimized now and then.
pub struct SqlHot {
    texts: Vec<String>,
    seqs: Vec<Vec<u16>>,
    count_seqs: Vec<Vec<u16>>,
    expected: Vec<Option<u64>>,
    count_len: usize,
}

impl SqlHot {
    pub fn new(seed: u64, p: &Params, expected: &Expected) -> SqlHot {
        let texts = sql_texts();
        let catalog = dpnext_catalog::tpch_catalog();
        let expected = texts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let q = dpnext_sql::plan(t, &catalog).ok()?.query;
                expected.costs("sql", i, shape_hash(&q)).map(|c| c[0])
            })
            .collect();
        SqlHot {
            seqs: zipf_sequences(seed, texts.len(), CONCURRENT_CLIENTS, p.sql_seq),
            count_seqs: zipf_sequences(COUNT_SEED, texts.len(), 1, p.sql_seq),
            texts,
            expected,
            count_len: p.sql_count,
        }
    }

    fn text_of(seqs: &[Vec<u16>], client: usize, k: usize) -> usize {
        let seq = &seqs[client];
        seq[k % seq.len()] as usize
    }

    fn send(&self, svc: &OptimizerService, t: usize, tally: &Tally) -> Option<ServeResult> {
        let r = svc.optimize_sql(&self.texts[t]);
        tally.check(served_ok(&r, self.expected[t]), || {
            describe(&r, format!("sql {t}"))
        });
        r.ok()
    }
}

impl Workload for SqlHot {
    type State = OptimizerService;

    fn setup(&self, tally: &Tally) -> OptimizerService {
        let svc = new_service();
        for t in 0..self.texts.len() {
            self.send(&svc, t, tally);
        }
        svc
    }

    /// Each client walks its own arrival sequence.
    fn measure(
        &self,
        svc: &OptimizerService,
        clients: usize,
        dur: Duration,
        tally: &Tally,
        between: Between,
    ) -> Timed {
        closed_loop(clients, dur, self.seqs[0].len(), between, |c, k| {
            if sql_bumps(clients, c, k) {
                svc.bump_stats_epoch();
            }
            self.send(svc, Self::text_of(&self.seqs, c, k), tally);
        })
    }

    fn count(&self, tally: &Tally) -> Counters {
        let svc = self.setup(tally);
        let before = svc.stats();
        let mut c = Counters::default();
        let mut runs = Vec::with_capacity(self.count_len);
        alloc::arm();
        for j in 0..self.count_len {
            if sql_bumps(1, 0, j) {
                svc.bump_stats_epoch();
            }
            let t = Self::text_of(&self.count_seqs, 0, j);
            runs.push(self.send(&svc, t, tally));
        }
        c.alloc = alloc::disarm();
        for r in runs.iter().flatten().filter(|r| !r.cache_hit) {
            c.core.add(&r.result);
        }
        c.requests = self.count_len as u64;
        c.service_delta(&before, &svc.stats());
        c
    }

    fn traced(&self, dur: Duration, tally: &Tally, span_cap: usize) -> Traced {
        let replica = Replica::new();
        let mut warm_tracer = Tracer::new(0);
        for t in &self.texts {
            let mut req = warm_tracer.begin();
            replica.optimize_sql(t, &mut warm_tracer, &mut req).ok();
        }
        traced_loop(dur, self.seqs[0].len(), span_cap, |k, tr, core| {
            if sql_bumps(1, 0, k) {
                replica.bump_stats_epoch();
            }
            let t = Self::text_of(&self.seqs, 0, k);
            let mut req = tr.begin();
            let r = replica.optimize_sql(&self.texts[t], tr, &mut req);
            tr.stop(&mut req);
            if let Ok((opt, Some(query))) = &r {
                attach_core(tr, &mut req, query, opt, Some(&replica.optimizer));
                core.add(opt);
            }
            tr.finish(req);
            let ok = r
                .as_ref()
                .is_ok_and(|(opt, _)| plan_ok(opt, self.expected[t]));
            tally.check(ok, || describe(&r, format!("sql {t}")));
        })
    }
}

// -------------------------------------------------------------- paper_sweep

const SWEEP_ALGOS: [Algorithm; 3] = [Algorithm::DPhyp, Algorithm::EaPrune, Algorithm::EaAll];

/// `paper_sweep`: the facade's `Optimizer::optimize`
/// with DPhyp, EA-Prune and EA-All on paper queries with n = 4..=6; each
/// query is optimized once by each algorithm. The stream cycles (the
/// facade has no cache).
pub struct PaperSweep {
    universe: Universe,
    stream: Vec<usize>,
    count_stream: Vec<usize>,
    warm: Vec<usize>,
    expected: Vec<Option<Vec<u64>>>,
    count_len: usize,
}

impl PaperSweep {
    pub fn new(seed: u64, p: &Params, expected: &Expected) -> PaperSweep {
        let universe = Universe::sweep();
        let expected = universe
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| expected.costs("sweep", i, shape_hash(q)))
            .collect();
        PaperSweep {
            stream: universe.stream(seed, p.sweep_take),
            count_stream: universe.stream(COUNT_SEED, p.sweep_take),
            warm: universe.warmup(),
            universe,
            expected,
            count_len: p.sweep_count * SWEEP_ALGOS.len(),
        }
    }

    /// Request `g` of `stream`: (query index, algorithm slot).
    fn request(stream: &[usize], g: usize) -> (usize, usize) {
        let per = SWEEP_ALGOS.len();
        (stream[(g / per) % stream.len()], g % per)
    }

    fn send(&self, opts: &[Optimizer; 3], i: usize, a: usize, tally: &Tally) -> Option<Optimized> {
        let r = catch_unwind(AssertUnwindSafe(|| {
            opts[a].optimize(&self.universe.queries[i])
        }));
        let want = self.expected[i].as_ref().and_then(|c| c.get(a).copied());
        tally.check(r.as_ref().is_ok_and(|o| plan_ok(o, want)), || {
            format!("sweep {i} {}: wrong plan or panic", SWEEP_ALGOS[a].name())
        });
        r.ok()
    }
}

impl Workload for PaperSweep {
    type State = [Optimizer; 3];

    fn setup(&self, tally: &Tally) -> [Optimizer; 3] {
        let opts = SWEEP_ALGOS.map(Optimizer::new);
        for &i in &self.warm {
            for a in 0..SWEEP_ALGOS.len() {
                self.send(&opts, i, a, tally);
            }
        }
        opts
    }

    fn measure(
        &self,
        opts: &[Optimizer; 3],
        clients: usize,
        dur: Duration,
        tally: &Tally,
        between: Between,
    ) -> Timed {
        let pass = (self.stream.len() * SWEEP_ALGOS.len()).div_ceil(clients);
        closed_loop(clients, dur, pass, between, |c, k| {
            let (i, a) = Self::request(&self.stream, k * clients + c);
            self.send(opts, i, a, tally);
        })
    }

    fn count(&self, tally: &Tally) -> Counters {
        let opts = self.setup(tally);
        let mut c = Counters::default();
        let mut runs = Vec::with_capacity(self.count_len);
        alloc::arm();
        for k in 0..self.count_len {
            let (i, a) = Self::request(&self.count_stream, k);
            runs.push(self.send(&opts, i, a, tally));
        }
        c.alloc = alloc::disarm();
        for opt in runs.iter().flatten() {
            c.core.add(opt);
        }
        c.requests = self.count_len as u64;
        c
    }

    fn traced(&self, dur: Duration, tally: &Tally, span_cap: usize) -> Traced {
        let opts = self.setup(tally);
        let pass = self.stream.len() * SWEEP_ALGOS.len();
        traced_loop(dur, pass, span_cap, |k, tr, core| {
            let (i, a) = Self::request(&self.stream, k);
            let query = &self.universe.queries[i];
            let mut req = tr.begin();
            let r = tr.span(&mut req, Layer::Optimize, || {
                catch_unwind(AssertUnwindSafe(|| opts[a].optimize(query)))
            });
            tr.stop(&mut req);
            if let Ok(opt) = &r {
                attach_core(tr, &mut req, query, opt, None);
                core.add(opt);
            }
            tr.finish(req);
            let want = self.expected[i].as_ref().and_then(|c| c.get(a).copied());
            tally.check(r.as_ref().is_ok_and(|o| plan_ok(o, want)), || {
                format!("sweep {i} {}: wrong plan or panic", SWEEP_ALGOS[a].name())
            });
        })
    }
}
