//! The plan generators of §4, reduced to **one** enumeration engine over
//! the arena-backed [`Memo`]: the DPhyp baseline (Fig. 5, no eager
//! aggregation), complete enumeration EA-All (Fig. 9), the
//! optimality-preserving EA-Prune (Figs. 13/14), and the heuristics H1
//! (Fig. 10) and H2 (Fig. 12) are all instances of the engine with a
//! different `ClassPolicy`.
//!
//! The engine has two interchangeable drivers:
//!
//! * **streaming** (`threads = 1`): walk the DPhyp csg-cmp-pair stream in
//!   emission order and feed the policy directly — exactly the historical
//!   sequential path;
//! * **layered** (`threads > 1`): stratify the stream by `|S1 ∪ S2|`
//!   ([`dpnext_hypergraph::stratify_ccps`]), fan each stratum's pairs out
//!   over `std::thread::scope` workers building into thread-local
//!   [`MemoShard`]s, merge the shards, then replay the recorded
//!   candidates serially in the original work-unit order through the
//!   same `ClassPolicy::insert`/`complete` calls the streaming driver
//!   makes. A stratum only reads plan classes frozen by earlier strata
//!   and only writes its own, so costs, class contents, dominance
//!   outcomes and `plans_built` are bit-identical to the streaming driver
//!   for any thread count (the parity suite pins this).

use crate::context::{OptContext, Scratch};
use crate::finalize::{final_numbers, finalize, FinalPlan};
use crate::memo::{
    DominanceKind, Memo, MemoShard, MemoStats, PlanCold, PlanHot, PlanId, PlanStore,
};
use crate::optrees::op_trees;
use crate::plan::{apply_staged, make_scan, stage_apply};
use dpnext_conflict::applicable_ops_into;
use dpnext_hypergraph::{enumerate_ccps, stratify_ccps, NodeSet};
use dpnext_query::{OpKind, Query};
use std::time::{Duration, Instant};

/// The available plan-generation algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// DPhyp: join (re)ordering only, grouping stays on top.
    DPhyp,
    /// Complete enumeration of all eager-aggregation plans (Fig. 9);
    /// optimal, `O(2^{2n-1} · #ccp)`.
    EaAll,
    /// Complete enumeration with dominance pruning (Figs. 13/14); optimal.
    EaPrune,
    /// Greedy single-plan heuristic (Fig. 10).
    H1,
    /// H1 with eagerness-adjusted cost comparison and tolerance factor `F`
    /// (Fig. 12).
    H2(f64),
    /// Budgeted large-query ladder: exact DP when the csg-cmp-pair stream
    /// fits [`OptimizeOptions::plan_budget`], else linearized DP over the
    /// greedy linear order, else the greedy plan itself. Implemented by
    /// the `dpnext-adaptive` crate and dispatched by the `dpnext`
    /// `Optimizer` facade — [`optimize_with`] itself panics on this
    /// variant to keep the crate layering acyclic.
    Adaptive,
}

impl Algorithm {
    /// Display name matching the paper's figures (e.g. `"EA-Prune"`).
    pub fn name(&self) -> String {
        match self {
            Algorithm::DPhyp => "DPhyp".into(),
            Algorithm::EaAll => "EA-All".into(),
            Algorithm::EaPrune => "EA-Prune".into(),
            Algorithm::H1 => "H1".into(),
            Algorithm::H2(f) => format!("H2(F={f})"),
            Algorithm::Adaptive => "Adaptive".into(),
        }
    }
}

/// The result of one optimization run.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The winning complete plan with its cost and cardinality.
    pub plan: FinalPlan,
    /// Annotated EXPLAIN rendering of the winning logical plan (per-node
    /// cardinality/cost estimates, keys, aggregation state). Empty when
    /// rendering was disabled via [`OptimizeOptions::explain`].
    pub explain: String,
    /// Plans constructed during the search (joins + groupings).
    pub plans_built: u64,
    /// Plans retained in the DP table at the end.
    pub retained_plans: u64,
    /// Memo statistics: arena size, peak class width, prune hit-rate,
    /// layering/threading of the enumeration.
    pub memo: MemoStats,
    /// Time spent searching (EXPLAIN rendering excluded).
    pub elapsed: Duration,
}

/// Knobs of [`optimize_with`] beyond the algorithm choice.
#[derive(Debug, Clone, Copy)]
pub struct OptimizeOptions {
    /// Dominance criterion used by [`Algorithm::EaPrune`] (ablation
    /// interface; the paper's criterion is [`DominanceKind::Full`]).
    pub dominance: DominanceKind,
    /// Render the EXPLAIN string (skip for pure benchmarking runs).
    pub explain: bool,
    /// Worker threads for the enumeration engine: `1` is the exact
    /// sequential streaming path, `0` resolves to the machine's available
    /// parallelism. Any value yields bit-identical costs, class contents
    /// and `plans_built`.
    pub threads: usize,
    /// Plan budget for [`Algorithm::Adaptive`]: the maximum number of
    /// plans (joins + groupings) the search may construct across every
    /// rung of its degradation ladder. `0` means the adaptive default
    /// (`dpnext_adaptive::DEFAULT_PLAN_BUDGET`); requests below the
    /// greedy floor are clamped up so a valid plan always fits. The exact
    /// algorithms ignore this knob.
    pub plan_budget: u64,
    /// Wall-clock deadline for the whole optimization. Honored by the
    /// budgeted/adaptive path ([`BudgetedSearch`] checks it once per
    /// enumeration work unit, bounding overshoot to one unit); the exact
    /// engines ignore it, so callers that want deadline semantics must
    /// route deadline-bearing requests through the adaptive ladder — the
    /// `Optimizer` facade does exactly that. `None` (the default) changes
    /// nothing: unconstrained runs stay bit-identical.
    pub deadline: Option<Duration>,
    /// Memory budget (bytes of live memo state, see
    /// [`crate::Memo::live_bytes`]) for the whole optimization. Honored by
    /// the budgeted/adaptive path exactly like [`OptimizeOptions::deadline`]:
    /// checked once per enumeration work unit, overshoot bounded by one
    /// unit's plans, degradation recorded as
    /// [`crate::Degradation::memory_aborted`]. The exact engines ignore
    /// it, so the `Optimizer` facade routes memory-budgeted requests
    /// through the adaptive ladder. `0` (the default) disables the budget.
    pub memory_budget: u64,
    /// Fault-injection hook: an artificial busy-wait inserted before every
    /// enumeration work unit of a budgeted search, simulating a
    /// pathologically slow enumeration so deadline/degradation paths are
    /// testable deterministically. `None` (the default) disables it; never
    /// set outside tests and smoke binaries.
    pub fault_unit_delay: Option<Duration>,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            dominance: DominanceKind::Full,
            explain: true,
            threads: 0,
            plan_budget: 0,
            deadline: None,
            memory_budget: 0,
            fault_unit_delay: None,
        }
    }
}

/// Resolve the `threads` knob: `0` means all available cores.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Optimize `query` with the chosen algorithm and default options.
pub fn optimize(query: &Query, algo: Algorithm) -> Optimized {
    optimize_with(query, algo, &OptimizeOptions::default())
}

/// EA-Prune with a configurable dominance criterion (ablation interface;
/// `DominanceKind::Full` is exactly [`Algorithm::EaPrune`]).
pub fn optimize_with_pruning(query: &Query, kind: DominanceKind) -> Optimized {
    optimize_with(
        query,
        Algorithm::EaPrune,
        &OptimizeOptions {
            dominance: kind,
            ..OptimizeOptions::default()
        },
    )
}

/// Optimize `query` with explicit [`OptimizeOptions`].
pub fn optimize_with(query: &Query, algo: Algorithm, opts: &OptimizeOptions) -> Optimized {
    let mut memo = Memo::new();
    optimize_into(query, algo, opts, &mut memo)
}

/// [`optimize_with`] running inside a caller-supplied [`Memo`] — the
/// pooled entry point for serving layers that recycle arena allocations
/// across back-to-back optimizations.
///
/// The memo is [`Memo::reset`] before the run, so results and statistics
/// are bit-identical to [`optimize_with`] regardless of what the memo
/// held before; only the arena *capacity* (the allocation) is reused.
/// The winning [`crate::FinalPlan`] owns its compiled expression, so the
/// memo can be recycled immediately after this returns.
///
/// Panics on [`Algorithm::Adaptive`] like [`optimize_with`] does: the
/// budgeted ladder lives above dpnext-core and owns its own memos.
pub fn optimize_into(
    query: &Query,
    algo: Algorithm,
    opts: &OptimizeOptions,
    memo: &mut Memo,
) -> Optimized {
    memo.reset();
    let ctx = OptContext::new(query.clone());
    let threads = resolve_threads(opts.threads);
    let start = Instant::now();
    let ((plan, logical), retained, plans_built) = match algo {
        Algorithm::DPhyp => run_single(&ctx, memo, false, None, threads),
        Algorithm::H1 => run_single(&ctx, memo, true, None, threads),
        Algorithm::H2(f) => run_single(&ctx, memo, true, Some(f), threads),
        Algorithm::EaAll => run_multi(&ctx, memo, None, threads),
        Algorithm::EaPrune => run_multi(&ctx, memo, Some(opts.dominance), threads),
        // dpnext-core cannot depend on dpnext-adaptive (it is the other
        // way around); the facade routes this variant before we get here.
        Algorithm::Adaptive => panic!(
            "Algorithm::Adaptive is implemented by the dpnext-adaptive crate; \
             use dpnext::Optimizer or dpnext_adaptive::optimize_adaptive"
        ),
    };
    // Capture the search time *before* rendering: EXPLAIN is presentation,
    // not optimization, and must not inflate the reported elapsed time.
    let elapsed = start.elapsed();
    let explain = if opts.explain {
        crate::explain::explain(&ctx, memo, logical)
    } else {
        String::new()
    };
    Optimized {
        plan,
        explain,
        plans_built,
        retained_plans: retained,
        memo: memo.stats(),
        elapsed,
    }
}

/// Reusable per-pair buffers of the enumeration hot loop: orientation and
/// class snapshots live here so processing a csg-cmp-pair allocates
/// nothing (beyond the plans themselves).
struct PairBufs {
    /// `applicable_ops_into` output.
    apps: Vec<(usize, bool)>,
    /// Deduplicated operator indices crossing the cut.
    uniq: Vec<usize>,
    /// Orientations `(left set, right set, primary operator)`.
    orients: Vec<(NodeSet, NodeSet, usize)>,
    /// Extra inner-join edges crossing the same cut (cyclic queries);
    /// shared by every orientation of the pair.
    extra: Vec<usize>,
    lefts: Vec<PlanId>,
    rights: Vec<PlanId>,
    trees: Vec<PlanId>,
}

impl PairBufs {
    fn new() -> PairBufs {
        PairBufs {
            apps: Vec::new(),
            uniq: Vec::new(),
            orients: Vec::new(),
            extra: Vec::new(),
            lefts: Vec::new(),
            rights: Vec::new(),
            trees: Vec::new(),
        }
    }
}

/// All ways to apply operators to the csg-cmp-pair `(s1, s2)`, written
/// into `bufs.orients`/`bufs.extra` (no per-pair allocation).
///
/// Multiple edges cross the same cut only in cyclic queries; if they are
/// all inner joins their predicates are merged into one application. A mix
/// of inner and non-inner edges on one cut is rejected (never produced by
/// the paper's workloads).
fn orientations_into(ctx: &OptContext, s1: NodeSet, s2: NodeSet, bufs: &mut PairBufs) {
    let PairBufs {
        apps,
        uniq,
        orients,
        extra,
        ..
    } = bufs;
    orients.clear();
    extra.clear();
    applicable_ops_into(&ctx.cq, s1, s2, apps);
    if apps.is_empty() {
        return;
    }
    uniq.clear();
    uniq.extend(apps.iter().map(|&(i, _)| i));
    uniq.sort_unstable();
    uniq.dedup();
    if uniq.len() == 1 {
        let idx = uniq[0];
        for &(_, swapped) in apps.iter() {
            if swapped {
                orients.push((s2, s1, idx));
            } else {
                orients.push((s1, s2, idx));
            }
        }
    } else if uniq.iter().all(|&i| ctx.cq.ops[i].op == OpKind::Join) {
        let primary = uniq[0];
        extra.extend_from_slice(&uniq[1..]);
        orients.push((s1, s2, primary));
        orients.push((s2, s1, primary));
    }
}

/// What a plan class keeps, and what happens to complete plans — the only
/// part in which the five generators differ. The engine drives the
/// enumeration; the policy decides retention.
trait ClassPolicy {
    /// Generate all eager-aggregation variants (`OpTrees`, Fig. 6) or only
    /// the plain operator tree (the DPhyp baseline)?
    fn eager(&self) -> bool;
    /// A new plan for the (incomplete) class `s` was built.
    fn insert(&mut self, ctx: &OptContext, memo: &mut Memo, s: NodeSet, id: PlanId);
    /// A plan covering the full relation set with every operator applied.
    /// Returns whether the policy kept a reference to `id`; when no plan
    /// of a full-set pair is kept, the streaming driver rolls the arena
    /// back (the layered replay ignores the result: losing plans were
    /// already reclaimed worker-locally).
    fn complete(&mut self, ctx: &OptContext, memo: &mut Memo, id: PlanId) -> bool;
    /// Does `complete` keep every complete plan unconditionally? Workers
    /// then record all complete plans instead of pre-filtering with the
    /// worker-local keep-best (and never roll their shard back). The
    /// pre-filter is lossless only for policies whose `complete` keeps
    /// exactly the strict-cost winners, or (with this flag) everything.
    fn keeps_all_completes(&self) -> bool {
        false
    }
}

/// Where the plans of one csg-cmp-pair go: the streaming driver feeds the
/// policy and memo directly; layered workers record candidates (plus a
/// local keep-best for rollback) for the deterministic merge replay.
trait PairSink<S: PlanStore> {
    /// The engine is about to build the plans of work unit `unit` — one
    /// `(t1, t2)` subplan combination in the stratum-global enumeration
    /// order. Workers tag their candidates with it so the merge can
    /// interleave the streams back into sequential order.
    fn begin_unit(&mut self, unit: u64);
    fn insert(&mut self, ctx: &OptContext, store: &mut S, s: NodeSet, id: PlanId);
    /// Returns whether the sink kept a reference to the complete plan.
    fn complete(&mut self, ctx: &OptContext, store: &mut S, id: PlanId) -> bool;
}

/// Build the plan variants of one csg-cmp-pair: for each orientation,
/// pair up the retained subplans of both sides, construct the policy's
/// tree variants, and hand them to the sink. Complete plans never enter a
/// class; unless the sink keeps one, the whole `(t1, t2)` application is
/// rolled back — on EA-All the losing complete plans outnumber the
/// retained state by an order of magnitude.
///
/// Every `(orientation, t1, t2)` combination is one **work unit**,
/// numbered by `unit` across the whole stratum. `take` decides whether
/// this caller builds the unit (it also sees the store, so budgeted
/// callers can read live resource state like [`Memo::live_bytes`]) — the
/// streaming driver takes everything, layered workers take their
/// `unit ≡ worker (mod threads)` share. Unit
/// numbering depends only on frozen class snapshots and the (pure)
/// orientation computation, so every worker counts identically; combos
/// are the grain of the fan-out because the heavy strata of the EA
/// searches hold few pairs with enormous subplan grids.
#[allow(clippy::too_many_arguments)]
fn process_pair<S: PlanStore, K: PairSink<S>>(
    ctx: &OptContext,
    scratch: &mut Scratch,
    bufs: &mut PairBufs,
    store: &mut S,
    sink: &mut K,
    eager: bool,
    s1: NodeSet,
    s2: NodeSet,
    full: NodeSet,
    unit: &mut u64,
    take: &mut impl FnMut(u64, &S) -> bool,
) {
    orientations_into(ctx, s1, s2, bufs);
    let PairBufs {
        orients,
        extra,
        lefts,
        rights,
        trees,
        ..
    } = bufs;
    for &(sl, sr, op) in orients.iter() {
        lefts.clear();
        lefts.extend_from_slice(store.plan_class(sl));
        rights.clear();
        rights.extend_from_slice(store.plan_class(sr));
        if lefts.is_empty() || rights.is_empty() {
            continue;
        }
        let s = sl.union(sr);
        // Stage the cut once per orientation: predicate orientation,
        // merged selectivity, distinct products and applied bits are
        // identical for every `(t1, t2)` combination of the grid, so the
        // per-plan application does none of that work.
        let staged = stage_apply(ctx, scratch, op, extra, sl);
        for &t1 in lefts.iter() {
            for &t2 in rights.iter() {
                let u = *unit;
                *unit += 1;
                if !take(u, store) {
                    continue;
                }
                sink.begin_unit(u);
                let mark = (s == full).then(|| store.plan_count());
                trees.clear();
                if eager {
                    op_trees(ctx, scratch, store, &staged, t1, t2, trees);
                } else if let Some(t) = apply_staged(ctx, scratch, store, &staged, t1, t2) {
                    trees.push(t);
                }
                let mut kept = false;
                for &t in trees.iter() {
                    if s == full {
                        if all_ops_applied(ctx, store[t].applied) {
                            kept |= sink.complete(ctx, store, t);
                        }
                    } else {
                        sink.insert(ctx, store, s, t);
                    }
                }
                if let Some(mark) = mark {
                    if !kept {
                        store.truncate_plans(mark);
                    }
                }
            }
        }
    }
}

/// The streaming sink: candidates go straight to the policy.
struct PolicySink<'a, P: ClassPolicy> {
    policy: &'a mut P,
}

impl<P: ClassPolicy> PairSink<Memo> for PolicySink<'_, P> {
    fn begin_unit(&mut self, _unit: u64) {}

    fn insert(&mut self, ctx: &OptContext, memo: &mut Memo, s: NodeSet, id: PlanId) {
        self.policy.insert(ctx, memo, s, id);
    }

    fn complete(&mut self, ctx: &OptContext, memo: &mut Memo, id: PlanId) -> bool {
        self.policy.complete(ctx, memo, id)
    }
}

/// A layered worker's sink: class candidates and surviving complete plans
/// are recorded (tagged with their work unit) for the merge replay; a
/// worker-local keep-best drives the arena rollback so losing complete
/// plans are reclaimed without cross-thread coordination. Collect-all
/// policies (`keep_all`) retain every complete plan instead.
#[derive(Default)]
struct WorkerSink {
    unit: u64,
    inserts: Vec<(u64, NodeSet, PlanId)>,
    completes: Vec<(u64, PlanId)>,
    best_cost: Option<f64>,
    keep_all: bool,
}

impl WorkerSink {
    fn new(keep_all: bool) -> WorkerSink {
        WorkerSink {
            keep_all,
            ..WorkerSink::default()
        }
    }
}

impl PairSink<MemoShard<'_>> for WorkerSink {
    fn begin_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    fn insert(&mut self, _ctx: &OptContext, _store: &mut MemoShard<'_>, s: NodeSet, id: PlanId) {
        self.inserts.push((self.unit, s, id));
    }

    fn complete(&mut self, ctx: &OptContext, store: &mut MemoShard<'_>, id: PlanId) -> bool {
        if self.keep_all {
            self.completes.push((self.unit, id));
            return true;
        }
        let (cost, _, _) = final_numbers(ctx, store, id);
        if self.best_cost.is_none_or(|b| cost < b) {
            self.best_cost = Some(cost);
            self.completes.push((self.unit, id));
            return true;
        }
        false
    }
}

/// Everything one worker hands back from a stratum.
struct WorkerOut {
    /// The shard's locally built plan rows, split hot/cold like the
    /// shared arena they will be appended to.
    hot: Vec<PlanHot>,
    cold: Vec<PlanCold>,
    peak: usize,
    inserts: Vec<(u64, NodeSet, PlanId)>,
    completes: Vec<(u64, PlanId)>,
    plans_built: u64,
    attrs_used: u32,
    units: u64,
    /// The worker's scratch, returned so its warm `G⁺` cache survives
    /// into the next stratum (G⁺ is a pure function of the query).
    scratch: Scratch,
}

/// One worker: walk the whole stratum's unit enumeration (cheap — the
/// per-pair orientation probe against frozen classes) and build every
/// `unit ≡ worker (mod threads)` combination against the frozen shared
/// memo. Unit-granular striping is what load-balances the EA searches,
/// whose heaviest strata hold only a handful of pairs with huge subplan
/// grids.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    ctx: &OptContext,
    shared: &Memo,
    pairs: &[(NodeSet, NodeSet)],
    worker: usize,
    threads: usize,
    mut scratch: Scratch,
    eager: bool,
    keep_all: bool,
    full: NodeSet,
) -> WorkerOut {
    // The scratch is reused across strata; report this stratum's delta.
    let built_before = scratch.plans_built;
    let mut bufs = PairBufs::new();
    let mut shard = MemoShard::new(shared);
    let mut sink = WorkerSink::new(keep_all);
    let mut unit = 0u64;
    let w = worker as u64;
    let t = threads as u64;
    let mut take = move |u: u64, _: &MemoShard<'_>| u % t == w;
    for &(s1, s2) in pairs {
        process_pair(
            ctx,
            &mut scratch,
            &mut bufs,
            &mut shard,
            &mut sink,
            eager,
            s1,
            s2,
            full,
            &mut unit,
            &mut take,
        );
    }
    let peak = shard.peak();
    let plans_built = scratch.plans_built - built_before;
    let attrs_used = scratch.attrs_used();
    let (hot, cold) = shard.into_local();
    WorkerOut {
        hot,
        cold,
        peak,
        inserts: sink.inserts,
        completes: sink.completes,
        plans_built,
        attrs_used,
        units: unit,
        scratch,
    }
}

/// Fan-out threshold: a stratum below this many subplan combinations is
/// processed inline — thread spawn plus merge costs more than the work.
const PAR_MIN_COMBOS: usize = 256;

/// The layered driver: strata in ascending union size; within a stratum,
/// work units fan out round-robin over scoped worker threads, the shards
/// merge into the memo, and the recorded candidates replay serially in
/// original unit order through the policy's streaming `insert`/`complete`
/// — so every observable outcome matches the streaming driver bit for
/// bit.
/// Memory note: unlike the streaming driver, this materializes the whole
/// csg-cmp-pair stream (16 bytes/pair). That is only significant where
/// `#ccp` is astronomically large — and every pair also costs at least
/// one plan construction (~µs), so any graph whose pair list strains
/// memory is already out of wall-clock reach; a lazy stratifier is listed
/// in the ROADMAP should that change.
fn enumerate_layered<P: ClassPolicy>(
    ctx: &OptContext,
    memo: &mut Memo,
    scratch: &mut Scratch,
    policy: &mut P,
    threads: usize,
) {
    let eager = policy.eager();
    let keep_all = policy.keeps_all_completes();
    let n = ctx.query.table_count();
    let full = NodeSet::full(n);
    let strata = stratify_ccps(&ctx.cq.graph);
    // Widest fan-out actually spawned (1 = every stratum ran inline),
    // recorded after the loop.
    let mut fanout_used = 1u64;
    // Phase instrumentation: plan-building (worker/inline) time vs
    // merge+replay time, and how many strata fanned out.
    let mut worker_nanos = 0u64;
    let mut replay_nanos = 0u64;
    let mut fanned_strata = 0u64;
    // Global fresh-attribute cursor: inline strata allocate from it
    // directly; fanned-out strata interleave it across workers (ids ≡
    // worker mod t). Ids differ between thread counts but never collide,
    // and nothing observable depends on them (fresh columns have unknown
    // statistics).
    let mut next_attr = ctx.first_fresh_attr();
    let mut bufs = PairBufs::new();
    // Per-worker scratches persist across strata so the warm G⁺ caches
    // (pure functions of the query) are not recomputed every layer.
    let mut pool: Vec<Option<Scratch>> = (0..threads).map(|_| None).collect();
    for (stratum_idx, pairs) in strata.strata.iter().filter(|p| !p.is_empty()).enumerate() {
        // Work-unit estimate for the stratum: subplan combinations over
        // the frozen classes. Orientations can double it (commutative
        // operators emit both directions), so this is a ×2-accurate
        // estimate, not a bound — good enough for the fan-out decision.
        let combos: usize = pairs
            .iter()
            .map(|&(s1, s2)| memo.class(s1).len() * memo.class(s2).len())
            .sum();
        let t = threads.min(combos.max(1));
        if t < 2 || combos < PAR_MIN_COMBOS {
            // Inline: identical to one worker plus immediate replay.
            let t0 = Instant::now();
            scratch.set_attr_base(next_attr);
            let mut sink = PolicySink {
                policy: &mut *policy,
            };
            let mut unit = 0u64;
            let mut take = |_: u64, _: &Memo| true;
            for &(s1, s2) in pairs {
                process_pair(
                    ctx, scratch, &mut bufs, memo, &mut sink, eager, s1, s2, full, &mut unit,
                    &mut take,
                );
            }
            next_attr += scratch.attrs_used();
            let dt = t0.elapsed().as_nanos() as u64;
            worker_nanos += dt;
            dpnext_obs::emit_span(
                "engine.stratum.worker",
                dt,
                &[
                    ("stratum", stratum_idx as u64),
                    ("pairs", pairs.len() as u64),
                    ("combos", combos as u64),
                    ("fanout", 1),
                ],
            );
            continue;
        }
        fanout_used = fanout_used.max(t as u64);
        fanned_strata += 1;
        let t0 = Instant::now();
        let shared: &Memo = memo;
        let scratches: Vec<Scratch> = pool
            .iter_mut()
            .take(t)
            .enumerate()
            .map(|(w, slot)| {
                let mut s = slot
                    .take()
                    .unwrap_or_else(|| Scratch::with_attr_base(next_attr));
                // Interleaved ids: worker w allocates next_attr + w + k·t,
                // disjoint across workers from one shared cursor.
                s.set_attr_stride(next_attr + w as u32, t as u32);
                s
            })
            .collect();
        let outs: Vec<WorkerOut> = std::thread::scope(|sc| {
            let handles: Vec<_> = scratches
                .into_iter()
                .enumerate()
                .map(|(w, ws)| {
                    sc.spawn(move || {
                        run_worker(ctx, shared, pairs, w, t, ws, eager, keep_all, full)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("enumeration worker panicked"))
                .collect()
        });
        let dt = t0.elapsed().as_nanos() as u64;
        worker_nanos += dt;
        dpnext_obs::emit_span(
            "engine.stratum.worker",
            dt,
            &[
                ("stratum", stratum_idx as u64),
                ("pairs", pairs.len() as u64),
                ("combos", combos as u64),
                ("fanout", t as u64),
            ],
        );
        let t1 = Instant::now();
        // Advance the cursor past the interleaved block actually used:
        // worker w's largest id is < next_attr + w + t·used_w, so
        // t × max(used) covers every worker.
        let max_used = outs.iter().map(|o| o.attrs_used).max().unwrap_or(0);
        next_attr = u32::try_from(u64::from(next_attr) + u64::from(max_used) * t as u64)
            .expect("fresh-attribute space (u32) exhausted");
        // Merge: shards append in worker order (ids shift as a block).
        memo.record_shard_peak(outs.iter().map(|o| o.peak as u64).sum());
        let base = memo.arena_len();
        let units = outs.first().map(|o| o.units).unwrap_or(0);
        debug_assert!(outs.iter().all(|o| o.units == units));
        let candidates: usize = outs.iter().map(|o| o.inserts.len()).sum();
        let mut remaps = Vec::with_capacity(t);
        let mut inserts = Vec::with_capacity(t);
        let mut completes = Vec::with_capacity(t);
        for (w, out) in outs.into_iter().enumerate() {
            scratch.plans_built += out.plans_built;
            remaps.push(memo.append_shard(out.hot, out.cold, base));
            inserts.push(out.inserts);
            completes.push(out.completes);
            pool[w] = Some(out.scratch);
        }
        // Replay in streaming order through the policy. Complete plans
        // only come from the final stratum, which feeds no class.
        for (w, &(_, s, id)) in unit_order(&inserts, |c| c.0) {
            policy.insert(ctx, memo, s, remaps[w].apply(id));
        }
        for (w, &(_, id)) in unit_order(&completes, |c| c.0) {
            policy.complete(ctx, memo, remaps[w].apply(id));
        }
        let dt = t1.elapsed().as_nanos() as u64;
        replay_nanos += dt;
        dpnext_obs::emit_span(
            "engine.stratum.replay",
            dt,
            &[
                ("stratum", stratum_idx as u64),
                ("candidates", candidates as u64),
            ],
        );
    }
    memo.record_layering(
        strata.layer_count(),
        strata.peak_layer_pairs(),
        fanout_used,
        fanned_strata,
    );
    memo.record_phases(worker_nanos, replay_nanos);
}

/// Interleave the workers' recorded streams back into the sequential
/// work-unit order, yielding `(worker, item)`. Each stream is ascending
/// in unit and every unit belongs to exactly one worker, so repeatedly
/// taking the stream with the smallest next unit reproduces the streaming
/// driver's order exactly — without materializing or sorting the union.
fn unit_order<T>(streams: &[Vec<T>], unit: fn(&T) -> u64) -> impl Iterator<Item = (usize, &T)> {
    let mut pos = vec![0usize; streams.len()];
    std::iter::from_fn(move || {
        let w = (0..streams.len())
            .filter(|&w| pos[w] < streams[w].len())
            .min_by_key(|&w| unit(&streams[w][pos[w]]))?;
        pos[w] += 1;
        Some((w, &streams[w][pos[w] - 1]))
    })
}

/// The streaming driver: seed scan classes, then walk every csg-cmp-pair
/// in DPhyp emission order and feed the policy directly. Plan classes are
/// id lists in the memo; the per-pair snapshots are plain `PlanId` copies
/// into reusable scratch buffers — no plan data is ever cloned.
fn enumerate_streaming<P: ClassPolicy>(
    ctx: &OptContext,
    memo: &mut Memo,
    scratch: &mut Scratch,
    policy: &mut P,
) {
    let n = ctx.query.table_count();
    let full = NodeSet::full(n);
    let eager = policy.eager();
    let mut bufs = PairBufs::new();
    let mut sink = PolicySink { policy };
    let mut unit = 0u64;
    let mut take = |_: u64, _: &Memo| true;
    enumerate_ccps(&ctx.cq.graph, |s1, s2| {
        process_pair(
            ctx, scratch, &mut bufs, memo, &mut sink, eager, s1, s2, full, &mut unit, &mut take,
        );
    });
}

/// Seed the singleton scan classes, then run the requested driver.
/// Returns the total number of plans built.
fn run_engine<P: ClassPolicy>(
    ctx: &OptContext,
    memo: &mut Memo,
    policy: &mut P,
    threads: usize,
) -> u64 {
    let mut scratch = Scratch::new(ctx);
    let n = ctx.query.table_count();
    for i in 0..n {
        let id = make_scan(ctx, memo, i);
        memo.class_push(NodeSet::single(i), id);
    }
    if n > 1 {
        if threads <= 1 {
            memo.record_layering(0, 0, 1, 0);
            let t0 = Instant::now();
            enumerate_streaming(ctx, memo, &mut scratch, policy);
            // Streaming is all build work: the phase split degenerates to
            // a zero replay share.
            memo.record_phases(t0.elapsed().as_nanos() as u64, 0);
        } else {
            enumerate_layered(ctx, memo, &mut scratch, policy, threads);
        }
    }
    scratch.plans_built
}

/// Keep the cheapest finalized plan (ties resolved to the earlier one).
/// Returns whether `id` became the new best.
fn keep_best(best: &mut Option<(f64, PlanId)>, ctx: &OptContext, memo: &Memo, id: PlanId) -> bool {
    // Compare by final cost only ([`final_numbers`]): compiling the
    // winner's algebra tree is deferred to the end of the run, so the
    // orders-of-magnitude more numerous losing complete plans never pay
    // the recursive `compile` walk.
    let (cost, _, _) = final_numbers(ctx, memo, id);
    if best.is_none_or(|(b, _)| cost < b) {
        *best = Some((cost, id));
        return true;
    }
    false
}

/// Single-plan-per-class policy: DPhyp baseline (`eager = false`), H1
/// (`eager = true`), H2 (`factor = Some(F)`, Fig. 12).
struct SingleBest {
    eager: bool,
    factor: Option<f64>,
    /// Cheapest complete plan so far, by final cost; compiled to a
    /// [`FinalPlan`] only once the run ends.
    best: Option<(f64, PlanId)>,
}

impl ClassPolicy for SingleBest {
    fn eager(&self) -> bool {
        self.eager
    }

    fn insert(&mut self, _ctx: &OptContext, memo: &mut Memo, s: NodeSet, id: PlanId) {
        match memo.class(s).first().copied() {
            None => memo.class_push(s, id),
            Some(cur) => {
                if compare_adjusted(memo, id, cur, self.factor) {
                    memo.class_set_single(s, id);
                }
            }
        }
    }

    fn complete(&mut self, ctx: &OptContext, memo: &mut Memo, id: PlanId) -> bool {
        keep_best(&mut self.best, ctx, memo, id)
    }
}

/// Multi-plan policy: EA-All (`prune = None`, Fig. 9) and EA-Prune
/// (`prune = Some(kind)`, Figs. 13/14).
struct MultiBest {
    prune: Option<DominanceKind>,
    guard_groupjoin: bool,
    /// Cheapest complete plan so far, by final cost; compiled to a
    /// [`FinalPlan`] only once the run ends.
    best: Option<(f64, PlanId)>,
}

impl ClassPolicy for MultiBest {
    fn eager(&self) -> bool {
        true
    }

    fn insert(&mut self, _ctx: &OptContext, memo: &mut Memo, s: NodeSet, id: PlanId) {
        match self.prune {
            Some(kind) => memo.class_prune_insert(s, id, kind, self.guard_groupjoin),
            None => memo.class_push(s, id),
        }
    }

    fn complete(&mut self, ctx: &OptContext, memo: &mut Memo, id: PlanId) -> bool {
        keep_best(&mut self.best, ctx, memo, id)
    }
}

/// Collect-everything policy for [`all_subplans`]: every class keeps every
/// plan and complete plans are gathered instead of finalized.
struct CollectAll {
    complete: Vec<PlanId>,
}

impl ClassPolicy for CollectAll {
    fn eager(&self) -> bool {
        true
    }

    fn insert(&mut self, _ctx: &OptContext, memo: &mut Memo, s: NodeSet, id: PlanId) {
        memo.class_push(s, id);
    }

    fn complete(&mut self, _ctx: &OptContext, _memo: &mut Memo, id: PlanId) -> bool {
        self.complete.push(id);
        true
    }

    // Keeps every complete plan: the workers record all of them instead
    // of pre-filtering with the worker-local keep-best, which makes the
    // layered driver lossless for this policy too.
    fn keeps_all_completes(&self) -> bool {
        true
    }
}

fn run_single(
    ctx: &OptContext,
    memo: &mut Memo,
    eager: bool,
    factor: Option<f64>,
    threads: usize,
) -> ((FinalPlan, PlanId), u64, u64) {
    let mut policy = SingleBest {
        eager,
        factor,
        best: None,
    };
    let plans_built = run_engine(ctx, memo, &mut policy, threads);
    if ctx.query.table_count() == 1 {
        return finalize_single_table(ctx, memo, plans_built);
    }
    let retained = memo.class_count();
    match policy.best {
        // Deferred finalization: compile the single winner's tree now.
        Some((_, id)) => ((finalize(ctx, memo, id), id), retained, plans_built),
        // Eager single-plan search can dead-end when a groupjoin's right
        // side only has a pre-aggregated plan; fall back to the baseline
        // (plans built during the dead-ended attempt stay counted; the
        // dead-ended memo is wiped, matching the old drop-and-restart).
        None if eager => {
            memo.reset();
            let (best, retained, fallback_built) = run_single(ctx, memo, false, None, threads);
            (best, retained, plans_built + fallback_built)
        }
        None => panic!("no plan found: query graph disconnected or over-constrained"),
    }
}

fn run_multi(
    ctx: &OptContext,
    memo: &mut Memo,
    prune: Option<DominanceKind>,
    threads: usize,
) -> ((FinalPlan, PlanId), u64, u64) {
    let guard_groupjoin = ctx.cq.ops.iter().any(|o| o.op == OpKind::GroupJoin);
    let mut policy = MultiBest {
        prune,
        guard_groupjoin,
        best: None,
    };
    let plans_built = run_engine(ctx, memo, &mut policy, threads);
    if ctx.query.table_count() == 1 {
        return finalize_single_table(ctx, memo, plans_built);
    }
    let retained = memo.retained();
    let (_, id) = policy
        .best
        .expect("no plan found: query graph disconnected or over-constrained");
    // Deferred finalization: compile the single winner's tree now.
    ((finalize(ctx, memo, id), id), retained, plans_built)
}

/// Degenerate single-table query: the scan is the complete plan.
fn finalize_single_table(
    ctx: &OptContext,
    memo: &Memo,
    plans_built: u64,
) -> ((FinalPlan, PlanId), u64, u64) {
    let id = memo.class(NodeSet::full(1))[0];
    let plan = finalize(ctx, memo, id);
    ((plan, id), 1, plans_built)
}

/// Enumerate every plan EA-All would consider, for diagnostics and for
/// property tests that validate per-plan claims (keys, duplicate-freeness)
/// against executed results. Exponential — small queries only. Returns the
/// memo owning the plans plus every enumerated id (partial and complete).
pub fn all_subplans(query: &Query) -> (OptContext, Memo, Vec<PlanId>) {
    all_subplans_with(query, 1)
}

/// [`all_subplans`] with an explicit enumeration fan-out. The collect-all
/// policy is layered-capable (workers record every complete plan, see
/// `ClassPolicy::keeps_all_completes`), so class contents, the complete
/// stream and `plans_built` are identical for any thread count — only
/// arena positions (hence raw `PlanId` values) differ.
pub fn all_subplans_with(query: &Query, threads: usize) -> (OptContext, Memo, Vec<PlanId>) {
    let ctx = OptContext::new(query.clone());
    let mut memo = Memo::new();
    let mut policy = CollectAll {
        complete: Vec::new(),
    };
    run_engine(&ctx, &mut memo, &mut policy, threads);
    let mut plans = memo.retained_ids();
    plans.extend(policy.complete);
    (ctx, memo, plans)
}

/// Hard upper bound on the plans one enumeration work unit (one
/// `(orientation, t1, t2)` subplan combination) can construct: `op_trees`
/// builds at most the plain apply, two pushed-down groupings and three
/// grouped applies (Fig. 8 (a)–(d)). The budgeted search uses this to
/// translate a plan budget into a unit allowance without mid-unit
/// bookkeeping.
pub const UNIT_MAX_PLANS: u64 = 6;

/// A budget-enforcing, pair-at-a-time frontend over the multi-plan
/// enumeration engine: the caller supplies the csg-cmp-pair stream (the
/// full DPhyp stream, greedy merges, interval splits of a linear order —
/// anything whose pairs read only already-populated classes), and the
/// search feeds each pair through the same `op_trees`/dominance machinery
/// as [`Algorithm::EaPrune`], guaranteeing `plans_built <= budget`
/// throughout. This is the core hook the `dpnext-adaptive` large-query
/// ladder drives; it always runs the sequential streaming path.
pub struct BudgetedSearch<'a> {
    ctx: &'a OptContext,
    memo: Memo,
    scratch: Scratch,
    bufs: PairBufs,
    policy: MultiBest,
    budget: u64,
    exhausted: bool,
    deadline: Option<Instant>,
    deadline_hit: bool,
    memory_budget: Option<u64>,
    memory_hit: bool,
    unit_delay: Option<Duration>,
    full: NodeSet,
    live_probe: LiveBytesProbe,
}

/// This search's RAII contribution to the process-wide live-bytes gauge
/// ([`dpnext_obs::global_live_bytes`]): remembers the bytes last
/// published and withdraws them on drop. Delta-based publishing makes
/// concurrent searches sum correctly, and the drop reconciliation means
/// a search abandoned mid-run (panic unwind, quarantine) cannot leak its
/// contribution into the gauge forever. Observation only — enforcement
/// stays with the per-search memory budget and the serving ledger.
struct LiveBytesProbe {
    gauge: std::sync::Arc<dpnext_obs::Gauge>,
    reported: u64,
}

impl LiveBytesProbe {
    fn new() -> LiveBytesProbe {
        LiveBytesProbe {
            gauge: dpnext_obs::global_live_bytes(),
            reported: 0,
        }
    }

    /// Publish the current live-byte count (one O(1) read and one relaxed
    /// atomic op — cheap enough for work-unit granularity).
    #[inline]
    fn record(&mut self, live: u64) {
        if live >= self.reported {
            self.gauge.add(live - self.reported);
        } else {
            self.gauge.sub(self.reported - live);
        }
        self.reported = live;
    }
}

impl Drop for LiveBytesProbe {
    fn drop(&mut self) {
        self.gauge.sub(self.reported);
    }
}

/// What a finished [`BudgetedSearch`] hands back.
pub struct BudgetedOutcome {
    /// The memo owning every plan the search built.
    pub memo: Memo,
    /// The cheapest complete plan seen, with its memo id (`None` when no
    /// pair produced a complete plan — disconnected graph or exhaustion
    /// before the first full-set pair).
    pub best: Option<(FinalPlan, PlanId)>,
    /// Plans constructed in total; never exceeds the budget.
    pub plans_built: u64,
    /// Whether some pair was skipped or truncated for lack of budget.
    pub exhausted: bool,
}

impl<'a> BudgetedSearch<'a> {
    /// A fresh search over `ctx` with dominance pruning `dominance` and a
    /// hard cap of `budget` constructed plans (scans are free, matching
    /// the `plans_built` accounting of the unbudgeted engine). Seeds the
    /// singleton scan classes.
    pub fn new(ctx: &'a OptContext, dominance: DominanceKind, budget: u64) -> BudgetedSearch<'a> {
        let guard_groupjoin = ctx.cq.ops.iter().any(|o| o.op == OpKind::GroupJoin);
        let mut memo = Memo::new();
        let n = ctx.query.table_count();
        for i in 0..n {
            let id = make_scan(ctx, &mut memo, i);
            memo.class_push(NodeSet::single(i), id);
        }
        BudgetedSearch {
            ctx,
            memo,
            scratch: Scratch::new(ctx),
            bufs: PairBufs::new(),
            policy: MultiBest {
                prune: Some(dominance),
                guard_groupjoin,
                best: None,
            },
            budget,
            exhausted: false,
            deadline: None,
            deadline_hit: false,
            memory_budget: None,
            memory_hit: false,
            unit_delay: None,
            full: NodeSet::full(n),
            live_probe: LiveBytesProbe::new(),
        }
    }

    /// Plans constructed so far (joins + groupings).
    pub fn plans_built(&self) -> u64 {
        self.scratch.plans_built
    }

    /// Budget still available.
    pub fn remaining(&self) -> u64 {
        self.budget.saturating_sub(self.scratch.plans_built)
    }

    /// The hard cap this search enforces.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Replace the enforced cap. Ladder-style callers temporarily lower
    /// it to run one rung under a sub-budget (reserving the rest for a
    /// cheaper fallback strategy) and restore the full cap afterwards.
    /// Must never drop below what is already spent.
    pub fn set_budget(&mut self, budget: u64) {
        debug_assert!(budget >= self.scratch.plans_built);
        self.budget = budget;
    }

    /// Whether a pair has been skipped or truncated for lack of budget.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Arm (or clear, with `None`) a wall-clock deadline. Checked once per
    /// enumeration work unit inside [`BudgetedSearch::process`], so a pair
    /// in flight overshoots by at most one unit (≤ [`UNIT_MAX_PLANS`]
    /// plans). Also clears the deadline-hit marker, so ladder callers can
    /// arm a fresh sub-deadline per rung.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        self.deadline_hit = false;
    }

    /// Whether the most recent exhaustion was caused by the deadline (as
    /// opposed to the plan budget). Cleared by [`BudgetedSearch::set_deadline`].
    pub fn deadline_hit(&self) -> bool {
        self.deadline_hit
    }

    /// Arm (or clear, with `None`) a memory budget in bytes of live memo
    /// state ([`Memo::live_bytes`]). Checked once per enumeration work
    /// unit and once per pair inside [`BudgetedSearch::process`], exactly
    /// like the deadline, so overshoot is bounded by one unit's plans
    /// (≤ [`UNIT_MAX_PLANS`], each with a bounded payload). Also clears
    /// the memory-hit marker, so ladder callers can arm a fresh headroom
    /// split per rung.
    pub fn set_memory_budget(&mut self, budget: Option<u64>) {
        self.memory_budget = budget;
        self.memory_hit = false;
    }

    /// Whether the most recent exhaustion was caused by the memory budget
    /// (as opposed to the plan budget or deadline). Cleared by
    /// [`BudgetedSearch::set_memory_budget`].
    pub fn memory_hit(&self) -> bool {
        self.memory_hit
    }

    /// Current live bytes of the search's memo (see [`Memo::live_bytes`]).
    pub fn live_bytes(&self) -> u64 {
        self.memo.live_bytes()
    }

    /// Fault-injection hook: busy-wait `delay` before every enumeration
    /// work unit (see [`OptimizeOptions::fault_unit_delay`]).
    pub fn set_unit_delay(&mut self, delay: Option<Duration>) {
        self.unit_delay = delay;
    }

    /// Clear the exhaustion marker. For ladder-style callers that abandon
    /// an exhausted rung but keep the memo and spend the remaining budget
    /// on a cheaper strategy — the abandoned rung's partial classes stay
    /// valid (every plan in them is real), they just stop being complete.
    pub fn reset_exhausted(&mut self) {
        self.exhausted = false;
    }

    /// Read access to the memo (classes, plan data) for pair selection.
    pub fn memo(&self) -> &Memo {
        &self.memo
    }

    /// Width of the plan class of `s`.
    pub fn class_len(&self, s: NodeSet) -> usize {
        self.memo.class(s).len()
    }

    /// Cost of the cheapest complete plan seen so far.
    pub fn best_cost(&self) -> Option<f64> {
        self.policy.best.map(|(cost, _)| cost)
    }

    /// Whether any complete plan has been found.
    pub fn has_best(&self) -> bool {
        self.policy.best.is_some()
    }

    /// Shrink the class of `s` to its greedy representative(s); see
    /// [`Memo::class_shrink_to_best`]. The groupjoin guard is applied
    /// exactly when the query contains groupjoins.
    pub fn shrink_class_to_best(&mut self, s: NodeSet) {
        self.memo
            .class_shrink_to_best(s, self.policy.guard_groupjoin);
    }

    /// Process one candidate pair under the budget: build every operator
    /// tree of every subplan combination (with all eager-aggregation
    /// variants), insert into the target class with dominance pruning, and
    /// keep-best complete plans. Work units beyond the remaining budget's
    /// unit allowance are skipped; if any were, the search is marked
    /// exhausted and `false` is returned (the pair's plan set is then
    /// incomplete and downstream results must not claim optimality).
    ///
    /// Pairs with no applicable operator build nothing and return `true`.
    pub fn process(&mut self, s1: NodeSet, s2: NodeSet) -> bool {
        if self.exhausted {
            return false;
        }
        // Per-pair deadline/memory checks: even a stream of pairs with no
        // applicable operator (which never enters the per-unit closure
        // below) stays resource-bounded.
        if let Some(dl) = self.deadline {
            if Instant::now() >= dl {
                self.deadline_hit = true;
                self.exhausted = true;
                return false;
            }
        }
        if let Some(mb) = self.memory_budget {
            if self.memo.live_bytes() >= mb {
                self.memory_hit = true;
                self.exhausted = true;
                return false;
            }
        }
        let allowed = self.remaining() / UNIT_MAX_PLANS;
        let mut unit = 0u64;
        let deadline = self.deadline;
        let memory_budget = self.memory_budget;
        let unit_delay = self.unit_delay;
        let mut hit = false;
        let mut mem_hit = false;
        let live_probe = &mut self.live_probe;
        let mut take = |u: u64, memo: &Memo| {
            // Mid-run memory visibility (ROADMAP PR 9 residual): publish
            // live bytes into the process gauge once per work unit, so
            // global pressure is observable between pool check-ins.
            live_probe.record(memo.live_bytes());
            if u >= allowed {
                return false;
            }
            if let Some(dl) = deadline {
                if hit || Instant::now() >= dl {
                    hit = true;
                    return false;
                }
            }
            if let Some(mb) = memory_budget {
                // Live bytes only grow between rollbacks, so once hit the
                // pair stays aborted (the flag mirrors the deadline latch).
                if mem_hit || memo.live_bytes() >= mb {
                    mem_hit = true;
                    return false;
                }
            }
            if let Some(d) = unit_delay {
                // Injected fault: a pathologically slow enumeration.
                let t0 = Instant::now();
                while t0.elapsed() < d {
                    std::hint::spin_loop();
                }
            }
            true
        };
        let mut sink = PolicySink {
            policy: &mut self.policy,
        };
        process_pair(
            self.ctx,
            &mut self.scratch,
            &mut self.bufs,
            &mut self.memo,
            &mut sink,
            true,
            s1,
            s2,
            self.full,
            &mut unit,
            &mut take,
        );
        debug_assert!(self.scratch.plans_built <= self.budget);
        if hit {
            self.deadline_hit = true;
            self.exhausted = true;
            false
        } else if mem_hit {
            self.memory_hit = true;
            self.exhausted = true;
            false
        } else if unit > allowed {
            self.exhausted = true;
            false
        } else {
            true
        }
    }

    /// Tear the search apart into its outcome.
    pub fn finish(self) -> BudgetedOutcome {
        // Deferred finalization: compile the winner's tree once, here.
        let best = self
            .policy
            .best
            .map(|(_, id)| (finalize(self.ctx, &self.memo, id), id));
        BudgetedOutcome {
            memo: self.memo,
            best,
            plans_built: self.scratch.plans_built,
            exhausted: self.exhausted,
        }
    }
}

/// The width-safe all-operators-applied mask: `n_ops` low bits set.
/// `u64` tracking caps the operator count at 64; [`OptContext::new`]
/// asserts the bound so a too-wide query fails loudly instead of letting
/// `1 << op_idx` wrap and corrupt the bookkeeping.
pub fn applied_ops_mask(n_ops: usize) -> u64 {
    assert!(
        n_ops <= 64,
        "applied-operator tracking supports at most 64 operators, got {n_ops}"
    );
    if n_ops == 0 {
        0
    } else {
        u64::MAX >> (64 - n_ops)
    }
}

/// A complete plan must have applied every operator of the query exactly
/// once — a plan reaching the full relation set with a missing predicate
/// (possible only for pathological hyperedge/cut interactions) is invalid
/// and discarded.
fn all_ops_applied(ctx: &OptContext, applied: u64) -> bool {
    applied == applied_ops_mask(ctx.cq.ops.len())
}

/// `CompareAdjustedCosts` (Fig. 12): should `new` replace `old`?
/// Without a factor this is the plain cost comparison of H1 (Fig. 10).
fn compare_adjusted(memo: &Memo, new: PlanId, old: PlanId, factor: Option<f64>) -> bool {
    let (nc, oc) = (memo[new].cost, memo[old].cost);
    let Some(f) = factor else {
        return nc < oc;
    };
    let (en, eo) = (memo.eagerness(new), memo.eagerness(old));
    if en == eo {
        nc < oc
    } else if en < eo {
        // `new` is less eager: its cost is adjusted (penalized) by F.
        f * nc < oc
    } else {
        nc < f * oc
    }
}
