//! Input generation. Every input comes from a fixed universe that the
//! expected-results file covers; `--seed` draws the order of the requests
//! (for `sql_hot`, the arrival sequence), so the same seed always gives the
//! same inputs, and every seed sends the same work per pass.

use crate::sys::Fnv;
use dpnext_catalog::tpch_catalog;
use dpnext_query::Query;
use dpnext_serve::fingerprint_query;
use dpnext_workload::{generate_query, GenConfig};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// SplitMix64: a small, seedable generator for the benchmark's own draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Deterministic 64-bit hash of a query's canonical shape; the expected
/// file records it to detect drift in the input generators.
pub fn shape_hash(query: &Query) -> u64 {
    let mut h = Fnv::default();
    fingerprint_query(query).hash(&mut h);
    h.finish()
}

/// A fixed universe of paper-methodology queries: for each relation
/// count in `ns`, `per_n` distinct shapes for the stream followed by
/// `warm` more for warm-up, indexed `(n - ns.start) * (per_n + warm) + j`.
pub struct Universe {
    pub ns: std::ops::RangeInclusive<usize>,
    pub per_n: usize,
    pub warm: usize,
    pub queries: Vec<Query>,
}

impl Universe {
    fn generate(
        ns: std::ops::RangeInclusive<usize>,
        per_n: usize,
        warm: usize,
        base: u64,
    ) -> Universe {
        let mut queries = Vec::with_capacity(ns.clone().count() * (per_n + warm));
        let mut seen = HashSet::new();
        for n in ns.clone() {
            let config = GenConfig::paper(n);
            let mut seed = base + 1_000_000 * n as u64;
            let mut taken = 0;
            while taken < per_n + warm {
                let q = generate_query(&config, seed);
                seed += 1;
                if seen.insert(fingerprint_query(&q)) {
                    queries.push(q);
                    taken += 1;
                }
            }
        }
        Universe {
            ns,
            per_n,
            warm,
            queries,
        }
    }

    /// `cold_small`'s universe: n = 3..=8.
    pub fn cold() -> Universe {
        Universe::generate(3..=8, 250, 2, 0xC01D_0000_0000)
    }

    /// `paper_sweep`'s universe: n = 4..=6.
    pub fn sweep() -> Universe {
        Universe::generate(4..=6, 48, 1, 0x5EE9_0000_0000)
    }

    fn block(&self, k: usize) -> std::ops::Range<usize> {
        let start = k * (self.per_n + self.warm);
        start..start + self.per_n + self.warm
    }

    /// A seeded order over the first `take` stream queries of every
    /// relation count, interleaved so that n cycles through its range
    /// request by request. `take = per_n` covers the whole universe.
    pub fn stream(&self, seed: u64, take: usize) -> Vec<usize> {
        let mut rng = Rng::new(seed);
        let perms: Vec<Vec<usize>> = (0..self.ns.clone().count())
            .map(|k| {
                let mut p: Vec<usize> = self.block(k).take(take.min(self.per_n)).collect();
                rng.shuffle(&mut p);
                p
            })
            .collect();
        (0..perms[0].len())
            .flat_map(|j| perms.iter().map(move |p| p[j]))
            .collect()
    }

    /// The warm-up queries: the same for every seed.
    pub fn warmup(&self) -> Vec<usize> {
        (0..self.ns.clone().count())
            .flat_map(|k| self.block(k).skip(self.per_n))
            .collect()
    }
}

/// Distinct SQL shapes of `sql_hot` (the paper's query Ex plus generated
/// texts).
pub const SQL_TEXTS: usize = 36;

/// The paper's introductory query Ex, verbatim.
pub const EX: &str = "select ns.n_name, nc.n_name, count(*) \
    from (nation ns join supplier s on ns.n_nationkey = s.s_nationkey) \
    full outer join \
    (nation nc join customer c on nc.n_nationkey = c.c_nationkey) \
    on ns.n_nationkey = nc.n_nationkey \
    group by ns.n_name, nc.n_name";

/// Foreign-key edges of the TPC-H catalog `(table, column, table,
/// column)`, plus nation–nation on the region key for self-joins.
const EDGES: [(&str, &str, &str, &str); 7] = [
    ("nation", "n_regionkey", "region", "r_regionkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("nation", "n_regionkey", "nation", "n_regionkey"),
];

const TABLES: [&str; 6] = [
    "region", "nation", "supplier", "customer", "orders", "lineitem",
];

/// Grouping columns and aggregate arguments per table.
fn columns(table: &str) -> (&'static [&'static str], &'static [&'static str]) {
    match table {
        "region" => (&["r_name"], &[]),
        "nation" => (&["n_name", "n_regionkey"], &[]),
        "supplier" => (&["s_nationkey"], &["s_acctbal"]),
        "customer" => (&["c_mktsegment", "c_nationkey"], &["c_acctbal"]),
        "orders" => (&["o_orderdate", "o_shippriority"], &["o_totalprice"]),
        "lineitem" => (
            &["l_returnflag"],
            &["l_extendedprice", "l_quantity", "l_discount"],
        ),
        other => unreachable!("no table {other}"),
    }
}

/// One SQL text over the TPC-H catalog: `k` table occurrences reached by
/// a random walk along foreign keys (a table may recur under another
/// alias), joined left-deep with inner, left outer or full outer joins,
/// grouped by one or two columns with one to three aggregates. The walk
/// steps from a referenced key to its referencing rows (1:n) at most
/// once, which keeps every result small enough to execute.
fn sql_text(rng: &mut Rng, k: usize) -> String {
    let mut occ: Vec<&str> = vec![TABLES[rng.below(TABLES.len())]];
    let mut from = format!("{} t0", occ[0]);
    let mut fanned_out = false;
    while occ.len() < k {
        // (existing occurrence, its column, new table, new table's column, 1:n?)
        let mut moves = Vec::new();
        for (at, &t) in occ.iter().enumerate() {
            for &(child, ccol, parent, pcol) in &EDGES {
                if child == t {
                    moves.push((at, ccol, parent, pcol, child == parent));
                } else if parent == t {
                    moves.push((at, pcol, child, ccol, true));
                }
            }
        }
        moves.retain(|m| !(fanned_out && m.4));
        let (at, col, table, tcol, fans) = moves[rng.below(moves.len())];
        fanned_out |= fans;
        let kind = match rng.below(20) {
            0..=11 => "join",
            12..=16 => "left outer join",
            _ => "full outer join",
        };
        let alias = occ.len();
        from.push_str(&format!(
            " {kind} {table} t{alias} on t{at}.{col} = t{alias}.{tcol}"
        ));
        occ.push(table);
    }
    let mut groups = Vec::new();
    for _ in 0..1 + rng.below(2) {
        let o = rng.below(occ.len());
        let cols = columns(occ[o]).0;
        let g = format!("t{o}.{}", cols[rng.below(cols.len())]);
        if !groups.contains(&g) {
            groups.push(g);
        }
    }
    let mut items = groups.clone();
    items.push("count(*)".into());
    let args: Vec<String> = occ
        .iter()
        .enumerate()
        .flat_map(|(o, t)| columns(t).1.iter().map(move |c| format!("t{o}.{c}")))
        .collect();
    for _ in 0..rng.below(3) {
        if args.is_empty() {
            break;
        }
        let f = ["sum", "min", "max"][rng.below(3)];
        items.push(format!("{f}({})", args[rng.below(args.len())]));
    }
    format!(
        "select {} from {from} group by {}",
        items.join(", "),
        groups.join(", ")
    )
}

/// `sql_hot`'s texts: Ex first, then generated texts with 2–6 table
/// occurrences, one per distinct bound shape.
pub fn sql_texts() -> Vec<String> {
    let catalog = tpch_catalog();
    let mut rng = Rng::new(0x5A1_0000);
    let mut texts = vec![EX.to_string()];
    let mut seen = HashSet::new();
    seen.insert(fingerprint_query(
        &dpnext_sql::plan(EX, &catalog).expect("Ex binds").query,
    ));
    while texts.len() < SQL_TEXTS {
        let k = 2 + texts.len() % 5;
        let text = sql_text(&mut rng, k);
        let bound = dpnext_sql::plan(&text, &catalog)
            .unwrap_or_else(|e| panic!("generated text does not bind: {e}: {text}"));
        if seen.insert(fingerprint_query(&bound.query)) {
            texts.push(text);
        }
    }
    texts
}

/// Skewed arrival sequences, one per client, over `n` texts: Zipf
/// (s = 1) over a fixed popularity ranking of the texts; `seed` draws the
/// arrivals.
pub fn zipf_sequences(seed: u64, n: usize, clients: usize, len: usize) -> Vec<Vec<u16>> {
    let mut rank: Vec<u16> = (0..n as u16).collect();
    Rng::new(0x21FF).shuffle(&mut rank);
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for r in 0..n {
        total += 1.0 / (r + 1) as f64;
        cdf.push(total);
    }
    let mut rng = Rng::new(seed);
    (0..clients)
        .map(|_| {
            (0..len)
                .map(|_| {
                    let u = rng.unit() * total;
                    rank[cdf.partition_point(|&c| c <= u).min(n - 1)]
                })
                .collect()
        })
        .collect()
}
