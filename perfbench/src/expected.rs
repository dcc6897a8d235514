//! The expected-results file: every input's plan cost as an `f64` bit
//! pattern, next to a hash of the input's shape so generator drift shows
//! as a failure instead of a silent change of workload.
//!
//! Line format (`#` starts a comment):
//!
//! ```text
//! cold  <index> <shape hash> <EA-Prune cost>
//! sweep <index> <shape hash> <DPhyp cost> <EA-Prune cost> <EA-All cost>
//! sql   <index> <shape hash> <EA-Prune cost>
//! ```

use crate::inputs::{shape_hash, sql_texts, Universe};
use dpnext::{Algorithm, Optimizer};
use dpnext_catalog::{generate_database, tpch_catalog};
use dpnext_query::Query;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// Expected costs per input, keyed by `(set, index)`.
pub struct Expected {
    entries: HashMap<(String, usize), (u64, Vec<u64>)>,
}

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut entries = HashMap::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("{}:{}: malformed line", path.display(), no + 1);
            let mut fields = line.split_whitespace();
            let set = fields.next().ok_or_else(bad)?.to_string();
            let index: usize = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
            let hex: Vec<u64> = fields
                .map(|f| u64::from_str_radix(f, 16).map_err(|_| bad()))
                .collect::<Result<_, _>>()?;
            if hex.len() < 2 {
                return Err(bad());
            }
            entries.insert((set, index), (hex[0], hex[1..].to_vec()));
        }
        Ok(Expected { entries })
    }

    /// The expected costs of input `index` of `set`, or `None` when the
    /// file has no entry or the input's shape no longer matches it.
    pub fn costs(&self, set: &str, index: usize, shape: u64) -> Option<Vec<u64>> {
        match self.entries.get(&(set.to_string(), index)) {
            Some((hash, costs)) if *hash == shape => Some(costs.clone()),
            _ => None,
        }
    }
}

fn cost_bits(algo: Algorithm, query: &Query) -> u64 {
    Optimizer::new(algo).optimize(query).plan.cost.to_bits()
}

/// Optimize every input of every workload and write the file. Fails,
/// writing nothing, unless EA-Prune's cost equals EA-All's on every
/// input with n <= 6 and every SQL shape's optimized plan returns the
/// same bag as its canonical plan on a tiny generated database.
pub fn regenerate(path: &Path) -> Result<(), String> {
    let mut out = String::from(
        "# Expected plan costs (f64 bit patterns, hex) of every perfbench input.\n\
         # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --regen-expected\n",
    );
    let mut problems = Vec::new();

    let catalog = tpch_catalog();
    for (i, text) in sql_texts().iter().enumerate() {
        let bound = dpnext_sql::plan(text, &catalog).map_err(|e| format!("sql {i}: {e}"))?;
        let q = &bound.query;
        let best = Optimizer::new(Algorithm::EaPrune).optimize(q);
        let prune = best.plan.cost.to_bits();
        if q.table_count() <= 6 && cost_bits(Algorithm::EaAll, q) != prune {
            problems.push(format!("sql {i}: EA-Prune cost differs from EA-All"));
        }
        let occurrences: Vec<_> = bound
            .occurrences
            .iter()
            .enumerate()
            .map(|(t, (table, _, mapping))| (table.as_str(), &q.tables[t], mapping))
            .collect();
        let db = generate_database(0.0005, 11 + i as u64, &occurrences);
        if !best
            .plan
            .root
            .eval(&db)
            .bag_eq(&q.canonical_plan().eval(&db))
        {
            problems.push(format!("sql {i}: optimized plan's result differs: {text}"));
        }
        writeln!(out, "sql {i} {:016x} {prune:016x}", shape_hash(q)).unwrap();
        eprintln!("sql {i} checked: {text}");
    }

    let cold = Universe::cold();
    for (i, q) in cold.queries.iter().enumerate() {
        let prune = cost_bits(Algorithm::EaPrune, q);
        if q.table_count() <= 6 && cost_bits(Algorithm::EaAll, q) != prune {
            problems.push(format!("cold {i}: EA-Prune cost differs from EA-All"));
        }
        writeln!(out, "cold {i} {:016x} {prune:016x}", shape_hash(q)).unwrap();
    }

    eprintln!("cold_small universe done");
    let sweep = Universe::sweep();
    for (i, q) in sweep.queries.iter().enumerate() {
        let [dphyp, prune, all] =
            [Algorithm::DPhyp, Algorithm::EaPrune, Algorithm::EaAll].map(|a| cost_bits(a, q));
        if prune != all {
            problems.push(format!("sweep {i}: EA-Prune cost differs from EA-All"));
        }
        writeln!(
            out,
            "sweep {i} {:016x} {dphyp:016x} {prune:016x} {all:016x}",
            shape_hash(q)
        )
        .unwrap();
    }

    eprintln!("paper_sweep universe done");

    if !problems.is_empty() {
        return Err(problems.join("\n"));
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
