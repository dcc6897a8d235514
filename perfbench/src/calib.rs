//! How fast the host runs this process right now. The development box is
//! a VM on a shared host, and for seconds to minutes at a time the host
//! slows the VM's CPUs by up to half: CPU time per request rises with
//! wall time, so the cause is the host, not the process. A 1-client
//! end-to-end run therefore runs a fixed reference kernel, the tick,
//! every [`TICK_EVERY`] between two requests, outside the measured time,
//! and scales each window's times by [`REFERENCE`] over the mean tick of
//! that window.
//!
//! The kernel does no optimizer work, so a change to the program does
//! not change it. It formats, sorts, hashes and parses short strings,
//! sorts and prints numbers, and probes a small hash map and a B-tree:
//! the kinds of work the optimizer's requests are made of. On the
//! development box, across windows, the requests' CPU time went with the
//! kernel's time to a power between 0.87 (`paper_sweep`) and 1.11
//! (`sql_hot`), with correlations of 0.81 to 0.98. A kernel of hash map
//! and B-tree work alone had a power of 1.6 on `sql_hot` and could not
//! scale it; pointer chasing did worse.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time between two ticks inside a window.
pub const TICK_EVERY: Duration = Duration::from_millis(20);

/// The tick's time on the development box in a quiet period: scaled
/// times read as if every window had run at that speed.
pub const REFERENCE: Duration = Duration::from_micros(300);

/// A source of fixed pseudo-random numbers.
fn xorshift() -> impl FnMut() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// Names: format, sort, hash and parse back about 200 short strings.
fn names() -> u64 {
    let mut next = xorshift();
    let mut names: Vec<String> = (0..200u64)
        .map(|i| {
            let x = next();
            format!("t{}_{i:x}.c{}", x % 977, x % 13)
        })
        .collect();
    names.sort();
    let index: FixedMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i))
        .collect();
    let mut sum = 0u64;
    for s in &names {
        sum += index[s.as_str()] as u64;
        let table = s[1..].split('_').next().unwrap_or("0");
        sum += table.parse::<u64>().unwrap_or(0);
    }
    sum
}

/// Numbers: sort by a float key, print some, scan the text, and
/// binary-search the rest.
fn numbers() -> u64 {
    let mut next = xorshift();
    let mut rows: Vec<(u32, f64)> = (0..300)
        .map(|i| (i, (next() % 10_007) as f64 / 7.0))
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    let text: String = rows
        .iter()
        .take(60)
        .map(|(a, b)| format!("{a}:{b:.3},"))
        .collect();
    let mut sum = text.chars().filter(|c| c.is_ascii_digit()).count() as u64;
    sum += text.to_uppercase().len() as u64;
    for q in 0..200 {
        let at = rows.binary_search_by(|p| p.1.total_cmp(&(f64::from(q) * 7.0)));
        sum += at.unwrap_or_else(|e| e) as u64;
    }
    sum
}

/// Maps: insert into and probe a small hash map and a B-tree.
fn maps() -> u64 {
    let mut next = xorshift();
    let mut map: FixedMap<u64, u64> = HashMap::with_capacity_and_hasher(256, Default::default());
    for i in 0..512 {
        map.insert(next() & 0x3ff, i);
    }
    let mut sum = 0u64;
    for _ in 0..1024 {
        sum += map.get(&(next() & 0x3ff)).copied().unwrap_or(0);
    }
    let mut tree = BTreeMap::new();
    for i in 0..512u64 {
        tree.insert(next() & 0xffff, i);
    }
    for _ in 0..512 {
        if let Some((_, v)) = tree.range(next() & 0xffff..).next() {
            sum += v;
        }
    }
    sum
}

/// The reference kernel: always the same work, and no state kept between
/// calls (fixed hash keys, its own collections).
fn kernel() -> u64 {
    names() + numbers() + maps()
}

/// Run the kernel twice; the wall time of the second run. The first run
/// brings the kernel's code and data back into the caches that the
/// requests before it used, so that the tick does not depend on what the
/// program did last.
pub fn tick() -> Duration {
    black_box(kernel());
    let t0 = Instant::now();
    black_box(kernel());
    t0.elapsed()
}

/// The ticks of one window.
#[derive(Default, Clone, Copy)]
pub struct Ticks {
    total: Duration,
    n: u32,
}

impl Ticks {
    pub fn add(&mut self, t: Duration) {
        self.total += t;
        self.n += 1;
    }

    pub fn count(&self) -> u32 {
        self.n
    }

    /// Mean tick time.
    pub fn mean(&self) -> Duration {
        self.total / self.n.max(1)
    }

    /// How much slower than [`REFERENCE`] the host ran: a time measured
    /// in this window, divided by this, reads at the reference speed.
    pub fn slowdown(&self) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        self.mean().as_secs_f64() / REFERENCE.as_secs_f64()
    }
}
