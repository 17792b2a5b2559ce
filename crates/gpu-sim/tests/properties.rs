//! Randomized (seeded, deterministic) tests of the simulator substrate.
//!
//! These were originally proptest properties; they are now driven by a
//! small local SplitMix64 generator so the suite builds with no external
//! dependencies. Each test sweeps many seeds, so the coverage is the
//! same in spirit: random inputs, invariant assertions.

use gpu_sim::cache::{AccessClass, Cache, ProbeResult};
use gpu_sim::coalesce::{coalesce, coalesce_into, transaction_count};
use gpu_sim::dram::Dram;
use gpu_sim::program::AddrPattern;

/// SplitMix64: tiny, statistically fine for test-input generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

/// A reference LRU model: a vector of (set, tag) in recency order.
struct ReferenceLru {
    num_sets: u64,
    assoc: usize,
    sets: Vec<Vec<u64>>, // per set: tags, most recent last
}

impl ReferenceLru {
    fn new(num_sets: u64, assoc: usize) -> Self {
        ReferenceLru { num_sets, assoc, sets: vec![Vec::new(); num_sets as usize] }
    }

    fn access(&mut self, line: u64) -> bool {
        let set = (line % self.num_sets) as usize;
        let tag = line / self.num_sets;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&t| t == tag) {
            entries.remove(pos);
            entries.push(tag);
            true
        } else {
            if entries.len() == self.assoc {
                entries.remove(0);
            }
            entries.push(tag);
            false
        }
    }
}

/// The cache model agrees with a straightforward reference LRU.
#[test]
fn cache_matches_reference_lru() {
    for seed in 0..64 {
        let mut rng = Rng(seed);
        let len = rng.range(1, 300) as usize;
        let lines: Vec<u64> = (0..len).map(|_| rng.below(64)).collect();
        // 4 sets x 2 ways.
        let mut cache = Cache::new(1024, 2, 128);
        let mut reference = ReferenceLru::new(4, 2);
        for &line in &lines {
            let expected = reference.access(line);
            let got = cache.access(line, true, AccessClass::Parent) == ProbeResult::Hit;
            assert_eq!(got, expected, "divergence on line {line} (seed {seed})");
        }
        assert_eq!(cache.stats().accesses(), lines.len() as u64);
    }
}

/// Hits + misses always equals accesses, and the hit rate is a valid
/// probability.
#[test]
fn cache_stats_are_consistent() {
    for seed in 0..64 {
        let mut rng = Rng(1000 + seed);
        let len = rng.below(200) as usize;
        let mut cache = Cache::new(4096, 4, 128);
        for _ in 0..len {
            cache.access(rng.below(1000), true, AccessClass::Child);
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, len as u64);
        assert!((0.0..=1.0).contains(&s.hit_rate()));
        assert_eq!(s.child_hits + s.child_misses, len as u64);
    }
}

/// Coalescing produces between 1 and N transactions for N addresses,
/// deduplicated and order-stable, and the buffer-reusing variant agrees.
#[test]
fn coalescer_bounds() {
    let mut scratch = Vec::new();
    for seed in 0..128 {
        let mut rng = Rng(2000 + seed);
        let len = rng.range(1, 64) as usize;
        let addrs: Vec<u64> = (0..len).map(|_| rng.below(1_000_000)).collect();
        let lines = coalesce(&addrs, 7);
        assert!(!lines.is_empty());
        assert!(lines.len() <= addrs.len());
        // No duplicates.
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), lines.len());
        // Every address maps to some returned line.
        for &a in &addrs {
            assert!(lines.contains(&(a >> 7)));
        }
        assert_eq!(transaction_count(&addrs, 7), lines.len());
        coalesce_into(&addrs, 7, &mut scratch);
        assert_eq!(scratch, lines);
    }
}

/// The coalescer equals a plain first-appearance dedupe of the lines on
/// every address shape a warp produces: runs of threads in one line
/// (where the repeated-line fast path fires), scattered lines, one
/// broadcast address, and no addresses at all.
#[test]
fn coalescer_matches_first_appearance_dedupe() {
    let mut scratch = Vec::new();
    for seed in 0..256 {
        let mut rng = Rng(2500 + seed);
        let len = rng.below(65) as usize;
        let addrs: Vec<u64> = match seed % 4 {
            0 => {
                // Runs of 1-8 threads in one line, drawn from a small
                // pool of lines so a line also recurs after other lines.
                let first_line = rng.below(1 << 20);
                let pool = rng.range(1, 6);
                let mut v = Vec::with_capacity(len);
                while v.len() < len {
                    let line = first_line + rng.below(pool);
                    for _ in 0..rng.range(1, 9).min((len - v.len()) as u64) {
                        v.push(line * 128 + rng.below(128));
                    }
                }
                v
            }
            1 => (0..len).map(|_| rng.below(1 << 30)).collect(),
            2 => vec![rng.below(1 << 30); len],
            _ => Vec::new(),
        };
        let mut expected: Vec<u64> = Vec::new();
        for &a in &addrs {
            if !expected.contains(&(a >> 7)) {
                expected.push(a >> 7);
            }
        }
        coalesce_into(&addrs, 7, &mut scratch);
        assert_eq!(scratch, expected, "seed {seed}: {addrs:?}");
        assert_eq!(coalesce(&addrs, 7), expected);
    }
}

/// Consecutive addresses within one line always coalesce to a single
/// transaction.
#[test]
fn coalescer_merges_within_line() {
    for seed in 0..64 {
        let mut rng = Rng(3000 + seed);
        let base = rng.below(1_000_000);
        let count = rng.range(1, 32);
        let line_base = base & !127;
        let addrs: Vec<u64> = (0..count).map(|i| line_base + i * 4).collect();
        assert_eq!(transaction_count(&addrs, 7), 1);
    }
}

/// DRAM latency is never below the base latency, and accounting holds
/// for any request mix.
#[test]
fn dram_latency_bounds() {
    for seed in 0..32 {
        let mut rng = Rng(4000 + seed);
        let len = rng.range(1, 100) as usize;
        let mut requests: Vec<(u64, u64)> =
            (0..len).map(|_| (rng.below(64), rng.below(10_000))).collect();
        requests.sort_by_key(|&(_, t)| t);
        let mut dram = Dram::new(4, 200, 8);
        for &(line, now) in &requests {
            let lat = dram.access(line, now);
            assert!(lat >= 200, "latency {lat} below DRAM minimum");
        }
        assert_eq!(dram.accesses(), requests.len() as u64);
        assert!(dram.mean_queueing() >= 0.0);
    }
}

/// Strided warp address generation covers exactly the active lanes.
#[test]
fn strided_pattern_lane_math() {
    for seed in 0..128 {
        let mut rng = Rng(5000 + seed);
        let base = rng.below(1_000_000);
        let stride = rng.range(1, 64) as u32;
        let threads = rng.range(1, 256) as u32;
        let warp = rng.below(8) as u32;
        let p = AddrPattern::Strided { base, stride };
        let addrs = p.warp_addrs(warp, 32, threads);
        let first = warp * 32;
        let expected = if first >= threads { 0 } else { 32.min(threads - first) };
        assert_eq!(addrs.len() as u32, expected);
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(a, base + u64::from(first + i as u32) * u64::from(stride));
        }
    }
}

/// The union of all warps' addresses equals the TB's addresses, and the
/// buffer-reusing variant agrees with the allocating one.
#[test]
fn warp_addrs_partition_tb_addrs() {
    let mut scratch = Vec::new();
    for seed in 0..64 {
        let mut rng = Rng(6000 + seed);
        let base = rng.below(1_000_000);
        let stride = rng.range(1, 16) as u32;
        let threads = rng.range(1, 128) as u32;
        let p = AddrPattern::Strided { base, stride };
        let mut from_warps = Vec::new();
        for warp in 0..threads.div_ceil(32) {
            let alloc = p.warp_addrs(warp, 32, threads);
            p.warp_addrs_into(warp, 32, threads, &mut scratch);
            assert_eq!(scratch, alloc);
            from_warps.extend(alloc);
        }
        assert_eq!(from_warps, p.tb_addrs(threads));
    }
}
