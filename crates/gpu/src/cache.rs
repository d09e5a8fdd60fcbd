//! Timing-only set-associative cache with LRU replacement and dirty-line
//! tracking (for writeback traffic accounting).

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was filled; if the victim was dirty, its block address is
    /// returned so the caller can issue a writeback.
    Miss {
        /// Block address of a dirty victim that must be written back.
        writeback: Option<u64>,
    },
}

impl CacheOutcome {
    /// True on hit.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Tag of an invalid way. Real tags are `addr / line_bytes` shifted
/// right by the set bits, and `line_bytes >= 2`, so none reaches it.
const INVALID: u64 = u64::MAX;

/// A set-associative, write-back, write-allocate cache model.
///
/// Only tags are tracked — this is a timing/traffic model, not a
/// functional cache. The tags are stored per set as a structure of
/// arrays: set `s` owns `tags[s * ways..][..ways]` (with `u64::MAX` in
/// empty ways), and the LRU stamps and dirty bits sit in side arrays of
/// the same shape, so a hit scan reads one contiguous run of `u64`s.
#[derive(Debug, Clone)]
pub struct Cache {
    ways: usize,
    /// `sets - 1`.
    set_mask: usize,
    /// `log2(sets)`.
    set_bits: u32,
    /// `log2(line_bytes)`.
    line_bits: u32,
    tags: Vec<u64>,
    /// LRU stamp per way: larger = more recent.
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache of `total_bytes` with `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    /// Panics unless the geometry divides evenly and sizes are powers of
    /// two where required.
    pub fn new(total_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(ways >= 1 && line_bytes.is_power_of_two() && line_bytes >= 2);
        let lines_total = total_bytes / line_bytes;
        assert!(lines_total >= ways, "cache smaller than one set");
        let sets = lines_total / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            ways,
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            line_bits: line_bytes.trailing_zeros(),
            tags: vec![INVALID; sets * ways],
            stamps: vec![0; sets * ways],
            dirty: vec![false; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> CacheOutcome {
        self.tick += 1;
        let block = addr >> self.line_bits;
        let set = (block as usize) & self.set_mask;
        let tag = block >> self.set_bits;
        let base = set * self.ways;
        let tags = &self.tags[base..base + self.ways];
        if let Some(way) = tags.iter().position(|&t| t == tag) {
            self.stamps[base + way] = self.tick;
            self.dirty[base + way] |= write;
            self.hits += 1;
            return CacheOutcome::Hit;
        }
        // Miss: fill the first invalid way, else the least recently used.
        self.misses += 1;
        let way = tags.iter().position(|&t| t == INVALID).unwrap_or_else(|| {
            let stamps = &self.stamps[base..base + self.ways];
            let mut victim = 0;
            for (w, &stamp) in stamps.iter().enumerate().skip(1) {
                if stamp < stamps[victim] {
                    victim = w;
                }
            }
            victim
        });
        let victim = base + way;
        let old = self.tags[victim];
        let writeback = (old != INVALID && self.dirty[victim]).then(|| {
            let victim_block = (old << self.set_bits) | set as u64;
            victim_block << self.line_bits
        });
        self.tags[victim] = tag;
        self.stamps[victim] = self.tick;
        self.dirty[victim] = write;
        CacheOutcome::Miss { writeback }
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit rate in [0, 1]; 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolpim_telemetry::rng::SplitMix64;

    /// The array-of-structs cache the flat layout replaced, kept as the
    /// differential reference: one `Line` per way, validity as a flag.
    mod reference {
        use super::CacheOutcome;

        #[derive(Debug, Clone, Copy, Default)]
        struct Line {
            tag: u64,
            valid: bool,
            dirty: bool,
            lru: u64,
        }

        pub struct RefCache {
            sets: usize,
            ways: usize,
            line_bytes: u64,
            lines: Vec<Line>,
            tick: u64,
            pub hits: u64,
            pub misses: u64,
        }

        impl RefCache {
            pub fn new(total_bytes: usize, ways: usize, line_bytes: usize) -> Self {
                let sets = total_bytes / line_bytes / ways;
                Self {
                    sets,
                    ways,
                    line_bytes: line_bytes as u64,
                    lines: vec![Line::default(); sets * ways],
                    tick: 0,
                    hits: 0,
                    misses: 0,
                }
            }

            pub fn access(&mut self, addr: u64, write: bool) -> CacheOutcome {
                self.tick += 1;
                let block = addr / self.line_bytes;
                let set = (block as usize) & (self.sets - 1);
                let tag = block >> self.sets.trailing_zeros();
                let base = set * self.ways;
                for way in 0..self.ways {
                    let line = &mut self.lines[base + way];
                    if line.valid && line.tag == tag {
                        line.lru = self.tick;
                        line.dirty |= write;
                        self.hits += 1;
                        return CacheOutcome::Hit;
                    }
                }
                self.misses += 1;
                let mut victim = base;
                let mut best = u64::MAX;
                for way in 0..self.ways {
                    let line = &self.lines[base + way];
                    if !line.valid {
                        victim = base + way;
                        break;
                    }
                    if line.lru < best {
                        best = line.lru;
                        victim = base + way;
                    }
                }
                let old = self.lines[victim];
                let writeback = (old.valid && old.dirty).then(|| {
                    let victim_block = (old.tag << self.sets.trailing_zeros()) | set as u64;
                    victim_block * self.line_bytes
                });
                self.lines[victim] = Line {
                    tag,
                    valid: true,
                    dirty: write,
                    lru: self.tick,
                };
                CacheOutcome::Miss { writeback }
            }
        }
    }

    /// Drives the flat cache and the reference with the same `(addr,
    /// write)` stream; every outcome and the final counters must agree.
    fn assert_matches_reference(
        total_bytes: usize,
        ways: usize,
        stream: impl Iterator<Item = (u64, bool)>,
    ) {
        let mut flat = Cache::new(total_bytes, ways, 64);
        let mut reference = reference::RefCache::new(total_bytes, ways, 64);
        let mut writebacks = 0;
        for (i, (addr, write)) in stream.enumerate() {
            let got = flat.access(addr, write);
            assert_eq!(
                got,
                reference.access(addr, write),
                "access {i} to {addr:#x}"
            );
            writebacks += usize::from(matches!(got, CacheOutcome::Miss { writeback: Some(_) }));
        }
        assert_eq!(flat.stats(), (reference.hits, reference.misses));
        assert!(reference.hits > 0 && writebacks > 0, "stream too tame");
    }

    /// Seeded reads and writes: 70 % to a hot region half the cache's
    /// size, the rest scattered over 8× its size.
    fn mixed_stream(seed: u64, total_bytes: usize) -> impl Iterator<Item = (u64, bool)> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..200_000).map(move |_| {
            let span = if rng.gen_f64() < 0.7 {
                total_bytes / 2
            } else {
                total_bytes * 8
            };
            (rng.gen_range_u64(span as u64), rng.gen_f64() < 0.3)
        })
    }

    #[test]
    fn flat_cache_matches_reference_on_l1_geometry() {
        assert_matches_reference(16 * 1024, 4, mixed_stream(1, 16 * 1024));
    }

    #[test]
    fn flat_cache_matches_reference_on_l2_geometry() {
        assert_matches_reference(1024 * 1024, 16, mixed_stream(2, 1024 * 1024));
    }

    #[test]
    fn flat_cache_matches_reference_on_conflicts() {
        // Three sets of the L2 geometry, each hammered by 3× as many
        // distinct lines as it has ways: LRU victims on nearly every miss.
        let (total, ways) = (1024 * 1024, 16);
        let set_stride = (total / ways) as u64;
        let mut rng = SplitMix64::seed_from_u64(3);
        let stream = (0..200_000).map(move |_| {
            let set = rng.gen_range_u64(3) * 64;
            let line = rng.gen_range_u64(3 * ways as u64);
            (
                line * set_stride + set + rng.gen_range_u64(64),
                rng.gen_f64() < 0.5,
            )
        });
        assert_matches_reference(total, ways, stream);
    }

    #[test]
    fn second_access_hits() {
        let mut c = Cache::new(4096, 4, 64);
        assert!(!c.access(0x100, false).is_hit());
        assert!(c.access(0x100, false).is_hit());
        assert!(c.access(0x13f, false).is_hit()); // same 64-byte line
        assert!(!c.access(0x140, false).is_hit()); // next line
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        // Direct-ish: 2 ways, force 3 conflicting lines into one set.
        let sets = 4096 / (2 * 64);
        let mut c = Cache::new(4096, 2, 64);
        let stride = (sets * 64) as u64;
        assert_eq!(c.access(0, true), CacheOutcome::Miss { writeback: None });
        assert_eq!(
            c.access(stride, false),
            CacheOutcome::Miss { writeback: None }
        );
        // Third conflicting access evicts the LRU (the dirty line at 0).
        match c.access(2 * stride, false) {
            CacheOutcome::Miss {
                writeback: Some(addr),
            } => assert_eq!(addr, 0),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn lru_keeps_recently_used_lines() {
        let sets = 4096 / (2 * 64);
        let stride = (sets * 64) as u64;
        let mut c = Cache::new(4096, 2, 64);
        c.access(0, false);
        c.access(stride, false);
        c.access(0, false); // refresh line 0
        c.access(2 * stride, false); // evicts `stride`, not 0
        assert!(c.access(0, false).is_hit());
        assert!(!c.access(stride, false).is_hit());
    }

    #[test]
    fn hit_rate_tracks_counters() {
        let mut c = Cache::new(4096, 4, 64);
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        let (h, m) = c.stats();
        assert_eq!((h, m), (1, 2));
        assert!((c.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
