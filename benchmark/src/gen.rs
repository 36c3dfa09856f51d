//! Everything the program under test is fed: segment payloads and the
//! op trace, both pure functions of `--seed`. The program only ever sees
//! the generated requests.

/// SplitMix64: small, seedable, and good enough to make incompressible
/// payloads and to pick segments.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A stream that depends on `seed`, a label and an index only.
    pub fn derived(seed: u64, label: &str, index: u64) -> Rng {
        let mut h = Fnv::new();
        h.bytes(&seed.to_le_bytes());
        h.bytes(label.as_bytes());
        h.bytes(&index.to_le_bytes());
        Rng(h.0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// FNV-1a 64: the trace digest and the derivation of sub-streams.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Erasure masks of the degraded reads, in the order a window cycles
/// through them: seven patterns the code decodes exactly (one-node
/// local-XOR repairs and multi-node global-RS repairs) and, last, one
/// beyond tolerance that loses unimportant bytes only.
pub const MASKS: [&[usize]; 8] = [
    &[1],
    &[7],
    &[0, 2],
    &[12],
    &[1, 2, 3],
    &[0, 1, 15],
    &[4],
    &[6, 16],
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get { seg: u32 },
    DegradedGet { seg: u32, mask: u8 },
    Put { seg: u32 },
}

impl Op {
    pub fn seg(&self) -> u32 {
        match *self {
            Op::Get { seg } | Op::DegradedGet { seg, .. } | Op::Put { seg } => seg,
        }
    }

    fn digest_into(&self, h: &mut Fnv) {
        let (tag, seg, mask) = match *self {
            Op::Get { seg } => (1u8, seg, 0),
            Op::DegradedGet { seg, mask } => (2, seg, mask),
            Op::Put { seg } => (3, seg, 0),
        };
        h.bytes(&[tag, mask]);
        h.bytes(&seg.to_le_bytes());
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    HotRead,
    ColdRead,
    DegradedRepair,
    IngestMix,
}

/// One workload: its population and the shape of one window. Windows
/// are short (tens of ms) so that many fit in a run and some of them
/// fall into quiet moments of a shared machine.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Segments put before the daemon starts (4 stripes each).
    pub base_segments: u32,
    /// Primary ops per window.
    pub window_primary: usize,
    /// Windows run before measuring, after every base segment has been
    /// read once: caches fill, plans compile, the allocator settles.
    pub warmup_windows: usize,
    /// Most windows one run may measure (the vault grows with each
    /// `ingest-mix` window and must stay under the vault cap).
    pub max_windows: usize,
    /// Windows the traced run replays untraced, then again traced.
    pub trace_windows: usize,
}

/// Stripes of a base segment and of a segment ingested during the run.
pub const BASE_STRIPES: usize = 4;
pub const INGEST_STRIPES: usize = 2;
/// How far back the follow-up gets of an `ingest-mix` cycle reach.
const RECENT: u32 = 16;
/// Zipf exponent of `hot-read`.
const ZIPF_S: f64 = 0.99;

pub const SPECS: [Spec; 4] = [
    // 32 x 0.94 MiB = 30 MiB, at most 5 segments in any of the cache's
    // 8 shards of 8 MiB: every segment stays cached.
    Spec {
        name: "hot-read",
        kind: Kind::HotRead,
        base_segments: 32,
        window_primary: 64,
        warmup_windows: 8,
        max_windows: 2000,
        trace_windows: 16,
    },
    // 80 x 0.94 MiB = 75 MiB against a 64 MiB cache, 10 segments per
    // shard of 8: a cyclic scan never hits.
    Spec {
        name: "cold-read",
        kind: Kind::ColdRead,
        base_segments: 80,
        window_primary: 4,
        warmup_windows: 2,
        max_windows: 2000,
        trace_windows: 20,
    },
    // One window is one pass over the eight masks.
    Spec {
        name: "degraded-repair",
        kind: Kind::DegradedRepair,
        base_segments: 32,
        window_primary: 8,
        warmup_windows: 3,
        max_windows: 2000,
        trace_windows: 10,
    },
    // Two cycles (2 puts, 6 gets) per window; 500 windows add 1000
    // two-stripe segments, 0.61 GiB of committed objects.
    Spec {
        name: "ingest-mix",
        kind: Kind::IngestMix,
        base_segments: 16,
        window_primary: 2,
        warmup_windows: 10,
        max_windows: 500,
        trace_windows: 12,
    },
];

pub fn spec_named(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    pub fn stripes_of(&self, seg: u32) -> usize {
        if seg < self.base_segments {
            BASE_STRIPES
        } else {
            INGEST_STRIPES
        }
    }

    /// Ops of window `w`, a pure function of `(seed, workload, w)`.
    pub fn window(&self, seed: u64, w: usize) -> Vec<Op> {
        let mut rng = Rng::derived(seed, self.name, w as u64);
        let n = self.window_primary;
        let base = self.base_segments;
        match self.kind {
            Kind::HotRead => {
                let zipf = Zipf::new(base as usize, ZIPF_S);
                // Popularity rank -> segment, fixed per seed.
                let perm = permutation(base, &mut Rng::derived(seed, "hot-rank", 0));
                (0..n)
                    .map(|_| Op::Get {
                        seg: perm[zipf.sample(&mut rng)],
                    })
                    .collect()
            }
            Kind::ColdRead => (0..n)
                .map(|j| Op::Get {
                    seg: ((w * n + j) % base as usize) as u32,
                })
                .collect(),
            Kind::DegradedRepair => (0..n)
                .map(|j| Op::DegradedGet {
                    seg: rng.below(u64::from(base)) as u32,
                    mask: (j % MASKS.len()) as u8,
                })
                .collect(),
            Kind::IngestMix => {
                let mut ops = Vec::with_capacity(4 * n);
                for c in 0..n {
                    let new = base + (w * n + c) as u32;
                    ops.push(Op::Put { seg: new });
                    ops.push(Op::Get { seg: new });
                    for _ in 0..2 {
                        ops.push(Op::Get {
                            seg: new - rng.below(u64::from(RECENT)) as u32,
                        });
                    }
                }
                ops
            }
        }
    }

    /// Ops run before the first measured window: one read of every base
    /// segment where the workload reads through the cache, then
    /// `warmup_windows` windows of the trace itself.
    pub fn warm_up(&self, seed: u64) -> Vec<Op> {
        let scan = match self.kind {
            Kind::HotRead | Kind::ColdRead | Kind::IngestMix => 0..self.base_segments,
            Kind::DegradedRepair => 0..0,
        };
        scan.map(|seg| Op::Get { seg })
            .chain((0..self.warmup_windows).flat_map(|w| self.window(seed, w)))
            .collect()
    }

    pub fn is_primary(&self, op: &Op) -> bool {
        match self.kind {
            Kind::IngestMix => matches!(op, Op::Put { .. }),
            _ => true,
        }
    }

    /// Digest of the first `windows` windows of the trace.
    pub fn trace_digest(&self, seed: u64, windows: usize) -> u64 {
        let mut h = Fnv::new();
        for w in 0..windows {
            for op in self.window(seed, w) {
                op.digest_into(&mut h);
            }
        }
        h.0
    }
}

fn permutation(n: u32, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n).collect();
    for i in (1..p.len()).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Eight incompressible payload pairs; a segment is one of them cut to
/// its stripe count with an id stamp over the first bytes of each
/// stream, so checking a reply is a stamp compare plus a `memcmp`.
pub struct Pool {
    payloads: Vec<(Vec<u8>, Vec<u8>)>,
    /// Stream bytes one stripe holds.
    important_per_stripe: usize,
    unimportant_per_stripe: usize,
    tag: u64,
}

const STAMP: usize = 16;
const POOL: usize = 8;

impl Pool {
    pub fn new(seed: u64, important_per_stripe: usize, unimportant_per_stripe: usize) -> Pool {
        let payloads = (0..POOL as u64)
            .map(|i| {
                let mut rng = Rng::derived(seed, "payload", i);
                let mut imp = vec![0u8; important_per_stripe * BASE_STRIPES];
                let mut unimp = vec![0u8; unimportant_per_stripe * BASE_STRIPES];
                rng.fill(&mut imp);
                rng.fill(&mut unimp);
                (imp, unimp)
            })
            .collect();
        Pool {
            payloads,
            important_per_stripe,
            unimportant_per_stripe,
            tag: Rng::derived(seed, "stamp", 0).next_u64(),
        }
    }

    fn stamp(&self, seg: u32) -> [u8; STAMP] {
        let mut s = [0u8; STAMP];
        s[..8].copy_from_slice(&u64::from(seg).to_le_bytes());
        s[8..].copy_from_slice(&self.tag.to_le_bytes());
        s
    }

    fn parts(&self, seg: u32, stripes: usize) -> (&[u8], &[u8]) {
        let (imp, unimp) = &self.payloads[seg as usize % POOL];
        (
            &imp[..self.important_per_stripe * stripes],
            &unimp[..self.unimportant_per_stripe * stripes],
        )
    }

    /// User bytes of a segment of `stripes` stripes.
    pub fn segment_len(&self, stripes: usize) -> u64 {
        ((self.important_per_stripe + self.unimportant_per_stripe) * stripes) as u64
    }

    /// The two streams of segment `seg`.
    pub fn segment(&self, seg: u32, stripes: usize) -> (Vec<u8>, Vec<u8>) {
        let (imp, unimp) = self.parts(seg, stripes);
        let (mut imp, mut unimp) = (imp.to_vec(), unimp.to_vec());
        imp[..STAMP].copy_from_slice(&self.stamp(seg));
        unimp[..STAMP].copy_from_slice(&self.stamp(seg));
        (imp, unimp)
    }

    /// Whether each returned stream is byte-for-byte what was put.
    pub fn check(&self, seg: u32, stripes: usize, important: &[u8], unimportant: &[u8]) -> (bool, bool) {
        let (imp, unimp) = self.parts(seg, stripes);
        let stamp = self.stamp(seg);
        let same = |got: &[u8], want: &[u8]| {
            got.len() == want.len() && got[..STAMP] == stamp && got[STAMP..] == want[STAMP..]
        };
        (same(important, imp), same(unimportant, unimp))
    }
}

pub fn segment_id(seg: u32) -> String {
    format!("s{seg:05}")
}
