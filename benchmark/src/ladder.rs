//! The layer ladder of the traced run: after each TCP call (the root
//! span `serve.request`) the same logical op is re-executed in-process
//! against the public entry points of each lower layer, on the same
//! vault, the same stripes and the same erasure pattern:
//!
//! ```text
//! serve.request                       the TCP call
//! ├─ maint.cache_hit | _miss | _insert   HotCache on a private mirror
//! └─ store.read_clean | read_degraded | put   Store::{read,put}_object
//!    ├─ store.manifest   Store::stat  (put: Manifest::build + write)
//!    ├─ store.shard_io   fs::read of a read's shard files
//!    ├─ store.shard_write fs::write of a put's shard files
//!    ├─ store.crc        crc::crc32 over every shard
//!    ├─ store.merkle     merkle::leaf over every shard
//!    ├─ core.pack | core.unpack | core.reconstruct_tiered
//!    └─ ec.encode | ec.decode_local | ec.decode_global   the sessions
//!       └─ gf.kernel     the same byte volume at 16 KiB blocks
//! ```
//!
//! The daemon is idle while the ladder runs (closed loop), so the
//! re-execution contends with nothing.

use crate::gen::{segment_id, Op, Pool, Spec, MASKS};
use crate::rig::Rig;
use crate::sys::ProcIo;
use crate::trace::{Probe, SpanId, Tracer};
use crate::workload::Timed;
use apec_ec::ErasureCode;
use apec_maint::{CacheConfig, HotCache};
use apec_serve::GetReply;
use apec_store::crc::{crc32, CRC_BYTES};
use apec_store::meta::write_atomic;
use apec_store::{merkle, Manifest, ObjectMeta, Store, StoreSession};
use approx_code::tiered;
use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

/// Bytes moved and file I/O done by one class of store re-executions.
#[derive(Default)]
pub struct Tally {
    pub ops: u64,
    pub user_bytes: u64,
    pub alloc_bytes: u64,
    pub io: ProcIo,
}

impl Tally {
    fn add(&mut self, user_bytes: u64, alloc_bytes: u64, io: ProcIo) {
        self.ops += 1;
        self.user_bytes += user_bytes;
        self.alloc_bytes += alloc_bytes;
        self.io.rchar += io.rchar;
        self.io.wchar += io.wchar;
        self.io.syscr += io.syscr;
        self.io.syscw += io.syscw;
    }
}

pub struct Ladder<'a> {
    pub tracer: Tracer,
    store: Arc<Store>,
    spec: Spec,
    pool: &'a Pool,
    /// Session of the `Store` re-executions (the daemon's workers own theirs).
    session: StoreSession,
    /// Sessions of the bare codec re-executions.
    codec: StoreSession,
    kernel: Kernel,
    /// Fed the daemon cache's exact sequence of lookups and inserts, so
    /// it predicts every hit and miss and prices them in isolation.
    mirror: HotCache,
    scratch: PathBuf,
    pub next_op: u32,
    /// Client latencies of gets by what the mirror predicted.
    pub hit_ns: Vec<u64>,
    pub miss_ns: Vec<u64>,
    pub reads: Tally,
    pub puts: Tally,
    /// User bytes moved by the traced ops.
    pub root_user_bytes: u64,
}

impl<'a> Ladder<'a> {
    pub fn new(rig: &Rig, spec: Spec, pool: &'a Pool) -> Ladder<'a> {
        let scratch = rig.vault.path().join("ladder-scratch");
        fs::create_dir_all(&scratch).expect("scratch directory inside the vault");
        Ladder {
            tracer: Tracer::new(),
            store: Arc::clone(&rig.store),
            spec,
            pool,
            session: StoreSession::new(),
            codec: StoreSession::new(),
            kernel: Kernel::new(),
            mirror: HotCache::new(CacheConfig {
                max_bytes: 64 << 20,
                ..CacheConfig::default()
            }),
            scratch,
            next_op: 0,
            hit_ns: Vec::new(),
            miss_ns: Vec::new(),
            reads: Tally::default(),
            puts: Tally::default(),
            root_user_bytes: 0,
        }
    }

    /// Drops the client latencies gathered so far (the warm-up's).
    pub fn forget_latencies(&mut self) {
        self.hit_ns.clear();
        self.miss_ns.clear();
    }

    /// Called after every op of every window. Keeps the mirror cache in
    /// step; when `traced`, also records the op's spans.
    pub fn observe(&mut self, timed: &Timed, reply: Option<&GetReply>, traced: bool) {
        let op = self.next_op;
        self.next_op += 1;
        let root = traced.then(|| {
            self.root_user_bytes += timed.user_bytes;
            self.tracer.record("serve.request", op, timed.start, timed.ns, timed.alloc)
        });
        let id = segment_id(timed.op.seg());
        match timed.op {
            Op::Get { .. } => {
                let probe = Probe::start(false);
                let hit = self.mirror.get(&id).is_some();
                if let Some(root) = root {
                    let name = if hit { "maint.cache_hit" } else { "maint.cache_miss" };
                    self.tracer.finish(probe, name, root, op);
                }
                if hit {
                    self.hit_ns.push(timed.ns);
                    return;
                }
                self.miss_ns.push(timed.ns);
                if let Some(root) = root {
                    self.read(root, op, &id, &[], "store.read_clean", timed.user_bytes);
                }
                // A failed get was already counted by the checker.
                let Some(reply) = reply else { return };
                // As `serve_degraded_get` does: clone both streams, insert.
                let probe = Probe::start(false);
                self.mirror
                    .insert(&id, reply.important.clone(), reply.unimportant.clone());
                if let Some(root) = root {
                    self.tracer.finish(probe, "maint.cache_insert", root, op);
                }
            }
            Op::DegradedGet { mask, .. } => {
                if let Some(root) = root {
                    self.read(root, op, &id, MASKS[mask as usize], "store.read_degraded", timed.user_bytes);
                }
            }
            Op::Put { seg } => {
                if let Some(root) = root {
                    self.put(root, op, seg);
                }
            }
        }
    }

    fn shard_path(&self, node: usize, id: &str, stripe: usize) -> PathBuf {
        // The on-disk layout documented in `apec_store`'s crate docs.
        self.store
            .root()
            .join("nodes")
            .join(node.to_string())
            .join(format!("{id}_{stripe}.shard"))
    }

    /// `Store::read_object` and its parts.
    fn read(&mut self, root: SpanId, op: u32, id: &str, mask: &[usize], name: &'static str, user_bytes: u64) {
        let store = Arc::clone(&self.store);
        let code = store.code();
        let total = code.total_nodes();
        let data_nodes = code.data_nodes();
        let shard_len = store.config().shard_len;

        let (parent, _) = self.tracer.span(name, root, op, true, || {
            black_box(store.read_object(&mut self.session, id, mask).expect("ladder read succeeds"))
        });
        let whole = self.tracer.spans().last().expect("span just recorded");
        self.reads.add(user_bytes, whole.alloc_bytes, whole.io);

        let (_, meta) = self
            .tracer
            .span("store.manifest", parent, op, true, || store.stat(id).expect("ladder stat succeeds"));

        // files[stripe][node]: framed shard bytes, `None` where masked.
        let paths: Vec<Vec<Option<PathBuf>>> = (0..meta.stripes)
            .map(|s| {
                (0..total)
                    .map(|n| (!mask.contains(&n)).then(|| self.shard_path(n, id, s)))
                    .collect()
            })
            .collect();
        let (_, files) = self.tracer.span("store.shard_io", parent, op, true, || {
            paths
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|p| p.as_ref().map(|p| fs::read(p).expect("shard file reads")))
                        .collect::<Vec<Option<Vec<u8>>>>()
                })
                .collect::<Vec<_>>()
        });
        let payloads = || files.iter().flatten().flatten().map(|f| &f[CRC_BYTES..]);
        self.tracer.span("store.crc", parent, op, false, || {
            for p in payloads() {
                black_box(crc32(p));
            }
        });
        self.tracer.span("store.merkle", parent, op, false, || {
            for p in payloads() {
                black_box(merkle::leaf(p));
            }
        });

        if !mask.is_empty() {
            let mut missing = mask.to_vec();
            missing.sort_unstable();
            let wanted: Vec<usize> = missing.iter().copied().filter(|&n| n < data_nodes).collect();
            if code.can_recover_all(mask) {
                let views: Vec<Vec<Option<&[u8]>>> = files
                    .iter()
                    .map(|row| row.iter().map(|f| f.as_deref().map(|f| &f[CRC_BYTES..])).collect())
                    .collect();
                let name = if mask.len() == 1 { "ec.decode_local" } else { "ec.decode_global" };
                let dec = &mut self.codec.dec;
                let (decode, _) = self.tracer.span(name, parent, op, false, || {
                    for row in &views {
                        black_box(dec.decode(code, row, &missing, &wanted).expect("ladder decode succeeds"));
                    }
                });
                let plan = dec.plan(code, &missing, &wanted).expect("plan is cached");
                let volume = plan.compute_shards() * (shard_len * meta.stripes) as f64;
                let coeff = if mask.len() == 1 { 1 } else { 0x1d };
                let kernel = &mut self.kernel;
                self.tracer
                    .span("gf.kernel", decode, op, false, || kernel.run(volume as usize, coeff));
            } else {
                // What the store is documented to fall back to beyond
                // exact tolerance.
                let mut rows: Vec<Vec<Option<Vec<u8>>>> = files
                    .iter()
                    .map(|row| row.iter().map(|f| f.as_ref().map(|f| f[CRC_BYTES..].to_vec())).collect())
                    .collect();
                self.tracer.span("core.reconstruct_tiered", parent, op, false, || {
                    for row in &mut rows {
                        black_box(code.reconstruct_tiered(row).expect("tiered reconstruction runs"));
                    }
                });
            }
        }

        // Unpack costs the same whatever the bytes; rebuilt shards are
        // stood in for by zeros.
        let stripes: Vec<Vec<Vec<u8>>> = files
            .iter()
            .map(|row| {
                row.iter()
                    .take(data_nodes)
                    .map(|f| f.as_ref().map_or_else(|| vec![0u8; shard_len], |f| f[CRC_BYTES..].to_vec()))
                    .collect()
            })
            .collect();
        self.tracer.span("core.unpack", parent, op, false, || {
            black_box(tiered::unpack(code, &stripes, meta.important_len, meta.unimportant_len))
        });
    }

    /// `Store::put_object` and its parts. The re-execution stores a
    /// shadow object (`x<id>`) in the same vault; the parts write into a
    /// scratch directory.
    fn put(&mut self, root: SpanId, op: u32, seg: u32) {
        let store = Arc::clone(&self.store);
        let code = store.code();
        let shard_len = store.config().shard_len;
        let (imp, unimp) = self.pool.segment(seg, self.spec.stripes_of(seg));
        let shadow = format!("x{}", segment_id(seg));

        let (parent, _) = self.tracer.span("store.put", root, op, true, || {
            store
                .put_object(&mut self.session, &shadow, &imp, &unimp)
                .expect("ladder put succeeds")
        });
        let whole = self.tracer.spans().last().expect("span just recorded");
        self.puts.add((imp.len() + unimp.len()) as u64, whole.alloc_bytes, whole.io);

        let (_, packed) = self.tracer.span("core.pack", parent, op, false, || {
            tiered::pack(code, &imp, &unimp, shard_len).expect("ladder pack succeeds")
        });
        let refs: Vec<Vec<&[u8]>> = packed
            .stripes
            .iter()
            .map(|rows| rows.iter().map(Vec::as_slice).collect())
            .collect();
        let enc = &mut self.codec.enc;
        let (encode, _) = self.tracer.span("ec.encode", parent, op, false, || {
            for stripe in &refs {
                black_box(enc.encode(code, stripe).expect("ladder encode succeeds"));
            }
        });
        let elen = shard_len / code.layout().elements_per_node();
        let volume: usize = code.layout().encode_ops.iter().map(|o| o.count * elen).sum::<usize>() * refs.len();
        let kernel = &mut self.kernel;
        self.tracer
            .span("gf.kernel", encode, op, false, || kernel.run(volume, 0x1d));

        // All 20 shards of every stripe, parity recomputed untimed.
        let shards: Vec<Vec<Vec<u8>>> = refs
            .iter()
            .map(|stripe| {
                let parity = enc.encode(code, stripe).expect("ladder encode succeeds");
                stripe.iter().map(|d| d.to_vec()).chain(parity.iter().cloned()).collect()
            })
            .collect();
        let (_, crcs) = self.tracer.span("store.crc", parent, op, false, || {
            shards.iter().flatten().map(|p| crc32(p)).collect::<Vec<u32>>()
        });
        let (_, leaves) = self.tracer.span("store.merkle", parent, op, false, || {
            shards
                .iter()
                .map(|stripe| stripe.iter().map(|p| merkle::leaf(p)).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        });
        // Into existing empty files, as a put finds them in the
        // recycled vault.
        let targets: Vec<PathBuf> = (0..crcs.len()).map(|i| self.scratch.join(format!("{i}.shard"))).collect();
        for target in &targets {
            fs::File::create(target).expect("scratch shard file empties");
        }
        self.tracer.span("store.shard_write", parent, op, true, || {
            for ((payload, crc), target) in shards.iter().flatten().zip(&crcs).zip(&targets) {
                let mut framed = Vec::with_capacity(CRC_BYTES + payload.len());
                framed.extend_from_slice(&crc.to_le_bytes());
                framed.extend_from_slice(payload);
                fs::write(target, &framed).expect("scratch shard writes");
            }
        });
        let scratch = &self.scratch;
        self.tracer.span("store.manifest", parent, op, true, || {
            let meta = ObjectMeta {
                id: shadow.clone(),
                stripes: shards.len(),
                important_len: imp.len(),
                unimportant_len: unimp.len(),
                approximated: false,
            };
            let manifest = Manifest::build(meta, leaves);
            write_atomic(&scratch.join("manifest.json"), manifest.to_json().as_bytes()).expect("scratch manifest writes");
        });
    }
}

/// The kernel the codec spends its time in, on 16 KiB blocks that stay
/// cache-resident as a stripe's shards do.
pub struct Kernel {
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Kernel {
    pub const BLOCK: usize = 16 << 10;

    pub fn new() -> Kernel {
        Kernel {
            src: vec![0x5a; Self::BLOCK],
            dst: vec![0; Self::BLOCK],
        }
    }

    /// Multiply-accumulates `bytes` (rounded up to whole blocks).
    pub fn run(&mut self, bytes: usize, coeff: u8) {
        for _ in 0..bytes.div_ceil(Self::BLOCK) {
            apec_gf::mul_slice_xor(coeff, black_box(&self.src), &mut self.dst).expect("equal block lengths");
        }
        black_box(&self.dst);
    }
}
