//! The paper's recovery-cost and video-quality claims, measured on
//! bytes that went through `store` + `serve`. Every workload runs this
//! after its timed windows, on a vault and daemon of its own, so the
//! same work yields `repair_mib_s` and `approx_psnr_db` everywhere and
//! the workload's own numbers are not touched by it.
//!
//! * repair: 36 × (`kill` node *i*, `repair`), each repair timed;
//!   rebuilt shard bytes ÷ repair time per cycle. The cycles run in
//!   three batches spread over the rest of the run, so that one
//!   disturbed stretch of a few seconds cannot cover them all.
//! * quality: a synthetic clip is put, read back through an erasure
//!   mask beyond exact tolerance, and its lost frames are recovered
//!   client-side with `apec_recovery::recover_lost_frames`.

use crate::gen::{segment_id, Pool, BASE_STRIPES};
use crate::rig::Rig;
use crate::trace::Tracer;
use apec_recovery::{recover_lost_frames, Interpolator};
use apec_store::json;
use apec_store::StoreSession;
use apec_video::{
    decode_stream, encode_stream, parse_container, psnr_db, serialize_container, Frame, GopConfig, SyntheticVideo,
    VideoContainer,
};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Few segments, so a cycle is short (about 80 ms) and many cycles fit:
/// some of them fall into quiet moments of a shared machine.
const REPAIR_SEGMENTS: u32 = 4;
/// The node each repair cycle loses, the same in every run so that
/// every run rebuilds the same mix: data nodes of each local stripe,
/// local parities (15-17) and global parities (18, 19).
const REPAIR_NODES: [usize; 12] = [0, 6, 12, 15, 18, 3, 9, 14, 16, 19, 1, 7];
/// Times the node list is gone through: one batch of cycles each.
pub const REPAIR_BATCHES: usize = 3;
/// Cycles of the traced run (the first nodes of the list).
pub const TRACED_CYCLES: usize = 4;
/// Kills delete a node's whole directory, so this phase has a small
/// vault of its own and never touches the workload's recycled files.
const VAULT: &str = "recovery";
const CLIP_ID: &str = "clip";
/// Loses a data node and its stripe's local parity: beyond exact
/// tolerance, important bytes still recoverable through the globals.
const CLIP_MASK: &[usize] = &[6, 16];
/// The clip is the same for every `--seed`: quality is compared between
/// commits on one clip, and clip-to-clip variance (about a dB) would
/// swamp a 1 % bound.
const CLIP_SEED: u64 = 7;
const CLIP_GEOMETRY: (usize, usize, usize) = (160, 96, 120);

pub struct Recovery {
    /// Rebuilt MiB per second of repair time, one per cycle.
    pub repair_mib_s: Vec<f64>,
    pub psnr_mean_db: f64,
    pub psnr_min_db: f64,
    /// Share of the clip's bytes the masked read lost.
    pub lost_byte_share: f64,
    pub recover_ms: f64,
    pub parse_decode_ms: f64,
    /// Longest a second connection's get waited during one repair
    /// (traced run only; 0 otherwise).
    pub read_stall_ms: f64,
    /// File bytes `Store::repair_object` read per byte it rebuilt
    /// (traced run only; 0 otherwise).
    pub repair_read_bytes_per_rebuilt_byte: f64,
    pub attempted: u64,
    pub failed: u64,
    pub unflagged_lossy: u64,
}

struct Clip {
    important: Vec<u8>,
    unimportant: Vec<u8>,
    /// What a lossless read decodes to.
    reference: Vec<Frame>,
}

fn render_clip() -> Clip {
    let (width, height, frames) = CLIP_GEOMETRY;
    let gop = GopConfig {
        gop_len: 12,
        use_b_frames: true,
        quant: 2,
    };
    let rendered = SyntheticVideo::new(width, height, 60.0, CLIP_SEED, 4).frames(frames);
    let container = VideoContainer {
        width,
        height,
        fps: 60,
        gop,
        frames: encode_stream(&rendered, &gop),
    };
    let tiers = serialize_container(&container);
    let encoded: Vec<_> = container.frames.into_iter().map(Some).collect();
    let reference = decode_stream(&encoded, width, height, &gop)
        .frames
        .into_iter()
        .map(|f| f.expect("an undamaged clip decodes completely"))
        .collect();
    Clip {
        important: tiers.important,
        unimportant: tiers.unimportant,
        reference,
    }
}

fn json_num(text: &str, key: &str) -> u64 {
    json::parse(text)
        .ok()
        .and_then(|v| v.get(key).and_then(|n| n.as_num()))
        .unwrap_or_else(|| panic!("repair summary has no numeric '{key}': {text}"))
}

/// The recovery vault with its daemon, between the batches of cycles.
pub struct Session<'a> {
    rig: Rig,
    pool: &'a Pool,
    clip: Clip,
    out: Recovery,
    /// Repair cycles run so far.
    cycles: usize,
    ladder_read: u64,
    ladder_rebuilt: u64,
}

fn fail(out: &mut Recovery, why: String) {
    out.failed += 1;
    eprintln!("FAILED recovery: {why}");
}

impl<'a> Session<'a> {
    /// Starts the vault and daemon and puts the segments and the clip.
    pub fn start(root: &Path, pool: &'a Pool) -> Session<'a> {
        let mut rig = Rig::start(root, VAULT, pool, REPAIR_SEGMENTS);
        let clip = render_clip();
        let mut out = Recovery {
            repair_mib_s: Vec::new(),
            psnr_mean_db: 0.0,
            psnr_min_db: 0.0,
            lost_byte_share: 0.0,
            recover_ms: 0.0,
            parse_decode_ms: 0.0,
            read_stall_ms: 0.0,
            repair_read_bytes_per_rebuilt_byte: 0.0,
            attempted: 1,
            failed: 0,
            unflagged_lossy: 0,
        };
        if let Err(e) = rig.client.put(CLIP_ID, &clip.important, &clip.unimportant) {
            fail(&mut out, format!("put of the clip: {e}"));
        }
        Session {
            rig,
            pool,
            clip,
            out,
            cycles: 0,
            ladder_read: 0,
            ladder_rebuilt: 0,
        }
    }

    /// One batch: the whole node list, each node killed and repaired.
    pub fn repair_batch(&mut self) {
        self.repair_cycles(REPAIR_NODES.len(), None);
    }

    /// The next `count` cycles. With a tracer (and the op index its
    /// spans start at), each cycle is re-executed object by object
    /// through `Store::repair_object`, and the first is watched from a
    /// second connection.
    pub fn repair_cycles(&mut self, count: usize, mut tracer: Option<(&mut Tracer, u32)>) {
        let (rig, out) = (&mut self.rig, &mut self.out);
        let shard_len = rig.store.config().shard_len;
        for _ in 0..count {
            let cycle = self.cycles;
            self.cycles += 1;
            let node = REPAIR_NODES[cycle % REPAIR_NODES.len()];
            out.attempted += 1;
            if let Err(e) = rig.client.kill(node) {
                fail(out, format!("kill {node}: {e}"));
                continue;
            }
            let watch = tracer.is_some() && cycle == 0;
            let stop = AtomicBool::new(false);
            let mut watcher = watch.then(|| rig.connect());
            let (reply, ns, start, stall_ms) = std::thread::scope(|scope| {
                let stalled = watcher.as_mut().map(|watcher| {
                    scope.spawn(|| {
                        let mut worst = 0.0f64;
                        while !stop.load(Ordering::SeqCst) {
                            let t = Instant::now();
                            let _ = watcher.get(&segment_id(0));
                            worst = worst.max(t.elapsed().as_secs_f64() * 1e3);
                        }
                        worst
                    })
                });
                let start = Instant::now();
                let reply = rig.client.repair();
                let ns = start.elapsed().as_nanos() as u64;
                stop.store(true, Ordering::SeqCst);
                let stall_ms = stalled.map_or(0.0, |h| h.join().expect("watcher thread ends"));
                (reply, ns, start, stall_ms)
            });
            out.read_stall_ms = out.read_stall_ms.max(stall_ms);
            let summary = match reply {
                Ok(s) => s,
                Err(e) => {
                    fail(out, format!("repair after kill {node}: {e}"));
                    continue;
                }
            };
            let rebuilt = json_num(&summary, "shards_rebuilt") * shard_len as u64;
            if json_num(&summary, "bytes_lost") != 0 || rebuilt == 0 {
                fail(out, format!("repair after kill {node} lost bytes or rebuilt nothing: {summary}"));
            }
            out.repair_mib_s
                .push(rebuilt as f64 / (1u64 << 20) as f64 / (ns as f64 / 1e9));

            if let Some((tracer, first_op)) = tracer.as_mut() {
                let op = *first_op + cycle as u32;
                let root_span = tracer.record("serve.repair", op, start, ns, 0);
                // The same loss again, healed object by object. The files
                // are removed by hand: `kill_node` would mark the node dead
                // and `repair_object` skips dead nodes.
                let mut session = StoreSession::new();
                for id in rig.store.list_ids().expect("vault lists") {
                    let stripes = rig.store.stat(&id).expect("object stats").stripes;
                    for s in 0..stripes {
                        let shard = rig.store.root().join("nodes").join(node.to_string()).join(format!("{id}_{s}.shard"));
                        fs::remove_file(shard).expect("shard file to lose exists");
                    }
                    let (_, repaired) = tracer.span("store.repair_object", root_span, op, true, || {
                        rig.store.repair_object(&mut session, &id).expect("object repairs")
                    });
                    self.ladder_read += tracer.spans().last().expect("span just recorded").io.rchar;
                    self.ladder_rebuilt += (repaired.shards_rebuilt * shard_len) as u64;
                }
            }
        }
    }

    /// Checks that every repaired segment still reads back exactly,
    /// then reads the clip through the mask and recovers its frames.
    pub fn finish(self) -> Recovery {
        let Session {
            mut rig,
            pool,
            clip,
            mut out,
            ladder_read,
            ladder_rebuilt,
            ..
        } = self;
        if ladder_rebuilt > 0 {
            out.repair_read_bytes_per_rebuilt_byte = ladder_read as f64 / ladder_rebuilt as f64;
        }
        for seg in 0..REPAIR_SEGMENTS {
            out.attempted += 1;
            match rig.client.get(&segment_id(seg)) {
                Ok(r) if pool.check(seg, BASE_STRIPES, &r.important, &r.unimportant) == (true, true) => {}
                Ok(_) => fail(&mut out, format!("segment {seg} differs after the repair cycles")),
                Err(e) => fail(&mut out, format!("get of segment {seg} after the repair cycles: {e}")),
            }
        }

        out.attempted += 1;
        let reply = match rig.client.degraded_get(CLIP_ID, CLIP_MASK) {
            Ok(r) => r,
            Err(e) => {
                fail(&mut out, format!("masked read of the clip: {e}"));
                return out;
            }
        };
        if rig.store.code().can_recover_important(CLIP_MASK) && reply.important != clip.important {
            fail(&mut out, "important stream of the clip differs although the code recovers it".to_string());
            return out;
        }
        let lost = reply
            .unimportant
            .iter()
            .zip(&clip.unimportant)
            .filter(|(a, b)| a != b)
            .count();
        out.lost_byte_share = lost as f64 / (clip.important.len() + clip.unimportant.len()) as f64;
        if lost > 0 && !reply.approximate {
            out.unflagged_lossy += 1;
        }
        let t = Instant::now();
        let parsed = match parse_container(&reply.important, &reply.unimportant) {
            Ok(p) => p,
            Err(e) => {
                fail(&mut out, format!("clip container does not parse: {e}"));
                return out;
            }
        };
        let mut decoded = decode_stream(&parsed.frames, parsed.width, parsed.height, &parsed.gop);
        out.parse_decode_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let report = recover_lost_frames(&mut decoded, Interpolator::MotionCompensated { search_radius: 3 });
        out.recover_ms = t.elapsed().as_secs_f64() * 1e3;
        let psnr: Vec<f64> = report
            .interpolated
            .iter()
            .chain(&report.extrapolated)
            .map(|&i| {
                let got = decoded.frames[i].as_ref().expect("recovery filled the frame");
                psnr_db(&clip.reference[i], got)
            })
            .collect();
        if psnr.is_empty() || !report.unrecoverable.is_empty() {
            fail(&mut out, format!("{} frames recovered, {} unrecoverable", psnr.len(), report.unrecoverable.len()));
            return out;
        }
        out.psnr_mean_db = psnr.iter().sum::<f64>() / psnr.len() as f64;
        out.psnr_min_db = psnr.iter().copied().fold(f64::INFINITY, f64::min);
        out
    }
}
