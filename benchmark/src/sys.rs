//! What the operating system can tell the benchmark about its own
//! process: CPU clocks, `/proc/self/{io,status}` counters, bytes asked
//! of the allocator, and the machine fingerprint. Linux only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(not(target_os = "linux"))]
compile_error!("stackbench reads /proc and the POSIX CPU clocks of Linux");

/// The system allocator with a running total of requested bytes. A
/// statistic that publishes no other data, hence `Relaxed`.
pub struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counter is
// the only added state and is never read by the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this type with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown block may be copied whole, so the whole new size counts.
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System` through this type.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested from the allocator since process start, all threads.
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the 64-bit Linux
    // layout (two longs); the call writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// `/proc/self/io`: bytes and calls through `read`/`write`-family file
/// syscalls. Socket `send`/`recv` are not counted there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcIo {
    pub rchar: u64,
    pub wchar: u64,
    pub syscr: u64,
    pub syscw: u64,
}

impl ProcIo {
    pub fn read() -> ProcIo {
        let text = fs::read_to_string("/proc/self/io").expect("/proc/self/io is readable");
        let field = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(':')?.trim().parse().ok())
                .unwrap_or_else(|| panic!("/proc/self/io has no '{key}'"))
        };
        ProcIo {
            rchar: field("rchar"),
            wchar: field("wchar"),
            syscr: field("syscr"),
            syscw: field("syscw"),
        }
    }

    pub fn since(&self, earlier: &ProcIo) -> ProcIo {
        ProcIo {
            rchar: self.rchar - earlier.rchar,
            wchar: self.wchar - earlier.wchar,
            syscr: self.syscr - earlier.syscr,
            syscw: self.syscw - earlier.syscw,
        }
    }

    pub fn bytes(&self) -> u64 {
        self.rchar + self.wchar
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    let text = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse().ok())
        .expect("/proc/self/status has VmHWM");
    kib / 1024.0
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}

/// One line that says which machine and build produced the numbers.
pub fn fingerprint(vault_root: &Path) -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1).map(str::trim).map(String::from))
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" gf_backend={:?} rustc=\"{}\" build=offline-stubs vault_fs={}",
        apec_gf::active_backend(),
        option_env!("STACKBENCH_RUSTC").unwrap_or("unknown"),
        filesystem_of(vault_root),
    )
}
