//! The system under test, assembled in-process: a fresh vault on disk,
//! `apec_store::Store` over it, `apec_serve::serve` in front, and one
//! blocking `Client` on loopback.

use crate::gen::{segment_id, Pool, BASE_STRIPES};
use apec_serve::{serve, Client, ServerConfig, ServerHandle};
use apec_ec::ErasureCode;
use apec_store::{Store, StoreConfig, StoreSession};
use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// 16 KiB shards under the paper's Table 4 cold-tier code for k = 5:
/// APPR.RS(k=5, r=1, g=2, h=3, uneven), 20 nodes.
pub fn store_config() -> StoreConfig {
    StoreConfig {
        family: "rs".to_string(),
        k: 5,
        r: 1,
        g: 2,
        h: 3,
        structure: "uneven".to_string(),
        shard_len: 16 << 10,
    }
}

/// Two workers because the machine has two cores; the queue never
/// fills with one or two connections; 64 MiB is the daemon's default
/// cache; no maintenance daemon, so no timer perturbs the counts.
fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_cap: 8,
        cache_bytes: 64 << 20,
        maint: None,
    }
}

/// The vault may not outgrow this; `ingest-mix` is sized against it.
pub const VAULT_CAP_BYTES: u64 = 700 << 20;

/// Where vaults live: beside the binary (`benchmark/out/`), so a run
/// writes nothing outside its checkout.
pub fn vault_root() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    exe.parent().expect("the binary sits in a directory").to_path_buf()
}

/// A vault directory whose *shard files are recycled* from run to run.
///
/// Creating files shortly after deleting thousands is erratic on ext4
/// (16 KiB creates measured from 15 µs to 470 µs each for minutes after
/// a mass delete, see README "Noise"), and a vault is thousands of shard
/// files. So a released vault keeps its shard files, emptied, and loses
/// what makes them objects: the manifests, `config.json` and
/// `state.json`. The next `Store::init` finds an empty store, and its
/// puts write into existing empty files: no inode is allocated and no
/// old block is freed inside a timed interval, whatever the age of the
/// previous contents.
///
/// One process owns a vault at a time (`LOCK` holds its pid). A second
/// concurrent run gets a private directory that is deleted on release.
pub struct Vault {
    path: PathBuf,
    private: bool,
}

const LOCK: &str = "LOCK";

enum Lock {
    Taken,
    /// Taken over from a process that died holding it.
    TakenOver,
    Held,
}

impl Vault {
    pub fn acquire(root: &Path, name: &str) -> Vault {
        let path = root.join(format!("vault-{name}"));
        fs::create_dir_all(&path).expect("vault directory creates");
        match lock(&path.join(LOCK)) {
            Lock::Taken => {
                let vault = Vault { path, private: false };
                vault.forget_objects();
                vault
            }
            Lock::TakenOver => {
                let vault = Vault { path, private: false };
                vault.forget_objects();
                vault.empty_shards();
                vault
            }
            Lock::Held => {
                let path = root.join(format!("vault-{name}-{}", std::process::id()));
                fs::create_dir_all(&path).expect("private vault directory creates");
                Vault { path, private: true }
            }
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Removes manifests and store metadata; shard files stay.
    fn forget_objects(&self) {
        let _ = fs::remove_dir_all(self.path.join("objects"));
        let _ = fs::remove_file(self.path.join("config.json"));
        let _ = fs::remove_file(self.path.join("state.json"));
    }

    /// Truncates every shard file that holds bytes.
    fn empty_shards(&self) {
        let Ok(nodes) = fs::read_dir(self.path.join("nodes")) else {
            return;
        };
        for shard in nodes.flatten().filter_map(|n| fs::read_dir(n.path()).ok()).flatten().flatten() {
            if shard.metadata().is_ok_and(|m| m.len() > 0) {
                let _ = fs::OpenOptions::new().write(true).truncate(true).open(shard.path());
            }
        }
    }
}

/// Takes the lock file for this process.
fn lock(file: &Path) -> Lock {
    let mut taken = Lock::Taken;
    for _ in 0..2 {
        match fs::OpenOptions::new().write(true).create_new(true).open(file) {
            Ok(mut f) => {
                use std::io::Write;
                let _ = write!(f, "{}", std::process::id());
                return taken;
            }
            Err(_) => {
                let owner = fs::read_to_string(file).unwrap_or_default();
                if !owner.is_empty() && Path::new("/proc").join(owner.trim()).exists() {
                    return Lock::Held;
                }
                let _ = fs::remove_file(file);
                taken = Lock::TakenOver;
            }
        }
    }
    Lock::Held
}

impl Drop for Vault {
    fn drop(&mut self) {
        if self.private {
            let _ = fs::remove_dir_all(&self.path);
        } else {
            self.forget_objects();
            self.empty_shards();
            let _ = fs::remove_file(self.path.join(LOCK));
        }
    }
}

/// Removes private vaults whose owning process is gone (killed before
/// `Drop` ran).
pub fn sweep_stale_vaults(root: &Path) {
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().filter(|n| n.starts_with("vault-")).and_then(|n| n.rsplit('-').next()) else {
            continue;
        };
        if pid.bytes().all(|b| b.is_ascii_digit()) && !Path::new("/proc").join(pid).exists() {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
}

/// Bytes the committed objects of `store` occupy: their shard files and
/// manifests, plus the store's own metadata. Recycled shard files that
/// belong to no object are not the store's and are not counted.
pub fn committed_bytes(store: &Store) -> u64 {
    let len = |p: PathBuf| fs::metadata(p).map_or(0, |m| m.len());
    let root = store.root();
    let mut total = len(root.join("config.json")) + len(root.join("state.json"));
    for meta in store.list().expect("vault lists") {
        total += len(root.join("objects").join(format!("{}.json", meta.id)));
        for node in 0..store.code().total_nodes() {
            for stripe in 0..meta.stripes {
                total += len(root.join("nodes").join(node.to_string()).join(format!("{}_{stripe}.shard", meta.id)));
            }
        }
    }
    total
}

/// Store + daemon + one client. Field order is drop order: the client
/// hangs up, the daemon joins its threads, then the vault is removed.
pub struct Rig {
    pub client: Client,
    pub server: ServerHandle,
    pub store: Arc<Store>,
    /// User bytes put so far (population and ingested segments).
    pub user_bytes_stored: u64,
    pub vault: Vault,
}

impl Rig {
    /// Takes the vault called `name`, inits a store in it, puts
    /// `segments` base segments through `Store::put_object`, starts the
    /// daemon and connects.
    pub fn start(root: &Path, name: &str, pool: &Pool, segments: u32) -> Rig {
        let vault = Vault::acquire(root, name);
        let store = Arc::new(Store::init(vault.path(), store_config()).expect("fresh vault inits"));
        let mut session = StoreSession::new();
        for seg in 0..segments {
            let (imp, unimp) = pool.segment(seg, BASE_STRIPES);
            store
                .put_object(&mut session, &segment_id(seg), &imp, &unimp)
                .expect("population put succeeds");
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback port binds");
        let server = serve(Arc::clone(&store), listener, server_config()).expect("daemon starts");
        let client = Client::connect(server.addr()).expect("client connects");
        Rig {
            client,
            server,
            store,
            user_bytes_stored: u64::from(segments) * pool.segment_len(BASE_STRIPES),
            vault,
        }
    }

    pub fn connect(&self) -> Client {
        Client::connect(self.server.addr()).expect("client connects")
    }
}
