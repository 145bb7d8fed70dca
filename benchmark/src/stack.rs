//! Builds the system under test: database, two replica engines, the
//! partitioned router, an optional disk tier and an optional TCP
//! front-end — all through the program's public constructors, with
//! default configurations except where a workload says otherwise.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sizel_cluster::{ClusterConfig, ClusterRouter};
use sizel_core::engine::{EngineConfig, SizeLEngine};
use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_graph::presets;
use sizel_net::{NetClient, NetConfig, NetServer};
use sizel_rank::{dblp_ga, GaPreset};
use sizel_serve::{DiskTierConfig, RecoveryReport};

/// The tables `paged_read` evicts to segments: every posting list an
/// Author or Paper summary probes.
pub const PAGED_TABLES: [&str; 4] = ["AuthorPaper", "Citation", "Paper", "Year"];

/// See [`build_repeated`].
const CHEAP_SETUP_BUDGET: Duration = Duration::from_secs(3);
const MAX_SETUPS: usize = 15;

/// Which disk tier a stack attaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// No tier: everything in RAM, no write-ahead log.
    None,
    /// Write-ahead log (fsync on every batch), nothing paged.
    Wal,
    /// Write-ahead log plus [`PAGED_TABLES`] paged behind the default
    /// 1024-page block cache.
    Paged,
}

/// What to build.
#[derive(Clone, Debug)]
pub struct StackSpec {
    /// The database generator's configuration.
    pub db: DblpConfig,
    /// The disk tier.
    pub tier: Tier,
    /// Whether to bind a `NetServer` and connect one client.
    pub wire: bool,
}

/// A directory under the build's target directory, removed on drop.
/// The benchmark reads and writes nowhere else.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh, empty directory.
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = scratch_root().join(format!("run-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover only wastes space in the target directory.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `<target dir>/benchmark`: the executable lives in
/// `<target dir>/<profile>/` (or `.../deps/` under `cargo test`), so
/// this is inside whatever `CARGO_TARGET_DIR` the build used and never
/// in the source tree.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    let mut dir = exe.parent().expect("executable has a directory");
    if dir.ends_with("deps") {
        dir = dir.parent().expect("deps/ has a parent");
    }
    dir.parent().unwrap_or(dir).join("benchmark")
}

/// One replica engine over a freshly generated database: Author and
/// Paper as DS relations under GA1, the paper's default setting.
pub fn build_engine(db: &DblpConfig) -> SizeLEngine {
    SizeLEngine::build(
        generate(db).db,
        |db, sg, dg| dblp_ga(GaPreset::Ga1, db, sg, dg),
        EngineConfig::new(vec![
            ("Author".into(), presets::dblp_author_gds_config()),
            ("Paper".into(), presets::dblp_paper_gds_config()),
        ]),
    )
    .expect("the generated DBLP database builds an engine")
}

/// The disk-tier configuration of a stack rooted at `dir`.
pub fn tier_config(tier: Tier, dir: &Path) -> Option<DiskTierConfig> {
    let mut cfg = DiskTierConfig::new(dir);
    match tier {
        Tier::None => return None,
        Tier::Wal => {}
        Tier::Paged => cfg.paged_tables = PAGED_TABLES.iter().map(|t| (*t).to_owned()).collect(),
    }
    Some(cfg)
}

/// A running system under test.
pub struct Stack {
    /// The connected client (wire stacks only). Declared first so it
    /// drops — and closes its socket — before the server does.
    pub client: Option<NetClient>,
    /// The TCP front-end (wire stacks only).
    pub server: Option<NetServer>,
    /// The two-shard partitioned router.
    pub router: Arc<ClusterRouter>,
    /// How long attaching the disk tier took and what each shard
    /// replayed from its write-ahead log (tiered stacks only).
    pub attach: Option<(Duration, Vec<RecoveryReport>)>,
    /// The tier's directory (tiered stacks only); removed on drop,
    /// after the router above has closed its files.
    pub dir: Option<ScratchDir>,
}

impl Stack {
    /// Builds the whole stack; the elapsed time of this call is one
    /// `setup_s` sample.
    pub fn build(spec: &StackSpec) -> Stack {
        let dir = (spec.tier != Tier::None).then(|| ScratchDir::new("tier"));
        Stack::build_in(spec, dir)
    }

    /// [`Stack::build`] over a given tier directory — a non-empty one
    /// makes the attach replay its write-ahead log (crash recovery).
    pub fn build_in(spec: &StackSpec, dir: Option<ScratchDir>) -> Stack {
        let engines = vec![build_engine(&spec.db), build_engine(&spec.db)];
        let router = Arc::new(
            ClusterRouter::partitioned(engines, ClusterConfig::default())
                .expect("two identical replicas form a cluster"),
        );
        let attach = dir.as_ref().and_then(|d| tier_config(spec.tier, d.path())).map(|cfg| {
            let t0 = Instant::now();
            let reports = router.attach_disk_tier(&cfg.dir, &cfg).expect("attach the disk tier");
            (t0.elapsed(), reports)
        });
        let (server, client) = if spec.wire {
            let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0", NetConfig::default())
                .expect("bind a loopback port");
            let client = connect(&server.local_addr());
            (Some(server), Some(client))
        } else {
            (None, None)
        };
        Stack { client, server, router, attach, dir }
    }

    /// The server's address (wire stacks only).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("a wire stack").local_addr()
    }

    /// Shuts the stack down and hands back its tier directory, with
    /// every file in it closed.
    pub fn into_dir(mut self) -> Option<ScratchDir> {
        self.dir.take()
    }
}

/// Connects a client with a read timeout, so a lost reply fails the
/// run instead of hanging it.
pub fn connect(addr: &std::net::SocketAddr) -> NetClient {
    let client = NetClient::connect(addr).expect("connect to the loopback server");
    client.set_read_timeout(Some(Duration::from_secs(60))).expect("set the read timeout");
    client
}

/// Builds the stack from scratch at least `times` times — and, while
/// all builds together have taken under [`CHEAP_SETUP_BUDGET`], up to
/// [`MAX_SETUPS`] times: a 0.2 s set-up swings by a quarter from one
/// sample to the next and from one second to the next, and more
/// samples of a cheap set-up, over more seconds, cost little.
/// Each instance is dropped before the next is built. Returns the last
/// one, with every build's wall time in seconds.
pub fn build_repeated(spec: &StackSpec, times: usize) -> (Stack, Vec<f64>) {
    let began = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < times.max(1)
        || (times > 1 && secs.len() < MAX_SETUPS && began.elapsed() < CHEAP_SETUP_BUDGET)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(Stack::build(spec));
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("built at least once"), secs)
}
