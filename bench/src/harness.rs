//! The system under test, stood up the way an operator would: a 4-shard
//! `QueryService` behind `privid::server::Server`, provisioned over loopback
//! TCP. Only what has no wire operation is done in-process: building the
//! service, tenant quotas, and registering the processor executable.

use crate::decor::{MeteredProcessor, ModelDisk, SandboxMeter};
use crate::plan::{
    batch_walkers, standing_queries, Plan, Workload, BATCH_SECS, CAMERA_EPSILON, FOOTAGE_SECS,
    POLICY_K, PRELOAD_BATCHES, RHO_SECS, SHARDS, TENANT_QUOTA,
};
use crate::trace::Sink;
use privid::server::{PrividClient, Server, ServerConfig, Token};
use privid::video::trajectory::Trajectory;
use privid::video::{Attributes, ObjectClass, ObjectId, Point, PresenceSegment};
use privid::wire::{SceneKind, WalkerSpec};
use privid::{
    ChunkProcessor, Durability, FrameBatch, FrameRate, FrameSize, FsyncPolicy, PrivacyPolicy,
    QueryService, SceneConfig, SceneGenerator, TimeSpan, TrackedObject, UniqueEntrantProcessor,
    Vfs,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// The owner-plane credential.
pub const OWNER_TOKEN: &str = "owner-token";
/// Analyst credentials `analyst-token-<k>` → tenant `tenant-<k>`, `k < ANALYSTS`.
pub const ANALYSTS: usize = 8;
/// Frame rate and size of the live cameras (the walkers the server expands
/// an append into cross a 100 × 100 frame).
pub const LIVE_FPS: f64 = 2.0;
/// Width and height of the live cameras' frames.
pub const LIVE_FRAME: u32 = 100;

/// Any failure of the harness or the system under test, rendered.
pub type Failure = String;

/// Render any error with what was being attempted.
pub fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> Failure {
    move |e| format!("{what}: {e}")
}

/// The token of analyst `k`.
pub fn analyst_token(k: usize) -> String {
    format!("analyst-token-{k}")
}

/// The tenant of analyst `k`.
pub fn analyst_tenant(k: usize) -> String {
    format!("tenant-{k}")
}

/// How a workload persists: `None`, or the WAL directory and fsync policy.
fn durability(workload: Workload, wal_dir: &Path) -> Durability {
    match workload {
        Workload::WarmOneshot | Workload::ColdProcess => Durability::None,
        Workload::DurableCommit => Durability::wal(wal_dir, FsyncPolicy::Always),
        Workload::LiveStanding => Durability::wal(wal_dir, FsyncPolicy::Never),
    }
}

/// The decorators of one service. `sandbox` is absent on the untraced run
/// (it registers the bare processor); `disk` is present whenever the workload
/// has a WAL, because the modelled device *is* the workload.
#[derive(Debug, Clone, Default)]
pub struct Meters {
    /// The modelled storage device.
    pub disk: Option<Arc<ModelDisk>>,
    /// The stopwatch around the processor.
    pub sandbox: Option<Arc<SandboxMeter>>,
}

/// How much of the benchmark's own instrumentation a service carries.
#[derive(Debug, Clone, Default)]
pub enum Instrument {
    /// The untraced run: the bare processor, nothing recorded.
    #[default]
    Off,
    /// Count and time the sandbox seam (the in-process replays).
    Count,
    /// Count, time and record spans into the sink (the traced pass).
    Trace(Arc<Sink>),
}

/// Build the service of `workload` (recovering whatever `wal_dir` holds) and
/// do the in-process part of set-up: quotas and the processor executable.
pub fn build_service(
    workload: Workload,
    wal_dir: &Path,
    instrument: &Instrument,
) -> Result<(Arc<QueryService>, Meters), Failure> {
    let durability = durability(workload, wal_dir);
    let sink = match instrument {
        Instrument::Trace(sink) => Some(Arc::clone(sink)),
        _ => None,
    };
    let mut meters = Meters::default();
    let mut builder = QueryService::builder().shards(SHARDS);
    if matches!(durability, Durability::Wal { .. }) {
        let disk = ModelDisk::new(sink.clone());
        builder = builder.storage_vfs(Arc::clone(&disk) as Arc<dyn Vfs>);
        meters.disk = Some(disk);
    }
    let service = builder
        .durability(durability)
        .build()
        .map_err(fail("building the service"))?;
    for k in 0..ANALYSTS {
        service.set_tenant_quota(analyst_tenant(k), TENANT_QUOTA);
    }
    if matches!(instrument, Instrument::Off) {
        service.register_processor("person_counter", || {
            Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
        })
    } else {
        let meter = SandboxMeter::new(sink);
        meters.sandbox = Some(Arc::clone(&meter));
        service.register_processor("person_counter", move || {
            Box::new(MeteredProcessor::new(
                Box::new(UniqueEntrantProcessor::people()),
                Arc::clone(&meter),
            )) as Box<dyn ChunkProcessor>
        })
    }
    .map_err(fail("registering the processor"))?;
    Ok((Arc::new(service), meters))
}

/// Distinguishes the WAL directories of one process.
static WAL_SERIAL: AtomicU64 = AtomicU64::new(0);

/// A fresh WAL directory under `out_dir` (inside the checkout: the benchmark
/// writes nowhere else).
pub fn fresh_wal_dir(out_dir: &Path, workload: Workload) -> PathBuf {
    let serial = WAL_SERIAL.fetch_add(1, Relaxed);
    out_dir.join(format!(
        "wal-{}-{}-{serial}",
        workload.name(),
        std::process::id()
    ))
}

/// A running server with its service.
pub struct Deployment {
    /// The hosted service; the harness reads public counters from it.
    pub service: Arc<QueryService>,
    /// The decorators installed in it.
    pub meters: Meters,
    /// `127.0.0.1:<port>`.
    pub addr: String,
    /// Where its WAL lives (unused by the memory-only workloads).
    pub wal_dir: PathBuf,
    server: Server,
}

impl Deployment {
    /// Build the service, start the server on an ephemeral loopback port.
    pub fn start(
        workload: Workload,
        out_dir: &Path,
        instrument: &Instrument,
    ) -> Result<Deployment, Failure> {
        let wal_dir = fresh_wal_dir(out_dir, workload);
        let (service, meters) = build_service(workload, &wal_dir, instrument)?;
        let mut tokens = vec![Token::owner(OWNER_TOKEN, "ops")];
        tokens.extend((0..ANALYSTS).map(|k| Token::analyst(analyst_token(k), analyst_tenant(k))));
        let server = Server::start(Arc::clone(&service), ServerConfig::new(tokens))
            .map_err(fail("starting the server"))?;
        let addr = server.addr().to_string();
        Ok(Deployment {
            service,
            meters,
            addr,
            wal_dir,
            server,
        })
    }

    /// Connect as the owner.
    pub fn owner(&self) -> Result<PrividClient, Failure> {
        PrividClient::connect(&self.addr, OWNER_TOKEN).map_err(fail("owner connect"))
    }

    /// Connect as analyst `k`.
    pub fn analyst(&self, k: usize) -> Result<PrividClient, Failure> {
        PrividClient::connect(&self.addr, &analyst_token(k)).map_err(fail("analyst connect"))
    }

    /// Everything an owner and the analysts do before traffic starts, over
    /// the wire: the recorded cameras and the pre-warm queries, then the live
    /// cameras with their standing queries and preloaded footage.
    pub fn provision(&self, plan: &Plan) -> Result<(), Failure> {
        let mut owner = self.owner()?;
        for camera in &plan.cameras {
            owner
                .register_camera(
                    &camera.name,
                    SceneKind::Campus,
                    f64::from(FOOTAGE_SECS),
                    camera.scene_seed,
                    RHO_SECS,
                    POLICY_K,
                    CAMERA_EPSILON,
                )
                .map_err(fail("registering a camera"))?;
        }
        let mut analyst = self.analyst(0)?;
        for text in &plan.texts[..plan.prewarm] {
            analyst
                .submit_query(0, text)
                .map_err(fail("pre-warm query"))?;
        }
        for (c, camera) in plan.live.iter().enumerate() {
            owner
                .register_live_camera(
                    &camera.name,
                    LIVE_FPS,
                    LIVE_FRAME,
                    LIVE_FRAME,
                    RHO_SECS,
                    POLICY_K,
                    CAMERA_EPSILON,
                )
                .map_err(fail("registering a live camera"))?;
            let mut analyst = self.analyst(c)?;
            for (name, base_seed, text) in standing_queries(&camera.name, plan.seed) {
                analyst
                    .register_standing(&name, base_seed, &text)
                    .map_err(fail("registering a standing query"))?;
            }
        }
        for batch in 0..PRELOAD_BATCHES as u64 {
            for (c, camera) in plan.live.iter().enumerate() {
                owner
                    .append_frames(
                        &camera.name,
                        f64::from(BATCH_SECS),
                        batch_walkers(plan.seed, c, batch),
                    )
                    .map_err(fail("preloading footage"))?;
            }
        }
        Ok(())
    }

    /// Stop the server (joins every thread), drop the service, and return
    /// the WAL directory it can be rebuilt from.
    pub fn stop(self) -> PathBuf {
        self.server.shutdown();
        self.wal_dir
    }

    /// Stop and delete the WAL.
    pub fn teardown(self) {
        let _ = std::fs::remove_dir_all(self.stop());
    }
}

/// The in-process twin of the wire-side `RegisterCamera`: the server expands
/// `(kind, duration, seed)` with exactly this call chain.
pub fn campus_scene(scene_seed: u64) -> privid::Scene {
    let config = SceneConfig::campus()
        .with_duration_hours(f64::from(FOOTAGE_SECS) / 3600.0)
        .with_seed(scene_seed);
    SceneGenerator::new(config).generate()
}

/// The policy every camera is registered under.
fn policy() -> PrivacyPolicy {
    PrivacyPolicy::new(RHO_SECS, POLICY_K, CAMERA_EPSILON)
}

/// Register the plan's recorded cameras directly on `service`: the twin's
/// registration.
pub fn register_cameras_in_process(service: &QueryService, plan: &Plan) -> Result<(), Failure> {
    for camera in &plan.cameras {
        service
            .register_camera(
                camera.name.as_str(),
                campus_scene(camera.scene_seed),
                policy(),
            )
            .map_err(fail("registering a camera in-process"))?;
    }
    Ok(())
}

/// Register the plan's live cameras directly on `service`.
pub fn register_live_cameras_in_process(
    service: &QueryService,
    plan: &Plan,
) -> Result<(), Failure> {
    for camera in &plan.live {
        service
            .register_live_camera(
                camera.name.as_str(),
                FrameRate::new(LIVE_FPS),
                FrameSize::new(LIVE_FRAME, LIVE_FRAME),
                policy(),
            )
            .map_err(fail("registering a live camera in-process"))?;
    }
    Ok(())
}

/// The batch the server builds from an `AppendFrames` request, rebuilt here
/// for the in-process append replay (the server's expansion is private).
pub fn frame_batch(walkers: &[WalkerSpec]) -> FrameBatch {
    let objects = walkers
        .iter()
        .map(|w| {
            TrackedObject::new(
                ObjectId(w.id),
                ObjectClass::Person,
                Attributes::default(),
                vec![PresenceSegment {
                    span: TimeSpan::between_secs(w.start_secs, w.end_secs),
                    trajectory: Trajectory::linear(
                        Point::new(0.0, 50.0),
                        Point::new(100.0, 50.0),
                        5.0,
                        10.0,
                    ),
                }],
            )
        })
        .collect();
    FrameBatch::new(f64::from(BATCH_SECS), objects)
}
