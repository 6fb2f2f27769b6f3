//! The workloads and the run that drives them: set-up, a writer on the
//! main thread, an open-loop TCP reader that also watches the change feed,
//! and the correctness checks and metrics once the clock runs out.

use crate::check::{same_repair, FeedMirror};
use crate::feed::{decode_batch, FeedClient};
use crate::stats::{OpenLoopTiming, Ratio, Samples, Schedule};
use crate::trace::{self, Span, SpanId, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relacc_datagen::streaming::{med_stream, rest_stream, StreamConfig, StreamOp, UpdateStream};
use relacc_engine::{
    BatchEngine, BlockChange, EntityView, Epoch, EpochId, IncrementalEngine, IncrementalError,
    IncrementalStats, RelationRepair, ShardedEngine, SnapshotDelta, UpdateOutcome,
};
use relacc_model::Value;
use relacc_net::wire::Message;
use relacc_net::{NetClient, NetServer};
use relacc_resolve::{resolve_relation, BlockKey, BlockingStrategy, ResolveConfig};
use relacc_serve::{Server, Subscription};
use relacc_store::{Generation, Relation, RowId, UpdateBatch};
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Corpus size and generator seed shared by every workload: at this scale
/// Med has 2.6k rows in 347 entities (about 7.5-row blocks) and Rest 19k
/// rows in about 74-row blocks.
const SCALE: f64 = 0.05;
const CORPUS_SEED: u64 = 3;
/// Engine worker-pool size.  On two cores a second pool thread leaves the
/// read path only the scheduler's slices during every commit.
const POOL_THREADS: usize = 1;
/// A run sets up at least `MIN_SETUPS` times and until `SETUP_BUDGET` is
/// spent; `setup_s` is the median.  A Rest set-up takes under a second, a
/// Med one about two.  On a 2-vCPU VM one set-up can take 1.5x another of
/// the same run (Rest: 0.49 or 0.75 s, as the host loads one vCPU or the
/// other), so the median needs several.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(8);
/// Epochs the hub retains.  The TCP feed pushes at most once per read
/// timeout of its connection handler (about 100 ms), so a writer that
/// commits every 25 ms outruns the default of 8 and forces resyncs.
const EPOCH_RETENTION: usize = 32;
/// Live rows sampled after each batch for the reader to address.
const READS_PER_BATCH: usize = 32;
/// A feed batch or read slower than this counts as failed.
const FEED_TIMEOUT: Duration = Duration::from_secs(10);
/// A run whose reader sent its p99 read later than this has void read
/// latencies: the generator, not the system, set them.  Normal runs stay
/// under 5 ms.
const LATE_LIMIT_MS: f64 = 20.0;

#[derive(Debug, Clone, Copy)]
enum Corpus {
    Med,
    Rest,
}

#[derive(Debug, Clone, Copy)]
struct HotMix {
    entities: usize,
    rate: f64,
    drift_period: usize,
}

/// One traffic mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    corpus: Corpus,
    /// Shards of a `ShardedEngine`; 0 runs a single `IncrementalEngine`.
    shards: usize,
    /// Row batches in the stream.  The writer commits them all and then
    /// idles until the deadline: the same committed work in every run,
    /// however fast the machine is that run.  (Closed-loop to the deadline,
    /// the commit count followed the machine's speed, and with it how far
    /// into the drifting hot set a run got; `commit_ms_p95` moved 0.26 of
    /// its median.)  Sized to about a third of a 40 s run, so that a slow
    /// host still spends it.
    batches: usize,
    /// Inserts and deletes per row batch (each).
    batch_rows: usize,
    hot: Option<HotMix>,
    /// `rebalance_hot` after every this many batches (0 = never).
    rebalance_every: usize,
    /// Open-loop TCP point reads per second.
    read_rate: f64,
}

pub const WORKLOADS: [Workload; 2] = [
    // chase + top-k heavy: small blocks, partial master data, a drifting hot
    // set chased by the rebalancer across 4 shards
    Workload {
        name: "med-ingest",
        corpus: Corpus::Med,
        shards: 4,
        batches: 360,
        batch_rows: 1,
        hot: Some(HotMix {
            entities: 2,
            rate: 0.5,
            drift_period: 4,
        }),
        rebalance_every: 4,
        read_rate: 200.0,
    },
    // resolution heavy: large blocks re-resolved on every touch, no master
    // data, a cheap chase
    Workload {
        name: "rest-ingest",
        corpus: Corpus::Rest,
        shards: 0,
        batches: 500,
        batch_rows: 3,
        hot: None,
        rebalance_every: 0,
        read_rate: 200.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What a ratio or mean is taken over, for the printed report.
    pub base: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        base: String::new(),
    }
}

fn ratio_metric(name: &'static str, ratio: Ratio) -> Metric {
    Metric {
        name,
        value: ratio.value(),
        unit: "ratio",
        base: ratio.to_string(),
    }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }
}

/// The engine under test: the sharded engine or a single incremental one,
/// driven through the same calls.
#[allow(clippy::large_enum_variant)] // one per run
enum Engine {
    Single(IncrementalEngine),
    Sharded(ShardedEngine),
}

impl Engine {
    fn apply(&mut self, batch: &UpdateBatch) -> Result<UpdateOutcome, IncrementalError> {
        match self {
            Engine::Single(e) => e.apply(batch),
            Engine::Sharded(e) => e.apply(batch),
        }
    }

    fn apply_master_append(&mut self, rows: Vec<Vec<Value>>) -> Result<(), IncrementalError> {
        match self {
            Engine::Single(e) => e.apply_master_append(0, rows).map(drop),
            Engine::Sharded(e) => e.apply_master_append(0, rows).map(drop),
        }
    }

    fn rebalance_hot(&mut self, max_blocks: usize) -> usize {
        match self {
            Engine::Single(_) => 0,
            Engine::Sharded(e) => e.rebalance_hot(max_blocks),
        }
    }

    fn set_epoch_retention(&self, epochs: usize) {
        match self {
            Engine::Single(e) => e.set_epoch_retention(epochs),
            Engine::Sharded(e) => e.set_epoch_retention(epochs),
        }
    }

    fn server(&self) -> Server {
        match self {
            Engine::Single(e) => Server::new(e),
            Engine::Sharded(e) => Server::new(e),
        }
    }

    fn current_epoch(&self) -> Arc<Epoch> {
        match self {
            Engine::Single(e) => e.current_epoch(),
            Engine::Sharded(e) => e.current_epoch(),
        }
    }

    fn stats(&self) -> IncrementalStats {
        match self {
            Engine::Single(e) => e.stats().clone(),
            Engine::Sharded(e) => e.stats(),
        }
    }

    /// Per-shard busy nanoseconds (one entry per shard; empty for a single
    /// engine, which keeps no such counter).
    fn shard_busy_ns(&self) -> Vec<u64> {
        match self {
            Engine::Single(_) => Vec::new(),
            Engine::Sharded(e) => e
                .sharded_stats()
                .per_shard
                .iter()
                .map(|s| s.batch_ns)
                .collect(),
        }
    }

    fn batch_engine(&self) -> &BatchEngine {
        match self {
            Engine::Single(e) => e.engine(),
            Engine::Sharded(e) => e.engine(),
        }
    }

    fn relation(&self) -> Relation {
        match self {
            Engine::Single(e) => e.relation().snapshot(),
            Engine::Sharded(e) => e.snapshot_relation(),
        }
    }

    fn snapshot(&self) -> Arc<RelationRepair> {
        match self {
            Engine::Single(e) => Arc::new(e.snapshot()),
            Engine::Sharded(e) => e.snapshot(),
        }
    }
}

fn resolve_config(stream: &UpdateStream) -> ResolveConfig {
    ResolveConfig::on_attrs(stream.match_attrs.clone()).with_strategy(BlockingStrategy::ExactKey)
}

/// The workload's update stream, pinned to the corpus seed: `--seed` varies
/// the reads only.  Med's per-entity repair cost spans 0.3 ms to 0.7 s on
/// this corpus (top-k search on a handful of large entities), so a stream
/// drawn per seed decides how many of those few entities a run touches and
/// moved `commit_ms_p95` 2-4x from seed to seed; on Rest it decides which
/// of the very unequal blocks the feed re-sends, and moved the read tail
/// by 0.45 of its median against 0.09 on a fixed stream.
fn generate(w: &Workload) -> UpdateStream {
    let mut config = StreamConfig {
        n_batches: w.batches,
        inserts_per_batch: w.batch_rows,
        deletes_per_batch: w.batch_rows,
        master_appends_per_batch: 1,
        seed: CORPUS_SEED,
        ..StreamConfig::default()
    }
    .with_reads(READS_PER_BATCH);
    if let Some(hot) = w.hot {
        config = config
            .with_hot_mix(hot.entities, hot.rate)
            .with_hot_drift(hot.drift_period);
    }
    match w.corpus {
        Corpus::Med => med_stream(SCALE, CORPUS_SEED, &config),
        Corpus::Rest => rest_stream(SCALE, CORPUS_SEED, &config),
    }
}

/// A serving system: engine, TCP front, one read connection and one feed.
struct Serving {
    engine: Engine,
    server: Server,
    net: NetServer,
    client: NetClient,
    feed: FeedClient,
}

impl Serving {
    fn tear_down(self) {
        let Serving {
            engine,
            mut net,
            client,
            feed,
            ..
        } = self;
        drop(client);
        drop(feed);
        net.shutdown();
        drop(engine);
    }
}

/// From the generated corpus to a serving system; returns it with the
/// seconds the whole set-up and the engine `open` alone took.
fn set_up(
    w: &Workload,
    stream: &UpdateStream,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(Serving, f64, f64), String> {
    let batch = BatchEngine::new(
        stream.relation.schema().clone(),
        stream.rules.clone(),
        stream.master.clone().into_iter().collect(),
    )
    .map_err(|e| format!("rules do not validate: {e:?}"))?
    .with_threads(POOL_THREADS);
    let resolve = resolve_config(stream);

    let root = tracer.begin("loadgen.setup", SpanId::NONE, request);
    let start = Instant::now();
    let span = tracer.begin("engine.open", root, request);
    let engine = if w.shards == 0 {
        Engine::Single(IncrementalEngine::open(
            batch,
            stream.name.clone(),
            &stream.relation,
            resolve,
        ))
    } else {
        Engine::Sharded(ShardedEngine::open(
            batch,
            stream.name.clone(),
            &stream.relation,
            resolve,
            w.shards,
        ))
    };
    tracer.end(span);
    let open_s = start.elapsed().as_secs_f64();
    engine.set_epoch_retention(EPOCH_RETENTION);
    let server = engine.server();
    let span = tracer.begin("net.spawn", root, request);
    let net = NetServer::spawn(server.clone(), "127.0.0.1:0")
        .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
    tracer.end(span);
    let span = tracer.begin("net.connect", root, request);
    let client = NetClient::connect(net.local_addr()).map_err(|e| format!("connect: {e}"))?;
    tracer.end(span);
    let span = tracer.begin("net.subscribe", root, request);
    let feed = FeedClient::subscribe(net.local_addr())?;
    tracer.end(span);
    let setup_s = start.elapsed().as_secs_f64();
    tracer.end(root);
    Ok((
        Serving {
            engine,
            server,
            net,
            client,
            feed,
        },
        setup_s,
        open_s,
    ))
}

/// What the reader addresses: the newest committed generation, the one
/// before it (for `changes_since`) and rows live at the newest.
#[derive(Debug, Clone)]
struct ReadTarget {
    generation: Generation,
    previous: Generation,
    rows: Arc<Vec<RowId>>,
}

#[derive(Debug, Clone, Copy)]
enum ReadKind {
    Row,
    Entity,
    Changes,
}

impl ReadKind {
    /// Most reads fetch a repaired row; some the whole entity; a few catch
    /// up from the previous generation.
    fn pick(rng: &mut StdRng) -> ReadKind {
        let x: f64 = rng.gen();
        if x < 0.83 {
            ReadKind::Row
        } else if x < 0.98 {
            ReadKind::Entity
        } else {
            ReadKind::Changes
        }
    }

    fn spans(self) -> (&'static str, &'static str) {
        match self {
            ReadKind::Row => ("net.repaired_row", "serve.repaired_row"),
            ReadKind::Entity => ("net.entity_result", "serve.entity_result"),
            ReadKind::Changes => ("net.changes_since", "serve.changes_since"),
        }
    }
}

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one per read, dropped right after it
enum Reply {
    Row(Option<Vec<Value>>),
    Entity(Option<EntityView>),
    Delta(SnapshotDelta),
}

impl Reply {
    fn into_message(self) -> Message {
        match self {
            Reply::Row(row) => Message::RowReply { row },
            Reply::Entity(entity) => Message::EntityReply { entity },
            Reply::Delta(delta) => Message::Delta { delta },
        }
    }
}

/// Is the TCP reply bit-identical to the in-process answer?  Point
/// replies compare their `Debug` renderings, which print floats exactly.
/// Deltas compare their wire encodings instead, which carry floats as raw
/// IEEE-754 bits: rendering a Rest delta (thousands of match decisions)
/// costs milliseconds and would make the open-loop reader late.  A
/// `changes_since` answer runs to the newest epoch, which may move between
/// the TCP and the in-process call; then the TCP delta is compared with the
/// delta the hub would have answered at the epoch the TCP reply names.
/// Returns the check and the reply's size on the wire.
fn check_reply(tcp: Reply, local: Reply, server: &Server) -> (Result<(), String>, usize) {
    match (tcp, local) {
        (Reply::Delta(remote), Reply::Delta(here)) => {
            let here = if remote.to_epoch == here.to_epoch {
                here
            } else {
                match delta_at(server, remote.from, remote.to_epoch) {
                    Ok(delta) => delta,
                    Err(e) => return (Err(e), 0),
                }
            };
            let remote = Message::Delta { delta: remote }.encode();
            let here = Message::Delta { delta: here }.encode();
            let same = if remote == here {
                Ok(())
            } else {
                Err("TCP delta differs from the in-process delta".into())
            };
            (same, remote.len())
        }
        (tcp, local) => {
            let same = if format!("{tcp:?}") == format!("{local:?}") {
                Ok(())
            } else {
                Err(format!(
                    "TCP reply differs from the in-process answer: {tcp:?}"
                ))
            };
            (same, tcp.into_message().encode().len())
        }
    }
}

/// The delta from generation `from` to the retained epoch `to`, built the
/// way the hub builds `changes_since`: every block an epoch after the base
/// dirtied, as the target epoch holds it.
fn delta_at(server: &Server, from: Generation, to: EpochId) -> Result<SnapshotDelta, String> {
    let base = server
        .pin_at(from)
        .map_err(|e| format!("delta base no longer retained: {e}"))?;
    let later = server
        .hub()
        .epochs_after(base.id())
        .ok_or("epochs after the delta base no longer retained")?;
    let target = later
        .iter()
        .find(|e| e.id() == to)
        .ok_or("delta target epoch no longer retained")?;
    let keys: BTreeSet<&BlockKey> = later
        .iter()
        .filter(|e| e.id() <= to)
        .flat_map(|e| e.dirty_keys())
        .collect();
    Ok(SnapshotDelta {
        from: base.generation(),
        from_epoch: base.id(),
        to: target.generation(),
        to_epoch: target.id(),
        changes: keys
            .into_iter()
            .map(|key| BlockChange {
                key: key.clone(),
                after: target.block_view(key),
            })
            .collect(),
    })
}

/// A pushed feed frame and the instant it was in hand.
struct Arrival {
    payload: Vec<u8>,
    at: Instant,
}

/// The reader thread's record.
#[derive(Default)]
struct ReadLog {
    outcome: Outcome,
    latency_ms: Samples,
    /// Latencies of traced and untraced reads (traced runs only).
    traced_ms: Samples,
    untraced_ms: Samples,
    late_ms: Samples,
    wire_us: Samples,
    reply_bytes: Samples,
    arrivals: Vec<Arrival>,
    feed_broken: bool,
}

/// The second thread: runs the open-loop read schedule over one
/// connection and, while no read is due, watches the feed connection.
struct Reader<'a> {
    client: &'a mut NetClient,
    feed: &'a mut FeedClient,
    server: &'a Server,
    target: &'a Mutex<ReadTarget>,
    schedule: Schedule,
    deadline: Instant,
    seed: u64,
    trace: bool,
    tracer: Tracer,
}

/// How often an idle reader looks at the feed connection.
const FEED_POLL: Duration = Duration::from_micros(200);

impl Reader<'_> {
    fn poll_feed(&mut self, log: &mut ReadLog) {
        while !log.feed_broken {
            match self.feed.poll() {
                Ok(Some(payload)) => log.arrivals.push(Arrival {
                    payload,
                    at: Instant::now(),
                }),
                Ok(None) => return,
                Err(e) => {
                    log.feed_broken = true;
                    log.outcome.attempt(Err(e));
                }
            }
        }
    }

    fn wait_until(&mut self, due: Instant, log: &mut ReadLog) {
        loop {
            self.poll_feed(log);
            let now = Instant::now();
            if now >= due {
                return;
            }
            std::thread::sleep((due - now).min(FEED_POLL));
        }
    }

    fn run(mut self) -> (ReadLog, Tracer) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5EAD_F0CA);
        let mut log = ReadLog::default();
        for i in 0u64.. {
            let due = self.schedule.due(i);
            if due >= self.deadline {
                break;
            }
            self.wait_until(due, &mut log);
            let target = self
                .target
                .lock()
                .expect("writer never panics holding it")
                .clone();
            let kind = ReadKind::pick(&mut rng);
            let row = target.rows[rng.gen_range(0..target.rows.len())];
            let traced = self.trace && i.is_multiple_of(2);
            self.tracer.set_enabled(traced);
            let request = 2 * i + 1;
            let (net_span, serve_span) = kind.spans();

            let root = self.tracer.begin("loadgen.read", SpanId::NONE, request);
            let span = self.tracer.begin(net_span, root, request);
            let sent = Instant::now();
            let tcp = match kind {
                ReadKind::Row => self
                    .client
                    .repaired_row(row, target.generation)
                    .map(Reply::Row),
                ReadKind::Entity => self
                    .client
                    .entity_result(row, target.generation)
                    .map(Reply::Entity),
                ReadKind::Changes => self.client.changes_since(target.previous).map(Reply::Delta),
            };
            let done = Instant::now();
            self.tracer.end(span);
            let timing = OpenLoopTiming::new(due, sent, done);

            // the paired in-process answer, outside the timed region
            let span = self.tracer.begin(serve_span, root, request);
            let started = Instant::now();
            let local = match kind {
                ReadKind::Row => self
                    .server
                    .repaired_row(row, target.generation)
                    .map(Reply::Row),
                ReadKind::Entity => self
                    .server
                    .entity_result(row, target.generation)
                    .map(Reply::Entity),
                ReadKind::Changes => self.server.changes_since(target.previous).map(Reply::Delta),
            };
            let local_ms = started.elapsed().as_secs_f64() * 1e3;
            self.tracer.end(span);

            let (checked, bytes) = match (tcp, local) {
                (Ok(tcp), Ok(local)) => check_reply(tcp, local, self.server),
                (Err(e), _) => (Err(format!("TCP read failed: {e}")), 0),
                (_, Err(e)) => (Err(format!("in-process read failed: {e}")), 0),
            };
            log.outcome.attempt(checked);
            log.latency_ms.push(timing.latency_ms);
            log.late_ms.push(timing.late_ms);
            if traced {
                log.traced_ms.push(timing.latency_ms);
                log.wire_us.push((timing.service_ms - local_ms) * 1e3);
                log.reply_bytes.push(bytes as f64);
            } else if self.trace {
                log.untraced_ms.push(timing.latency_ms);
            }
            self.tracer.end(root);
        }
        (log, self.tracer)
    }
}

/// One committed row batch, for freshness once the feed is in.
struct CommitRecord {
    start: Instant,
    epoch: EpochId,
    commit_ms: f64,
    traced: bool,
    /// When the in-process feed handed over the batch (traced commits).
    local_done: Option<Instant>,
}

/// The writer's record.
#[derive(Default)]
struct WriteLog {
    commits: Vec<CommitRecord>,
    commit_ms: Samples,
    feed_batch_ms: Samples,
    append_s: f64,
    rebalance_s: f64,
    blocks_moved: usize,
    busy_s: f64,
    rows: usize,
    appends: usize,
    /// Row batches committed before the latest master append.
    last_append_batch: Option<usize>,
    dirty_blocks: usize,
    rerepaired: usize,
    reused: usize,
}

/// The main thread's side of the run: owns the engine and commits.  In a
/// traced run it also keeps an in-process subscription at the head, timing
/// its receive after every traced commit.
struct Writer<'a> {
    engine: &'a mut Engine,
    local_feed: Option<Subscription>,
    target: &'a Mutex<ReadTarget>,
    tracer: Tracer,
    log: WriteLog,
    outcome: Outcome,
}

impl Writer<'_> {
    fn drain_local(&mut self) {
        if let Some(local) = &mut self.local_feed {
            while local.try_next().is_some() {}
        }
    }

    fn commit(&mut self, n: u64, batch: &UpdateBatch, reads: &[RowId], trace: bool) {
        let traced = trace && n.is_multiple_of(2);
        self.tracer.set_enabled(traced);
        let request = 2 * n;
        let root = self.tracer.begin("loadgen.commit", SpanId::NONE, request);
        let span = self.tracer.begin("engine.apply", root, request);
        let start = Instant::now();
        let applied = self.engine.apply(batch);
        let elapsed = start.elapsed().as_secs_f64();
        self.tracer.end(span);
        let outcome = match applied {
            Ok(outcome) => outcome,
            Err(e) => {
                self.outcome.attempt(Err(format!("commit rejected: {e}")));
                self.tracer.end(root);
                return;
            }
        };
        self.outcome.attempt(Ok(()));
        self.log.commit_ms.push(elapsed * 1e3);
        self.log.busy_s += elapsed;
        self.log.rows += batch.inserts.len() + batch.deletes.len();
        self.log.dirty_blocks += outcome.dirty_blocks;
        self.log.rerepaired += outcome.entities_rerepaired;
        self.log.reused += outcome.entities_reused;

        let epoch = self.engine.current_epoch();
        {
            let mut target = self.target.lock().expect("reader never panics holding it");
            *target = ReadTarget {
                generation: epoch.generation(),
                previous: target.generation,
                rows: Arc::new(reads.to_vec()),
            };
        }
        let mut local_done = None;
        if traced {
            let span = self.tracer.begin("serve.feed_recv", root, request);
            let t = Instant::now();
            let local = self.local_feed.as_mut().and_then(Subscription::try_next);
            let done = Instant::now();
            self.tracer.end(span);
            if local.is_none() {
                self.outcome
                    .attempt(Err("in-process feed missed a commit".into()));
            }
            self.log.feed_batch_ms.push((done - t).as_secs_f64() * 1e3);
            local_done = Some(done);
        } else {
            self.drain_local();
        }
        self.log.commits.push(CommitRecord {
            start,
            epoch: epoch.id(),
            commit_ms: elapsed * 1e3,
            traced,
            local_done,
        });
        self.tracer.end(root);
    }

    fn master_append(&mut self, n: u64, rows: Vec<Vec<Value>>, at_batch: usize, trace: bool) {
        self.tracer.set_enabled(trace);
        let root = self
            .tracer
            .begin("loadgen.master_append", SpanId::NONE, 2 * n);
        let count = rows.len();
        let span = self.tracer.begin("engine.apply_master_append", root, 2 * n);
        let start = Instant::now();
        let applied = self.engine.apply_master_append(rows);
        let elapsed = start.elapsed().as_secs_f64();
        self.tracer.end(span);
        self.outcome
            .attempt(applied.map_err(|e| format!("master append rejected: {e}")));
        self.log.append_s += elapsed;
        self.log.busy_s += elapsed;
        self.log.rows += count;
        self.log.appends += 1;
        self.log.last_append_batch = Some(at_batch);
        self.drain_local();
        self.tracer.end(root);
    }

    fn rebalance(&mut self, n: u64, trace: bool) {
        self.tracer.set_enabled(trace);
        let root = self.tracer.begin("loadgen.rebalance", SpanId::NONE, 2 * n);
        let span = self.tracer.begin("engine.rebalance_hot", root, 2 * n);
        let start = Instant::now();
        self.log.blocks_moved += self.engine.rebalance_hot(2);
        self.log.rebalance_s += start.elapsed().as_secs_f64();
        self.tracer.end(span);
        self.drain_local();
        self.tracer.end(root);
    }
}

/// Decode one landed feed frame into the mirror, noting when its epoch
/// became visible to the subscriber.
fn take_arrival(
    arrival: Arrival,
    mirror: &mut FeedMirror,
    landed: &mut Vec<(EpochId, Instant)>,
    bytes: &mut Samples,
) -> Result<(), String> {
    bytes.push(arrival.payload.len() as f64);
    let batch = decode_batch(&arrival.payload)?;
    mirror.apply(&batch)?;
    landed.push((batch.to_epoch, arrival.at));
    Ok(())
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Row batches to commit before master append `j` of `appends`: the
/// appends are spread evenly over the `batches` of the stream, by batch
/// rather than by time, so every run commits the same interleaving of row
/// batches and master rows, and the pool of uncovered entities lasts into
/// the stream's last batches.
fn append_slot(j: usize, appends: usize, batches: usize) -> usize {
    if j >= appends {
        usize::MAX
    } else {
        (2 * j + 1) * batches / (2 * appends)
    }
}

/// Jiffies the virtual CPUs spent stolen by the host, and in all, so far
/// (`/proc/stat`); `None` where the kernel does not report steal time.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn small_median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Run one workload for `seconds` and report; `trace` selects the traced
/// run (every other request traced, per-layer metrics) over the untraced
/// one (end-to-end metrics).
pub fn run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let stream = generate(w);
    let resolve = resolve_config(&stream);
    let mut row_batches: Vec<(&UpdateBatch, &[RowId])> = Vec::new();
    let mut appends: VecDeque<Vec<Vec<Value>>> = VecDeque::new();
    for op in &stream.ops {
        match op {
            StreamOp::Rows(batch) => {
                let reads = &stream.reads[row_batches.len()];
                row_batches.push((batch, reads));
            }
            StreamOp::MasterAppend(rows) => appends.push_back(rows.clone()),
        }
    }
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut setup_tracer = Tracer::new(origin, 1);
    setup_tracer.set_enabled(trace);

    // set up several times; keep the last system for the run
    let mut setup_s: Vec<f64> = Vec::new();
    let mut open_s = Vec::new();
    let mut serving = None;
    while setup_s.len() < MIN_SETUPS || setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64() {
        if let Some(previous) = serving.take() {
            Serving::tear_down(previous);
        }
        let request = setup_s.len() as u64;
        let (system, total, open) = set_up(w, &stream, &mut setup_tracer, request)?;
        setup_s.push(total);
        open_s.push(open);
        serving = Some(system);
    }
    let Serving {
        mut engine,
        server,
        mut net,
        mut client,
        mut feed,
    } = serving.expect("at least one set-up");

    let start_epoch = server.pin();
    if start_epoch.id() != feed.start() {
        return Err("the feed did not start at the served epoch".into());
    }
    let target = Mutex::new(ReadTarget {
        generation: start_epoch.generation(),
        previous: start_epoch.generation(),
        rows: Arc::new((0..stream.relation.len() as u64).map(RowId).collect()),
    });
    let stats_before = engine.stats();
    let shards_before = engine.shard_busy_ns();
    let appends_available = appends.len();

    let run_time = Duration::from_secs(seconds);
    let steal_before = cpu_steal();
    let start = Instant::now();
    let deadline = start + run_time;
    let reader = Reader {
        client: &mut client,
        feed: &mut feed,
        server: &server,
        target: &target,
        schedule: Schedule::new(start, w.read_rate),
        deadline,
        seed,
        trace,
        tracer: Tracer::new(origin, 2),
    };
    let mut writer = Writer {
        engine: &mut engine,
        local_feed: trace.then(|| server.subscribe()),
        target: &target,
        tracer: Tracer::new(origin, 3),
        log: WriteLog::default(),
        outcome: Outcome::default(),
    };
    let mut committed = 0usize;
    let (read_log, read_tracer) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || reader.run());
        let mut n = 0u64;
        while committed < row_batches.len() && Instant::now() < deadline {
            if append_slot(writer.log.appends, appends_available, row_batches.len()) <= committed {
                if let Some(rows) = appends.pop_front() {
                    writer.master_append(n, rows, committed, trace);
                    n += 1;
                    continue;
                }
            }
            let (batch, reads) = row_batches[committed];
            writer.commit(n, batch, reads, trace);
            committed += 1;
            n += 1;
            if w.rebalance_every > 0 && committed.is_multiple_of(w.rebalance_every) {
                writer.rebalance(n, trace);
                n += 1;
            }
        }
        // the budget is spent: the reads go on until the deadline
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        reader.join().expect("the reader thread does not panic")
    });
    let measured_s = start.elapsed().as_secs_f64();
    let steal = steal_before.zip(cpu_steal()).map(|((s0, t0), (s1, t1))| {
        Ratio::new((s1 - s0) as f64, (t1 - t0) as f64)
    });
    let peak_mb = peak_rss_mb()?;
    let unspent = row_batches.len() - committed;
    let Writer {
        tracer: write_tracer,
        log,
        outcome: write_outcome,
        ..
    } = writer;
    for part in [write_outcome, read_log.outcome] {
        out.attempted += part.attempted;
        out.failed += part.failed;
        out.failures.extend(part.failures);
    }
    // every run must commit the whole batch budget: a run cut short by the
    // deadline measured less work than the others, and its commit and
    // freshness figures follow the machine's speed instead of the program's
    out.attempt(if unspent == 0 {
        Ok(())
    } else {
        Err(format!(
            "batch budget not spent: {} of {} batches committed by the deadline",
            row_batches.len() - unspent,
            row_batches.len()
        ))
    });

    // the master data must be grounded once per append, however many shards
    // the engine has
    let stats_after = engine.stats();
    let groundings = stats_after.master_groundings - stats_before.master_groundings;
    if log.appends > 0 {
        out.attempt(if groundings == log.appends {
            Ok(())
        } else {
            Err(format!(
                "{groundings} master groundings for {} appends (must be one each)",
                log.appends
            ))
        });
    }

    // the feed: decode what landed during the run, then wait for the rest
    let final_epoch = engine.current_epoch();
    let mut mirror = FeedMirror::new(&start_epoch);
    let mut landed: Vec<(EpochId, Instant)> = Vec::new();
    let mut feed_bytes = Samples::default();
    let mut feed_ok = !read_log.feed_broken;
    for arrival in read_log.arrivals {
        let taken = take_arrival(arrival, &mut mirror, &mut landed, &mut feed_bytes);
        feed_ok &= taken.is_ok();
        out.attempt(taken);
        if !feed_ok {
            break;
        }
    }
    let drain_deadline = Instant::now() + FEED_TIMEOUT;
    while feed_ok && mirror.cursor() < final_epoch.id() {
        let step = match feed.poll() {
            Ok(Some(payload)) => {
                let arrival = Arrival {
                    payload,
                    at: Instant::now(),
                };
                let taken = take_arrival(arrival, &mut mirror, &mut landed, &mut feed_bytes);
                if taken.is_ok() {
                    out.attempt(Ok(()));
                }
                taken
            }
            Ok(None) if Instant::now() < drain_deadline => {
                std::thread::sleep(FEED_POLL);
                Ok(())
            }
            Ok(None) => Err("feed: the final epoch never arrived".into()),
            Err(e) => Err(e),
        };
        if let Err(e) = step {
            out.attempt(Err(e));
            feed_ok = false;
        }
    }
    drop(client);
    drop(feed);
    net.shutdown();

    // freshness: from each commit's start until the first feed batch that
    // reaches its epoch was in hand
    let mut freshness_ms = Samples::default();
    let mut traced_freshness_ms = Samples::default();
    let mut untraced_freshness_ms = Samples::default();
    let mut traced_commit_ms = Samples::default();
    let mut untraced_commit_ms = Samples::default();
    let mut feed_delivery_ms = Samples::default();
    let mut next = landed.iter().peekable();
    for commit in &log.commits {
        while next.peek().is_some_and(|(to, _)| *to < commit.epoch) {
            next.next();
        }
        let Some(&&(_, at)) = next.peek() else { break };
        let fresh = (at - commit.start).as_secs_f64() * 1e3;
        freshness_ms.push(fresh);
        if commit.traced {
            traced_freshness_ms.push(fresh);
            traced_commit_ms.push(commit.commit_ms);
            if let Some(local) = commit.local_done {
                feed_delivery_ms.push(at.saturating_duration_since(local).as_secs_f64() * 1e3);
            }
        } else {
            untraced_freshness_ms.push(fresh);
            untraced_commit_ms.push(commit.commit_ms);
        }
    }

    // the master pool must have lasted the stream: appends kept coming into
    // its last fifth
    if let Some(last) = log.last_append_batch {
        out.attempt(if 5 * last >= 4 * row_batches.len() {
            Ok(())
        } else {
            Err(format!(
                "master appends stopped after batch {last} of {} ({} of {appends_available} applied)",
                row_batches.len(),
                log.appends
            ))
        });
    }

    // correctness of the final state, outside every timed region
    let mut verify_tracer = Tracer::new(origin, 4);
    verify_tracer.set_enabled(trace);
    let request = u64::MAX;
    let root = verify_tracer.begin("loadgen.verify", SpanId::NONE, request);
    if feed_ok {
        out.attempt(mirror.matches(&final_epoch));
    }
    let relation = engine.relation();
    let span = verify_tracer.begin("engine.repair_relation", root, request);
    let started = Instant::now();
    let fresh = engine.batch_engine().repair_relation(&relation, &resolve);
    let repair_ms = started.elapsed().as_secs_f64() * 1e3;
    verify_tracer.end(span);
    let span = verify_tracer.begin("engine.snapshot", root, request);
    let snapshot = engine.snapshot();
    verify_tracer.end(span);
    out.attempt(same_repair(&snapshot, &fresh));
    let span = verify_tracer.begin("resolve.resolve_relation", root, request);
    let started = Instant::now();
    let resolved = trace.then(|| resolve_relation(&relation, &resolve));
    let resolve_ms = started.elapsed().as_secs_f64() * 1e3;
    verify_tracer.end(span);
    verify_tracer.end(root);

    out.notes.push(format!(
        "{}: {} rows, {} entities at the end; {} commits of {}, {} master appends of {appends_available}, writer busy {:.1} s, {} reads, {} feed batches in {measured_s:.1} s; pool threads {} (requested {POOL_THREADS}), available parallelism {}; set-ups {:.3?} s",
        w.name,
        relation.len(),
        fresh.report.entities.len(),
        log.commits.len(),
        row_batches.len(),
        log.appends,
        log.busy_s,
        read_log.latency_ms.len(),
        landed.len(),
        relacc_engine::pool::effective_threads(POOL_THREADS, usize::MAX),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        setup_s,
    ));

    if let Some(steal) = steal {
        out.notes.push(format!(
            "host steal {:.4} of CPU time during the measured phase ({steal})",
            steal.value()
        ));
    }

    let late_p99 = read_log.late_ms.percentile(0.99)?;
    if late_p99 > LATE_LIMIT_MS {
        out.notes.push(format!(
            "VOID read_ms_*: the reader ran late (p99 {late_p99:.3} ms > {LATE_LIMIT_MS} ms)"
        ));
    }

    if !trace {
        // printed, not gated: a few percent of reads stall for 3-15 ms on
        // a 2-vCPU VM, and the tail moved up to 1.7x its median
        // between runs of one build
        for (name, p) in [("read_ms_p95", 0.95), ("read_ms_p99", 0.99)] {
            out.notes.push(format!(
                "{name} {:.4} ms (printed only, see perfbench/README.md)",
                read_log.latency_ms.percentile(p)?
            ));
        }
        out.end_to_end = vec![
            metric("setup_s", small_median(setup_s), "s"),
            metric("commit_ms_p50", log.commit_ms.percentile(0.50)?, "ms"),
            metric("commit_ms_p95", log.commit_ms.percentile(0.95)?, "ms"),
            metric("ingest_rows_per_s", log.rows as f64 / log.busy_s, "1/s"),
            metric("freshness_ms_p50", freshness_ms.percentile(0.50)?, "ms"),
            metric("freshness_ms_p95", freshness_ms.percentile(0.95)?, "ms"),
            metric("read_ms_p50", read_log.latency_ms.percentile(0.50)?, "ms"),
            metric("peak_rss_mb", peak_mb, "MiB"),
        ];
        return Ok(out);
    }

    // traced run: per-layer metrics from the spans and the layers' counters
    let mut spans: Vec<Span> = setup_tracer.into_spans();
    spans.extend(write_tracer.into_spans());
    spans.extend(read_tracer.into_spans());
    spans.extend(verify_tracer.into_spans());
    let trace_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", w.name));
    trace::write_jsonl(&trace_path, &spans)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    out.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        trace_path.display()
    ));

    let span_median = |name: &str, scale: f64| -> Result<f64, String> {
        let mut s = Samples::default();
        for ms in trace::durations_ms(&spans, name) {
            s.push(ms * scale);
        }
        s.median().map_err(|e| format!("{name}: {e}"))
    };
    let fingerprinted = stats_after.rows_fingerprinted - stats_before.rows_fingerprinted;
    let fp_reused = stats_after.fingerprints_reused - stats_before.fingerprints_reused;
    let shard_busy: Vec<f64> = engine
        .shard_busy_ns()
        .iter()
        .zip(&shards_before)
        .map(|(after, before)| (after - before) as f64)
        .collect();
    let shard_ratio = if shard_busy.is_empty() {
        Ratio::new(1.0, 1.0)
    } else {
        let max = shard_busy.iter().copied().fold(0.0, f64::max);
        Ratio::new(
            max,
            shard_busy.iter().sum::<f64>() / shard_busy.len() as f64,
        )
    };
    let batches = log.commits.len() as f64;
    let resolved = resolved.expect("resolved in traced runs");
    let entities = fresh.report.entities.len() as f64;
    let chase = fresh.report.stats;
    let self_ns = trace::self_time_by_layer(&spans);
    let self_ms = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6;
    let mean = |s: &Samples| s.sum() / s.len().max(1) as f64;

    out.per_layer = vec![
        Metric {
            base: format!("over {batches} batches"),
            ..metric(
                "engine.entities_rerepaired_per_batch",
                log.rerepaired as f64 / batches,
                "count",
            )
        },
        ratio_metric(
            "engine.entity_reuse_ratio",
            Ratio::new(log.reused as f64, (log.reused + log.rerepaired) as f64),
        ),
        Metric {
            base: format!("over {batches} batches"),
            ..metric(
                "engine.dirty_blocks_per_batch",
                log.dirty_blocks as f64 / batches,
                "count",
            )
        },
        ratio_metric(
            "engine.fingerprint_reuse_ratio",
            Ratio::new(fp_reused as f64, (fp_reused + fingerprinted) as f64),
        ),
        ratio_metric(
            "engine.master_append_busy_share",
            Ratio::new(log.append_s, log.busy_s),
        ),
        ratio_metric(
            "engine.master_groundings_per_append",
            Ratio::new(groundings as f64, log.appends as f64),
        ),
        ratio_metric("engine.shard_busy_max_over_mean", shard_ratio),
        ratio_metric(
            "engine.rebalance_busy_share",
            Ratio::new(log.rebalance_s, log.busy_s),
        ),
        metric("engine.blocks_moved", log.blocks_moved as f64, "count"),
        metric("engine.open_s", small_median(open_s), "s"),
        metric("resolve.full_ms", resolve_ms, "ms"),
        metric(
            "resolve.pairs_considered",
            resolved.stats.pairs_considered as f64,
            "count",
        ),
        ratio_metric(
            "resolve.pruned_fraction",
            Ratio::new(
                (resolved.stats.pruned_by_length + resolved.stats.pruned_by_fingerprint) as f64,
                resolved.stats.pairs_considered as f64,
            ),
        ),
        metric("resolve.dp_runs", resolved.stats.dp_runs as f64, "count"),
        Metric {
            base: format!(
                "({repair_ms:.1} ms repair - {resolve_ms:.1} ms resolve) / {entities} entities"
            ),
            ..metric(
                "core.chase_ms_per_entity",
                (repair_ms - resolve_ms) / entities,
                "ms",
            )
        },
        metric(
            "core.steps_considered",
            chase.steps_considered as f64,
            "count",
        ),
        metric("topk.full_checks", chase.full_checks as f64, "count"),
        metric("topk.delta_checks", chase.delta_checks as f64, "count"),
        ratio_metric(
            "core.suggested_share",
            Ratio::new(fresh.report.suggested as f64, entities),
        ),
        metric(
            "serve.repaired_row_us_p50",
            span_median("serve.repaired_row", 1e3)?,
            "us",
        ),
        metric(
            "serve.entity_result_us_p50",
            span_median("serve.entity_result", 1e3)?,
            "us",
        ),
        metric(
            "serve.changes_since_ms_p50",
            span_median("serve.changes_since", 1.0)?,
            "ms",
        ),
        metric("serve.feed_batch_ms_p50", log.feed_batch_ms.median()?, "ms"),
        metric("net.wire_us_p50", read_log.wire_us.median()?, "us"),
        metric(
            "net.reply_bytes_per_read",
            mean(&read_log.reply_bytes),
            "bytes",
        ),
        metric("net.feed_bytes_per_batch", mean(&feed_bytes), "bytes"),
        metric("net.feed_delivery_ms_p50", feed_delivery_ms.median()?, "ms"),
        metric("loadgen.late_ms_p99", late_p99, "ms"),
        metric(
            "trace.overhead_commit_ms_p50",
            traced_commit_ms.median()? - untraced_commit_ms.median()?,
            "ms",
        ),
        metric(
            "trace.overhead_freshness_ms_p50",
            traced_freshness_ms.median()? - untraced_freshness_ms.median()?,
            "ms",
        ),
        metric(
            "trace.overhead_read_ms_p50",
            read_log.traced_ms.median()? - read_log.untraced_ms.median()?,
            "ms",
        ),
        metric("engine.self_ms", self_ms("engine"), "ms"),
        metric("resolve.self_ms", self_ms("resolve"), "ms"),
        metric("serve.self_ms", self_ms("serve"), "ms"),
        metric("net.self_ms", self_ms("net"), "ms"),
        metric("loadgen.self_ms", self_ms("loadgen"), "ms"),
    ];
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::append_slot;

    #[test]
    fn appends_are_spread_over_the_whole_stream() {
        let slots: Vec<usize> = (0..23).map(|j| append_slot(j, 23, 360)).collect();
        assert_eq!(slots[0], 7);
        assert!(slots.windows(2).all(|w| w[1] - w[0] >= 15));
        // the last append lands in the stream's last fifth, before its end
        assert!(5 * slots[22] >= 4 * 360 && slots[22] < 360);
        // spent pools and empty pools never come due
        assert_eq!(append_slot(23, 23, 360), usize::MAX);
        assert_eq!(append_slot(0, 0, 360), usize::MAX);
    }
}
