//! The online serving engine: artifacts in, ranked book lists out.
//!
//! [`ServingEngine::load`] restores the trained models from an
//! [`ArtifactRegistry`] and answers [`ServingEngine::recommend`] /
//! [`ServingEngine::recommend_batch`] requests through the candidate
//! pipeline (sources → merge → filters → rank, see [`crate::pipeline`]):
//! the configured slots' [`CandidateSource`](crate::pipeline::CandidateSource)s
//! emit provenance-stamped candidate pools, the pools are merged and
//! filtered, and the primary source re-scores the survivors down to
//! top-k by the score it retrieves by (behind a primary that retrieves
//! exhaustively, the other sources run only for the users it leaves
//! short of k). Users the
//! pipeline could not serve — every source degraded, breaker-open,
//! panicking, or simply empty-handed — go to the pipeline's terminal
//! stage: the remaining fallback-chain slots (default BPR → Closest
//! Items → Most Read Items → Random Items), each an exact-scan source
//! whose own top-k answers the first time it is healthy **and**
//! non-empty. A slot degrades — without failing the load — when its
//! artifact is missing, truncated, checksum-corrupted, or dimensionally
//! incompatible with the training interactions; a healthy slot still
//! falls through when it has nothing to say (e.g. Closest Items for a
//! reader with no history). The brownout level picks which sources,
//! filters, and terminal slots run from a plan table built once at load.
//!
//! Runtime failures degrade the same way instead of taking serving down.
//! Every slot call, source or terminal, runs inside one fault envelope:
//!
//! * the call runs under panic isolation, so a panicking model
//!   degrades the affected requests to the next slot;
//! * an optional per-slot budget ([`EngineConfig::slot_budget`]) cuts
//!   off slow slot calls — the answers are discarded, a timeout is
//!   recorded, and the next slot is tried — while an optional
//!   whole-request budget ([`EngineConfig::request_budget`]) stops the
//!   chunk once a request's [`Deadline`] expires;
//! * each slot carries a [`CircuitBreaker`]: repeated failures (panics,
//!   timeouts, injected errors) open it and the slot is skipped without
//!   being attempted until a cooldown admits a half-open probe;
//! * [`ServingEngine::reload_with_retry`] retries a failed artifact
//!   reload with deterministic, seeded-jitter exponential backoff
//!   ([`Backoff`]) and keeps serving the old epoch until a reload
//!   succeeds.
//!
//! All timing flows through the [`Clock`] in [`EngineConfig::clock`], so
//! tests drive deadlines, cooldowns, and backoff with a fake clock.
//!
//! Results are memoised in a bounded LRU keyed `(user, k, model_epoch)`;
//! the epoch comes from the registry manifest, and
//! [`ServingEngine::reload`] both bumps it and explicitly clears the
//! cache, so a retrain can never serve stale lists. Batch requests are
//! fanned out over a `std::thread::scope` worker pool sharing the same
//! cache and [`ServeMetrics`]; a worker that somehow panics outside the
//! per-slot isolation degrades only its own chunk.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker, Transition};
use crate::cache::LruCache;
use crate::metrics::{ChunkStats, MetricsSnapshot, ServeMetrics};
use crate::overload::{
    DegradationLevel, LevelTransition, OverloadConfig, OverloadGovernor, ShedReason,
};
use crate::pipeline::{
    merge_into, BookGenres, Candidate, CandidateFilter, CfNeighboursSource, ContentSimilarSource,
    FilterCtx, MostReadSource, PipelineConfig, SlotSource, SourceId,
};
use crate::registry::{ArtifactRegistry, LoadedArtifacts, SlotError, SlotResult};
use rm_core::bpr::{Bpr, BprConfig};
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::quant::QuantArtifact;
use rm_core::random::RandomItems;
use rm_core::Recommender;
use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_embed::AnnArtifact;
use rm_util::clock::{Backoff, Clock, Deadline, MonotonicClock};
use rm_util::trace::Tracer;
use rm_util::{RecError, TopK};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// One link of the fallback chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSlot {
    /// Collaborative filtering (the paper's best model).
    Bpr,
    /// Content-based Closest Items.
    ClosestItems,
    /// Global-popularity Most Read Items.
    MostRead,
    /// Uniform-random terminal fallback.
    Random,
}

impl ModelSlot {
    /// Number of slots (sizes the metrics arrays).
    pub const COUNT: usize = 4;

    /// Every slot, in default chain order.
    pub const ALL: [Self; Self::COUNT] =
        [Self::Bpr, Self::ClosestItems, Self::MostRead, Self::Random];

    /// Dense index for metrics arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::Bpr => 0,
            Self::ClosestItems => 1,
            Self::MostRead => 2,
            Self::Random => 3,
        }
    }

    /// Display name, matching the recommenders' [`Recommender::name`].
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Bpr => "BPR",
            Self::ClosestItems => "Closest Items",
            Self::MostRead => "Most Read Items",
            Self::Random => "Random Items",
        }
    }

    /// Snake-case identifier used as the `slot` label in Prometheus
    /// exposition and trace events.
    #[must_use]
    pub fn metric_label(self) -> &'static str {
        match self {
            Self::Bpr => "bpr",
            Self::ClosestItems => "closest_items",
            Self::MostRead => "most_read",
            Self::Random => "random",
        }
    }
}

/// Seed of the terminal Random Items fallback.
pub const RANDOM_SEED: u64 = 42;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Slots tried in order; the first non-empty answer wins. Slots not
    /// listed are never consulted.
    pub chain: Vec<ModelSlot>,
    /// Worker threads for [`ServingEngine::recommend_batch`].
    pub workers: usize,
    /// LRU entries; `0` disables caching entirely.
    pub cache_capacity: usize,
    /// Per-slot-call time budget: a call exceeding it is cut off (its
    /// answers discarded, a timeout recorded, the breaker notified) and
    /// the next slot is tried. `None` disables the check — and its two
    /// clock reads — entirely.
    pub slot_budget: Option<Duration>,
    /// Whole-request budget: each request carries a [`Deadline`] this
    /// far in the future, and once it expires the chunk stops serving
    /// (the remaining requests answer empty, counted as deadline skips).
    /// `None` disables the check.
    pub request_budget: Option<Duration>,
    /// Per-slot circuit-breaker configuration; `None` disables breakers.
    pub breaker: Option<BreakerConfig>,
    /// The monotonic clock deadlines, breaker cooldowns, and reload
    /// backoff read. Tests substitute a
    /// [`FakeClock`](rm_util::clock::FakeClock).
    pub clock: Arc<dyn Clock>,
    /// Structured trace sink for per-chunk spans, slot-call outcomes,
    /// breaker transitions, and reloads. Disabled by default — a
    /// disabled tracer costs one branch per call site and allocates
    /// nothing.
    pub tracer: Arc<Tracer>,
    /// Candidate-pipeline configuration (sources, pool size, filters,
    /// genre lookup). The default derives a single source from the
    /// chain's head, which reproduces the legacy chain bit-for-bit.
    pub pipeline: PipelineConfig,
    /// Overload control: admission queue, CoDel shedding, and the
    /// brownout degradation ladder. `None` (the default) disables all
    /// of it — the engine serves every request at full service, exactly
    /// as before overload control existed.
    pub overload: Option<OverloadConfig>,
}

impl EngineConfig {
    /// A builder with typed defaults and validation — the preferred way
    /// to construct a config.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: Self::default(),
        }
    }

    /// The checks behind [`EngineConfigBuilder::build`]. [`ServingEngine::load`]
    /// runs them too, so a config whose public fields were set after
    /// building cannot load unchecked.
    pub(crate) fn validate(&self) -> Result<(), RecError> {
        if self.workers == 0 {
            return Err(RecError::Config("workers must be >= 1".into()));
        }
        if self.chain.is_empty() {
            return Err(RecError::Config(
                "fallback chain must name at least one slot".into(),
            ));
        }
        if self.pipeline.pool_size == 0 {
            return Err(RecError::Config("pipeline pool_size must be >= 1".into()));
        }
        if self.pipeline.ann_nprobe == 0 {
            return Err(RecError::Config("pipeline ann_nprobe must be >= 1".into()));
        }
        if let Some(sources) = &self.pipeline.sources {
            if sources.is_empty() {
                return Err(RecError::Config(
                    "pipeline sources, when set, must name at least one slot".into(),
                ));
            }
        }
        if let Some(overload) = &self.overload {
            if overload.queue_capacity == 0 {
                return Err(RecError::Config(
                    "overload queue_capacity must be >= 1".into(),
                ));
            }
            if !(overload.ewma_alpha > 0.0 && overload.ewma_alpha <= 1.0) {
                return Err(RecError::Config(
                    "overload ewma_alpha must be in (0, 1]".into(),
                ));
            }
            if overload.step_up > overload.step_down {
                return Err(RecError::Config(
                    "overload step_up must not exceed step_down (the gap is the hysteresis)".into(),
                ));
            }
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            chain: ModelSlot::ALL.to_vec(),
            workers: 4,
            cache_capacity: 4096,
            slot_budget: None,
            request_budget: None,
            breaker: Some(BreakerConfig::default()),
            clock: Arc::new(MonotonicClock::new()),
            tracer: Arc::new(Tracer::disabled()),
            pipeline: PipelineConfig::default(),
            overload: None,
        }
    }
}

/// Builder for [`EngineConfig`]: every setter consumes and returns the
/// builder, and [`EngineConfigBuilder::build`] validates the result
/// ([`RecError::Config`] on a nonsensical combination) so an invalid
/// config is caught at construction instead of deep inside serving.
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until build() is called"]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets the fallback chain (the terminal slots, tried in order for
    /// users the pipeline left empty; the head also seeds the default
    /// pipeline source).
    pub fn chain(mut self, chain: Vec<ModelSlot>) -> Self {
        self.config.chain = chain;
        self
    }

    /// Sets the worker-thread count for batch serving.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the LRU capacity; `0` disables caching entirely.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Enables the per-slot-call time budget.
    pub fn slot_budget(mut self, budget: Duration) -> Self {
        self.config.slot_budget = Some(budget);
        self
    }

    /// Enables the whole-request deadline budget.
    pub fn request_budget(mut self, budget: Duration) -> Self {
        self.config.request_budget = Some(budget);
        self
    }

    /// Sets the per-slot circuit-breaker configuration.
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.config.breaker = Some(breaker);
        self
    }

    /// Disables circuit breakers entirely.
    pub fn no_breaker(mut self) -> Self {
        self.config.breaker = None;
        self
    }

    /// Substitutes the engine clock (tests pass a fake).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.config.clock = clock;
        self
    }

    /// Installs a trace sink.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.config.tracer = tracer;
        self
    }

    /// Sets the explicit pipeline source slots (priority order).
    pub fn pipeline_sources(mut self, sources: Vec<ModelSlot>) -> Self {
        self.config.pipeline.sources = Some(sources);
        self
    }

    /// Sets the per-source candidate pool size.
    pub fn pool_size(mut self, pool_size: usize) -> Self {
        self.config.pipeline.pool_size = pool_size;
        self
    }

    /// Appends one candidate filter (applied in push order).
    pub fn filter(mut self, filter: Arc<dyn CandidateFilter>) -> Self {
        self.config.pipeline.filters.push(filter);
        self
    }

    /// Supplies the catalogue genre lookup for genre-aware filters.
    pub fn book_genres(mut self, genres: Arc<BookGenres>) -> Self {
        self.config.pipeline.book_genres = Some(genres);
        self
    }

    /// Sets the posting lists probed per ANN-accelerated source call
    /// (only consulted when the registry carries a valid ANN artifact).
    pub fn ann_nprobe(mut self, nprobe: usize) -> Self {
        self.config.pipeline.ann_nprobe = nprobe;
        self
    }

    /// Enables overload control (admission queue, CoDel shedding, the
    /// brownout ladder) with the given tuning.
    pub fn overload(mut self, overload: OverloadConfig) -> Self {
        self.config.overload = Some(overload);
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// [`RecError::Config`] when `workers == 0`, the chain is empty,
    /// `pool_size == 0`, `ann_nprobe == 0`, an explicit source list is
    /// empty, or the overload config has `queue_capacity == 0`, an
    /// `ewma_alpha` outside (0, 1], or `step_up > step_down`.
    /// [`ServingEngine::load`] refuses such a config the same way.
    pub fn build(self) -> Result<EngineConfig, RecError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

type CacheKey = (u32, usize, u64);

/// One request processed off the admission queue by
/// [`ServingEngine::serve_queued`].
#[derive(Debug)]
pub struct QueuedOutcome {
    /// The requesting user.
    pub user: UserIdx,
    /// Requested list length.
    pub k: usize,
    /// The answer, or [`RecError::Shed`] when admission control shed
    /// the request instead of serving it.
    pub result: Result<Vec<u32>, RecError>,
    /// Brownout level the request was served at.
    pub level: DegradationLevel,
    /// Time the request spent in the admission queue.
    pub queue_delay: Duration,
    /// Admission-to-answer time (queueing plus service).
    pub sojourn: Duration,
}

/// The one admission rule for every artifact the registry publishes, the
/// three model slots and the four optional halves alike: an artifact is
/// admitted when it read cleanly, the model slot it is checked against is
/// installed (`want` is that slot's shape, or its name when it degraded),
/// and its shape equals `want`. Anything else is dropped and `refuse` gets
/// the reason: the read error, the degraded slot, or a `dimension
/// mismatch` that names both shapes.
fn admit<T, const N: usize>(
    read: Result<T, String>,
    shape: impl FnOnce(&T) -> [usize; N],
    want: Result<[usize; N], &str>,
    refuse: impl FnOnce(String),
) -> Option<T> {
    let reason = match (read, want) {
        (Err(e), _) => e,
        (Ok(_), Err(slot)) => format!("{slot} slot degraded"),
        (Ok(artifact), Ok(want)) => {
            let got = shape(&artifact);
            if got == want {
                return Some(artifact);
            }
            let dims = |d: [usize; N]| d.map(|n| n.to_string()).join("x");
            format!(
                "dimension mismatch: artifact {}, serving {}",
                dims(got),
                dims(want)
            )
        }
    };
    refuse(reason);
    None
}

/// An optional artifact (ANN, quant) as read: `None` when it is missing,
/// the normal state of a registry trained without it, or broken, which
/// leaves one `<what> artifact dropped: <error>` note.
fn published<T>(read: SlotResult<T>, what: &str, notes: &mut Vec<String>) -> Option<T> {
    match read {
        Ok(artifact) => Some(artifact),
        Err(SlotError::Missing) => None,
        Err(e) => {
            notes.push(format!("{what} artifact dropped: {e}"));
            None
        }
    }
}

/// What one brownout level leaves of the pipeline (DESIGN.md §16). The
/// engine builds one plan per [`DegradationLevel`] at load, so a chunk
/// looks its plan up instead of assembling slot lists per request.
#[derive(Debug)]
struct PipelinePlan {
    /// Slots run as candidate sources, in priority order.
    sources: Vec<ModelSlot>,
    /// Whether the configured filters prune the merged pool.
    filters: bool,
    /// Slots whose own exact top-k answers, in order, the users the
    /// pipeline left empty; slots already run as sources are left out.
    terminals: Vec<ModelSlot>,
}

impl PipelinePlan {
    /// The plan for `level`, from the fallback `chain` and the
    /// configured pipeline `sources` (`None`: the chain's head alone,
    /// which reproduces the pre-pipeline chain bit-for-bit). CF
    /// neighbours and content similarity are the expensive slots; the
    /// most-read list is the cheap floor that stands in when pruning
    /// leaves nothing.
    fn new(chain: &[ModelSlot], sources: Option<&[ModelSlot]>, level: DegradationLevel) -> Self {
        let cheap = |slots: &[ModelSlot], floor: &[ModelSlot]| {
            let kept: Vec<ModelSlot> = slots
                .iter()
                .copied()
                .filter(|s| !matches!(s, ModelSlot::Bpr | ModelSlot::ClosestItems))
                .collect();
            if kept.is_empty() {
                floor.to_vec()
            } else {
                kept
            }
        };
        let configured = sources.unwrap_or(&chain[..chain.len().min(1)]);
        let cheap_sources = || cheap(configured, &[ModelSlot::MostRead]);
        // Most-read plus the random fallback as never-empty insurance
        // (degrade, don't go dark).
        let floor = [ModelSlot::MostRead, ModelSlot::Random];
        let (sources, filters, walk) = match level {
            DegradationLevel::Full => (configured.to_vec(), true, chain.to_vec()),
            DegradationLevel::DropExpensiveSources => (cheap_sources(), true, chain.to_vec()),
            DegradationLevel::SkipFilters => (cheap_sources(), false, chain.to_vec()),
            // The deepest levels bypass the pipeline: terminals answer all.
            DegradationLevel::LegacyFallback => (Vec::new(), false, cheap(chain, &floor)),
            DegradationLevel::MostReadOnly => (Vec::new(), false, floor.to_vec()),
        };
        let terminals = walk.into_iter().filter(|s| !sources.contains(s)).collect();
        Self {
            sources,
            filters,
            terminals,
        }
    }
}

/// How one slot call through the fault envelope ended.
enum SlotRun {
    /// The slot's source emitted one candidate list per pending user.
    Emitted(Vec<Vec<Candidate>>),
    /// The slot is degraded: every pending user falls through to the
    /// next slot.
    Skipped,
    /// The call failed (breaker open, injected error, panic, timeout):
    /// every pending user falls through, and the chunk caches nothing.
    Failed,
    /// The request deadline had expired: the chunk stops serving.
    Expired,
}

/// The offline-trained / online-serving recommendation engine.
#[derive(Debug)]
pub struct ServingEngine {
    config: EngineConfig,
    train: Interactions,
    epoch: u64,
    bpr: Option<Bpr>,
    closest: Option<ClosestItems>,
    most_read: Option<MostReadItems>,
    random: RandomItems,
    /// Validated IVF indexes accelerating the pipeline's content-similar
    /// and CF-neighbour sources (a dropped half is `None`). Not a
    /// [`ModelSlot`]: losing ANN loses only the acceleration — the exact
    /// scans keep serving — so it reports through
    /// [`ServingEngine::ann_notes`], not `degraded`.
    ann: AnnArtifact,
    /// Why each absent ANN half is absent (empty when fully active or
    /// the registry simply has no ANN artifact).
    ann_notes: Vec<String>,
    /// Validated quantized artifact: compact i8/f16 rows the rank stage
    /// and pipeline sources score from. Like ANN, losing it loses only
    /// the memory optimisation — exact f32 scoring keeps serving — so
    /// it reports through [`ServingEngine::quant_notes`], not
    /// `degraded`.
    quant: Option<QuantArtifact>,
    /// True when the factor sections validated against the installed
    /// BPR model (CF scoring reads quantized rows).
    quant_cf_active: bool,
    /// True when the embeddings section validated against the installed
    /// Closest Items store (IVF content probes re-score quantized rows).
    quant_content_active: bool,
    /// Why quantized halves (or the whole artifact) were dropped at
    /// install time; empty when fully active or simply not published.
    quant_notes: Vec<String>,
    degraded: Vec<(ModelSlot, String)>,
    /// The pipeline plan per brownout level, by [`DegradationLevel::index`].
    plans: [PipelinePlan; DegradationLevel::COUNT],
    cache: Mutex<LruCache<CacheKey, Vec<u32>>>,
    breakers: Option<Mutex<[CircuitBreaker; ModelSlot::COUNT]>>,
    governor: Option<Mutex<OverloadGovernor>>,
    metrics: ServeMetrics,
    #[cfg(feature = "testing")]
    faults: crate::fault::FaultInjector,
}

impl ServingEngine {
    /// Opens `registry` and builds the engine over `train` (the
    /// interactions the artifacts were fitted on — rebuilt
    /// deterministically from the corpus, they are not part of the
    /// registry). Slot-level artifact failures degrade the chain and are
    /// reported via [`ServingEngine::degraded`]; only a config that
    /// [`EngineConfigBuilder::build`] would reject or a missing or
    /// unparsable manifest fails the load.
    pub fn load(
        registry: &ArtifactRegistry,
        train: &Interactions,
        config: EngineConfig,
    ) -> Result<Self, RecError> {
        config.validate()?;
        let loaded = registry.load()?;
        let cache_capacity = config.cache_capacity;
        let breakers = config
            .breaker
            .map(|cfg| Mutex::new(std::array::from_fn(|_| CircuitBreaker::new(cfg))));
        let mut random = RandomItems::new(RANDOM_SEED);
        random.fit(train);
        let metrics = ServeMetrics::new(Arc::clone(&config.clock));
        let governor = config.overload.clone().map(|overload| {
            Mutex::new(OverloadGovernor::new(
                overload,
                config.request_budget,
                config.clock.now(),
            ))
        });
        let plans = DegradationLevel::ALL.map(|level| {
            PipelinePlan::new(&config.chain, config.pipeline.sources.as_deref(), level)
        });
        let mut engine = Self {
            config,
            train: train.clone(),
            epoch: 0,
            bpr: None,
            closest: None,
            most_read: None,
            random,
            ann: AnnArtifact {
                content: None,
                cf: None,
            },
            ann_notes: Vec::new(),
            quant: None,
            quant_cf_active: false,
            quant_content_active: false,
            quant_notes: Vec::new(),
            degraded: Vec::new(),
            plans,
            cache: Mutex::new(LruCache::new(cache_capacity)),
            breakers,
            governor,
            metrics,
            #[cfg(feature = "testing")]
            faults: crate::fault::FaultInjector::default(),
        };
        engine.install_artifacts(loaded);
        Ok(engine)
    }

    /// [`ServingEngine::load`], then arms the fault-injection plan —
    /// the chaos harness's entry point.
    #[cfg(feature = "testing")]
    pub fn load_with_faults(
        registry: &ArtifactRegistry,
        train: &Interactions,
        config: EngineConfig,
        plan: crate::fault::FaultPlan,
    ) -> Result<Self, RecError> {
        let mut engine = Self::load(registry, train, config)?;
        engine.inject_faults(plan);
        Ok(engine)
    }

    /// Replaces the active fault plan (and resets its call counters).
    #[cfg(feature = "testing")]
    pub fn inject_faults(&mut self, plan: crate::fault::FaultPlan) {
        self.faults = crate::fault::FaultInjector::new(plan);
    }

    /// The active fault injector (call counts, plan).
    #[cfg(feature = "testing")]
    #[must_use]
    pub fn fault_injector(&self) -> &crate::fault::FaultInjector {
        &self.faults
    }

    /// Swaps in a freshly saved artifact set: re-reads every slot, bumps
    /// the epoch from the manifest, resets the circuit breakers (a new
    /// epoch deserves a clean slate), and explicitly clears the cache
    /// (the epoch in the key already fences stale entries; clearing also
    /// returns their memory). On error the engine is untouched and keeps
    /// serving the old epoch.
    pub fn reload(&mut self, registry: &ArtifactRegistry) -> Result<(), RecError> {
        // The span must borrow a local handle, not `self.config`, so the
        // `&mut self` artifact swap below stays borrowable.
        let tracer = Arc::clone(&self.config.tracer);
        let span = tracer.span("reload");
        let loaded = match registry.load() {
            Ok(loaded) => loaded,
            Err(e) => {
                span.finish(|f| {
                    f.push("ok", false).push("error", e.to_string());
                });
                return Err(e);
            }
        };
        self.install_artifacts(loaded);
        self.cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        span.finish(|f| {
            f.push("ok", true)
                .push("epoch", self.epoch)
                .push("degraded_slots", self.degraded.len());
        });
        Ok(())
    }

    /// [`ServingEngine::reload`] with bounded retries: each failed
    /// attempt sleeps the backoff schedule's next deterministic,
    /// seeded-jitter delay (through the engine clock) before trying
    /// again. Returns the number of attempts a successful reload took;
    /// on exhaustion returns the last error with the engine untouched,
    /// still serving the old epoch.
    pub fn reload_with_retry(
        &mut self,
        registry: &ArtifactRegistry,
        backoff: &Backoff,
    ) -> Result<u32, RecError> {
        let attempts = backoff.attempts.max(1);
        let mut attempt = 0;
        loop {
            match self.reload(registry) {
                Ok(()) => return Ok(attempt + 1),
                Err(e) => {
                    attempt += 1;
                    if attempt >= attempts {
                        return Err(e);
                    }
                    self.config.clock.sleep(backoff.delay(attempt - 1));
                }
            }
        }
    }

    fn install_artifacts(&mut self, loaded: LoadedArtifacts) {
        self.epoch = loaded.manifest.epoch;
        self.degraded.clear();
        if let (Some(breakers), Some(cfg)) = (&mut self.breakers, self.config.breaker) {
            for b in breakers
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .iter_mut()
            {
                *b = CircuitBreaker::new(cfg);
            }
        }

        let (users, books) = (self.train.n_users(), self.train.n_books());
        let degraded = &mut self.degraded;
        let bpr = admit(
            loaded.bpr.map_err(|e| e.to_string()),
            |m| [m.user_factors.rows(), m.item_factors.rows()],
            Ok([users, books]),
            |reason| degraded.push((ModelSlot::Bpr, reason)),
        );
        let store = admit(
            loaded.embeddings.map_err(|e| e.to_string()),
            |store| [store.len()],
            Ok([books]),
            |reason| degraded.push((ModelSlot::ClosestItems, reason)),
        );
        let most_read = admit(
            loaded.most_read.map_err(|e| e.to_string()),
            |mr| [mr.counts().len()],
            Ok([books]),
            |reason| degraded.push((ModelSlot::MostRead, reason)),
        );
        self.bpr = bpr.map(|model| {
            let mut bpr = Bpr::new(BprConfig::default());
            bpr.install(model, &self.train);
            bpr
        });
        self.closest = store.map(|store| {
            let mut ci = ClosestItems::from_store(store, loaded.manifest.fields);
            ci.fit(&self.train);
            ci
        });
        self.most_read = most_read.map(|mut mr| {
            mr.install(&self.train);
            mr
        });
        self.admit_halves(loaded.ann, loaded.quant);
    }

    /// Admits the four optional halves the ANN and quant artifacts carry
    /// — the ANN content and cf indexes, the quantized cf sections and
    /// the quantized embeddings — by [`admit`]'s rule, against the
    /// models just installed, so a degraded model slot drops the halves
    /// that accelerate it. A missing artifact or half is the normal state
    /// of a registry trained without it and leaves no note; a broken
    /// artifact leaves one `… artifact dropped: <error>` note and a
    /// dropped half one note naming it. No half ever degrades a slot: the
    /// exact f32 scans serve identically without it.
    fn admit_halves(&mut self, ann: SlotResult<AnnArtifact>, quant: SlotResult<QuantArtifact>) {
        let (mut ann_notes, mut quant_notes) = (Vec::new(), Vec::new());
        let ann = published(ann, "ann", &mut ann_notes);
        let quant = published(quant, "quant", &mut quant_notes);
        let factors = self.bpr.as_ref().and_then(Bpr::model).ok_or("bpr");
        let store = self
            .closest
            .as_ref()
            .map(|c| [c.store().len(), c.store().dim()])
            .ok_or("closest-items");
        let (content, cf) = ann.map_or((None, None), |a| (a.content, a.cf));
        let content = content.and_then(|index| {
            admit(
                Ok(index),
                |i| [i.n_items() as usize, i.dim()],
                store,
                |reason| ann_notes.push(format!("ann content index dropped: {reason}")),
            )
        });
        let cf = cf.and_then(|index| {
            admit(
                Ok(index),
                |i| [i.n_items() as usize, i.dim()],
                // The MIPS augmentation adds one dimension.
                factors.map(|m| [m.item_factors.rows(), m.item_factors.cols() + 1]),
                |reason| ann_notes.push(format!("ann cf index dropped: {reason}")),
            )
        });
        let sections = quant
            .as_ref()
            .and_then(|q| q.user_factors().zip(q.item_factors()));
        let cf_ok = sections.and_then(|pair| {
            admit(
                Ok(pair),
                |(u, i)| [u.rows(), u.cols(), i.rows(), i.cols()],
                factors.map(|m| {
                    let (u, i) = (&m.user_factors, &m.item_factors);
                    [u.rows(), u.cols(), i.rows(), i.cols()]
                }),
                |reason| quant_notes.push(format!("quant cf sections dropped: {reason}")),
            )
        });
        let embeddings = quant.as_ref().and_then(QuantArtifact::embeddings);
        let content_ok = embeddings.and_then(|rows| {
            admit(
                Ok(rows),
                |e| [e.rows(), e.cols()],
                store,
                |reason| quant_notes.push(format!("quant embeddings section dropped: {reason}")),
            )
        });
        // The quant sections share one zero-copy buffer: a dropped half
        // is a cleared flag, which gates every read, not a removed section.
        self.quant_cf_active = cf_ok.is_some();
        self.quant_content_active = content_ok.is_some();
        self.quant = quant.filter(|_| self.quant_cf_active || self.quant_content_active);
        self.ann = AnnArtifact { content, cf };
        self.ann_notes = ann_notes;
        self.quant_notes = quant_notes;
    }

    /// True when the content-similar source retrieves through the IVF
    /// index (a valid ANN artifact half is installed).
    #[must_use]
    pub fn ann_content_active(&self) -> bool {
        self.ann.content.is_some()
    }

    /// True when the CF-neighbours source retrieves through the MIPS
    /// IVF index.
    #[must_use]
    pub fn ann_cf_active(&self) -> bool {
        self.ann.cf.is_some()
    }

    /// Why ANN halves (or the whole artifact) were dropped at install
    /// time; empty when fully active or simply not published.
    #[must_use]
    pub fn ann_notes(&self) -> &[String] {
        &self.ann_notes
    }

    /// True when CF scoring (exact source, IVF re-score, and the rank
    /// stage under a BPR primary) reads quantized factor rows.
    #[must_use]
    pub fn quant_cf_active(&self) -> bool {
        self.quant_cf_active
    }

    /// True when IVF content probes re-score against the quantized
    /// embeddings section.
    #[must_use]
    pub fn quant_content_active(&self) -> bool {
        self.quant_content_active
    }

    /// Why quantized halves (or the whole artifact) were dropped at
    /// install time; empty when fully active or simply not published.
    #[must_use]
    pub fn quant_notes(&self) -> &[String] {
        &self.quant_notes
    }

    /// The slots that failed to load, with the reason — the health report
    /// an operator would page on.
    #[must_use]
    pub fn degraded(&self) -> &[(ModelSlot, String)] {
        &self.degraded
    }

    /// The current artifact epoch (from the registry manifest).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Point-in-time request metrics. With overload control enabled the
    /// snapshot also carries the governor's live ladder state: current
    /// level, transitions into each level, and per-level residency.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        if let Some(governor) = &self.governor {
            let g = governor.lock().unwrap_or_else(PoisonError::into_inner);
            snap.degradation_level = g.level().index() as u8;
            snap.level_entries = g.level_entries();
            snap.level_residency_ns = g.level_residency_ns(self.config.clock.now());
        }
        snap.cache_bytes_estimate = self.cache_bytes_estimate();
        snap
    }

    /// Estimated bytes held by the answer cache: every cached list's
    /// `len × 4` payload plus fixed per-entry bookkeeping (key, `Vec`
    /// header, slab links, map slot). An estimate, not an accounting —
    /// it tracks the real footprint closely enough to alert on.
    #[must_use]
    pub fn cache_bytes_estimate(&self) -> u64 {
        // Key tuple + Vec header + two slab links + map entry.
        const ENTRY_OVERHEAD: usize = std::mem::size_of::<CacheKey>()
            + std::mem::size_of::<Vec<u32>>()
            + 2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<(CacheKey, usize)>();
        self.lock_cache()
            .bytes_estimate(|answer| answer.len() * 4 + ENTRY_OVERHEAD) as u64
    }

    /// Point-in-time metrics in Prometheus text exposition format,
    /// including the live breaker state per slot (when breakers are on).
    #[must_use]
    pub fn metrics_prometheus(&self) -> String {
        self.metrics().render_prometheus(self.breaker_states())
    }

    /// The engine's trace sink (drain it for JSONL output).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.config.tracer
    }

    /// Current circuit-breaker state per slot (by [`ModelSlot::index`]);
    /// `None` when breakers are disabled.
    #[must_use]
    pub fn breaker_states(&self) -> Option<[BreakerState; ModelSlot::COUNT]> {
        let breakers = self.breakers.as_ref()?;
        let guard = breakers.lock().unwrap_or_else(PoisonError::into_inner);
        Some(std::array::from_fn(|i| guard[i].state()))
    }

    /// Number of cached recommendation lists.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.lock_cache().len()
    }

    /// Users in the training matrix (the load generator's user universe).
    #[must_use]
    pub fn n_users(&self) -> usize {
        self.train.n_users()
    }

    /// The cache holds plain answer lists; recover a poisoned mutex
    /// rather than letting one isolated panic end serving.
    fn lock_cache(&self) -> std::sync::MutexGuard<'_, LruCache<CacheKey, Vec<u32>>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wraps `slot`'s loaded model as its source (`None` when the slot is
    /// degraded), applying the validated IVF index and quantized rows (a
    /// dropped quant half is a cleared flag). `exact` asks for the plain
    /// f32 scan instead: a terminal slot answers exactly what its model
    /// would.
    fn slot_source(&self, slot: ModelSlot, exact: bool) -> Option<SlotSource<'_>> {
        let nprobe = self.config.pipeline.ann_nprobe;
        let ann = Some(&self.ann).filter(|_| !exact);
        let quant = |active: bool| self.quant.as_ref().filter(|_| active && !exact);
        Some(match slot {
            ModelSlot::Bpr => {
                let mut source = CfNeighboursSource::new(self.bpr.as_ref()?);
                if let Some(index) = ann.and_then(|a| a.cf.as_ref()) {
                    source = source.ivf(index, nprobe);
                }
                let cf = quant(self.quant_cf_active);
                if let Some((u, i)) = cf.and_then(|q| q.user_factors().zip(q.item_factors())) {
                    source = source.with_quant(u, i);
                }
                SlotSource::Cf(source)
            }
            ModelSlot::ClosestItems => {
                let mut source = ContentSimilarSource::new(self.closest.as_ref()?, &self.train);
                if let Some(index) = ann.and_then(|a| a.content.as_ref()) {
                    source = source.ivf(index, nprobe);
                }
                if let Some(rows) = quant(self.quant_content_active).and_then(|q| q.embeddings()) {
                    source = source.with_quant(rows);
                }
                SlotSource::Content(source)
            }
            ModelSlot::MostRead => {
                SlotSource::MostRead(MostReadSource::new(self.most_read.as_ref()?))
            }
            ModelSlot::Random => SlotSource::Random(&self.random),
        })
    }

    /// Asks `slot`'s breaker to admit a call, folding any state
    /// transition into the chunk stats. Always true with breakers off.
    fn breaker_admit(&self, slot: ModelSlot, stats: &mut ChunkStats) -> bool {
        let Some(breakers) = &self.breakers else {
            return true;
        };
        let now = self.config.clock.now();
        let (admitted, transition) =
            breakers.lock().unwrap_or_else(PoisonError::into_inner)[slot.index()].admit(now);
        self.count_transition(transition, slot, stats);
        admitted
    }

    /// Reports a successful slot call to its breaker.
    fn breaker_success(&self, slot: ModelSlot, stats: &mut ChunkStats) {
        if let Some(breakers) = &self.breakers {
            let transition = breakers.lock().unwrap_or_else(PoisonError::into_inner)[slot.index()]
                .record_success();
            self.count_transition(transition, slot, stats);
        }
    }

    /// Reports a failed slot call (panic, timeout, injected error) to
    /// its breaker.
    fn breaker_failure(&self, slot: ModelSlot, stats: &mut ChunkStats) {
        if let Some(breakers) = &self.breakers {
            let now = self.config.clock.now();
            let transition = breakers.lock().unwrap_or_else(PoisonError::into_inner)[slot.index()]
                .record_failure(now);
            self.count_transition(transition, slot, stats);
        }
    }

    /// Folds a breaker state transition into the chunk counters and
    /// emits a `breaker_transition` trace event.
    fn count_transition(
        &self,
        transition: Option<Transition>,
        slot: ModelSlot,
        stats: &mut ChunkStats,
    ) {
        let Some(t) = transition else { return };
        match t {
            Transition::Opened => stats.breaker_opened[slot.index()] += 1,
            Transition::HalfOpened => stats.breaker_half_open[slot.index()] += 1,
            Transition::Closed => stats.breaker_closed[slot.index()] += 1,
        }
        self.config.tracer.event("breaker_transition", |f| {
            f.push("slot", slot.metric_label()).push("to", t.label());
        });
    }

    /// The brownout ladder's current level ([`DegradationLevel::Full`]
    /// whenever overload control is disabled).
    #[must_use]
    pub fn degradation_level(&self) -> DegradationLevel {
        self.governor.as_ref().map_or(DegradationLevel::Full, |g| {
            g.lock().unwrap_or_else(PoisonError::into_inner).level()
        })
    }

    /// Admitted-but-unserved requests in the overload queue (`0` when
    /// overload control is disabled).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.governor.as_ref().map_or(0, |g| {
            g.lock().unwrap_or_else(PoisonError::into_inner).queue_len()
        })
    }

    /// Emits a ladder transition as a trace event (the counters live in
    /// the governor and surface through [`ServingEngine::metrics`]).
    fn note_transition(&self, t: LevelTransition) {
        self.config.tracer.event("degradation_transition", |f| {
            f.push("from", t.from.label()).push("to", t.to.label());
        });
    }

    fn note_shed(&self, reason: ShedReason, user: UserIdx) -> RecError {
        self.metrics.record_shed(reason);
        self.config.tracer.event("shed", |f| {
            f.push("reason", reason.metric_label()).push("user", user.0);
        });
        RecError::Shed(format!("{} (user {})", reason.metric_label(), user.0))
    }

    /// Offers a request to admission control. Accepted requests wait in
    /// the bounded queue until [`ServingEngine::serve_queued`] reaches
    /// them; rejected ones are shed up front — queue full, or remaining
    /// deadline budget already below the observed service cost.
    ///
    /// # Errors
    ///
    /// [`RecError::Shed`] when admission control rejects the request;
    /// [`RecError::Config`] when overload control is disabled.
    pub fn offer(&self, user: UserIdx, k: usize) -> Result<(), RecError> {
        self.offer_at(user, k, self.config.clock.now())
    }

    /// [`ServingEngine::offer`] for a request that arrived at `arrival`
    /// on the engine clock, possibly in the past: its queueing delay and
    /// sojourn count from then, not from the offer.
    ///
    /// # Errors
    ///
    /// As [`ServingEngine::offer`].
    pub fn offer_at(&self, user: UserIdx, k: usize, arrival: Duration) -> Result<(), RecError> {
        let Some(governor) = &self.governor else {
            return Err(RecError::Config(
                "admission control requires EngineConfig::overload".into(),
            ));
        };
        let outcome = governor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .offer(user, k, arrival);
        outcome.map_err(|reason| self.note_shed(reason, user))
    }

    /// Serves (or sheds) exactly one queued request — the head of the
    /// admission queue. Returns `None` when the queue is empty or
    /// overload control is disabled. Shed heads (CoDel episode, hopeless
    /// deadline) answer [`RecError::Shed`] without running any model;
    /// served heads run the pipeline at the governor's current brownout
    /// level, and their observed cost feeds the shedding estimate back.
    pub fn serve_queued(&self) -> Option<QueuedOutcome> {
        let governor = self.governor.as_ref()?;
        let now = self.config.clock.now();
        let (popped, transition) = governor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop(now)?;
        if let Some(t) = transition {
            self.note_transition(t);
        }
        let user = popped.request.user;
        let k = popped.request.k;
        if let Some(reason) = popped.shed {
            return Some(QueuedOutcome {
                user,
                k,
                result: Err(self.note_shed(reason, user)),
                level: self.degradation_level(),
                queue_delay: popped.delay,
                sojourn: popped.delay,
            });
        }
        let (level, simulated) = {
            let g = governor.lock().unwrap_or_else(PoisonError::into_inner);
            let level = g.level();
            (level, g.simulated_cost(level))
        };
        let t0 = self.config.clock.now();
        if let Some(cost) = simulated {
            self.config.clock.sleep(cost);
        }
        let books = self
            .serve_chunk_with(&[user], k, None, level)
            .pop()
            .unwrap_or_default();
        let served_at = self.config.clock.now();
        governor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record_cost(served_at.saturating_sub(t0));
        Some(QueuedOutcome {
            user,
            k,
            result: Ok(books),
            level,
            queue_delay: popped.delay,
            sojourn: served_at.saturating_sub(popped.request.arrival),
        })
    }

    /// Top-`k` books for `user`, served by the candidate pipeline with
    /// the fallback chain as its terminal stage. An unknown user (outside
    /// the training matrix) or `k = 0` gets an empty list, without any
    /// slot call. The call records latency, cache, and per-slot counters.
    pub fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
        // serve_chunk answers every request; an empty Vec here is
        // unreachable in practice, but the request path degrades to "no
        // recommendations" rather than aborting on an internal bug.
        self.serve_chunk(&[user], k).pop().unwrap_or_default()
    }

    /// [`ServingEngine::recommend`] plus the winning [`Candidate`] per
    /// recommended book — its provenance, rendered by
    /// [`Reason::render`](crate::pipeline::Reason::render) as "because
    /// you borrowed X" — aligned index-for-index with the returned list.
    /// Explained requests bypass the answer cache in both directions —
    /// cached lists carry no provenance — so they always exercise the
    /// pipeline; fault isolation, metrics, and the degraded fallback
    /// behave identically to [`ServingEngine::recommend`].
    #[must_use]
    pub fn recommend_explained(&self, user: UserIdx, k: usize) -> (Vec<u32>, Vec<Candidate>) {
        let mut explanations: Vec<Vec<Candidate>> = Vec::new();
        let level = self.degradation_level();
        let books = self
            .serve_chunk_with(&[user], k, Some(&mut explanations), level)
            .pop()
            .unwrap_or_default();
        (books, explanations.pop().unwrap_or_default())
    }

    /// Serves one worker's share of a batch (or a single request): the
    /// cache is probed once for the whole chunk, the candidate pipeline
    /// runs with the sources' batched entry points (which reuse one
    /// catalogue-sized buffer across the chunk), and the metrics mutex is
    /// taken once. Amortising the per-request overhead this way is what
    /// makes batched serving outrun single calls even on one core.
    fn serve_chunk(&self, users: &[UserIdx], k: usize) -> Vec<Vec<u32>> {
        self.serve_chunk_with(users, k, None, self.degradation_level())
    }

    /// [`ServingEngine::serve_chunk`] with optional per-user explanation
    /// capture. The chunk runs the pipeline in rounds, then its terminal
    /// stage, every slot call inside the one fault envelope (`run_slot`):
    ///
    /// 1. **Rounds** — a round runs the plan's next source slots over its
    ///    users, one attempt each; the first that emits is the primary.
    ///    Per user, the emissions so far are pooled best-first
    ///    (first-source-wins provenance), pruned by the configured
    ///    filters, and re-scored down to top-k by the primary's
    ///    [`SlotSource`], by the score it retrieves by. When that source
    ///    retrieves exhaustively ([`SlotSource::exhaustive`]: its emission
    ///    is its exact top-`pool_size` under those scores), the first
    ///    round asks it for its top k alone and stops at it. Users whose
    ///    full top k the filters thin below k ask it again, for
    ///    `pool_size`, in a round of their own; then every user still
    ///    short of k forms one more round, which runs the remaining
    ///    sources. For every other user the answer is what running every
    ///    source for `pool_size` would give: the top k is the prefix of
    ///    the top `pool_size` in the same order, each book a later source
    ///    adds ranks below every primary book, and the filters only look
    ///    backwards, so the filtered prefix holds the top-k (DESIGN.md
    ///    §15);
    /// 2. **Terminals** — users the rounds left empty try the plan's
    ///    terminal slots in order, each slot's exact-scan source
    ///    answering with its own top-k (one attempt per slot per chunk).
    ///
    /// When `explain` is `Some`, the cache is bypassed in both
    /// directions (cached answers carry no provenance) and the vector is
    /// filled with one explanation list per user, aligned with the
    /// returned answers.
    ///
    /// `level` is the brownout rung the chunk serves at
    /// (DESIGN.md §16) and selects its plan: [`DegradationLevel::Full`]
    /// runs everything exactly as configured; deeper levels prune
    /// expensive sources, then filters, then the pipeline itself, down
    /// to the most-read list. Degraded answers are never written to the
    /// cache — only full-service lists may outlive the brownout — and
    /// neither is any answer of a chunk in which a slot call failed (a
    /// panic, a timeout, an injected error or an open breaker), which
    /// would outlive the fault. A slot degraded at load is not a failed
    /// call: that state lasts the epoch the cache key carries.
    #[allow(clippy::too_many_lines)] // one request's full story reads best in one place
    fn serve_chunk_with(
        &self,
        users: &[UserIdx],
        k: usize,
        mut explain: Option<&mut Vec<Vec<Candidate>>>,
        level: DegradationLevel,
    ) -> Vec<Vec<u32>> {
        let tracer = &self.config.tracer;
        let span = tracer.span("serve_chunk");
        let t0 = self.config.clock.now();
        if let Some(ex) = explain.as_deref_mut() {
            ex.clear();
            ex.resize_with(users.len(), Vec::new);
        }
        // Every answer starts empty; a slot that serves a user fills it.
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); users.len()];
        let mut stats = ChunkStats::new(users.len() as u64, 0);
        let mut misses: Vec<usize> = Vec::with_capacity(users.len());
        let use_cache = self.config.cache_capacity > 0 && explain.is_none();
        if use_cache {
            let mut cache = self.lock_cache();
            for (i, &u) in users.iter().enumerate() {
                match cache.get(&(u.0, k, self.epoch)) {
                    Some(books) => {
                        out[i] = books.clone();
                        stats.hits += 1;
                    }
                    None => misses.push(i),
                }
            }
        } else {
            misses.extend(0..users.len());
        }
        tracer.event("cache_lookup", |f| {
            f.push("n", users.len())
                .push("hits", stats.hits)
                .push("epoch", self.epoch);
        });

        // Unknown users (outside the training matrix) and requests for
        // no books keep their empty answers without consulting any model.
        misses.retain(|&i| k > 0 && users[i].index() < self.train.n_users());

        let deadline = self
            .config
            .request_budget
            .map(|budget| Deadline::after(&*self.config.clock, budget));
        let plan = &self.plans[level.index()];
        let (mut expired, mut failed) = (false, false);
        // Chunk positions of the users the rounds leave empty: every miss
        // when the plan has no sources.
        let mut empty = misses.clone();

        // ---- Rounds: sources → merge → filters → rank -----------------
        // `unrun` holds the plan's sources still to run. `emitted[i]`
        // holds user i's emissions back to back, in source order: the
        // merge concatenates its inputs anyway, so merging that one slice
        // gives the same pool.
        if !empty.is_empty() && !plan.sources.is_empty() {
            let pool_size = self.config.pipeline.pool_size.max(k);
            let genres = self.config.pipeline.book_genres.as_deref();
            let mut emitted: Vec<Vec<Candidate>> = vec![Vec::new(); users.len()];
            let (mut pool, mut top, mut ranked) = (Vec::new(), TopK::new(1), Vec::new());
            let mut query = Vec::new();
            let mut unrun = plan.sources.as_slice();
            // The first source that emitted: its slot and its source.
            let mut primary = None;
            // Whether the round's users hold only the primary's top k.
            let mut narrow = false;
            let mut round = std::mem::take(&mut empty);
            // Users short of k, waiting for the later sources.
            let mut waiting = Vec::new();
            while !round.is_empty() {
                let pending: Vec<UserIdx> = round.iter().map(|&i| users[i]).collect();
                if let Some((slot, source)) = primary.filter(|_| narrow) {
                    // The filters thinned these users' top k below k: the
                    // primary's whole pool replaces it.
                    narrow = false;
                    let source = Some(source);
                    match self.run_slot(slot, source, &pending, pool_size, deadline, &mut stats) {
                        SlotRun::Emitted(candidates) => {
                            for (&i, emission) in round.iter().zip(candidates) {
                                emitted[i] = emission;
                            }
                        }
                        SlotRun::Skipped => {}
                        SlotRun::Failed => failed = true,
                        SlotRun::Expired => expired = true,
                    }
                } else {
                    while let Some((&slot, rest)) = unrun.split_first() {
                        unrun = rest;
                        let source = self.slot_source(slot, false);
                        // An exhaustive source asked before any has emitted
                        // is asked for its top k, the prefix of its top
                        // pool_size.
                        let lazy = primary.is_none() && source.is_some_and(|s| s.exhaustive());
                        let n = if lazy { k } else { pool_size };
                        match self.run_slot(slot, source, &pending, n, deadline, &mut stats) {
                            SlotRun::Emitted(candidates) => {
                                for (&i, emission) in round.iter().zip(candidates) {
                                    if emitted[i].is_empty() {
                                        emitted[i] = emission;
                                    } else {
                                        emitted[i].extend_from_slice(&emission);
                                    }
                                }
                                // Behind an exhaustive primary the later
                                // sources wait for the users it leaves short.
                                if primary.is_none() {
                                    primary = source.map(|source| (slot, source));
                                    if lazy {
                                        narrow = k < pool_size;
                                        break;
                                    }
                                }
                            }
                            SlotRun::Skipped => {}
                            SlotRun::Failed => failed = true,
                            SlotRun::Expired => {
                                expired = true;
                                break;
                            }
                        }
                    }
                }
                let Some((primary, source)) = primary.filter(|_| !expired) else {
                    // The deadline expired, or no source emitted: the
                    // round's users fall to the terminal stage. So do the
                    // users waiting for the later sources, whom only an
                    // expired deadline leaves here, uncounted by the call
                    // it cancelled.
                    if !waiting.is_empty() {
                        self.deadline_skip(waiting.len(), &mut stats);
                    }
                    empty.extend_from_slice(&round);
                    empty.append(&mut waiting);
                    break;
                };
                let mut widen = Vec::new();
                for &i in &round {
                    merge_into([emitted[i].as_slice()], &mut pool);
                    let user = users[i];
                    let ctx = FilterCtx {
                        user,
                        seen: self.train.seen(user),
                        genres,
                    };
                    if plan.filters {
                        for filter in &self.config.pipeline.filters {
                            filter.retain(&ctx, &mut pool);
                        }
                    }
                    // The primary ranks by the score it retrieves by; with
                    // the default single source this reproduces the legacy
                    // slot's own ranking bit-for-bit.
                    source.rank_into(user, &pool, k, &mut query, &mut top, &mut ranked);
                    if ranked.len() < k {
                        // A full top k the filters thinned asks the
                        // primary again; a short one already holds all
                        // the primary has.
                        if narrow && emitted[i].len() == k {
                            widen.push(i);
                            continue;
                        }
                        if !unrun.is_empty() {
                            waiting.push(i);
                            continue;
                        }
                    }
                    if ranked.is_empty() {
                        // Empty pool or everything filtered out: the
                        // terminal stage gets another shot at this user.
                        empty.push(i);
                        continue;
                    }
                    // Attribute the serve to the slot whose source proposed
                    // the winning (top-ranked) book.
                    let winner = pool.iter().find(|c| c.book == ranked[0]).map(|c| c.source);
                    stats.served[winner.map_or(primary, SourceId::slot).index()] += 1;
                    if let Some(ex) = explain.as_deref_mut() {
                        ex[i] = ranked
                            .iter()
                            .filter_map(|&b| pool.iter().find(|c| c.book == b).copied())
                            .collect();
                    }
                    out[i] = std::mem::take(&mut ranked);
                }
                // The thinned users ask the primary again in a round of
                // their own; then every user still short runs the later
                // sources, in one round.
                narrow = !widen.is_empty();
                round = if narrow {
                    widen
                } else {
                    std::mem::take(&mut waiting)
                };
            }
        }

        // ---- Terminals -------------------------------------------------
        // Users the rounds left empty take the first non-empty exact
        // top-k of the plan's terminal slots, in emission order,
        // re-stamped as that slot's fallback provenance. The rest keep
        // their empty answers, served by no slot.
        for &slot in &plan.terminals {
            if expired || empty.is_empty() {
                break;
            }
            let pending: Vec<UserIdx> = empty.iter().map(|&i| users[i]).collect();
            let source = self.slot_source(slot, true);
            let candidates = match self.run_slot(slot, source, &pending, k, deadline, &mut stats) {
                SlotRun::Emitted(candidates) => candidates,
                SlotRun::Skipped => continue,
                SlotRun::Failed => {
                    failed = true;
                    continue;
                }
                SlotRun::Expired => break,
            };
            let mut still_empty = Vec::new();
            for (&i, answer) in empty.iter().zip(&candidates) {
                if answer.is_empty() {
                    still_empty.push(i);
                    continue;
                }
                stats.served[slot.index()] += 1;
                if let Some(ex) = explain.as_deref_mut() {
                    ex[i] = answer
                        .iter()
                        .map(|c| Candidate {
                            source: SourceId::Fallback(slot),
                            ..*c
                        })
                        .collect();
                }
                out[i] = answer.iter().map(|c| c.book).collect();
            }
            empty = still_empty;
        }

        if use_cache && !failed && !misses.is_empty() && level == DegradationLevel::Full {
            let mut cache = self.lock_cache();
            for &i in &misses {
                if !out[i].is_empty() {
                    cache.insert((users[i].0, k, self.epoch), out[i].clone());
                }
            }
        }

        stats.elapsed = self.config.clock.now().saturating_sub(t0);
        self.metrics.record_chunk(&stats);
        span.finish(|f| {
            f.push("n", users.len())
                .push("hits", stats.hits)
                .push("deadline_skips", stats.deadline_skips);
            // Full service is the steady state; only brownout is news.
            if level != DegradationLevel::Full {
                f.push("level", level.label());
            }
        });
        out
    }

    /// Counts `skipped` users answered empty because the request deadline
    /// expired, in `deadline_skips` and in one `deadline_expired` trace
    /// event, so the trace sums to the metric.
    fn deadline_skip(&self, skipped: usize, stats: &mut ChunkStats) {
        stats.deadline_skips += skipped as u64;
        self.config.tracer.event("deadline_expired", |f| {
            f.push("skipped", skipped);
        });
    }

    /// The fault envelope around one slot call, source or terminal, over
    /// the chunk's `pending` users — the only one on the serving path.
    /// In order: the request deadline, a degraded slot, breaker
    /// admission, fault injection, panic isolation, and the slot budget,
    /// each call ending in one `slot_call` trace event. `source` is the
    /// slot's source as the caller built it (`None`: the slot is
    /// degraded); `n` caps each user's emission. The users of a skipped
    /// or failed call, and those a healthy source had nothing for, count
    /// as fallbacks of the slot.
    fn run_slot(
        &self,
        slot: ModelSlot,
        source: Option<SlotSource<'_>>,
        pending: &[UserIdx],
        n: usize,
        deadline: Option<Deadline>,
        stats: &mut ChunkStats,
    ) -> SlotRun {
        let tracer = &self.config.tracer;
        if deadline.is_some_and(|d| d.expired(&*self.config.clock)) {
            self.deadline_skip(pending.len(), stats);
            return SlotRun::Expired;
        }
        let fall_through =
            |stats: &mut ChunkStats, outcome: &'static str, elapsed: Option<Duration>| {
                stats.fallbacks[slot.index()] += pending.len() as u64;
                tracer.event("slot_call", |f| {
                    f.push("slot", slot.metric_label())
                        .push("requests", pending.len())
                        .push("outcome", outcome);
                    if let Some(elapsed) = elapsed {
                        f.push("elapsed_ns", elapsed.as_nanos() as u64);
                    }
                });
                SlotRun::Failed
            };
        let Some(source) = source else {
            fall_through(stats, "degraded", None);
            return SlotRun::Skipped;
        };
        if !self.breaker_admit(slot, stats) {
            stats.breaker_skips[slot.index()] += 1;
            return fall_through(stats, "breaker_open", None);
        }
        // The budget clock starts before fault injection so injected
        // latency counts against the slot like real slowness would.
        let started = self.config.slot_budget.map(|_| self.config.clock.now());
        #[cfg(feature = "testing")]
        let injected = self.faults.on_call(slot);
        #[cfg(feature = "testing")]
        {
            if let Some(d) = injected.latency {
                self.config.clock.sleep(d);
            }
            if injected.error {
                self.breaker_failure(slot, stats);
                return fall_through(stats, "injected_error", None);
            }
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(feature = "testing")]
            if injected.panic {
                panic!("injected fault: {} slot panic", slot.label());
            }
            let mut candidates: Vec<Vec<Candidate>> = Vec::new();
            source.emit_batch(pending, n, &mut candidates);
            candidates
        }));
        let Ok(candidates) = outcome else {
            // The slot panicked: isolate it, let its users fall through,
            // and let the breaker see a failure.
            stats.panics[slot.index()] += 1;
            self.breaker_failure(slot, stats);
            return fall_through(stats, "panic", None);
        };
        if let (Some(budget), Some(started)) = (self.config.slot_budget, started) {
            let elapsed = self.config.clock.now().saturating_sub(started);
            if elapsed > budget {
                // Too slow: cut the slot off (its candidates are
                // discarded) and move on.
                stats.timeouts[slot.index()] += 1;
                self.breaker_failure(slot, stats);
                return fall_through(stats, "timeout", Some(elapsed));
            }
        }
        self.breaker_success(slot, stats);
        // A healthy slot with nothing to say for a user (e.g. content
        // similarity on an empty history) lets that user fall through.
        let empty = candidates.iter().filter(|c| c.is_empty()).count();
        stats.fallbacks[slot.index()] += empty as u64;
        tracer.event("slot_call", |f| {
            f.push("slot", slot.metric_label())
                .push("requests", pending.len())
                .push("outcome", "ok")
                .push("served", candidates.len() - empty);
        });
        SlotRun::Emitted(candidates)
    }

    /// [`ServingEngine::recommend`] for a batch of users, fanned out over
    /// [`EngineConfig::workers`] scoped threads. Answers come back in
    /// request order and are byte-identical to single calls.
    pub fn recommend_batch(&self, users: &[UserIdx], k: usize) -> Vec<Vec<u32>> {
        let workers = self.config.workers.max(1).min(users.len().max(1));
        if workers <= 1 {
            return self.serve_chunk(users, k);
        }
        let chunk = users.len().div_ceil(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = users
                .chunks(chunk)
                .map(|part| (s.spawn(move || self.serve_chunk(part, k)), part.len()))
                .collect();
            handles
                .into_iter()
                .flat_map(|(h, len)| match h.join() {
                    Ok(answers) => answers,
                    // Slot panics are already isolated inside
                    // serve_chunk, so this is a harness bug — but one
                    // poisoned chunk must degrade to empty answers, not
                    // take the rest of the batch (and the process) down.
                    Err(_) => {
                        self.metrics.record_worker_panic(len as u64);
                        self.config.tracer.event("worker_panic", |f| {
                            f.push("requests", len);
                        });
                        vec![Vec::new(); len]
                    }
                })
                .collect()
        })
    }
}
