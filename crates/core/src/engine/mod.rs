//! Simulation engines.
//!
//! Two independent implementations of the same model semantics:
//!
//! * [`DesEngine`] — a discrete-event engine with lazy sampling: every
//!   slot's next event lives in a small per-slot state machine and the
//!   loop repeatedly processes the globally earliest event.
//! * [`TimelineEngine`] — the paper's Figure 5 procedure: each slot's
//!   operational renewal timeline (TTF/TTR sequence) is generated up
//!   front, the failure events are swept in time order, and the
//!   latent-defect processes are advanced lazily to each failure time
//!   for the pairwise overlap comparisons.
//!
//! Both enforce the DDF rules of paper Sections 4.2 and 5 (documented on
//! [`ddf`]); the `engine_equivalence` integration test checks that their
//! estimates agree statistically on every experiment configuration.

mod des;
mod timeline;

pub mod ddf;

pub use des::DesEngine;
pub use timeline::TimelineEngine;

use crate::config::RaidGroupConfig;
use crate::events::GroupHistory;
use raidsim_dists::kernel::{DrawSource, Forcing, Tilt};
use raidsim_dists::rng::SimRng;
use raidsim_dists::{KernelCache, SampleKernel};

/// A change of sampling measure applied to an engine session's lifetime
/// draws — the importance-sampling knob for rare-event acceleration.
///
/// The simulated *model* is untouched; only the distribution the draws
/// come from changes, and each session accumulates the group's
/// log-likelihood-ratio into [`GroupHistory::log_weight`] so weighted
/// estimators remain unbiased under the original measure (see
/// DESIGN.md §16 for the algebra).
///
/// Two families are provided. [`BiasPolicy::HazardTilt`] is
/// state-independent — every TTOp/TTLd draw is exponentially tilted,
/// so the likelihood ratio is a product over draws regardless of the
/// path taken — which makes it cheap to reason about but weak on
/// genuinely rare events: each tilted draw adds weight noise whether
/// or not it matters to the outcome. [`BiasPolicy::ForcedCritical`] is
/// state-*dependent*: it intervenes only when a group reaches the
/// critical boundary (one more failure from data loss), conditionally
/// resampling the surviving clean drives' pending failure times with a
/// window-forcing warp whose likelihood ratio is exactly two-valued
/// (see [`Forcing`]), so weight noise stays bounded while the DDF rate
/// under the sampling measure rises by orders of magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BiasPolicy {
    /// Plain Monte Carlo: every group has weight exactly 1.
    #[default]
    None,
    /// Exponential tilting of the time-to-operational-failure and
    /// time-to-latent-defect draws (see [`Tilt`]). Positive strengths
    /// shift those lifetimes *earlier*, making double-disk failures
    /// common under the sampling measure; restore and scrub draws are
    /// never tilted. A strength of `0.0` leaves that draw family
    /// untilted.
    HazardTilt {
        /// Tilt strength for operational-failure (TTOp) draws.
        op_theta: f64,
        /// Tilt strength for latent-defect (TTLd) draws.
        latent_theta: f64,
    },
    /// Forced failure coincidence at the critical boundary: whenever a
    /// degrading event (operational failure or defect exposure) leaves
    /// the group exactly one clean-drive failure away from a DDF, every
    /// surviving clean drive's pending failure time is conditionally
    /// resampled — valid because the discarded value has influenced
    /// the path only through having not yet occurred — and the
    /// resample is forced into the next `window_hours` with mixture
    /// weight `fraction` (see [`Forcing`]). Supported by the
    /// discrete-event engine only; the timeline engine's up-front
    /// trajectory construction cannot intervene mid-path.
    ForcedCritical {
        /// Mixture weight on the forced component, in `(0, 0.5]`.
        fraction: f64,
        /// Width of the forcing window after the trigger, hours.
        window_hours: f64,
    },
}

impl BiasPolicy {
    /// The tilt applied to TTOp draws, if any.
    pub fn op_tilt(&self) -> Option<Tilt> {
        match self {
            BiasPolicy::HazardTilt { op_theta, .. } => tilt_for(*op_theta),
            BiasPolicy::None | BiasPolicy::ForcedCritical { .. } => None,
        }
    }

    /// The tilt applied to TTLd draws, if any.
    pub fn latent_tilt(&self) -> Option<Tilt> {
        match self {
            BiasPolicy::HazardTilt { latent_theta, .. } => tilt_for(*latent_theta),
            BiasPolicy::None | BiasPolicy::ForcedCritical { .. } => None,
        }
    }

    /// The critical-boundary forcing warp and its window, if this
    /// policy forces.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range fraction or window — the same
    /// conditions [`BiasPolicy::validate`] rejects.
    pub fn forced_critical(&self) -> Option<(Forcing, f64)> {
        match self {
            BiasPolicy::None | BiasPolicy::HazardTilt { .. } => None,
            BiasPolicy::ForcedCritical {
                fraction,
                window_hours,
            } => {
                let forcing = match Forcing::new(*fraction) {
                    Ok(f) => f,
                    Err(e) => panic!("invalid forcing fraction: {e:?}"),
                };
                assert!(
                    window_hours.is_finite() && *window_hours > 0.0,
                    "forcing window must be finite and positive, got {window_hours}"
                );
                Some((forcing, *window_hours))
            }
        }
    }

    /// `true` when the policy changes no draw (weight is exactly 1 for
    /// every group).
    pub fn is_unbiased(&self) -> bool {
        self.op_tilt().is_none()
            && self.latent_tilt().is_none()
            && !matches!(self, BiasPolicy::ForcedCritical { .. })
    }

    /// Validates the policy parameters.
    ///
    /// # Panics
    ///
    /// Panics if a tilt strength is non-finite (a NaN tilt would poison
    /// every weight downstream), if a forcing fraction lies outside
    /// `(0, 0.5]` (the bound that keeps accumulated forced log-weights
    /// inside the exact fixed-point range — see DESIGN.md §16), or if a
    /// forcing window is not finite and positive.
    pub fn validate(&self) {
        match self {
            BiasPolicy::None => {}
            BiasPolicy::HazardTilt {
                op_theta,
                latent_theta,
            } => {
                assert!(
                    op_theta.is_finite() && latent_theta.is_finite(),
                    "tilt strengths must be finite, got op {op_theta}, latent {latent_theta}"
                );
            }
            BiasPolicy::ForcedCritical { .. } => {
                // Shares the range checks with the accessor.
                let _ = self.forced_critical();
            }
        }
    }
}

/// `theta == 0` means "leave this draw family untilted".
fn tilt_for(theta: f64) -> Option<Tilt> {
    Tilt::new(theta).ok()
}

/// Performance tuning for an engine session — a knob that must never
/// change *what* is simulated, only how fast.
///
/// `block_draws` (default **on**) lets sessions draw ahead of demand:
/// every lazy draw of both engines — the event loop, the timeline
/// engine's renewal chains and its lazy latent-defect chains — reads
/// through a prefetching, rewindable
/// [`DrawCursor`](raidsim_dists::rng::DrawCursor). Each session also
/// computes its TTOp kernel's horizon cut
/// ([`SampleKernel::horizon_cut`]) for the mission once at open, when
/// TTOp draws are untilted: a mission-start TTOp draw whose uniform
/// lies beyond the cut still consumes its word but skips the quantile,
/// since a lifetime beyond the mission is never observed. Both are
/// bit-identical in the results to the scalar path and leave the
/// caller's RNG on the same word, so this is purely an A/B lever for
/// benchmarks; `block_draws: false` is the cursor-free, cut-free
/// scalar path the equivalence tests use as their oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTuning {
    /// Prefetch every lazy draw and skip the quantile of mission-start
    /// TTOp draws beyond the horizon.
    pub block_draws: bool,
}

impl Default for SessionTuning {
    fn default() -> Self {
        SessionTuning { block_draws: true }
    }
}

/// Draws from `kernel`, tilted when a tilt is present (accumulating the
/// draw's log-likelihood-ratio into `log_weight`), plain otherwise.
///
/// The `None` arm is a plain draw ([`DrawSource::plain`]), so unbiased
/// sessions keep their bit-identity contract.
#[inline]
pub(crate) fn draw<R: DrawSource>(
    kernel: &SampleKernel,
    tilt: Option<Tilt>,
    log_weight: &mut f64,
    rng: &mut R,
) -> f64 {
    match tilt {
        Some(t) => kernel.sample_tilted(t, log_weight, rng),
        None => rng.plain(kernel),
    }
}

/// A simulation engine: produces one RAID-group history per call.
///
/// Engines are stateless (all state lives on the stack of
/// [`Engine::simulate_group`]), so a single engine value can be shared
/// across threads by the batch runner.
///
/// # Example
///
/// ```
/// use raidsim_core::config::RaidGroupConfig;
/// use raidsim_core::engine::{DesEngine, Engine};
/// use raidsim_dists::rng::stream;
///
/// # fn main() -> Result<(), raidsim_core::CoreError> {
/// let cfg = RaidGroupConfig::paper_base_case()?;
/// let mut rng = stream(42, 0);
/// let history = DesEngine::new().simulate_group(&cfg, &mut rng);
/// history.assert_invariants(cfg.mission_hours);
/// # Ok(())
/// # }
/// ```
pub trait Engine: std::fmt::Debug + Send + Sync {
    /// Simulates one RAID group over its mission and returns its
    /// history.
    ///
    /// The caller supplies the RNG; the batch runner derives one
    /// deterministic stream per group index so results do not depend on
    /// thread scheduling.
    fn simulate_group(&self, cfg: &RaidGroupConfig, rng: &mut SimRng) -> GroupHistory;

    /// Human-readable engine name for reports.
    fn name(&self) -> &'static str;

    /// Opens a sampling session for repeated group simulations against
    /// one configuration: [`Engine::session_tuned_cached`] under the
    /// default tuning and a fresh kernel cache.
    ///
    /// A session owns per-worker scratch (slot vectors, timeline
    /// buffers, the output history) and the monomorphic sampling
    /// kernels lowered from the configuration's distributions, so the
    /// steady-state group loop allocates nothing. Sessions are **not**
    /// `Send`: the executor keeps one per (worker, scenario) for the
    /// whole run.
    ///
    /// The contract is bit-identity: for any RNG state and
    /// `BiasPolicy::None`, `session.simulate_group(rng)` must return
    /// exactly the history [`Engine::simulate_group`] would have
    /// produced from the same state. Under a biasing policy the session
    /// samples from the tilted measure instead and must record the
    /// group's log-likelihood-ratio in [`GroupHistory::log_weight`];
    /// determinism per `(seed, policy)` still holds, but bit-identity
    /// with the unbiased draws does not (the whole point is to visit
    /// different paths).
    ///
    /// # Panics
    ///
    /// As [`Engine::session_tuned_cached`].
    fn session<'a>(
        &'a self,
        cfg: &'a RaidGroupConfig,
        bias: BiasPolicy,
    ) -> Box<dyn EngineSession + 'a> {
        self.session_tuned(cfg, bias, SessionTuning::default())
    }

    /// [`Engine::session`] with explicit performance tuning
    /// ([`SessionTuning`]): [`Engine::session_tuned_cached`] with a
    /// fresh kernel cache.
    ///
    /// Under the default tuning the returned session is **identical**
    /// to [`Engine::session`]'s: the default prefetched path is
    /// draw-for-draw bit-identical to the scalar path, so there is no
    /// behavioral difference to opt out of. `block_draws: false` forces
    /// the scalar path (the benchmark A/B lever).
    ///
    /// # Panics
    ///
    /// As [`Engine::session_tuned_cached`].
    fn session_tuned<'a>(
        &'a self,
        cfg: &'a RaidGroupConfig,
        bias: BiasPolicy,
        tuning: SessionTuning,
    ) -> Box<dyn EngineSession + 'a> {
        self.session_tuned_cached(cfg, bias, tuning, &mut KernelCache::new())
    }

    /// The one session constructor engines implement: a session under
    /// `bias` and `tuning` whose kernel lowering is memoized in
    /// `kernels`.
    ///
    /// The executor keeps one [`KernelCache`] per worker, so a
    /// distribution tree shared by several scenarios (a scrub ladder
    /// varies one knob) lowers once per worker (by `Arc` identity), not
    /// once per session. Cached lowering returns clones of the same
    /// kernels a fresh lowering would build, so the session is
    /// draw-for-draw bit-identical whichever cache it was opened with —
    /// the cache may never change what is simulated, only how fast
    /// sessions open.
    ///
    /// The default implementation delegates to
    /// [`Engine::simulate_group`] per call (correct for any engine,
    /// but allocating — it reports one `loop_allocs` per group),
    /// ignores the tuning and the cache, and supports only
    /// [`BiasPolicy::None`].
    ///
    /// # Panics
    ///
    /// The default implementation panics when `bias` changes any draw,
    /// because it cannot thread the measure change into
    /// [`Engine::simulate_group`].
    fn session_tuned_cached<'a>(
        &'a self,
        cfg: &'a RaidGroupConfig,
        bias: BiasPolicy,
        tuning: SessionTuning,
        kernels: &mut KernelCache,
    ) -> Box<dyn EngineSession + 'a> {
        let _ = (tuning, kernels);
        assert!(
            bias.is_unbiased(),
            "engine {} has no biased session support",
            self.name()
        );
        Box::new(OneShotSession {
            simulate: move |rng: &mut SimRng| self.simulate_group(cfg, rng),
            last: GroupHistory::default(),
            counters: EngineCounters::default(),
        })
    }
}

/// A per-worker simulation session: scratch buffers plus lowered
/// sampling kernels, reused across every group the worker simulates.
///
/// Obtained from [`Engine::session`]; see that method for the
/// bit-identity contract.
pub trait EngineSession: std::fmt::Debug {
    /// Simulates one group and returns a reference to the session's
    /// internal history buffer. The buffer is overwritten by the next
    /// call — clone it to keep the history.
    fn simulate_group(&mut self, rng: &mut SimRng) -> &GroupHistory;

    /// Work counters accumulated since the session was opened.
    fn counters(&self) -> EngineCounters;
}

/// Work counters accumulated by an [`EngineSession`].
///
/// All counts are exact and deterministic for a given `(config, group
/// set)` — they do not depend on thread scheduling — **except**
/// `scratch_grows`, which depends on the order a worker happens to see
/// expensive groups (a worker that meets the worst group first grows
/// once; one that warms up gradually grows several times).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Groups simulated.
    pub groups: u64,
    /// Distribution sampling calls issued by the engine (conditional
    /// and unconditional alike; composite distributions count as one
    /// call, and a [`raidsim_dists::Degenerate`] call counts even
    /// though it consumes no RNG words).
    pub samples_drawn: u64,
    /// Simulation events processed: discrete events handled by the
    /// event loop, or failure events swept by the timeline engine.
    pub events: u64,
    /// Fresh heap allocations performed per group by the steady-state
    /// loop. Structurally zero for the scratch-reusing sessions; the
    /// one-shot compatibility session reports one per group (its
    /// freshly built history).
    pub loop_allocs: u64,
    /// Times a reusable scratch buffer had to grow its capacity (a
    /// group needed more room than any previous group). Amortized to
    /// zero as the session warms up; reported for diagnostics, not
    /// asserted.
    pub scratch_grows: u64,
}

impl EngineCounters {
    /// Accumulates another session's counters into this one.
    pub fn merge(&mut self, other: EngineCounters) {
        self.groups += other.groups;
        self.samples_drawn += other.samples_drawn;
        self.events += other.events;
        self.loop_allocs += other.loop_allocs;
        self.scratch_grows += other.scratch_grows;
    }
}

/// Compatibility session behind the default
/// [`Engine::session_tuned_cached`]: each
/// call delegates to [`Engine::simulate_group`] and stores the result
/// so a reference can be returned.
struct OneShotSession<F> {
    simulate: F,
    last: GroupHistory,
    counters: EngineCounters,
}

impl<F> std::fmt::Debug for OneShotSession<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OneShotSession")
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(&mut SimRng) -> GroupHistory> EngineSession for OneShotSession<F> {
    fn simulate_group(&mut self, rng: &mut SimRng) -> &GroupHistory {
        self.last = (self.simulate)(rng);
        self.counters.groups += 1;
        // The freshly collected history is the allocation this
        // compatibility path cannot avoid.
        self.counters.loop_allocs += 1;
        &self.last
    }

    fn counters(&self) -> EngineCounters {
        self.counters
    }
}
