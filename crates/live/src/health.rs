//! Component supervision: health state machines, heartbeats, and the
//! journal-failure policy.
//!
//! The live runtime is a small federation of threads — journal writer,
//! granter, trace collector, stats pump — any of which can stall or die
//! while the rest keep serving. This module gives each one a tiny
//! observable state machine (Healthy → Degraded → Failed) on a shared
//! [`HealthBoard`]:
//!
//! * **Heartbeats.** Every supervised thread calls
//!   [`HealthBoard::beat`] from its main loop. A component that has
//!   never beaten is *unarmed* and is left alone — construction order
//!   and optional components need no special-casing.
//! * **The supervisor** (spawned inside the load generator's scope)
//!   sweeps the board a few times per heartbeat deadline: an armed
//!   component whose beat goes stale is marked Degraded; when beats
//!   resume it is marked Healthy again. The supervisor never touches
//!   Failed — that transition belongs to the component itself (today:
//!   the journal writer after its retry budget is exhausted), and so
//!   does the Failed → Healthy recovery edge.
//! * **Policy.** When the journal writer fails persistently it calls
//!   [`HealthBoard::journal_failed`], which enacts the operator-chosen
//!   [`OnJournalFail`] policy: `degrade` suspends durability and keeps
//!   admitting (dropped batches are counted, and recovery folds books
//!   from surviving records, so conservation is exact by construction);
//!   `halt` closes admissions so the run finishes cleanly; `exit`
//!   additionally requests a distinct process exit code.
//!
//! State changes shadow into registered telemetry (one gauge per
//! component, 0/1/2 = healthy/degraded/failed, plus degradation
//! counters) when a handle is attached, so health is visible in
//! `ta-stats/v2` lines, the obs plane, and `live-top`.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ta_telemetry::{mono_ns, Handle as TelemetryHandle};

use crate::telem::{c, g};

/// The longest a helper that heartbeats waits between two beats, whatever
/// its next duty: the granter on long rounds, the stats pump between
/// distant stdout and `WATCH` deadlines. Well inside the supervisor's
/// 300 ms heartbeat deadline.
pub(crate) const BEAT_EVERY: Duration = Duration::from_millis(50);

/// A supervised runtime component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// The group-commit journal writer thread (`ta-journal`).
    JournalWriter = 0,
    /// The granter sweep thread (`ta-granter`).
    Granter = 1,
    /// The trace collector (`ta-trace`).
    TraceBus = 2,
    /// The stats pump (`ta-stats`).
    StatsPump = 3,
}

/// All supervised components, in gauge-slot order.
pub const COMPONENTS: [Component; 4] = [
    Component::JournalWriter,
    Component::Granter,
    Component::TraceBus,
    Component::StatsPump,
];

impl Component {
    /// Stable lowercase name (stats `health` section key).
    pub fn name(self) -> &'static str {
        match self {
            Component::JournalWriter => "journal_writer",
            Component::Granter => "granter",
            Component::TraceBus => "trace_bus",
            Component::StatsPump => "stats_pump",
        }
    }

    fn gauge(self) -> usize {
        match self {
            Component::JournalWriter => g::HEALTH_JOURNAL_WRITER,
            Component::Granter => g::HEALTH_GRANTER,
            Component::TraceBus => g::HEALTH_TRACE_BUS,
            Component::StatsPump => g::HEALTH_STATS_PUMP,
        }
    }
}

/// One component's condition. Ordered by severity; the numeric value is
/// what the per-component health gauge reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Beating on schedule, no failure outstanding.
    Healthy = 0,
    /// Missed its heartbeat deadline (or is retrying through errors);
    /// expected to recover on its own.
    Degraded = 1,
    /// Declared itself broken (e.g. the journal writer exhausted its
    /// retry budget); only the component clears this.
    Failed = 2,
}

impl HealthState {
    /// Stable lowercase name (stats `health` section value).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Failed => "failed",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::Failed,
        }
    }
}

/// What the runtime does when the journal writer fails persistently
/// (`--on-journal-fail`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OnJournalFail {
    /// Keep admitting with durability suspended; drop-and-count journal
    /// batches; restart the writer onto a fresh segment when the disk
    /// recovers. Conservation on recovery stays exact because books are
    /// folded from the same surviving records as the balances.
    #[default]
    Degrade,
    /// Refuse new admissions but finish the run cleanly (workers drain
    /// and exit; reports and recovery still run).
    Halt,
    /// Like halt, but the process exits with a distinct code
    /// (`EXIT_JOURNAL_FAIL`) so harnesses can tell journal death from a
    /// clean run.
    Exit,
}

impl OnJournalFail {
    /// Parses a `--on-journal-fail` value.
    ///
    /// # Errors
    ///
    /// A human-readable message for anything but
    /// `degrade`/`halt`/`exit`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "degrade" => Ok(OnJournalFail::Degrade),
            "halt" => Ok(OnJournalFail::Halt),
            "exit" => Ok(OnJournalFail::Exit),
            other => Err(format!(
                "unknown --on-journal-fail policy `{other}` (expected degrade, halt, or exit)"
            )),
        }
    }
}

impl std::fmt::Display for OnJournalFail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OnJournalFail::Degrade => "degrade",
            OnJournalFail::Halt => "halt",
            OnJournalFail::Exit => "exit",
        })
    }
}

/// One component's cell on the board: current state plus the timestamp
/// of its last heartbeat (0 = never armed).
#[derive(Debug, Default)]
struct Cell {
    state: AtomicU8,
    beat_ns: AtomicU64,
}

/// The shared health board: per-component state machines, runtime-wide
/// degradation switches, and the journal failure policy.
///
/// Cheap to share (`Arc`), lock-free, and safe to poke from any thread.
/// All methods are idempotent — the writer may re-announce a failure it
/// already reported, the supervisor may re-confirm Healthy every sweep —
/// and telemetry deltas are emitted exactly once per actual transition.
#[derive(Debug)]
pub struct HealthBoard {
    cells: [Cell; 4],
    policy: OnJournalFail,
    admission_open: AtomicBool,
    durability_suspended: AtomicBool,
    abort_requested: AtomicBool,
    granter_stall_armed: AtomicBool,
    telem: OnceLock<TelemetryHandle>,
}

impl HealthBoard {
    /// A fresh board: every component Healthy, admissions open,
    /// durability on.
    pub fn new(policy: OnJournalFail) -> Arc<Self> {
        Arc::new(HealthBoard {
            cells: Default::default(),
            policy,
            admission_open: AtomicBool::new(true),
            durability_suspended: AtomicBool::new(false),
            abort_requested: AtomicBool::new(false),
            granter_stall_armed: AtomicBool::new(false),
            telem: OnceLock::new(),
        })
    }

    /// The configured journal failure policy.
    pub fn policy(&self) -> OnJournalFail {
        self.policy
    }

    /// Attaches a telemetry handle (control lane); health transitions
    /// shadow into gauges/counters from then on. First attach wins.
    pub fn attach_telemetry(&self, handle: TelemetryHandle) {
        let _ = self.telem.set(handle);
    }

    /// Records a heartbeat for `component`. Called from the component's
    /// main loop; the first call arms supervision for it.
    pub fn beat(&self, component: Component) {
        self.cells[component as usize]
            .beat_ns
            .store(mono_ns().max(1), Ordering::Release);
    }

    /// Nanosecond timestamp of the last heartbeat (0 = never armed).
    pub fn last_beat_ns(&self, component: Component) -> u64 {
        self.cells[component as usize]
            .beat_ns
            .load(Ordering::Acquire)
    }

    /// Current state of `component`.
    pub fn state(&self, component: Component) -> HealthState {
        HealthState::from_u8(self.cells[component as usize].state.load(Ordering::Acquire))
    }

    /// Moves `component` to `new`, shadowing the transition into
    /// telemetry. Returns the previous state. No-op when already there.
    pub fn set_state(&self, component: Component, new: HealthState) -> HealthState {
        let cell = &self.cells[component as usize];
        let old = HealthState::from_u8(cell.state.swap(new as u8, Ordering::AcqRel));
        if old != new {
            if let Some(t) = self.telem.get() {
                t.gauge_add(component.gauge(), new as i64 - old as i64);
                if new > old {
                    t.incr(c::HEALTH_DEGRADATIONS);
                }
            }
        }
        old
    }

    /// Supervisor edge: marks an armed component Degraded when its beat
    /// is stale, Healthy when beats resumed — never touching Failed,
    /// which the component owns. `now_ns`/`deadline_ns` are passed in so
    /// the sweep uses one clock read.
    pub fn supervise_beat(&self, component: Component, now_ns: u64, deadline_ns: u64) {
        let beat = self.last_beat_ns(component);
        if beat == 0 {
            return; // never armed
        }
        let stale = now_ns.saturating_sub(beat) > deadline_ns;
        match self.state(component) {
            HealthState::Healthy if stale => {
                self.set_state(component, HealthState::Degraded);
            }
            HealthState::Degraded if !stale => {
                self.set_state(component, HealthState::Healthy);
            }
            _ => {}
        }
    }

    /// Whether workers may admit new requests.
    pub fn admission_open(&self) -> bool {
        self.admission_open.load(Ordering::Acquire)
    }

    /// Whether durability is currently suspended (degrade policy after
    /// a persistent journal failure, until the writer restarts).
    pub fn durability_suspended(&self) -> bool {
        self.durability_suspended.load(Ordering::Acquire)
    }

    /// Whether the exit policy fired (the process should exit with
    /// `EXIT_JOURNAL_FAIL` after finishing cleanly).
    pub fn abort_requested(&self) -> bool {
        self.abort_requested.load(Ordering::Acquire)
    }

    /// The journal writer's escalation point: marks it Failed and
    /// enacts the configured policy. Idempotent.
    pub fn journal_failed(&self) {
        self.set_state(Component::JournalWriter, HealthState::Failed);
        match self.policy {
            OnJournalFail::Degrade => {
                if !self.durability_suspended.swap(true, Ordering::AcqRel) {
                    if let Some(t) = self.telem.get() {
                        t.gauge_add(g::DURABILITY_SUSPENDED, 1);
                    }
                }
            }
            OnJournalFail::Halt => {
                self.admission_open.store(false, Ordering::Release);
            }
            OnJournalFail::Exit => {
                self.admission_open.store(false, Ordering::Release);
                self.abort_requested.store(true, Ordering::Release);
            }
        }
    }

    /// The journal writer's recovery point: a fresh segment is open and
    /// committing again. Resumes durability and marks the writer
    /// Healthy. Idempotent.
    pub fn journal_recovered(&self) {
        if self.durability_suspended.swap(false, Ordering::AcqRel) {
            if let Some(t) = self.telem.get() {
                t.gauge_add(g::DURABILITY_SUSPENDED, -1);
            }
        }
        self.set_state(Component::JournalWriter, HealthState::Healthy);
    }

    /// Arms the one-shot `granter_stall` fault (consumed by the granter
    /// loop after its first sweep).
    pub fn arm_granter_stall(&self) {
        self.granter_stall_armed.store(true, Ordering::Release);
    }

    /// Consumes the `granter_stall` fault if armed (true exactly once).
    pub fn take_granter_stall(&self) -> bool {
        self.granter_stall_armed.swap(false, Ordering::AcqRel)
    }

    /// Counts a telemetry event on the attached handle, if any.
    pub(crate) fn count(&self, counter: usize) {
        if let Some(t) = self.telem.get() {
            t.incr(counter);
        }
    }

    /// Renders the `health` section of the stats line: a flat JSON
    /// object of stable strings (policy, per-component state, and the
    /// durability switch), e.g.
    /// `{"policy":"degrade","journal_writer":"healthy",...,"durability":"ok"}`.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"policy\":\"");
        out.push_str(&self.policy.to_string());
        out.push('"');
        for component in COMPONENTS {
            out.push_str(",\"");
            out.push_str(component.name());
            out.push_str("\":\"");
            out.push_str(self.state(component).name());
            out.push('"');
        }
        out.push_str(",\"durability\":\"");
        out.push_str(if self.durability_suspended() {
            "suspended"
        } else {
            "ok"
        });
        out.push_str("\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telem::LiveTelemetry;

    #[test]
    fn policy_parse_roundtrips_and_rejects_unknown() {
        for p in [
            OnJournalFail::Degrade,
            OnJournalFail::Halt,
            OnJournalFail::Exit,
        ] {
            assert_eq!(OnJournalFail::parse(&p.to_string()), Ok(p));
        }
        assert_eq!(OnJournalFail::default(), OnJournalFail::Degrade);
        let err = OnJournalFail::parse("panic").unwrap_err();
        assert!(err.contains("panic"), "{err}");
    }

    #[test]
    fn states_order_by_severity_and_name_stably() {
        assert!(HealthState::Healthy < HealthState::Degraded);
        assert!(HealthState::Degraded < HealthState::Failed);
        assert_eq!(HealthState::Healthy.name(), "healthy");
        assert_eq!(HealthState::Failed.name(), "failed");
    }

    #[test]
    fn supervise_beat_flips_healthy_and_degraded_but_not_failed() {
        let board = HealthBoard::new(OnJournalFail::Degrade);
        // Unarmed components are left alone no matter how stale.
        board.supervise_beat(Component::Granter, 1_000_000_000, 1);
        assert_eq!(board.state(Component::Granter), HealthState::Healthy);

        board.beat(Component::Granter);
        let now = board.last_beat_ns(Component::Granter);
        board.supervise_beat(Component::Granter, now + 10, 100);
        assert_eq!(board.state(Component::Granter), HealthState::Healthy);
        board.supervise_beat(Component::Granter, now + 200, 100);
        assert_eq!(board.state(Component::Granter), HealthState::Degraded);
        // Beats resume → Healthy again.
        board.beat(Component::Granter);
        let now = board.last_beat_ns(Component::Granter);
        board.supervise_beat(Component::Granter, now + 1, 100);
        assert_eq!(board.state(Component::Granter), HealthState::Healthy);

        // Failed is owned by the component; the supervisor won't clear it.
        board.set_state(Component::JournalWriter, HealthState::Failed);
        board.beat(Component::JournalWriter);
        let now = board.last_beat_ns(Component::JournalWriter);
        board.supervise_beat(Component::JournalWriter, now + 1, 100);
        assert_eq!(board.state(Component::JournalWriter), HealthState::Failed);
    }

    #[test]
    fn journal_policies_enact_their_switches() {
        let degrade = HealthBoard::new(OnJournalFail::Degrade);
        degrade.journal_failed();
        assert!(degrade.admission_open());
        assert!(degrade.durability_suspended());
        assert!(!degrade.abort_requested());
        degrade.journal_recovered();
        assert!(!degrade.durability_suspended());
        assert_eq!(
            degrade.state(Component::JournalWriter),
            HealthState::Healthy
        );

        let halt = HealthBoard::new(OnJournalFail::Halt);
        halt.journal_failed();
        assert!(!halt.admission_open());
        assert!(!halt.abort_requested());

        let exit = HealthBoard::new(OnJournalFail::Exit);
        exit.journal_failed();
        assert!(!exit.admission_open());
        assert!(exit.abort_requested());
    }

    #[test]
    fn transitions_shadow_into_gauges_and_counters() {
        let telem = LiveTelemetry::new(1, 0, 0);
        let board = HealthBoard::new(OnJournalFail::Degrade);
        board.attach_telemetry(telem.control_handle());
        board.set_state(Component::Granter, HealthState::Degraded);
        board.set_state(Component::Granter, HealthState::Degraded); // no-op
        board.journal_failed(); // writer → Failed (2), durability gauge on
        let snap = telem.registry().snapshot();
        let gauge = |name: &str| {
            snap.gauges()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v)
                .unwrap()
        };
        let counter = |name: &str| {
            snap.counters()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v)
                .unwrap()
        };
        assert_eq!(gauge("health_granter"), 1);
        assert_eq!(gauge("health_journal_writer"), 2);
        assert_eq!(gauge("durability_suspended"), 1);
        assert_eq!(counter("health_degradations"), 2);
        board.journal_recovered();
        let snap = telem.registry().snapshot();
        assert_eq!(
            snap.gauges()
                .find(|(n, _)| *n == "health_journal_writer")
                .unwrap()
                .1,
            0
        );
    }

    #[test]
    fn granter_stall_is_one_shot() {
        let board = HealthBoard::new(OnJournalFail::Degrade);
        assert!(!board.take_granter_stall());
        board.arm_granter_stall();
        assert!(board.take_granter_stall());
        assert!(!board.take_granter_stall());
    }

    #[test]
    fn render_json_is_a_flat_string_object() {
        let board = HealthBoard::new(OnJournalFail::Halt);
        board.set_state(Component::StatsPump, HealthState::Degraded);
        let json = board.render_json();
        assert!(json.starts_with("{\"policy\":\"halt\""), "{json}");
        assert!(json.contains("\"journal_writer\":\"healthy\""), "{json}");
        assert!(json.contains("\"stats_pump\":\"degraded\""), "{json}");
        assert!(json.ends_with("\"durability\":\"ok\"}"), "{json}");
    }
}
