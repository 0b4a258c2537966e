//! Cloud-health watchdog: severity taxonomy, structured `alert.*`
//! emission, and online anomaly detectors over windowed `ts.*` samples.
//! The watchdog is one on/off switch; every threshold is a constant
//! next to the rule it parameterises.
//!
//! The watchdog has two halves:
//!
//! - **Invariant auditors** live next to the state they audit (cloudsim's
//!   DES loop, the mapreduce engine's link flush, `PlacementIndex`) and
//!   call [`AlertSink::emit`] when a conservation law is violated. They
//!   are read-only: they inspect state and talk to the [`Recorder`], so
//!   traced/untraced bit-parity holds by the same argument as windowed
//!   sampling.
//! - **Anomaly detectors** ([`HealthMonitor`]) are pure state machines fed
//!   one [`WindowHealthSample`] per closed sim-time window. Rules fire
//!   once per episode (a streak of qualifying windows) and re-arm when
//!   the streak breaks.
//!
//! Alerts travel as ordinary recorder events named `alert.<rule>` with
//! `severity`/`subsystem`/`rule` attributes plus rule-specific context
//! (window edge, observed value), and as monotonic counters named
//! `alert.total.<severity>.<rule>` which the Prometheus exporter rewrites
//! into `alert_total{severity,rule}`. Both ride the existing machinery —
//! Mem/Streaming recorders, Chrome traces, JSONL replay — so
//! `vc report --stream` replays alerts with no format change.

use crate::recorder::{Attr, AttrValue, Recorder, TrackId};

/// Name prefix shared by every alert event (`alert.<rule>`).
pub(crate) const ALERT_PREFIX: &str = "alert.";
/// Name prefix for per-(severity, rule) alert counters.
pub(crate) const ALERT_TOTAL_PREFIX: &str = "alert.total.";
/// Windowed series counting alerts fired per closed window.
pub const TS_ALERTS_DELTA: &str = "ts.health.alerts.delta";

/// Alert severity, ordered so `Info < Warn < Critical`. The
/// `--fail-on-alert <severity>` gate trips on any alert at or above the
/// named level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: worth a look, expected under some workloads.
    Info,
    /// Anomaly: the cloud is drifting toward a bad regime (saturation,
    /// stagnation, plateau-with-refusals).
    Warn,
    /// Invariant violation: a conservation law the simulator must uphold
    /// failed — always a bug, never workload-dependent.
    Critical,
}

impl Severity {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }

    /// Parse a CLI-provided severity name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad`, not `write_str`, so table columns can width-format it.
        f.pad(self.as_str())
    }
}

/// Generates the rule-name constants plus the static name tables for
/// `alert.<rule>` events and `alert.total.<severity>.<rule>` counters, so
/// the hot path never allocates or leaks.
macro_rules! alert_rules {
    ($(($const_name:ident, $rule:literal)),* $(,)?) => {
        /// Canonical rule names. Invariant rules are `Critical`;
        /// detector rules are `Warn`.
        pub mod rules {
            $(pub const $const_name: &str = $rule;)*
        }

        /// Every known rule name, for exhaustive tests.
        #[cfg(test)]
        const ALL_RULES: &[&str] = &[$($rule),*];

        /// Static `alert.<rule>` event name for a known rule.
        fn alert_event_name(rule: &str) -> &'static str {
            match rule {
                $($rule => concat!("alert.", $rule),)*
                _ => "alert.unknown",
            }
        }

        fn alert_total_name(severity: Severity, rule: &str) -> &'static str {
            match (severity, rule) {
                $(
                    (Severity::Info, $rule) => concat!("alert.total.info.", $rule),
                    (Severity::Warn, $rule) => concat!("alert.total.warn.", $rule),
                    (Severity::Critical, $rule) => concat!("alert.total.critical.", $rule),
                )*
                _ => "alert.total.critical.unknown",
            }
        }
    };
}

alert_rules!(
    // Invariant auditors (Critical on violation).
    (CAPACITY_ACCOUNTING, "capacity_accounting"),
    (INDEX_DRIFT, "index_drift"),
    (QUEUE_ACCOUNTING, "queue_accounting"),
    (SHUFFLE_CONSERVATION, "shuffle_conservation"),
    (FLOW_STARVATION, "flow_starvation"),
    (ATTRIBUTION_TILING, "attribution_tiling"),
    // Window anomaly detectors (Warn).
    (FRAG_GROWTH, "frag_growth"),
    (UPLINK_SATURATION, "uplink_saturation"),
    (QUEUE_STAGNATION, "queue_stagnation"),
    (FILL_PLATEAU_REFUSALS, "fill_plateau_refusals"),
);

/// DES-loop auditor cadence: the invariant auditors run after every
/// this many processed events, and once more at the end of the run.
pub const AUDIT_EVERY_EVENTS: u64 = 64;

/// Counts alerts and routes them to a [`Recorder`] as an `alert.<rule>`
/// event plus an `alert.total.<severity>.<rule>` counter increment.
/// Deliberately dumb: all detection logic lives in the caller or in
/// [`HealthMonitor`], so emission order is deterministic.
#[derive(Debug, Default)]
pub struct AlertSink {
    fired: u64,
}

impl AlertSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total alerts emitted through this sink so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Emit one alert. `extra` carries rule-specific context (window
    /// edge, observed vs expected values); callers gate on
    /// [`Recorder::enabled`] before building anything expensive.
    #[allow(clippy::too_many_arguments)]
    pub fn emit<R: Recorder>(
        &mut self,
        rec: &R,
        t_us: u64,
        track: Option<TrackId>,
        severity: Severity,
        subsystem: &'static str,
        rule: &'static str,
        extra: &[Attr],
    ) {
        self.fired += 1;
        if !rec.enabled() {
            return;
        }
        let mut attrs: Vec<Attr> = Vec::with_capacity(3 + extra.len());
        attrs.push(("severity", AttrValue::Str(severity.as_str())));
        attrs.push(("subsystem", AttrValue::Str(subsystem)));
        attrs.push(("rule", AttrValue::Str(rule)));
        attrs.extend_from_slice(extra);
        rec.event(alert_event_name(rule), t_us, track, &attrs);
        rec.counter_add(alert_total_name(severity, rule), 1);
    }
}

/// One closed sim-time window's health-relevant readings, as sampled by
/// the cloudsim DES loop alongside the `ts.*` series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowHealthSample {
    /// Window edge in sim microseconds (same edge the `ts.*` samples
    /// carry).
    pub edge_us: u64,
    /// Cloud fill fraction in `[0, 1]`.
    pub fill: f64,
    /// Fragmentation index in `[0, 1]`.
    pub frag: f64,
    /// Admission queue depth at the window edge.
    pub queue_depth: f64,
    /// Requests served during the window.
    pub served_delta: f64,
    /// Requests refused during the window.
    pub refused_delta: f64,
    /// Mean cross-rack uplink utilization over the window, when the
    /// service simulates the network (`None` otherwise).
    pub uplink_util: Option<f64>,
}

/// Streak state for one rule: fires once when the streak reaches the
/// required length, then stays quiet until the streak breaks (one alert
/// per episode).
#[derive(Debug, Default)]
struct Streak {
    run: usize,
    fired: bool,
}

impl Streak {
    /// Advance with this window's qualification; returns true exactly
    /// when the rule should fire.
    fn step(&mut self, qualifies: bool, need: usize) -> bool {
        if !qualifies {
            self.run = 0;
            self.fired = false;
            return false;
        }
        self.run += 1;
        if self.run >= need && !self.fired {
            self.fired = true;
            return true;
        }
        false
    }
}

/// `frag_growth`: the fragmentation index must end at or above this.
const FRAG_MIN: f64 = 0.5;
/// `frag_growth`: consecutive strictly-rising windows required.
const FRAG_WINDOWS: usize = 3;
/// `uplink_saturation`: utilization threshold in `[0, 1]`.
const UPLINK_UTIL: f64 = 0.9;
/// `uplink_saturation`: consecutive windows at or above the threshold.
const UPLINK_WINDOWS: usize = 2;
/// `queue_stagnation`: consecutive windows with rising queue depth and
/// zero served requests.
const QUEUE_WINDOWS: usize = 3;
/// `fill_plateau_refusals`: a |fill delta| at or below this counts as a
/// plateau.
const PLATEAU_DELTA: f64 = 0.005;
/// `fill_plateau_refusals`: consecutive plateau windows with refusals
/// required.
const PLATEAU_WINDOWS: usize = 2;

/// Online anomaly detector bank over windowed health samples. Pure
/// function of the sample sequence — no clocks, no randomness — so two
/// replays of the same run fire identical alerts.
#[derive(Debug, Default)]
pub struct HealthMonitor {
    frag: Streak,
    last_frag: Option<f64>,
    uplink: Streak,
    queue: Streak,
    last_queue: Option<f64>,
    plateau: Streak,
    last_fill: Option<f64>,
}

impl HealthMonitor {
    /// Feed one closed window; fires any due detector alerts through
    /// `sink`. Each alert carries the window edge, the rule's context
    /// and the streak length.
    pub fn observe<R: Recorder>(&mut self, sink: &mut AlertSink, rec: &R, w: &WindowHealthSample) {
        let mut fire = |subsystem, rule, context: &[Attr], streak: &Streak| {
            let mut attrs = vec![("window_edge_us", AttrValue::U64(w.edge_us))];
            attrs.extend_from_slice(context);
            attrs.push(("windows", AttrValue::U64(streak.run as u64)));
            sink.emit(
                rec,
                w.edge_us,
                None,
                Severity::Warn,
                subsystem,
                rule,
                &attrs,
            );
        };

        // Fragmentation growth: strictly rising for N windows, ending
        // at or above the floor. NaN comparisons are false, so a NaN
        // sample breaks the streak instead of firing.
        let frag_rising = self.last_frag.is_some_and(|prev| w.frag > prev) && w.frag >= FRAG_MIN;
        if self.frag.step(frag_rising, FRAG_WINDOWS) {
            let context = [("value", AttrValue::F64(w.frag))];
            fire("cloudsim", rules::FRAG_GROWTH, &context, &self.frag);
        }
        self.last_frag = Some(w.frag);

        // Sustained cross-rack uplink saturation.
        let uplink_hot = w.uplink_util.is_some_and(|u| u >= UPLINK_UTIL);
        if self.uplink.step(uplink_hot, UPLINK_WINDOWS) {
            let context = [
                ("value", AttrValue::F64(w.uplink_util.unwrap_or(0.0))),
                ("threshold", AttrValue::F64(UPLINK_UTIL)),
            ];
            fire("netsim", rules::UPLINK_SATURATION, &context, &self.uplink);
        }

        // Queue depth trending up with nothing served: the queue grows
        // but the cloud is not draining it.
        let stagnating =
            self.last_queue.is_some_and(|prev| w.queue_depth > prev) && w.served_delta == 0.0;
        if self.queue.step(stagnating, QUEUE_WINDOWS) {
            let context = [("value", AttrValue::F64(w.queue_depth))];
            fire("cloudsim", rules::QUEUE_STAGNATION, &context, &self.queue);
        }
        self.last_queue = Some(w.queue_depth);

        // Fill plateau with refusals: capacity stopped moving while
        // requests bounce — the fragmentation/packing signature.
        let plateaued = self
            .last_fill
            .is_some_and(|prev| (w.fill - prev).abs() <= PLATEAU_DELTA)
            && w.refused_delta > 0.0;
        if self.plateau.step(plateaued, PLATEAU_WINDOWS) {
            let context = [
                ("value", AttrValue::F64(w.refused_delta)),
                ("fill", AttrValue::F64(w.fill)),
            ];
            fire(
                "cloudsim",
                rules::FILL_PLATEAU_REFUSALS,
                &context,
                &self.plateau,
            );
        }
        self.last_fill = Some(w.fill);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::MemRecorder;

    fn window(edge_us: u64) -> WindowHealthSample {
        WindowHealthSample {
            edge_us,
            fill: 0.5,
            frag: 0.0,
            queue_depth: 0.0,
            served_delta: 1.0,
            refused_delta: 0.0,
            uplink_util: None,
        }
    }

    #[test]
    fn severity_orders_and_parses() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Critical);
        for sev in [Severity::Info, Severity::Warn, Severity::Critical] {
            assert_eq!(Severity::parse(sev.as_str()), Some(sev));
        }
        assert_eq!(Severity::parse("fatal"), None);
    }

    #[test]
    fn alert_names_are_static_and_known() {
        for &rule in ALL_RULES {
            let ev = alert_event_name(rule);
            assert_eq!(ev, format!("alert.{rule}"));
            assert_eq!(
                alert_total_name(Severity::Warn, rule),
                format!("alert.total.warn.{rule}")
            );
        }
        assert_eq!(alert_event_name("no_such_rule"), "alert.unknown");
    }

    #[test]
    fn sink_emits_event_and_counter() {
        let rec = MemRecorder::new();
        let mut sink = AlertSink::new();
        sink.emit(
            &rec,
            42,
            None,
            Severity::Critical,
            "cloudsim",
            rules::QUEUE_ACCOUNTING,
            &[("expected", AttrValue::U64(3)), ("got", AttrValue::U64(4))],
        );
        assert_eq!(sink.fired(), 1);
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "alert.queue_accounting");
        assert_eq!(events[0].t_us, 42);
        let snap = rec.metrics();
        assert_eq!(
            snap.counters.get("alert.total.critical.queue_accounting"),
            Some(&1)
        );
    }

    #[test]
    fn uplink_saturation_fires_once_per_episode() {
        let rec = MemRecorder::new();
        let mut sink = AlertSink::new();
        let mut mon = HealthMonitor::default();
        let mut hot = window(0);
        hot.uplink_util = Some(0.95);
        let mut cold = window(0);
        cold.uplink_util = Some(0.2);
        // Two hot windows → one alert; staying hot stays quiet.
        for (i, w) in [hot, hot, hot].iter().enumerate() {
            let mut w = *w;
            w.edge_us = (i as u64 + 1) * 100;
            mon.observe(&mut sink, &rec, &w);
        }
        assert_eq!(sink.fired(), 1);
        // Break the streak, then re-qualify → a second episode.
        cold.edge_us = 400;
        mon.observe(&mut sink, &rec, &cold);
        for e in 0..2u64 {
            let mut w = hot;
            w.edge_us = 500 + e * 100;
            mon.observe(&mut sink, &rec, &w);
        }
        assert_eq!(sink.fired(), 2);
        let events = rec.events();
        assert!(events.iter().all(|e| e.name == "alert.uplink_saturation"));
        assert_eq!(events[0].t_us, 200, "fires at the Nth hot window edge");
    }

    #[test]
    fn frag_growth_requires_floor_and_streak() {
        let rec = MemRecorder::new();
        let mut sink = AlertSink::new();
        let mut mon = HealthMonitor::default();
        // Rising but below the 0.5 floor: never fires.
        for (i, f) in [0.1, 0.2, 0.3, 0.4].iter().enumerate() {
            let mut w = window((i as u64 + 1) * 100);
            w.frag = *f;
            mon.observe(&mut sink, &rec, &w);
        }
        assert_eq!(sink.fired(), 0);
        // Keep rising through the floor for three more windows.
        for (i, f) in [0.6, 0.7, 0.8].iter().enumerate() {
            let mut w = window(500 + i as u64 * 100);
            w.frag = *f;
            mon.observe(&mut sink, &rec, &w);
        }
        assert_eq!(sink.fired(), 1);
    }

    #[test]
    fn nan_frag_breaks_streak_instead_of_firing() {
        let rec = MemRecorder::new();
        let mut sink = AlertSink::new();
        let mut mon = HealthMonitor::default();
        for (i, f) in [0.6, 0.7, f64::NAN, 0.8, 0.9].iter().enumerate() {
            let mut w = window((i as u64 + 1) * 100);
            w.frag = *f;
            mon.observe(&mut sink, &rec, &w);
        }
        assert_eq!(sink.fired(), 0);
    }

    #[test]
    fn queue_stagnation_needs_growth_without_serves() {
        let rec = MemRecorder::new();
        let mut sink = AlertSink::new();
        let mut mon = HealthMonitor::default();
        for i in 0..4u64 {
            let mut w = window((i + 1) * 100);
            w.queue_depth = i as f64;
            w.served_delta = 0.0;
            mon.observe(&mut sink, &rec, &w);
        }
        // Windows 2..4 each grow with zero serves → streak of 3 fires.
        assert_eq!(sink.fired(), 1);
        // Serving even one request resets the episode.
        let mut w = window(500);
        w.queue_depth = 10.0;
        w.served_delta = 2.0;
        mon.observe(&mut sink, &rec, &w);
        assert_eq!(sink.fired(), 1);
    }

    #[test]
    fn plateau_with_refusals_fires() {
        let rec = MemRecorder::new();
        let mut sink = AlertSink::new();
        let mut mon = HealthMonitor::default();
        for i in 0..3u64 {
            let mut w = window((i + 1) * 100);
            w.fill = 0.95;
            w.refused_delta = 2.0;
            mon.observe(&mut sink, &rec, &w);
        }
        // First window has no previous fill; the next two plateau.
        assert_eq!(sink.fired(), 1);
    }

    #[test]
    fn replay_is_deterministic() {
        let samples: Vec<WindowHealthSample> = (0..20u64)
            .map(|i| {
                let mut w = window((i + 1) * 50);
                w.uplink_util = Some(if i % 3 == 0 { 0.95 } else { 0.5 });
                w.frag = 0.04 * i as f64;
                w.queue_depth = (i / 2) as f64;
                w.served_delta = f64::from(u32::from(i % 4 != 0));
                w.refused_delta = f64::from(u32::from(i > 10));
                w.fill = if i > 10 { 0.9 } else { 0.05 * i as f64 };
                w
            })
            .collect();
        let run = |samples: &[WindowHealthSample]| {
            let rec = MemRecorder::new();
            let mut sink = AlertSink::new();
            let mut mon = HealthMonitor::default();
            for w in samples {
                mon.observe(&mut sink, &rec, w);
            }
            let names: Vec<(String, u64)> = rec
                .events()
                .iter()
                .map(|e| (e.name.to_string(), e.t_us))
                .collect();
            (sink.fired(), names)
        };
        assert_eq!(run(&samples), run(&samples));
    }
}
