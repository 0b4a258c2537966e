//! Read-only observers of the cloudsim event loop.
//!
//! The dispatch core in [`crate::sim`] hands each [`Probe`] a
//! [`SimView`] — shared borrows of its state — so a probe can sample,
//! detect and audit but never change what the simulation does. Three
//! probes exist: the `ts.*` window sampler, the health watchdog's
//! anomaly detectors, and the invariant auditors. [`Probes`] builds the
//! list once per run and drives the sim-time window clock they share.

use crate::sim::{fragmentation_index, RequestOutcome, ServiceModel};
use std::collections::BTreeMap;
use vc_des::SimTime;
use vc_model::{Allocation, ClusterState};
use vc_obs::health::{self, rules, AlertSink, HealthMonitor, Severity, WindowHealthSample};
use vc_obs::{AttrValue, Recorder, TrackId, WindowSampler};
use vc_topology::{NodeId, Topology};

/// What a probe may see of the simulation: shared borrows only.
pub(crate) struct SimView<'a> {
    pub now: SimTime,
    pub state: &'a ClusterState,
    pub topo: &'a Topology,
    pub queue_len: usize,
    pub live: &'a BTreeMap<u64, Allocation>,
    pub outcomes: &'a [RequestOutcome],
    pub arrivals_seen: u64,
    /// Requests served and refused so far.
    pub served: u64,
    pub refused: u64,
}

/// What the MapReduce jobs started by one event leave for the probes.
#[derive(Default)]
pub(crate) struct JobTelemetry {
    /// `(window index, RackUp bytes)` from every job's network rollup.
    pub rollup: Vec<(u64, f64)>,
    /// Alerts fired by the jobs' own audits.
    pub alerts: u64,
}

/// One closed sim-time window, as every probe sees it.
pub(crate) struct Window {
    /// The window's readings, in the shape the anomaly detectors take.
    pub sample: WindowHealthSample,
    /// RackUp bytes apportioned to the window; `Some` only under the
    /// MapReduce service, alongside `sample.uplink_util`.
    pub rack_up_bytes: Option<f64>,
    /// Alerts fired so far by job audits and probes, including earlier
    /// probes' alerts at this window.
    pub alerts: u64,
}

/// A read-only observer of the event loop. Each method returns the
/// number of alerts it fired.
pub(crate) trait Probe {
    /// After an event is dispatched and the queue served.
    fn on_event(&mut self, _view: &SimView, _rec: &dyn Recorder) -> u64 {
        0
    }

    /// At each window edge, before the event that crossed it is
    /// dispatched, and once more for the final partial window.
    fn on_window_close(&mut self, _view: &SimView, _rec: &dyn Recorder, _window: &Window) -> u64 {
        0
    }

    /// After the last event, once the final window is closed.
    fn on_finish(&mut self, _view: &SimView, _rec: &dyn Recorder) -> u64 {
        0
    }
}

/// The run's probes and the window clock they share.
pub(crate) struct Probes {
    list: Vec<Box<dyn Probe>>,
    clock: Option<WindowClock>,
    alerts: u64,
}

impl Probes {
    /// The probes a run asks for. None without a live recorder, so
    /// unrecorded runs pay nothing; the detectors need `ts.*` windows.
    pub(crate) fn new(
        rec: &dyn Recorder,
        window_us: Option<u64>,
        health: bool,
        service: &ServiceModel,
        topo: &Topology,
    ) -> Self {
        let mut probes = Probes {
            list: Vec::new(),
            clock: None,
            alerts: 0,
        };
        if !rec.enabled() {
            return probes;
        }
        if let Some(w) = window_us {
            let uplink_mbps = match service {
                ServiceModel::Trace => None,
                ServiceModel::MapReduce { params, .. } => {
                    Some(topo.num_racks() as f64 * params.net.rack_uplink_mbps)
                }
            };
            probes.clock = Some(WindowClock {
                sampler: WindowSampler::new(w),
                served: 0,
                refused: 0,
                net: BTreeMap::new(),
                uplink_mbps,
            });
            probes.list.push(Box::new(TsProbe));
            if health {
                probes.list.push(Box::<HealthProbe>::default());
            }
        }
        if health {
            probes.list.push(Box::<AuditProbe>::default());
        }
        probes
    }

    /// Close every window edge the clock crossed at `view.now`.
    pub(crate) fn close_due(&mut self, view: &SimView, rec: &dyn Recorder) {
        let Some(clock) = self.clock.as_mut() else {
            return;
        };
        let w = clock.sampler.window_us();
        while let Some(edge) = clock.sampler.pop_due(view.now.as_micros()) {
            let window = clock.close(view, edge, w, self.alerts);
            self.alerts = notify_window(&mut self.list, view, rec, window);
        }
    }

    /// Take in the telemetry of the jobs this event started, then let
    /// every probe observe the served state.
    pub(crate) fn on_event(&mut self, view: &SimView, rec: &dyn Recorder, jobs: &JobTelemetry) {
        self.alerts += jobs.alerts;
        if let Some(clock) = self.clock.as_mut() {
            for &(k, bytes) in &jobs.rollup {
                *clock.net.entry(k).or_insert(0.0) += bytes;
            }
        }
        for p in &mut self.list {
            self.alerts += p.on_event(view, rec);
        }
    }

    /// Close the final partial window, so the tail of the run past the
    /// last full edge is still reported, then finish every probe.
    pub(crate) fn finish(&mut self, view: &SimView, rec: &dyn Recorder) {
        if let Some(clock) = self.clock.as_mut() {
            if let Some(edge) = clock.sampler.partial_edge(view.now.as_micros()) {
                let w = clock.sampler.window_us();
                let elapsed = edge - WindowSampler::window_index(w, edge) * w;
                let window = clock.close(view, edge, elapsed, self.alerts);
                self.alerts = notify_window(&mut self.list, view, rec, window);
            }
        }
        for p in &mut self.list {
            p.on_finish(view, rec);
        }
    }
}

/// Hand one closed window to every probe in order; returns the alert
/// count after all of them.
fn notify_window(
    list: &mut [Box<dyn Probe>],
    view: &SimView,
    rec: &dyn Recorder,
    mut window: Window,
) -> u64 {
    for p in list {
        window.alerts += p.on_window_close(view, rec, &window);
    }
    window.alerts
}

/// The sim-time window clock and what each window accumulates.
struct WindowClock {
    sampler: WindowSampler,
    /// Served and refused counts already attributed to closed windows.
    served: u64,
    refused: u64,
    /// Per-window RackUp bytes merged from every job's network rollup.
    net: BTreeMap<u64, f64>,
    /// Aggregate RackUp capacity in MB/s, under the MapReduce service.
    uplink_mbps: Option<f64>,
}

impl WindowClock {
    /// The readings of the window closed at `edge_us`, `elapsed_us` wide
    /// (shorter than the cadence only for the final partial window).
    fn close(&mut self, view: &SimView, edge_us: u64, elapsed_us: u64, alerts: u64) -> Window {
        let served_delta = view.served.saturating_sub(self.served) as f64;
        let refused_delta = view.refused.saturating_sub(self.refused) as f64;
        self.served = view.served;
        self.refused = view.refused;
        let k = WindowSampler::window_index(self.sampler.window_us(), edge_us);
        let rack_up_bytes = self.uplink_mbps.map(|_| self.net.remove(&k).unwrap_or(0.0));
        // 1 MB/s delivers exactly 1 byte/µs, so the window's aggregate
        // uplink byte budget is capacity × elapsed.
        let uplink_util = self.uplink_mbps.zip(rack_up_bytes).map(|(cap, bytes)| {
            let budget = cap * elapsed_us as f64;
            if budget > 0.0 {
                bytes / budget
            } else {
                0.0
            }
        });
        Window {
            sample: WindowHealthSample {
                edge_us,
                fill: view.state.utilization(),
                frag: fragmentation_index(view.state, view.topo),
                queue_depth: view.queue_len as f64,
                served_delta,
                refused_delta,
                uplink_util,
            },
            rack_up_bytes,
            alerts,
        }
    }
}

/// Emits the `ts.*` cloud-health series, one sample per series per
/// window.
struct TsProbe;

impl Probe for TsProbe {
    fn on_window_close(&mut self, view: &SimView, rec: &dyn Recorder, window: &Window) -> u64 {
        let s = &window.sample;
        let t = s.edge_us;
        rec.counter_sample("ts.cloud.fill", t, s.fill);
        rec.counter_sample("ts.cloud.frag", t, s.frag);
        rec.counter_sample("ts.cloud.active_vms", t, view.state.used_total() as f64);
        rec.counter_sample("ts.cloud.active_jobs", t, view.live.len() as f64);
        rec.counter_sample("ts.queue.depth", t, s.queue_depth);
        let (dc_sum, dc_n) = view
            .live
            .keys()
            .filter_map(|&id| view.outcomes[id as usize].distance)
            .fold((0u64, 0u64), |(s, n), d| (s + d, n + 1));
        let mean_dc = if dc_n > 0 {
            dc_sum as f64 / dc_n as f64
        } else {
            0.0
        };
        rec.counter_sample("ts.cloud.mean_job_dc", t, mean_dc);
        rec.counter_sample("ts.served.delta", t, s.served_delta);
        rec.counter_sample("ts.refused.delta", t, s.refused_delta);
        if let (Some(bytes), Some(util)) = (window.rack_up_bytes, s.uplink_util) {
            rec.counter_sample("ts.net.rack_up_bytes.delta", t, bytes);
            rec.counter_sample("ts.net.rack_up_util", t, util);
        }
        0
    }
}

/// The watchdog's anomaly detectors over each window, plus the
/// per-window alert count `ts.health.alerts.delta`.
#[derive(Default)]
struct HealthProbe {
    monitor: HealthMonitor,
    sink: AlertSink,
    /// Alerts already attributed to closed windows.
    reported: u64,
}

impl Probe for HealthProbe {
    fn on_window_close(&mut self, _view: &SimView, rec: &dyn Recorder, window: &Window) -> u64 {
        let before = self.sink.fired();
        self.monitor.observe(&mut self.sink, &rec, &window.sample);
        let fired = self.sink.fired() - before;
        let total = window.alerts + fired;
        rec.counter_sample(
            health::TS_ALERTS_DELTA,
            window.sample.edge_us,
            (total - self.reported) as f64,
        );
        self.reported = total;
        fired
    }
}

/// Invariant audits every [`health::AUDIT_EVERY_EVENTS`] events and
/// once at the end of the run.
#[derive(Default)]
struct AuditProbe {
    since: u64,
    sink: AlertSink,
}

impl Probe for AuditProbe {
    fn on_event(&mut self, view: &SimView, rec: &dyn Recorder) -> u64 {
        self.since += 1;
        if self.since < health::AUDIT_EVERY_EVENTS {
            return 0;
        }
        self.since = 0;
        self.audit(view, rec)
    }

    /// The drained cloud must balance exactly.
    fn on_finish(&mut self, view: &SimView, rec: &dyn Recorder) -> u64 {
        self.audit(view, rec)
    }
}

impl AuditProbe {
    /// Per-node `allocated + free == total`, PlacementIndex aggregates
    /// vs the remaining matrix, and queue depth vs admitted-minus-settled
    /// accounting. All are exact integer identities the simulator
    /// maintains by construction, so any alert is a bug, never workload
    /// noise.
    fn audit(&mut self, view: &SimView, rec: &dyn Recorder) -> u64 {
        let before = self.sink.fired();
        let (now_us, track) = (view.now.as_micros(), Some(TrackId(0)));
        let state = view.state;
        let (cap, used, rem) = (state.capacity(), state.used(), state.remaining());
        'capacity: for i in 0..state.num_nodes() {
            let node = NodeId(i as u32);
            let (c, u, r) = (cap.row(node), used.row(node), rem.row(node));
            for j in 0..c.len() {
                if u[j] + r[j] != c[j] {
                    self.sink.emit(
                        &rec,
                        now_us,
                        track,
                        Severity::Critical,
                        "cloudsim",
                        rules::CAPACITY_ACCOUNTING,
                        &[
                            ("node", AttrValue::U64(i as u64)),
                            ("vm_type", AttrValue::U64(j as u64)),
                            ("used", AttrValue::U64(u64::from(u[j]))),
                            ("free", AttrValue::U64(u64::from(r[j]))),
                            ("total", AttrValue::U64(u64::from(c[j]))),
                        ],
                    );
                    break 'capacity; // one alert per audit, not per node
                }
            }
        }

        let drift = state.index().check_consistent(rem);
        if !drift.is_empty() {
            self.sink.emit(
                &rec,
                now_us,
                track,
                Severity::Critical,
                "placement",
                rules::INDEX_DRIFT,
                &[
                    ("violations", AttrValue::U64(drift.len() as u64)),
                    ("first", AttrValue::Owned(drift[0].clone())),
                ],
            );
        }

        let settled = view
            .outcomes
            .iter()
            .filter(|o| o.started.is_some() || o.refused)
            .count() as u64;
        let expected = view.arrivals_seen.saturating_sub(settled);
        if expected != view.queue_len as u64 {
            self.sink.emit(
                &rec,
                now_us,
                track,
                Severity::Critical,
                "cloudsim",
                rules::QUEUE_ACCOUNTING,
                &[
                    ("queue_depth", AttrValue::U64(view.queue_len as u64)),
                    ("expected", AttrValue::U64(expected)),
                    ("arrivals", AttrValue::U64(view.arrivals_seen)),
                    ("settled", AttrValue::U64(settled)),
                ],
            );
        }
        self.sink.fired() - before
    }
}
