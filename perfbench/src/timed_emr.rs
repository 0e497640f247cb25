//! A timing wrapper around [`PlasmaEmr`].
//!
//! Every call is forwarded unchanged, so decisions and digests are those of
//! the bare EMR. Plan (`on_elasticity_tick`, which includes the synchronous
//! `control_query` carriage) and apply (`on_control`) are always timed:
//! `decision_ms_*` needs them. In untraced runs each completed round is
//! followed by a sample of the host-speed kernel (`crate::calib`), which
//! the window's time leaves out. Placement and server-ready calls are always
//! counted and, in traced runs, timed too.

use std::sync::Arc;

use plasma::prelude::*;
use plasma_actor::ControlFault;

use crate::meter::Meter;

/// [`PlasmaEmr`] with every controller call metered.
pub(crate) struct TimedEmr {
    inner: PlasmaEmr,
    meter: Arc<Meter>,
    rounds: u64,
}

impl TimedEmr {
    /// Wraps `inner`.
    pub(crate) fn new(inner: PlasmaEmr, meter: Arc<Meter>) -> Self {
        TimedEmr {
            inner,
            meter,
            rounds: 0,
        }
    }
}

impl ElasticityController for TimedEmr {
    fn on_elasticity_tick(&mut self, rt: &mut Runtime) {
        self.rounds += 1;
        let t0 = self.meter.now_ns();
        self.inner.on_elasticity_tick(rt);
        let t1 = self.meter.now_ns();
        self.meter
            .record_in_window("emr.plan", t0, t1, Some(self.rounds));
        let mut log = self
            .meter
            .controller
            .lock()
            .expect("controller log poisoned");
        log.plan_ns.push(t1 - t0);
        log.pending = Some((self.rounds, t1 - t0));
    }

    fn on_control(&mut self, rt: &mut Runtime, token: u64) {
        let t0 = self.meter.now_ns();
        self.inner.on_control(rt, token);
        let t1 = self.meter.now_ns();
        let mut log = self
            .meter
            .controller
            .lock()
            .expect("controller log poisoned");
        let pending = log.pending.take();
        log.apply_ns.push(t1 - t0);
        if let Some((_, plan)) = pending {
            log.round_ns.push(plan + (t1 - t0));
            if !self.meter.traced() {
                let ns = crate::calib::sample();
                log.round_calib_ns.push(ns);
                log.calib_ns += ns;
            }
        }
        drop(log);
        self.meter
            .record_in_window("emr.apply", t0, t1, pending.map(|(round, _)| round));
    }

    fn place_new_actor(
        &mut self,
        rt: &Runtime,
        type_id: ActorTypeId,
        creator: Option<ServerId>,
    ) -> Option<ServerId> {
        if !self.meter.traced() {
            self.meter
                .controller
                .lock()
                .expect("controller log poisoned")
                .place_calls += 1;
            return self.inner.place_new_actor(rt, type_id, creator);
        }
        let t0 = self.meter.now_ns();
        let out = self.inner.place_new_actor(rt, type_id, creator);
        let t1 = self.meter.now_ns();
        self.meter.record_in_window("emr.place", t0, t1, None);
        let mut log = self
            .meter
            .controller
            .lock()
            .expect("controller log poisoned");
        log.place_calls += 1;
        log.place_ns += t1 - t0;
        out
    }

    fn on_server_ready(&mut self, rt: &mut Runtime, server: ServerId) {
        let t0 = self.meter.now_ns();
        self.inner.on_server_ready(rt, server);
        let t1 = self.meter.now_ns();
        self.meter.record_in_window("emr.ready", t0, t1, None);
        self.meter
            .controller
            .lock()
            .expect("controller log poisoned")
            .ready_calls += 1;
    }

    fn on_fault(&mut self, rt: &mut Runtime, fault: ControlFault) {
        self.inner.on_fault(rt, fault);
    }
}
