//! The server-side tick driver: group commit for the owner side, so
//! clients don't have to pace verification.
//!
//! Historically ticks ran only when a client sent [`Request::Tick`] —
//! verification was *client-paced*, and a stalled client stalled its
//! owners' settlements. The driver settles on its own, making client
//! `Tick` / `TickOwners` requests optional pacing hints.
//!
//! It is a **group commit** (DeWitt et al., SIGMOD '84): every accepted
//! submit rings the service's doorbell, and a rung driver clears the bell,
//! then ticks every owner whose ingress queue holds work. Whatever queues
//! while that tick runs rings again and becomes the next batch, so
//! batches grow with load and shrink to one journey when the service is
//! idle. There are no thresholds, no timeout and no poll: an idle driver
//! stays parked and does nothing.
//!
//! The ring is lock-free and edge-triggered: a submit reads the bell with
//! one atomic load, and only the submit that flips it from clear to rung
//! swaps it and unparks the driver thread. Under load the bell is already
//! rung, and with no driver listening nobody is ever woken.
//!
//! Determinism: a driver tick is the same operation as a client tick —
//! it drains whole ingress batches under each owner's exec lock — so
//! per-owner verdict streams are byte-identical whether, when, and how
//! often the driver fires (see the service module docs).
//!
//! [`Request::Tick`]: crate::Request::Tick

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle, Thread};

use refstate_telemetry as telemetry;

use crate::service::Service;

/// Tick driver configuration. Group commit has nothing to tune; the
/// type stays so existing `TickDriver::start` callers keep compiling.
#[derive(Debug, Clone, Default)]
pub struct TickDriverConfig;

/// What a driver did over its lifetime, returned by [`TickDriver::stop`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickDriverStats {
    /// Driver ticks that settled at least one journey.
    pub ticks: u64,
    /// Verdicts those ticks produced: `verdicts / ticks` is the mean
    /// batch group commit chose under the load.
    pub verdicts: u64,
}

/// The wake-up line from submits (and shutdown) to the tick driver.
#[derive(Default)]
pub(crate) struct Doorbell {
    rung: AtomicBool,
    /// The driver thread. Set once, by the first driver started on the
    /// service, so a ring reads it without taking a lock.
    listener: OnceLock<Thread>,
}

impl Doorbell {
    /// Rings the bell, waking the driver on the clear → rung edge.
    ///
    /// Pairs with [`Doorbell::answer`]: the driver clears the bell before
    /// it scans, so a journey pushed before a ring is either seen by a
    /// scan already under way or rings a fresh edge for the next one.
    pub(crate) fn ring(&self) {
        if !self.rung.load(Ordering::SeqCst) && !self.rung.swap(true, Ordering::SeqCst) {
            if let Some(driver) = self.listener.get() {
                driver.unpark();
            }
        }
    }

    /// Clears the bell; returns whether it was rung.
    fn answer(&self) -> bool {
        self.rung.swap(false, Ordering::SeqCst)
    }
}

/// A running background tick driver. Stops (and joins its thread) on
/// [`TickDriver::stop`] or drop; also exits on its own once the service
/// starts shutting down.
pub struct TickDriver {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<TickDriverStats>>,
}

impl TickDriver {
    /// Spawns the driver thread over `service`.
    ///
    /// # Panics
    ///
    /// Panics if `service` already had a driver: its doorbell rings the
    /// first driver thread for the service's whole life.
    pub fn start(service: Arc<Service>, _config: TickDriverConfig) -> TickDriver {
        assert!(
            service.bell.listener.get().is_none(),
            "a service takes one tick driver in its lifetime"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("refstate-tick-driver".into())
            .spawn(move || {
                service
                    .bell
                    .listener
                    .set(thread::current())
                    .expect("a service takes one tick driver in its lifetime");
                let mut stats = TickDriverStats::default();
                while !thread_stop.load(Ordering::SeqCst) && !service.is_shutting_down() {
                    if !service.bell.answer() {
                        thread::park();
                        continue;
                    }
                    let settled = service.drive_tick();
                    if settled > 0 {
                        stats.ticks += 1;
                        stats.verdicts += settled;
                        // A live `Metrics` request reads the collector,
                        // which sees this thread's counts only once
                        // flushed.
                        telemetry::flush_thread();
                    }
                }
                stats
            })
            .expect("spawn tick driver thread");
        TickDriver {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the driver thread, joins it, and returns what it did.
    pub fn stop(mut self) -> TickDriverStats {
        let handle = self.signal().expect("a running driver owns its thread");
        handle.join().expect("tick driver thread panicked")
    }

    /// Sets the stop flag and wakes the thread so it sees the flag.
    fn signal(&mut self) -> Option<JoinHandle<TickDriverStats>> {
        self.stop.store(true, Ordering::SeqCst);
        let handle = self.handle.take()?;
        handle.thread().unpark();
        Some(handle)
    }
}

impl Drop for TickDriver {
    fn drop(&mut self) {
        if let Some(handle) = self.signal() {
            let _ = handle.join();
        }
    }
}

impl Service {
    /// One driver pass: tick every owner with queued work (in parallel
    /// across `settle_workers`). Returns the number of verdicts produced.
    ///
    /// Instrumented under `serve.tick_driver.*`: scan latency (`scan_us`,
    /// one per wake), owners skipped with empty queues (`idle_skips`), and
    /// passes that settled something (`ticks`).
    fn drive_tick(&self) -> u64 {
        let timer = telemetry::Timer::start();
        // Clients tick owners in registration order, so the driver walks
        // them in reverse: a driver pass and a client `Tick` then meet in
        // the middle instead of one queueing behind the other's exec locks.
        let (queued, idle): (Vec<_>, Vec<_>) = self
            .shards()
            .into_iter()
            .rev()
            .partition(|shard| !shard.state().ingress.is_empty());
        let scan = timer.finish("serve.tick_driver.scan", "serve");
        telemetry::observe("serve.tick_driver.scan_us", scan.as_micros() as u64);
        if !idle.is_empty() {
            telemetry::count("serve.tick_driver.idle_skips", idle.len() as u64);
        }
        if queued.is_empty() {
            return 0;
        }
        let settled = self.tick_shards(&queued);
        if settled > 0 {
            telemetry::count("serve.tick_driver.ticks", 1);
        }
        settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{RegisterOwner, Request, Response, VerdictReply};
    use crate::service::ServeConfig;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// A service with one owner, `alice`, and a running driver.
    fn driven_service() -> (Arc<Service>, TickDriver) {
        let service = Arc::new(Service::new(ServeConfig {
            key_pool: 8,
            ..ServeConfig::default()
        }));
        let reply = service.handle(Request::Register(RegisterOwner {
            owner: "alice".into(),
            seed: 7,
            preset: "single-tamperer".into(),
            mechanism: "protocol".into(),
        }));
        assert!(matches!(reply, Response::Registered { .. }), "{reply:?}");
        let driver = TickDriver::start(Arc::clone(&service), TickDriverConfig);
        (service, driver)
    }

    fn submit(service: &Service, journey: u64) {
        let reply = service.handle(Request::Submit {
            owner: "alice".into(),
            journey,
        });
        assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");
    }

    /// Drains alice until `count` verdicts arrived, with no client tick,
    /// failing after a bounded wait.
    fn drain_until(service: &Service, count: usize) -> Vec<VerdictReply> {
        let mut verdicts = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while verdicts.len() < count {
            assert!(
                Instant::now() < deadline,
                "driver failed to settle: {} of {count}",
                verdicts.len()
            );
            let Response::Verdicts(batch) = service.handle(Request::Drain {
                owner: "alice".into(),
            }) else {
                panic!("drain");
            };
            verdicts.extend(batch);
            thread::sleep(Duration::from_millis(1));
        }
        verdicts
    }

    #[test]
    fn a_lone_submit_settles_without_a_client_tick() {
        let (service, driver) = driven_service();
        submit(&service, 0);
        assert_eq!(drain_until(&service, 1)[0].journey, 0);
        assert_eq!(
            driver.stop(),
            TickDriverStats {
                ticks: 1,
                verdicts: 1
            }
        );
    }

    #[test]
    fn an_idle_driver_does_no_work() {
        let (service, driver) = driven_service();
        // A journey slipped into the queue without a ring: a polling
        // driver would find and settle it, a rung-only one never looks.
        let shard = Arc::clone(&service.shards()[0]);
        shard.state().ingress.push_back((0, Instant::now()));
        thread::sleep(Duration::from_millis(50));
        assert_eq!(driver.stop(), TickDriverStats::default());
        assert_eq!(shard.state().ingress.len(), 1);
    }

    #[test]
    fn stop_wakes_a_parked_driver() {
        let (service, driver) = driven_service();
        // One settled round trip, so the driver has parked again.
        submit(&service, 0);
        drain_until(&service, 1);
        thread::sleep(Duration::from_millis(10));
        let (sent, stopped) = mpsc::channel();
        let stopper = thread::spawn(move || sent.send(driver.stop()));
        let stats = stopped
            .recv_timeout(Duration::from_secs(10))
            .expect("stop returns instead of hanging on a parked driver");
        stopper.join().expect("stopper thread").expect("stats sent");
        assert_eq!(stats.verdicts, 1);
    }

    #[test]
    fn shutdown_racing_a_running_driver_loses_nothing() {
        // The shutdown drain and a rung driver race for the queued
        // journeys; whichever wins each exec lock settles them, and the
        // drain must not lose any to a driver tick caught mid-settle.
        let (service, driver) = driven_service();
        submit(&service, 0);
        let reply = service.handle(Request::Shutdown);
        assert!(matches!(reply, Response::ShuttingDown { .. }));
        driver.stop();
        let Response::Verdicts(verdicts) = service.handle(Request::Drain {
            owner: "alice".into(),
        }) else {
            panic!("drain");
        };
        assert_eq!(
            verdicts.len(),
            1,
            "the queued journey settles during shutdown"
        );
    }

    #[test]
    fn background_driver_settles_without_client_ticks() {
        let (service, driver) = driven_service();
        for journey in 0..6u64 {
            submit(&service, journey);
        }
        // No client Tick anywhere: the driver alone settles everything.
        let verdicts = drain_until(&service, 6);
        let stats = driver.stop();
        assert_eq!(
            verdicts.iter().map(|v| v.journey).collect::<Vec<_>>(),
            (0..6u64).collect::<Vec<_>>(),
            "driver ticks preserve admission order"
        );
        assert_eq!(stats.verdicts, 6);
        assert!((1..=6).contains(&stats.ticks), "{stats:?}");
    }
}
