//! Bounded worker pool with per-request deadlines, load shedding, and
//! worker panic recovery.
//!
//! Compute requests go through a bounded FIFO guarded by a mutex and
//! condvar. When the queue is full, [`WorkerPool::submit`] refuses
//! immediately — the connection handler turns that into an `overloaded`
//! error, so back-pressure reaches clients instead of piling up latency.
//! Workers re-check the deadline when they dequeue a job: work that
//! already missed its deadline while queued is shed without running,
//! which keeps an overload burst from wasting workers on answers nobody
//! is waiting for.
//!
//! Shutdown is graceful *and race-free* by construction: the `accepting`
//! flag lives inside the queue mutex, so "may I enqueue?" and "is there
//! work left or should I exit?" are decided under the same lock. A
//! submit that wins the lock before shutdown lands its job where a
//! draining worker must still see it; one that loses is refused with
//! `ShuttingDown`. No accepted job can be silently dropped.
//!
//! Workers survive panics in request execution (a solver bug, or an
//! injected `worker.exec` fault): an `InFlightGuard` converts the
//! unwinding into a structured `internal` error for the one in-flight
//! request, and a `RespawnGuard` spawns a replacement worker thread so
//! pool capacity is not permanently eroded.

use crate::core::ServiceCore;
use crate::exec::ExecError;
use crate::fp;
use crate::metrics::trace_inc;
use crate::protocol::{Envelope, ErrorCode, Response};
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued compute request.
#[derive(Debug)]
pub struct Job {
    /// The parsed request envelope.
    pub envelope: Envelope,
    /// When the request was accepted (histogram start).
    pub accepted_at: Instant,
    /// Absolute deadline; jobs past it are shed, not run.
    pub deadline: Instant,
    /// Where the response goes. The connection handler holds the
    /// receiver; if it gave up (deadline), the send fails harmlessly.
    pub reply: Sender<Response>,
}

/// Queue state: jobs and the intake flag share one mutex so that
/// submission and worker-exit decisions are linearized (see module docs).
struct PoolQueue {
    jobs: VecDeque<Job>,
    accepting: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_ready: Condvar,
    capacity: usize,
    /// The transport-agnostic core: execution accounting and the result
    /// cache live there, shared with whatever transport feeds this pool.
    core: Arc<ServiceCore>,
    /// Join handles of workers respawned after a panic. Drained by
    /// [`WorkerPool::join`] in a loop, since a respawned worker can
    /// itself panic and respawn.
    respawned: Mutex<Vec<JoinHandle<()>>>,
}

/// Error returned by [`WorkerPool::submit`] when the job is not queued.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity.
    QueueFull,
    /// The pool is draining for shutdown.
    ShuttingDown,
}

/// A fixed-size pool of worker threads draining the bounded queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads servicing a queue of at most `capacity`
    /// jobs. Results are written through to the core's cache and
    /// accounted in its metrics.
    pub fn new(workers: usize, capacity: usize, core: Arc<ServiceCore>) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                accepting: true,
            }),
            work_ready: Condvar::new(),
            capacity: capacity.max(1),
            core,
            respawned: Mutex::new(Vec::new()),
        });
        let workers = (0..workers.max(1))
            .map(|i| spawn_worker(shared.clone(), i))
            .collect();
        WorkerPool { shared, workers }
    }

    /// Enqueues a job, or refuses if the queue is full or draining. A
    /// refused job is dropped — its reply channel closes, and the caller
    /// already holds the id needed to build the error response.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        if fp::hit("pool.dispatch") == Some(fp::Injected::Error) {
            return Err(SubmitError::QueueFull); // injected dispatch failure sheds
        }
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        if !queue.accepting {
            return Err(SubmitError::ShuttingDown);
        }
        if queue.jobs.len() >= self.shared.capacity {
            return Err(SubmitError::QueueFull);
        }
        queue.jobs.push_back(job);
        self.shared
            .core
            .metrics()
            .set_queue_depth(queue.jobs.len() as u64);
        drop(queue);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .jobs
            .len()
    }

    /// Closes the intake and wakes all workers. Queued jobs still run.
    pub fn shutdown(&self) {
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        queue.accepting = false;
        drop(queue);
        self.shared.work_ready.notify_all();
    }

    /// Waits for every worker to drain and exit. Implies [`shutdown`].
    ///
    /// [`shutdown`]: WorkerPool::shutdown
    pub fn join(mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Respawned workers appear while joining (a panicking worker's
        // replacement), and a replacement can itself be replaced — loop
        // until the list stays empty.
        loop {
            let drained: Vec<JoinHandle<()>> = self
                .shared
                .respawned
                .lock()
                .expect("respawn list poisoned")
                .drain(..)
                .collect();
            if drained.is_empty() {
                break;
            }
            for handle in drained {
                let _ = handle.join();
            }
        }
    }
}

fn spawn_worker(shared: Arc<PoolShared>, index: usize) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("noc-worker-{index}"))
        .spawn(move || {
            let _respawn = RespawnGuard {
                shared: shared.clone(),
                index,
            };
            worker_loop(&shared);
        })
        .expect("spawn worker thread")
}

/// Replaces a worker thread that dies by panic. Dropped on every worker
/// exit; only a panicking exit (checked via [`std::thread::panicking`])
/// spawns a replacement, so graceful drain does not respawn.
struct RespawnGuard {
    shared: Arc<PoolShared>,
    index: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        self.shared.core.metrics().record_worker_respawn();
        trace_inc("service.worker.respawned");
        let replacement = spawn_worker(self.shared.clone(), self.index);
        self.shared
            .respawned
            .lock()
            .expect("respawn list poisoned")
            .push(replacement);
    }
}

/// Fails the one in-flight request with a structured `internal` error if
/// execution panics, instead of letting the reply channel close silently.
struct InFlightGuard<'a> {
    shared: &'a PoolShared,
    id: String,
    reply: Sender<Response>,
    done: bool,
}

impl InFlightGuard<'_> {
    fn finish(mut self, response: Response) {
        self.done = true;
        self.shared.core.metrics().job_finished();
        let _ = self.reply.send(response);
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // A panic is unwinding through the worker (solver bug or injected
        // fault): fail only this request. RespawnGuard replaces the
        // worker thread itself.
        self.shared.core.metrics().job_finished();
        self.shared.core.metrics().record_err(ErrorCode::Internal);
        let _ = self.reply.send(Response::err(
            self.id.clone(),
            ErrorCode::Internal,
            "worker panicked while executing the request",
        ));
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    shared
                        .core
                        .metrics()
                        .set_queue_depth(queue.jobs.len() as u64);
                    break job;
                }
                if !queue.accepting {
                    return; // drained and draining: exit
                }
                queue = shared.work_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        run_job(shared, job);
    }
}

fn run_job(shared: &PoolShared, job: Job) {
    let kind = job.envelope.request.kind();
    let Job {
        envelope,
        accepted_at,
        deadline,
        reply,
    } = job;
    if Instant::now() >= deadline {
        // Shed without running: the client has already been told (or is
        // about to be told) that the deadline passed.
        shared
            .core
            .metrics()
            .record_err(ErrorCode::DeadlineExceeded);
        trace_inc("service.deadline_exceeded");
        let _ = reply.send(Response::err(
            envelope.id.clone(),
            ErrorCode::DeadlineExceeded,
            "deadline elapsed while queued",
        ));
        return;
    }
    shared.core.metrics().job_started();
    let guard = InFlightGuard {
        shared,
        id: envelope.id.clone(),
        reply,
        done: false,
    };
    // `worker.exec` fault point: a Panic fires inside `hit` and unwinds
    // through the guards above; an Error fails the request without
    // touching the solver; a Delay has already slept in place.
    let outcome = if fp::hit("worker.exec") == Some(fp::Injected::Error) {
        Err(ExecError::Failed("injected worker failure".into()))
    } else {
        let _execute_span = noc_trace::span_labeled("request.execute", || kind.to_string());
        crate::exec::execute_with_store(
            &envelope.request,
            Some(deadline),
            Some(shared.core.cache().as_ref()),
        )
    };
    // Shared completion accounting (degraded-not-cached, write-through,
    // structured errors) lives on the core so every transport agrees.
    let response = shared
        .core
        .complete(&envelope.id, &envelope.request, accepted_at, outcome);
    guard.finish(response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};
    use std::sync::mpsc;
    use std::time::Duration;

    fn test_pool(workers: usize, capacity: usize) -> WorkerPool {
        WorkerPool::new(
            workers,
            capacity,
            Arc::new(ServiceCore::new(workers, 16, 2)),
        )
    }

    fn job(envelope: Envelope, reply: Sender<Response>, deadline_ms: u64) -> Job {
        let now = Instant::now();
        Job {
            envelope,
            accepted_at: now,
            deadline: now + Duration::from_millis(deadline_ms),
            reply,
        }
    }

    #[test]
    fn executes_and_replies() {
        let pool = test_pool(2, 8);
        let env = parse_request(r#"{"id":"t","kind":"solve","n":6,"c":3,"moves":100}"#).unwrap();
        let (tx, rx) = mpsc::channel();
        pool.submit(job(env, tx, 10_000)).unwrap();
        let resp = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(matches!(resp, Response::Ok { .. }), "got {resp:?}");
        pool.join();
    }

    #[test]
    fn sheds_when_full_and_drains_on_join() {
        let pool = test_pool(1, 1);
        let slow =
            parse_request(r#"{"id":"s","kind":"solve","n":16,"c":4,"moves":200000}"#).unwrap();
        let quick = parse_request(r#"{"id":"q","kind":"solve","n":6,"c":3,"moves":50}"#).unwrap();
        let (tx, rx) = mpsc::channel();
        // Fill the single worker and the single queue slot, possibly
        // retrying while the worker picks the first job up.
        pool.submit(job(slow.clone(), tx.clone(), 60_000)).unwrap();
        let mut queued = 1;
        let mut shed = false;
        for _ in 0..100 {
            match pool.submit(job(quick.clone(), tx.clone(), 60_000)) {
                Ok(()) => queued += 1,
                Err(SubmitError::QueueFull) => {
                    shed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(shed, "bounded queue must eventually refuse");
        // Graceful drain: every accepted job still gets a response.
        pool.join();
        let mut responses = 0;
        while rx.try_recv().is_ok() {
            responses += 1;
        }
        assert_eq!(responses, queued);
    }

    #[test]
    fn refuses_after_shutdown() {
        let pool = test_pool(1, 4);
        pool.shutdown();
        let env = parse_request(r#"{"id":"x","kind":"health"}"#).unwrap();
        assert!(matches!(env.request, Request::Health));
        let (tx, _rx) = mpsc::channel();
        let err = pool.submit(job(env, tx, 1_000)).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
        pool.join();
    }

    #[test]
    fn stale_jobs_are_shed_not_run() {
        let pool = test_pool(1, 8);
        let env = parse_request(r#"{"id":"late","kind":"solve","n":8,"c":4,"moves":100}"#).unwrap();
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        pool.submit(Job {
            envelope: env,
            accepted_at: now,
            deadline: now, // already expired
            reply: tx,
        })
        .unwrap();
        let resp = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        match resp {
            Response::Err { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
            other => panic!("expected deadline error, got {other:?}"),
        }
        pool.join();
    }

    #[test]
    fn degraded_results_are_not_cached() {
        let core = Arc::new(ServiceCore::new(1, 16, 2));
        let pool = WorkerPool::new(1, 4, core.clone());
        // 2M moves at the conservative 100 moves/ms budget needs ~20s; a
        // 2s deadline forces the degraded constructive answer.
        let env = parse_request(
            r#"{"id":"d","kind":"solve","n":12,"c":4,"moves":2000000,"deadline_ms":2000}"#,
        )
        .unwrap();
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        pool.submit(Job {
            envelope: env,
            accepted_at: now,
            deadline: now + Duration::from_secs(2),
            reply: tx,
        })
        .unwrap();
        let resp = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let Response::Ok { result, .. } = resp else {
            panic!("expected ok, got {resp:?}")
        };
        let noc_json::Value::Obj(fields) = &*result else {
            panic!("expected object")
        };
        assert_eq!(
            fields.iter().find(|(k, _)| k == "degraded").map(|(_, v)| v),
            Some(&noc_json::Value::Bool(true))
        );
        pool.join();
        assert!(
            core.cache().is_empty(),
            "degraded results must not be written through to the cache"
        );
        assert_eq!(
            core.metrics()
                .snapshot()
                .get("degraded")
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }
}
