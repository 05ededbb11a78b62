//! The Volcano-style Exchange operator (§I-B multi-core parallelization).
//!
//! `P` worker threads each compile and run their own copy of the child plan
//! against one shared [`SharedExec`] registry: every `VecScan` below pulls
//! row-group morsels from a common work-stealing queue (dynamic load balance,
//! no static `g % P` assignment), and every hash join builds its hash table
//! exactly once — the first worker to reach the join runs the build, the
//! rest block briefly and share the frozen result. Batches stream back
//! through a bounded channel; the consumer unions them in arrival order
//! (exchange output is unordered, like the SQL semantics of the operators it
//! wraps).
//!
//! Failure semantics: a worker error (or panic) poisons the stream — the
//! first `next()` to observe it joins all workers and returns `Err`; every
//! subsequent `next()` returns the same error again rather than masquerading
//! as a clean end-of-stream with silently truncated results.

use crate::batch::Batch;
use crate::compile::{compile_plan, ExecContext};
use crate::morsel::SharedExec;
use crossbeam::channel::{bounded, Receiver};
use std::thread::JoinHandle;
use vw_common::{Result, Schema, VwError};
use vw_plan::LogicalPlan;

use super::Operator;

/// Exchange operator.
pub struct Exchange {
    plan: LogicalPlan,
    ctx: ExecContext,
    partitions: usize,
    schema: Schema,
    rx: Option<Receiver<Result<Batch>>>,
    workers: Vec<JoinHandle<()>>,
    /// First error observed; re-polls keep returning it (stream poisoned).
    poisoned: Option<VwError>,
}

impl Exchange {
    pub fn new(plan: LogicalPlan, ctx: ExecContext, partitions: usize) -> Result<Exchange> {
        let schema = plan
            .schema()
            .map_err(|e| VwError::Plan(format!("exchange child schema: {}", e)))?;
        Ok(Exchange {
            plan,
            ctx,
            partitions: partitions.max(1),
            schema,
            rx: None,
            workers: Vec::new(),
            poisoned: None,
        })
    }

    fn spawn(&mut self) {
        let (tx, rx) = bounded::<Result<Batch>>(self.partitions * 2);
        // One registry for the whole worker gang: morsel queues and join
        // build slots are keyed by plan position, so identical plan clones
        // compiled on each thread resolve to the same shared state.
        let shared = SharedExec::new(self.partitions, self.ctx.stats.clone());
        for worker in 0..self.partitions {
            let tx = tx.clone();
            let plan = self.plan.clone();
            let mut ctx = self.ctx.clone();
            ctx.shared = Some(shared.clone());
            ctx.worker = worker;
            // Trace events carry the recording thread: worker ids 1..=P
            // (0 stays the coordinating thread above the Exchange).
            if let Some(t) = &ctx.trace {
                ctx.trace = Some(t.with_worker(worker + 1));
            }
            let handle = std::thread::spawn(move || {
                let mut op = match compile_plan(&plan, &ctx) {
                    Ok(op) => op,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                };
                loop {
                    match op.next() {
                        Ok(Some(batch)) => {
                            // Dense strings cross threads: selection vectors
                            // and dictionary codes are producer-local
                            // optimizations.
                            if tx.send(Ok(batch.materialize())).is_err() {
                                return; // consumer went away
                            }
                        }
                        Ok(None) => return,
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            return;
                        }
                    }
                }
            });
            self.workers.push(handle);
        }
        // Drop the original sender so the channel closes when workers finish.
        drop(tx);
        self.rx = Some(rx);
    }

    /// Join all workers; report the first panic as an execution error so a
    /// crashed worker can never pass for a clean (truncated) end-of-stream.
    fn join_workers(&mut self) -> Option<VwError> {
        let mut panicked = None;
        for h in self.workers.drain(..) {
            if let Err(payload) = h.join() {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".into());
                panicked.get_or_insert(VwError::Exec(format!("exchange worker panicked: {}", msg)));
            }
        }
        panicked
    }

    fn poison(&mut self, e: VwError) -> VwError {
        self.poisoned = Some(e.clone());
        e
    }
}

impl Operator for Exchange {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn profile_extras(&self) -> Vec<(&'static str, u64)> {
        vec![("workers", self.partitions as u64)]
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.rx.is_none() {
            self.spawn();
        }
        match self.rx.as_ref().unwrap().recv() {
            Ok(Ok(batch)) => Ok(Some(batch)),
            Ok(Err(e)) => {
                self.rx = None; // disconnect; workers stop on send failure
                self.join_workers();
                Err(self.poison(e))
            }
            Err(_) => {
                // All senders dropped. Either every worker finished cleanly
                // (end of stream) or one panicked before sending an error —
                // joining distinguishes the two.
                match self.join_workers() {
                    Some(e) => Err(self.poison(e)),
                    None => Ok(None),
                }
            }
        }
    }
}

impl Drop for Exchange {
    fn drop(&mut self) {
        self.rx = None;
        self.join_workers();
    }
}

// Tests live in `crate::compile` where plan construction helpers exist.
