//! Idle-priority spinners that keep every CPU out of its idle halt while
//! `serve-mix` runs.
//!
//! On a virtual machine, a thread woken on a halted vCPU waits for the
//! hypervisor to schedule that vCPU again; on a 2-vCPU VM shared with
//! other tenants that wait ranged from microseconds to milliseconds from
//! one run to the next, and swamped the served latencies (a `serve-mix`
//! p50 moved between 0.8 and 1.35 ms across runs of one seed, against
//! 0.41–0.53 ms with spinners). One `SCHED_IDLE` busy loop per CPU runs
//! only when nothing else wants that CPU, so wake-ups stay inside the
//! guest and the figures measure the program rather than the hypervisor.
//! A spinner can still slow compute on a sibling hardware thread; that
//! costs every run the same, while the wake-up waits it removes do not.

use std::process::{Child, Command, Stdio};

pub struct Spinners(Vec<Child>);

impl Spinners {
    /// Starts one spinner per CPU via `chrt --idle 0`; without `chrt`
    /// the run goes on unconditioned and the returned note says so.
    pub fn start() -> (Spinners, Option<String>) {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut spinners = Spinners(Vec::with_capacity(cpus));
        for _ in 0..cpus {
            let child = Command::new("chrt")
                // Exits by itself once this process is gone, even if it
                // was killed before it could stop its spinners.
                .args([
                    "--idle",
                    "0",
                    "sh",
                    "-c",
                    "while kill -0 $PPID 2>/dev/null; do :; done",
                ])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn();
            match child {
                Ok(c) => spinners.0.push(c),
                Err(e) => {
                    drop(spinners);
                    return (
                        Spinners(Vec::new()),
                        Some(format!("no idle spinners ({e})")),
                    );
                }
            }
        }
        (spinners, None)
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}
