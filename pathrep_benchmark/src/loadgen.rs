//! Open-loop load generation: requests go out on a fixed schedule whatever
//! the server does, and each is timed from the moment it was due, so a
//! stall also charges the requests that queue behind it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Rows in a batched request.
pub const BATCH_ROWS: usize = 8;

/// One request of the traffic mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Binary 1-row `predict` of chip `chip` on model `model`.
    Binary { model: usize, chip: usize },
    /// Binary `predict_batch` of [`BATCH_ROWS`] chips.
    Batch { model: usize, chips: Vec<usize> },
    /// JSON 1-row `predict`.
    Json { model: usize, chip: usize },
    /// `load_model` of re-labelled artifact `variant`.
    Load { variant: usize },
}

/// A request with its due time (seconds from the phase start) and the
/// generator thread that sends it.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    pub due_s: f64,
    pub thread: usize,
    pub op: Op,
}

/// Traffic mix parameters.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Number of models, picked 40/30/20/10 (the first four shares).
    pub models: usize,
    /// Chip payloads available per model.
    pub chips: usize,
    /// Re-labelled artifacts to cycle through.
    pub variants: usize,
    /// Generator threads.
    pub threads: usize,
    /// Seconds between `load_model` writes (sent by thread 0).
    pub load_every_s: f64,
}

const MODEL_SHARES: [f64; 4] = [0.4, 0.3, 0.2, 0.1];

/// The seeded schedule of one phase: `rate` requests per second for
/// `seconds`, evenly spaced and dealt round-robin to the threads, 70 %
/// binary 1-row, 20 % binary 8-row and 10 % JSON 1-row, plus a
/// `load_model` every `mix.load_every_s`, the first half an interval in.
pub fn schedule(seed: u64, rate: f64, seconds: f64, mix: &Mix) -> Vec<Scheduled> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (rate * seconds).round() as usize;
    let mut out = Vec::with_capacity(n + 8);
    let mut next_load = mix.load_every_s / 2.0;
    let mut variant = 0;
    for k in 0..n {
        let due_s = k as f64 / rate;
        while next_load <= due_s {
            out.push(Scheduled {
                due_s: next_load,
                thread: 0,
                op: Op::Load { variant },
            });
            variant = (variant + 1) % mix.variants;
            next_load += mix.load_every_s;
        }
        let pick: f64 = rng.gen();
        let mut model = mix.models - 1;
        let mut acc = 0.0;
        for (m, share) in MODEL_SHARES.iter().take(mix.models).enumerate() {
            acc += share;
            if pick < acc {
                model = m;
                break;
            }
        }
        let kind: f64 = rng.gen();
        let op = if kind < 0.7 {
            Op::Binary {
                model,
                chip: rng.gen_range(0..mix.chips),
            }
        } else if kind < 0.9 {
            Op::Batch {
                model,
                chips: (0..BATCH_ROWS)
                    .map(|_| rng.gen_range(0..mix.chips))
                    .collect(),
            }
        } else {
            Op::Json {
                model,
                chip: rng.gen_range(0..mix.chips),
            }
        };
        out.push(Scheduled {
            due_s,
            thread: k % mix.threads,
            op,
        });
    }
    out
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The reply is bit-identical to the precomputed offline reply.
    Ok,
    /// The reply arrived but differs from the offline reply.
    Mismatch,
    /// An error reply, a shed request or a broken connection.
    Error,
}

/// One sent request, in seconds from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    /// How late the generator itself sent: after the later of the due
    /// time and the previous reply on the same connection.
    pub late_s: f64,
    pub outcome: Outcome,
}

impl Sample {
    /// Latency from the due time, which includes any wait behind an
    /// earlier slow request on the same connection.
    pub fn latency_s(&self) -> f64 {
        self.done_s - self.due_s
    }

    /// Round trip as the client saw it, from the actual send.
    pub fn rtt_s(&self) -> f64 {
        self.done_s - self.sent_s
    }
}

/// Sleeps, then spins the last stretch, until `start + due_s`.
fn wait_until(start: Instant, due_s: f64) {
    let due = start + Duration::from_secs_f64(due_s);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Sends `ops` in order on one connection through `send`, each no
/// earlier than its due time, and times every request.
pub fn run<'a, F>(
    ops: impl IntoIterator<Item = &'a Scheduled>,
    start: Instant,
    mut send: F,
) -> Vec<Sample>
where
    F: FnMut(&Op) -> Outcome,
{
    let mut samples = Vec::new();
    let mut prev_done = 0.0_f64;
    for s in ops {
        wait_until(start, s.due_s);
        let sent_s = start.elapsed().as_secs_f64();
        let outcome = send(&s.op);
        let done_s = start.elapsed().as_secs_f64();
        samples.push(Sample {
            due_s: s.due_s,
            sent_s,
            done_s,
            late_s: (sent_s - s.due_s.max(prev_done)).max(0.0),
            outcome,
        });
        prev_done = done_s;
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        models: 4,
        chips: 16,
        variants: 3,
        threads: 2,
        load_every_s: 0.5,
    };

    fn evenly(n: usize, step_s: f64) -> Vec<Scheduled> {
        (0..n)
            .map(|k| Scheduled {
                due_s: k as f64 * step_s,
                thread: 0,
                op: Op::Binary { model: 0, chip: 0 },
            })
            .collect()
    }

    #[test]
    fn one_stall_inflates_the_requests_queued_behind_it() {
        let ops = evenly(6, 0.002);
        let mut k = 0;
        let samples = run(&ops, Instant::now(), |_| {
            k += 1;
            if k == 2 {
                std::thread::sleep(Duration::from_millis(40));
            }
            Outcome::Ok
        });
        // Request 1 stalls; requests 2..5 were due during the stall and
        // each is charged the wait, from its own due time.
        for s in &samples[2..] {
            assert!(s.latency_s() > 0.025, "queued latency {}", s.latency_s());
            assert!(s.rtt_s() < 0.01, "its own round trip is fast");
            assert!(s.late_s < 0.005, "the generator itself was not late");
        }
        assert!(samples[2].latency_s() > samples[5].latency_s());
        assert!(samples[0].latency_s() < 0.01);
    }

    #[test]
    fn generator_lateness_is_reported() {
        let ops = evenly(3, 0.001);
        // A phase whose clock started 20 ms before the generator ran.
        let start = Instant::now() - Duration::from_millis(20);
        let samples = run(&ops, start, |_| Outcome::Ok);
        assert!(samples[0].late_s >= 0.019, "late {}", samples[0].late_s);
        assert!(samples[0].latency_s() >= samples[0].late_s);
    }

    #[test]
    fn schedule_has_the_declared_rate_mix_and_writes() {
        let s = schedule(5, 4000.0, 2.0, &MIX);
        let predicts: Vec<_> = s
            .iter()
            .filter(|r| !matches!(r.op, Op::Load { .. }))
            .collect();
        assert_eq!(predicts.len(), 8000);
        let loads = s.iter().filter(|r| matches!(r.op, Op::Load { .. })).count();
        assert_eq!(loads, 4, "writes at 0.25, 0.75, 1.25 and 1.75 s");
        let share = |f: fn(&Op) -> bool| {
            predicts.iter().filter(|r| f(&r.op)).count() as f64 / predicts.len() as f64
        };
        assert!((share(|o| matches!(o, Op::Binary { .. })) - 0.7).abs() < 0.03);
        assert!((share(|o| matches!(o, Op::Batch { .. })) - 0.2).abs() < 0.03);
        assert!((share(|o| matches!(o, Op::Json { .. })) - 0.1).abs() < 0.03);
        let model0 = predicts
            .iter()
            .filter(|r| {
                matches!(
                    r.op,
                    Op::Binary { model: 0, .. }
                        | Op::Batch { model: 0, .. }
                        | Op::Json { model: 0, .. }
                )
            })
            .count() as f64;
        assert!((model0 / predicts.len() as f64 - 0.4).abs() < 0.03);
        assert!(
            s.windows(2).all(|w| w[0].due_s <= w[1].due_s),
            "due times ascend"
        );
        assert!(predicts.iter().all(|r| r.thread < 2));
    }
}
