//! The three kinds of timed phase every workload is assembled from, and
//! the correctness checks that run inside them.
//!
//! * **read** — closed loop: each client sends its next batch only after
//!   the previous reply, so a slower system receives less load.
//! * **mixed** — one closed-loop reader beside one **open-loop** writer
//!   that sends an update frame on a fixed schedule whatever the system
//!   does; every delay is timed from the moment the frame was *due*, so
//!   a stall charges the frames queued behind it. Each frame carries a
//!   marker route the reader watches for: due → visible is freshness.
//! * **storm** — one client sends update frames as fast as the default
//!   ack window allows, then a sentinel, and polls until the sentinel is
//!   visible: timing to visibility, not to ack, keeps the ingress queue
//!   from hiding apply cost.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use clue_fib::{NextHop, Trie, Update};

use crate::inputs::Marker;
use crate::stack::Client;
use crate::trace::Tracer;

/// One in sixteen batches of a read-only window is checked inline
/// against the reference; markers and sentinels are always checked.
const CHECK_EVERY: u64 = 16;
/// At most this many outstanding markers ride on one reader batch.
const MARKERS_PER_BATCH: usize = 16;
/// How long after the last frame the reader keeps looking for markers,
/// and how long the storm waits for its sentinel, before counting them
/// as never visible.
const VISIBILITY_GRACE: Duration = Duration::from_secs(20);
/// An open-loop frame sent more than this after its due time is late.
pub const LATE_AFTER: Duration = Duration::from_millis(1);

#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Lookups sent, updates sent, markers and sentinels awaited.
    pub attempted: u64,
    /// Wrong or unanswered lookups, updates never acknowledged, markers
    /// and sentinels never visible.
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What every phase needs besides its own parameters.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    /// Longest-prefix match on the original RIB.
    pub reference: &'a Trie<NextHop>,
    pub tracer: &'a Tracer,
    /// Span id of the enclosing workload.
    pub parent: u64,
}

/// Answers that disagree with the reference (a short reply counts every
/// address as wrong).
pub fn wrong_answers(reference: &Trie<NextHop>, addrs: &[u32], got: &[Option<NextHop>]) -> u64 {
    if got.len() != addrs.len() {
        return addrs.len() as u64;
    }
    addrs
        .iter()
        .zip(got)
        .filter(|(&a, &nh)| reference.lookup(a).map(|(_, &v)| v) != nh)
        .count() as u64
}

/// Latency samples of a closed loop.
#[derive(Debug, Default)]
pub struct ReadOut {
    /// `(seconds since the measured window began, latency µs)` per batch.
    pub samples: Vec<(f64, f64)>,
    /// Addresses answered inside the window.
    pub addrs: u64,
    /// Addresses per batch (per sample).
    pub batch: usize,
    pub window_s: f64,
    pub tally: Tally,
}

/// Length of the slices `median_rate` cuts a window into.
const RATE_SLICE_S: f64 = 0.25;

impl ReadOut {
    /// The window as measured: up to the last counted reply, which in a
    /// closed loop lands within a batch of the nominal end.
    fn close_window(&mut self, nominal: Duration) {
        let last = self.samples.iter().map(|s| s.0).fold(0.0, f64::max);
        self.window_s = if last > 0.0 {
            last
        } else {
            nominal.as_secs_f64()
        };
    }

    /// Mean rate over the whole window.
    pub fn rate(&self) -> f64 {
        self.addrs as f64 / self.window_s
    }

    /// Median of the rates of the window's quarter-second slices. The
    /// sandbox stalls for a second or more now and then; a stall moves
    /// the mean rate of a 9 s window by a tenth and this not at all. The
    /// last, partial slice is left out; a window too short for four
    /// whole slices reports the mean.
    pub fn median_rate(&self) -> f64 {
        let whole = (self.window_s / RATE_SLICE_S) as usize;
        if whole < 4 {
            return self.rate();
        }
        let mut per_slice = vec![0.0; whole];
        for &(at, _) in &self.samples {
            if let Some(slot) = per_slice.get_mut((at / RATE_SLICE_S) as usize) {
                *slot += self.batch as f64 / RATE_SLICE_S;
            }
        }
        crate::stats::median(&per_slice).expect("at least four slices")
    }

    pub fn latencies_sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        crate::stats::sort(&mut v);
        v
    }
}

/// The next `batch` addresses of a cycled stream.
fn next_slice<'a>(stream: &'a [u32], pos: &mut usize, batch: usize) -> &'a [u32] {
    if *pos + batch > stream.len() {
        *pos = 0;
    }
    let slice = &stream[*pos..*pos + batch];
    *pos += batch;
    slice
}

/// Closed loop: every client in its own thread, `batch` addresses per
/// request, `warm` discarded, then `window` measured.
pub fn read_phase(
    clients: &mut [Box<dyn Client>],
    stream: &[u32],
    batch: usize,
    warm: Duration,
    window: Duration,
    ctx: &Ctx<'_>,
    name: &'static str,
) -> ReadOut {
    assert!(batch > 0 && stream.len() >= batch && !clients.is_empty());
    let phase_id = ctx.tracer.reserve();
    let phase_start = Instant::now();
    let begin = phase_start + warm;
    let end = begin + window;
    let n = clients.len();
    let outs: Vec<ReadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                s.spawn(move || {
                    let mut spans = ctx.tracer.local();
                    let mut out = ReadOut::default();
                    // Staggered starts: the clients do not walk the same
                    // addresses in lock-step.
                    let mut pos = (t * stream.len() / n) / batch * batch;
                    let mut sent = 0u64;
                    loop {
                        let t0 = Instant::now();
                        if t0 >= end {
                            break;
                        }
                        let addrs = next_slice(stream, &mut pos, batch);
                        let reply = client.lookup(addrs);
                        let t1 = Instant::now();
                        let measured = t0 >= begin;
                        if measured {
                            out.tally.attempted += batch as u64;
                        }
                        let Ok(got) = reply else {
                            // The connection already retried; the line
                            // is gone and the run is not correct.
                            out.tally.attempted += u64::from(!measured) * batch as u64;
                            out.tally.failed += batch as u64;
                            break;
                        };
                        if measured {
                            spans.record(
                                "client.lookup",
                                phase_id,
                                (t as u64) << 32 | sent,
                                t0,
                                t1,
                            );
                            out.samples
                                .push(((t1 - begin).as_secs_f64(), (t1 - t0).as_secs_f64() * 1e6));
                            out.addrs += batch as u64;
                            if sent.is_multiple_of(CHECK_EVERY) {
                                out.tally.failed += wrong_answers(ctx.reference, addrs, &got);
                            }
                        }
                        sent += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread does not panic"))
            .collect()
    });
    ctx.tracer
        .local()
        .record_as(phase_id, name, ctx.parent, 0, phase_start, Instant::now());
    let mut merged = ReadOut {
        batch,
        ..ReadOut::default()
    };
    for o in outs {
        merged.samples.extend(o.samples);
        merged.addrs += o.addrs;
        merged.tally.add(o.tally);
    }
    merged.close_window(window);
    merged
}

/// The open-loop schedule of a mixed phase.
#[derive(Debug, Clone, Copy)]
pub struct MixedPlan {
    /// Trace updates per frame (one marker announce is added to each).
    pub frame_updates: usize,
    /// One frame is due every `period`.
    pub period: Duration,
    /// Stream addresses per reader batch.
    pub batch: usize,
    /// Index of the first marker this phase uses.
    pub first_marker: u32,
}

#[derive(Debug, Default)]
pub struct MixedOut {
    pub read: ReadOut,
    /// Frame due → acknowledged, µs, frames due inside the window.
    pub ack_us: Vec<f64>,
    /// Marker due → first reply showing it, ms.
    pub fresh_ms: Vec<f64>,
    /// Frames due inside the window, and how many left late.
    pub frames: u64,
    pub late: u64,
    /// Everything sent, in order, for the final-table check.
    pub sent: Vec<Update>,
    /// How much of `trace` the frames consumed.
    pub trace_used: usize,
    pub tally: Tally,
}

struct Outstanding {
    marker: Marker,
    due: Instant,
    frame: u64,
}

/// Pairs reply slots with the markers that rode on the batch: returns
/// the positions (into `riding`) of markers whose next hop the reply
/// shows.
pub fn visible_markers(riding: &[Marker], marker_replies: &[Option<NextHop>]) -> Vec<usize> {
    riding
        .iter()
        .zip(marker_replies)
        .enumerate()
        .filter(|(_, (m, got))| **got == Some(m.next_hop))
        .map(|(i, _)| i)
        .collect()
}

/// Whether a frame that left at `sent` was late for `due`.
pub fn is_late(due: Instant, sent: Instant) -> bool {
    sent.saturating_duration_since(due) > LATE_AFTER
}

/// One closed-loop reader beside one open-loop writer.
#[allow(clippy::too_many_arguments)]
pub fn mixed_phase(
    reader: &mut dyn Client,
    writer: &mut dyn Client,
    stream: &[u32],
    trace: &[Update],
    plan: MixedPlan,
    warm: Duration,
    window: Duration,
    ctx: &Ctx<'_>,
) -> MixedOut {
    let phase_id = ctx.tracer.reserve();
    let phase_start = Instant::now();
    let begin = phase_start + warm;
    let total_frames = ((warm + window).as_secs_f64() / plan.period.as_secs_f64()) as u64;
    let outstanding: Mutex<Vec<Outstanding>> = Mutex::new(Vec::new());
    let writer_done = AtomicBool::new(false);

    let (mut out, read) = std::thread::scope(|s| {
        let writer_thread = s.spawn(|| {
            let mut spans = ctx.tracer.local();
            let mut out = MixedOut::default();
            for k in 0..total_frames {
                let due = phase_start + plan.period.mul_f64(k as f64);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let measured = due >= begin;
                let marker = Marker::nth(plan.first_marker + k as u32);
                let take = plan.frame_updates.min(trace.len() - out.trace_used);
                let mut frame = trace[out.trace_used..out.trace_used + take].to_vec();
                out.trace_used += take;
                frame.push(marker.announce());
                outstanding
                    .lock()
                    .expect("marker list not poisoned")
                    .push(Outstanding {
                        marker,
                        due,
                        frame: k,
                    });
                let t_send = Instant::now();
                let acked = writer
                    .send_updates(&frame)
                    .and_then(|()| writer.flush_acks());
                let t_ack = Instant::now();
                // The frame's updates, and the marker awaited by the reader.
                out.tally.attempted += frame.len() as u64 + 1;
                out.sent.extend_from_slice(&frame);
                if acked.is_err() {
                    out.tally.failed += frame.len() as u64;
                    break;
                }
                spans.record("client.update_frame", phase_id, k, t_send, t_ack);
                if measured {
                    out.frames += 1;
                    out.late += u64::from(is_late(due, t_send));
                    out.ack_us.push((t_ack - due).as_secs_f64() * 1e6);
                }
            }
            writer_done.store(true, Ordering::Release);
            out
        });

        let reader_thread = s.spawn(|| {
            let mut spans = ctx.tracer.local();
            let mut out = ReadOut {
                batch: plan.batch,
                ..ReadOut::default()
            };
            let mut fresh_ms = Vec::new();
            let mut never_visible = 0u64;
            let end = begin + window;
            let mut pos = 0usize;
            let mut sent = 0u64;
            let mut grace_until = None;
            loop {
                let riding: Vec<(Marker, Instant, u64)> = {
                    let list = outstanding.lock().expect("marker list not poisoned");
                    list.iter()
                        .take(MARKERS_PER_BATCH)
                        .map(|o| (o.marker, o.due, o.frame))
                        .collect()
                };
                if writer_done.load(Ordering::Acquire) {
                    if riding.is_empty() {
                        break;
                    }
                    let until = *grace_until.get_or_insert(Instant::now() + VISIBILITY_GRACE);
                    if Instant::now() > until {
                        never_visible =
                            outstanding.lock().expect("marker list not poisoned").len() as u64;
                        break;
                    }
                }
                let mut addrs = next_slice(stream, &mut pos, plan.batch).to_vec();
                addrs.extend(riding.iter().map(|r| r.0.addr));
                let t0 = Instant::now();
                let Ok(got) = reader.lookup(&addrs) else {
                    out.tally.attempted += addrs.len() as u64;
                    out.tally.failed += addrs.len() as u64;
                    break;
                };
                let t1 = Instant::now();
                if t0 >= begin && t1 <= end {
                    spans.record("client.lookup", phase_id, 1 << 32 | sent, t0, t1);
                    out.tally.attempted += plan.batch as u64;
                    out.samples
                        .push(((t1 - begin).as_secs_f64(), (t1 - t0).as_secs_f64() * 1e6));
                    out.addrs += plan.batch as u64;
                }
                sent += 1;
                let markers: Vec<Marker> = riding.iter().map(|r| r.0).collect();
                let seen = visible_markers(&markers, got.get(plan.batch..).unwrap_or(&[]));
                if !seen.is_empty() {
                    let mut list = outstanding.lock().expect("marker list not poisoned");
                    for &i in &seen {
                        let (marker, due, frame) = riding[i];
                        list.retain(|o| o.marker != marker);
                        spans.record("marker.fresh", phase_id, frame, due, t1);
                        if due >= begin {
                            fresh_ms.push((t1 - due).as_secs_f64() * 1e3);
                        }
                    }
                }
            }
            (out, fresh_ms, never_visible)
        });

        let out = writer_thread.join().expect("writer does not panic");
        let read = reader_thread.join().expect("reader does not panic");
        (out, read)
    });
    ctx.tracer.local().record_as(
        phase_id,
        "phase.mixed",
        ctx.parent,
        0,
        phase_start,
        Instant::now(),
    );
    let (mut read, fresh_ms, never_visible) = read;
    read.close_window(window);
    // Every marker sent is awaited; the ones never seen failed.
    out.tally.add(std::mem::take(&mut read.tally));
    out.tally.failed += never_visible;
    out.read = read;
    out.fresh_ms = fresh_ms;
    out
}

#[derive(Debug, Default)]
pub struct StormOut {
    /// Updates sent between the first send and the sentinel, inclusive.
    pub updates: u64,
    /// First send → sentinel visible.
    pub elapsed_s: f64,
    /// The trace ran out before the window did (the update plane
    /// outran `inputs::UPDATES_PER_WINDOW_S`).
    pub exhausted: bool,
    pub sent: Vec<Update>,
    pub tally: Tally,
}

/// Update frames of `frame` updates flat out for `window`, then the
/// sentinel, then poll until it is visible.
pub fn storm_phase(
    client: &mut dyn Client,
    trace: &[Update],
    frame: usize,
    window: Duration,
    sentinel: Marker,
    ctx: &Ctx<'_>,
) -> StormOut {
    let phase_id = ctx.tracer.reserve();
    let mut spans = ctx.tracer.local();
    let mut out = StormOut::default();
    let t0 = Instant::now();
    let mut frames = trace.chunks(frame);
    let mut k = 0u64;
    let lost = loop {
        if t0.elapsed() >= window {
            break false;
        }
        let Some(chunk) = frames.next() else {
            out.exhausted = true;
            break false;
        };
        let t_send = Instant::now();
        out.tally.attempted += chunk.len() as u64;
        out.sent.extend_from_slice(chunk);
        if client.send_updates(chunk).is_err() {
            out.tally.failed += chunk.len() as u64;
            break true;
        }
        spans.record("client.update_frame", phase_id, k, t_send, Instant::now());
        k += 1;
    };
    out.tally.attempted += 1;
    out.sent.push(sentinel.announce());
    let t_sentinel = Instant::now();
    let visible = !lost
        && client
            .send_updates(&[sentinel.announce()])
            .and_then(|()| client.flush_acks())
            .is_ok()
        && loop {
            match client.lookup(&[sentinel.addr]) {
                Ok(got) if got == [Some(sentinel.next_hop)] => break true,
                Ok(_) if t_sentinel.elapsed() < VISIBILITY_GRACE => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                _ => break false,
            }
        };
    let t_end = Instant::now();
    spans.record("sentinel.fresh", phase_id, k, t_sentinel, t_end);
    spans.record_as(phase_id, "phase.storm", ctx.parent, 0, t0, t_end);
    if !visible {
        out.tally.failed += 1;
    }
    out.updates = out.sent.len() as u64;
    out.elapsed_s = (t_end - t0).as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Inputs;
    use crate::stack::{Stack, StackKind};
    use std::collections::HashMap;
    use std::io;
    use std::sync::Arc;

    /// A stand-in system: a shared host-route table that applies update
    /// frames after a configurable delay, so the phases' own accounting
    /// can be tested against known timings.
    #[derive(Clone)]
    struct Fake {
        table: Arc<Mutex<HashMap<u32, NextHop>>>,
        /// How long `flush_acks` takes (the "journal").
        ack_delay: Duration,
        /// Whether announces ever become visible to lookups.
        publishes: bool,
        pending: Vec<Update>,
    }

    impl Fake {
        fn new(ack_delay: Duration, publishes: bool) -> Fake {
            Fake {
                table: Arc::default(),
                ack_delay,
                publishes,
                pending: Vec::new(),
            }
        }
    }

    impl Client for Fake {
        fn lookup(&mut self, addrs: &[u32]) -> io::Result<Vec<Option<NextHop>>> {
            let table = self.table.lock().unwrap();
            Ok(addrs.iter().map(|a| table.get(a).copied()).collect())
        }

        fn send_updates(&mut self, frame: &[Update]) -> io::Result<()> {
            self.pending.extend_from_slice(frame);
            Ok(())
        }

        fn flush_acks(&mut self) -> io::Result<()> {
            std::thread::sleep(self.ack_delay);
            let mut table = self.table.lock().unwrap();
            for u in self.pending.drain(..) {
                if let (true, Update::Announce { prefix, next_hop }) = (self.publishes, u) {
                    table.insert(prefix.low(), next_hop);
                }
            }
            Ok(())
        }

        fn close(self: Box<Self>) -> io::Result<(u64, u64)> {
            Ok((0, 0))
        }
    }

    fn ctx<'a>(reference: &'a Trie<NextHop>, tracer: &'a Tracer) -> Ctx<'a> {
        Ctx {
            reference,
            tracer,
            parent: 0,
        }
    }

    #[test]
    fn median_rate_ignores_a_stall_the_mean_rate_feels() {
        // 2 s of one 64-address batch per millisecond, with nothing
        // answered between 0.5 s and 1.0 s.
        let mut out = ReadOut {
            batch: 64,
            window_s: 2.0,
            ..ReadOut::default()
        };
        for ms in (0..2000).filter(|ms| !(500..1000).contains(ms)) {
            out.samples.push((ms as f64 / 1e3 + 0.0005, 100.0));
            out.addrs += 64;
        }
        assert_eq!(out.rate(), 48_000.0);
        assert_eq!(out.median_rate(), 64_000.0);
        // Too short for four slices: the mean.
        out.window_s = 0.9;
        assert_eq!(out.median_rate(), out.rate());
    }

    #[test]
    fn visible_markers_match_on_next_hop_only() {
        let riding = [Marker::nth(0), Marker::nth(1), Marker::nth(2)];
        let replies = [
            Some(Marker::nth(0).next_hop), // visible
            Some(NextHop(7)),              // still the covering route
            None,                          // no route at all
        ];
        assert_eq!(visible_markers(&riding, &replies), vec![0]);
        // A reply shorter than the markers that rode (a confused peer)
        // shows none of the missing ones.
        assert_eq!(visible_markers(&riding, &replies[..1]), vec![0]);
        assert!(visible_markers(&riding, &[]).is_empty());
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_frames_queued_behind_it() {
        let due = Instant::now();
        assert!(!is_late(due, due));
        assert!(!is_late(due, due + LATE_AFTER));
        assert!(is_late(due, due + LATE_AFTER + Duration::from_micros(1)));
        // A frame that leaves *before* it is due is not late.
        assert!(!is_late(due + Duration::from_secs(1), due));

        // Acks take 12 ms, frames are due every 4 ms: the writer falls
        // further behind with every frame. Timed from the send, every
        // ack would read 12 ms; timed from the due time, the k-th reads
        // about 12 + 8k ms.
        let tracer = Tracer::new(false);
        let reference = Trie::new();
        let fake = Fake::new(Duration::from_millis(12), true);
        let out = mixed_phase(
            &mut fake.clone(),
            &mut fake.clone(),
            &[1, 2, 3, 4],
            &[],
            MixedPlan {
                frame_updates: 0,
                period: Duration::from_millis(4),
                batch: 4,
                first_marker: 0,
            },
            Duration::ZERO,
            Duration::from_millis(40),
            &ctx(&reference, &tracer),
        );
        assert_eq!(out.frames, 10);
        assert_eq!(out.ack_us.len(), 10);
        assert!(
            out.late >= 8,
            "only the first frame or two leave on time: {}",
            out.late
        );
        assert!(
            out.ack_us[0] >= 12_000.0 && out.ack_us[0] < 30_000.0,
            "{:?}",
            out.ack_us
        );
        assert!(
            out.ack_us[9] >= 12_000.0 + 9.0 * 8_000.0,
            "the tenth ack waited behind nine slow ones: {:?}",
            out.ack_us
        );
        assert!(
            out.ack_us.windows(2).all(|w| w[1] > w[0]),
            "{:?}",
            out.ack_us
        );
        // Every marker became visible, no sooner than its ack.
        assert_eq!(out.fresh_ms.len(), 10);
        assert!(out.fresh_ms.iter().all(|&ms| ms >= 12.0));
        assert_eq!(out.tally.failed, 0);
        assert_eq!(out.sent.len(), 10);
    }

    #[test]
    fn storm_counts_what_it_sent_and_sees_its_sentinel() {
        let tracer = Tracer::new(false);
        let reference = Trie::new();
        let trace: Vec<Update> = (0..64).map(|k| Marker::nth(k).announce()).collect();
        let sentinel = Marker::nth(1_000);

        let mut good = Fake::new(Duration::ZERO, true);
        let out = storm_phase(
            &mut good,
            &trace,
            32,
            Duration::from_millis(50),
            sentinel,
            &ctx(&reference, &tracer),
        );
        assert!(out.exhausted, "64 updates do not last 50 ms");
        assert_eq!(out.updates, 65);
        assert_eq!(out.tally.attempted, 65);
        assert_eq!(out.tally.failed, 0);
        assert!(out.elapsed_s > 0.0);
    }

    /// The mutation test: the checks must bite. One corrupted expected
    /// next hop in the reference and the same run reports failures.
    #[test]
    fn corrupting_one_expected_next_hop_fails_the_run() {
        let inputs = Inputs::generate_scaled(5, 2_000, 8_192, 10);
        let scratch = std::env::temp_dir();
        let tracer = Tracer::new(false);
        let run = |reference: &Trie<NextHop>| {
            let stack = Stack::boot(StackKind::Direct, &inputs.rib, &scratch).unwrap();
            let mut clients = vec![stack.client().unwrap()];
            let out = read_phase(
                &mut clients,
                &inputs.uniform,
                64,
                Duration::ZERO,
                Duration::from_millis(200),
                &ctx(reference, &tracer),
                "phase.read64",
            );
            for c in clients {
                c.close().unwrap();
            }
            assert!(stack.shutdown(&inputs.rib).unwrap().table_ok);
            out.tally
        };

        let honest = run(&inputs.reference);
        assert!(honest.attempted > 0);
        assert_eq!(
            honest.failed, 0,
            "the system answers the reference's answers"
        );

        // The first address of the stream is in the first batch, which is
        // one of the checked ones.
        let addr = inputs.uniform[0];
        let (prefix, &nh) = inputs
            .reference
            .lookup(addr)
            .expect("stream targets the table");
        let mut corrupted = inputs.rib.to_trie();
        corrupted.insert(prefix, NextHop(nh.0 ^ 1));
        let mutated = run(&corrupted);
        assert!(mutated.failed > 0, "a wrong expectation must surface");
        assert!(mutated.failed as f64 / mutated.attempted as f64 > 0.0);
    }
}
