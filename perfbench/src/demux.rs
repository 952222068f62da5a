//! `demux_steady` and `demux_churn`: packet classification through the
//! live DPF service, with a static filter set or under a stream of
//! filter updates.

use crate::common::{self, ns, Config, Outcome, Pacer, Setups};
use crate::oracle::{self, catch_all, frame, port_filter, shift_filter, with_ihl6};
use crate::rng::{Rng, Zipf};
use crate::stats::{Lat, Segments};
use crate::trace;
use dpf::packet::{IPPROTO_TCP, IPPROTO_UDP};
use dpf::{DpfService, Filter};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Packets per `classify_batch` call.
pub const BATCH: usize = 64;
/// Packets in the pre-generated traffic pool (a multiple of `BATCH`).
const POOL: usize = 32 * 1024;
/// Distinct flows the Zipf mix draws from.
const FLOWS: usize = 512;
/// Destination addresses with filters.
const DESTS: usize = 4;
/// TCP / UDP port filters per destination (plus one catch-all and one
/// shift filter each: 16 filters per destination, 64 in all).
const TCP_PER_DEST: usize = 11;
const UDP_PER_DEST: usize = 3;
/// Filter updates per second on `demux_churn` (open loop).
const UPDATE_HZ: f64 = 1000.0;
/// Churn filters resident at any time.
const CHURN_RESIDENT: usize = 8;
/// Churn-directed packets in each churn batch (the rest is the static
/// traffic mix).
const CHURN_PKTS: usize = CHURN_RESIDENT;
/// Set-ups before the measured phases (more follow at the start of each
/// untraced segment, see [`Setups`]).
const SETUPS: usize = 5;
/// Batches checked after each churn segment (a uniform sample).
const CHECK_SAMPLE: usize = 1024;
/// Readers are paced (see [`Pacer`]) at the same offered rate on both
/// demux workloads, 10.24 Mpkt/s (160 batches per ms, about a third of
/// one core's classify capacity), but in different bursts, so the
/// workloads differ in pacing as well as in the writer.
/// `demux_steady` issues 640-batch bursts every 4 ms: the first few
/// batches after each pause run slower (caches went cold while the
/// thread slept) and stay too few to reach p99. `demux_churn` issues
/// 160-batch bursts on the writer's 1 ms update schedule; a closed-loop
/// reader there would take a whole core and leave the writer and the
/// compile service fighting over the other. With four times as many
/// pauses, more of its batches run right after one, so part of the
/// steady-to-churn gap in batch latency is pacing, not the writer.
const STEADY_BURST: u64 = 640;
const STEADY_PERIOD: Duration = Duration::from_millis(4);
const CHURN_BURST: u64 = 160;
const CHURN_PERIOD: Duration = Duration::from_millis(1);

/// The static filter set: per destination a catch-all, TCP and UDP port
/// filters under it, and a variable-IHL filter, installed destination by
/// destination, catch-all first (filter `i` gets id `i`).
#[derive(Debug, Clone)]
pub struct FilterSet {
    pub filters: Vec<Filter>,
    pub dests: Vec<u32>,
    tcp_ports: Vec<Vec<u16>>,
    udp_ports: Vec<Vec<u16>>,
    shift_ports: Vec<u16>,
}

pub fn filter_set(seed: u64) -> FilterSet {
    let mut rng = Rng::new(seed, 1);
    let mut dests = Vec::new();
    while dests.len() < DESTS {
        let ip = 0x0a00_0000 | rng.below(1 << 24) as u32;
        if !dests.contains(&ip) {
            dests.push(ip);
        }
    }
    let mut filters = Vec::new();
    let (mut tcp_ports, mut udp_ports, mut shift_ports) = (Vec::new(), Vec::new(), Vec::new());
    for (d, &ip) in dests.iter().enumerate() {
        // Half the destinations get a dense TCP run, half sparse ports.
        let tcp = oracle::ports(&mut rng, TCP_PER_DEST, d % 2 == 0, &[]);
        let udp = oracle::ports(&mut rng, UDP_PER_DEST, false, &[]);
        let shift = oracle::ports(&mut rng, 1, false, &tcp)[0];
        filters.push(catch_all(ip));
        filters.extend(tcp.iter().map(|&p| port_filter(ip, IPPROTO_TCP, p)));
        filters.extend(udp.iter().map(|&p| port_filter(ip, IPPROTO_UDP, p)));
        filters.push(shift_filter(ip, shift));
        tcp_ports.push(tcp);
        udp_ports.push(udp);
        shift_ports.push(shift);
    }
    FilterSet {
        filters,
        dests,
        tcp_ports,
        udp_ports,
        shift_ports,
    }
}

/// Flow classes by Zipf rank (repeating every 20 ranks), so that every
/// seed offers the same class mix: 45% TCP and 10% UDP port filters, 5%
/// the variable-IHL filter, 15% only a catch-all, 20% no filter (unknown
/// destination, not IP, not IPv4) and 5% truncated headers.
const CLASS_BY_RANK: [u8; 20] = [0, 3, 0, 1, 0, 4, 0, 2, 0, 3, 1, 0, 5, 0, 3, 4, 0, 6, 0, 7];

/// The packet of the flow at Zipf rank `rank`, with a per-flow source.
fn flow_packet(set: &FilterSet, rng: &mut Rng, rank: usize) -> Vec<u8> {
    let d = rank % DESTS;
    let ip = set.dests[d];
    let (src_ip, src_port) = (rng.next_u64() as u32, 1024 + rng.below(60000) as u16);
    match CLASS_BY_RANK[rank % CLASS_BY_RANK.len()] {
        // A TCP or UDP port filter (under its catch-all).
        0 => frame(
            IPPROTO_TCP,
            src_ip,
            ip,
            src_port,
            *rng.pick(&set.tcp_ports[d]),
        ),
        1 => frame(
            IPPROTO_UDP,
            src_ip,
            ip,
            src_port,
            *rng.pick(&set.udp_ports[d]),
        ),
        // The variable-IHL filter, with a 20- or a 24-byte IP header.
        2 => {
            let p = frame(IPPROTO_TCP, src_ip, ip, src_port, set.shift_ports[d]);
            if (rank / CLASS_BY_RANK.len()).is_multiple_of(2) {
                with_ihl6(p)
            } else {
                p
            }
        }
        // Only the destination's catch-all: an unfiltered port or
        // another protocol.
        3 => {
            let proto = *rng.pick(&[IPPROTO_TCP, IPPROTO_UDP, 1]);
            frame(
                proto,
                src_ip,
                ip,
                src_port,
                10_000 + rng.below(10_000) as u16,
            )
        }
        // Misses everything: unknown destination, not IP, not IPv4.
        4 => {
            let other = loop {
                let o = 0x0a00_0000 | rng.below(1 << 24) as u32;
                if !set.dests.contains(&o) {
                    break o;
                }
            };
            frame(
                IPPROTO_TCP,
                src_ip,
                other,
                src_port,
                *rng.pick(&set.tcp_ports[d]),
            )
        }
        5 => {
            let mut p = frame(IPPROTO_TCP, src_ip, ip, src_port, set.tcp_ports[d][0]);
            p[12] = 0x86;
            p[13] = 0xdd;
            p
        }
        6 => {
            let mut p = frame(IPPROTO_TCP, src_ip, ip, src_port, set.tcp_ports[d][0]);
            p[14] = 0x65;
            p
        }
        // Truncated somewhere in the headers.
        _ => {
            let mut p = frame(
                IPPROTO_TCP,
                src_ip,
                ip,
                src_port,
                *rng.pick(&set.tcp_ports[d]),
            );
            p.truncate(10 + rng.below(44) as usize);
            p
        }
    }
}

/// The static traffic: `POOL` header-size packets drawn from a Zipf
/// mix over `FLOWS` flows.
pub fn traffic(set: &FilterSet, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed, 2);
    let flows: Vec<Vec<u8>> = (0..FLOWS).map(|r| flow_packet(set, &mut rng, r)).collect();
    let zipf = Zipf::new(FLOWS, 1.0);
    (0..POOL)
        .map(|_| flows[zipf.sample(&mut rng)].clone())
        .collect()
}

fn ids(filters: &[Filter]) -> impl Iterator<Item = (u32, &Filter)> {
    filters.iter().enumerate().map(|(i, f)| (i as u32, f))
}

/// One scheduled churn update: a fresh TCP port filter under one of the
/// resident catch-alls, and a packet aimed at it.
#[derive(Debug, Clone)]
struct Update {
    filter: Filter,
    packet: Vec<u8>,
}

fn updates(set: &FilterSet, seed: u64, n: usize) -> Vec<Update> {
    let mut rng = Rng::new(seed, 3);
    (0..n)
        .map(|k| {
            let ip = *rng.pick(&set.dests);
            // Ports 20000.. are used by no static filter or flow; ids
            // make every update's set new even if a port comes back.
            let port = 20_000 + (k % 45_000) as u16;
            Update {
                filter: port_filter(ip, IPPROTO_TCP, port),
                packet: frame(IPPROTO_TCP, rng.next_u64() as u32, ip, 4321, port),
            }
        })
        .collect()
}

/// Indices of the updates whose packets ride in a batch issued while
/// update `k` is the newest: the resident churn filters.
fn churn_window(k: usize) -> std::ops::RangeInclusive<usize> {
    (k + 1).saturating_sub(CHURN_PKTS)..=k
}

/// The service with the static set (and `churn` extra filters)
/// installed and native, as a fresh process would bring it up: cold
/// classifier cache, idle compile service.
fn cold_bring_up(set: &FilterSet, churn: &[Update]) -> (DpfService, bool) {
    dpf::classifier_service().wait_idle(Duration::from_secs(20));
    dpf::clear_cache();
    let svc = DpfService::new();
    for f in &set.filters {
        svc.insert(f.clone());
    }
    for u in churn {
        svc.insert(u.filter.clone());
    }
    let native = svc.flush(Duration::from_secs(20));
    (svc, native)
}

/// Classification measurements of one phase.
#[derive(Debug, Default)]
struct ReadPhase {
    /// Batch latencies; work is packets.
    segs: Segments,
    wall_ns: u64,
    batches: u64,
    /// Packets the services' fallback interpreters classified.
    fallback_pkts: u64,
    /// Segment set-ups that never went native.
    not_native: u64,
}

impl ReadPhase {
    fn rate(&self) -> f64 {
        self.segs.rate()
    }
}

#[derive(Debug, Default)]
struct Mismatches {
    /// Batches checked.
    checked: u64,
    /// Batches with at least one wrong answer.
    batches: u64,
    /// Batches with at least one wrong answer that `first_match` does
    /// not cover.
    unexplained_batches: u64,
    /// Wrong answers a first-match interpreter over the generation's
    /// filters explains (the documented delta-window semantics).
    first_match: u64,
    /// Wrong answers nothing in the documented semantics explains.
    unexplained: u64,
}

impl Mismatches {
    /// Classifies one wrong answer; true if it is unexplained.
    fn wrong(&mut self, got: Option<u32>, filters: &[(u32, &Filter)], msg: &[u8]) -> bool {
        if got == oracle::first_match(filters.iter().copied(), msg) {
            self.first_match += 1;
            false
        } else {
            self.unexplained += 1;
            true
        }
    }

    /// Closes one checked batch.
    fn end_batch(&mut self, bad: bool, unexplained: bool) {
        self.checked += 1;
        self.batches += u64::from(bad);
        self.unexplained_batches += u64::from(unexplained);
    }

    fn answers(&self) -> u64 {
        self.first_match + self.unexplained
    }
}

pub fn run_steady(cfg: &Config) -> Outcome {
    let set = filter_set(cfg.seed);
    let pool = traffic(&set, cfg.seed);
    let expect: Vec<Option<u32>> = pool
        .iter()
        .map(|p| oracle::longest_match(ids(&set.filters), p))
        .collect();

    let mut out = Outcome::new();
    let mut setups = Setups::default();
    let native = setups.run(SETUPS, || cold_bring_up(&set, &[]).1);
    out.attempted += 1;
    out.failed += u64::from(!native);
    let mut mism = Mismatches::default();
    let plain = steady_phase(
        &set,
        &pool,
        &expect,
        cfg.phase(),
        Some(&mut setups),
        &mut mism,
    );
    out.e2e.insert("setup_s", (setups.median_s(), "s"));
    out.attempted += plain.batches;
    out.failed += plain.not_native;
    let main = if cfg.trace {
        let cache0 = dpf::cache_stats();
        let pool0 = vcode_x64::pool_stats();
        let traced = steady_phase(&set, &pool, &expect, cfg.phase(), None, &mut mism);
        let batch = trace::collect().get("dpf.service.classify_batch");
        common::overhead_layers(
            &mut out,
            plain.rate(),
            traced.rate(),
            100.0 * batch.total_ns as f64 / traced.wall_ns as f64,
        );
        common::cache_layers(
            &mut out,
            common::CACHE_LAYERS[1],
            common::cache_delta(cache0, dpf::cache_stats()),
        );
        common::pool_layers(&mut out, pool0, vcode_x64::pool_stats());
        fallback_layers(&mut out, &traced);
        let refs: Vec<&[u8]> = pool.iter().map(Vec::as_slice).collect();
        let current: Vec<(u32, &Filter)> = ids(&set.filters).collect();
        serve_path_layers(
            &mut out,
            &current,
            &refs,
            traced.segs.p50(),
            traced.fallback_pkts,
        );
        baseline_layers(&mut out, &set.filters, &refs);
        out.attempted += traced.batches;
        out.failed += traced.not_native;
        traced
    } else {
        plain
    };
    // A static set is served native throughout, so every wrong answer
    // fails its batch.
    out.failed += mism.batches;
    out.correct = mism.unexplained == 0;
    if cfg.trace {
        out.layer("dpf.fallback.wrong_answers", mism.answers() as f64, "count");
    }
    out.notes.push(format!(
        "checked every answer of {} batches: {} wrong in {} batches ({} first-match, {} unexplained)",
        mism.checked,
        mism.answers(),
        mism.batches,
        mism.first_match,
        mism.unexplained
    ));
    let (p50, p99) = (main.segs.p50() / 1e3, main.segs.p99() / 1e3);
    out.e2e.insert("throughput_per_s", (main.rate(), "1/s"));
    out.e2e.insert("latency_p50_us", (p50, "us"));
    out.e2e.insert("latency_p99_us", (p99, "us"));
    out.push_named("classify_mpps", main.rate() / 1e6, "Mpkt/s");
    out.push_named("classify_batch_p50_us", p50, "us");
    out.push_named("classify_batch_p99_us", p99, "us");
    out.notes.push(format!(
        "{} batches of {BATCH} in {} segments (medians over segments; {} samples beyond p99), \
         one paced reader thread",
        main.segs.all.count(),
        main.segs.segments(),
        main.segs.all.count() / 100
    ));
    out
}

fn fallback_layers(out: &mut Outcome, ph: &ReadPhase) {
    out.layer("dpf.fallback.pkts", ph.fallback_pkts as f64, "count");
    out.layer(
        "dpf.fallback.share_pct",
        100.0 * ph.fallback_pkts as f64 / ph.segs.work.max(1) as f64,
        "%",
    );
}

/// One `demux_steady` phase: segments, each against a freshly brought
/// up service and a fresh copy of the traffic, every answer checked.
/// Untraced phases sample set-ups: each segment's bring-up is the last
/// of `SEGMENT_SETUPS`.
fn steady_phase(
    set: &FilterSet,
    pool: &[Vec<u8>],
    expect: &[Option<u32>],
    dur: Duration,
    mut setups: Option<&mut Setups>,
    mism: &mut Mismatches,
) -> ReadPhase {
    let traced = setups.is_none();
    let mut ph = ReadPhase::default();
    let n = Segments::count_for(dur);
    let start = Instant::now();
    let current: Vec<(u32, &Filter)> = ids(&set.filters).collect();
    for _ in 0..n {
        let (svc, native) = match setups.as_deref_mut() {
            Some(s) => s.run(common::SEGMENT_SETUPS, || cold_bring_up(set, &[])),
            None => cold_bring_up(set, &[]),
        };
        ph.not_native += u64::from(!native);
        let copy = pool.to_vec();
        let refs: Vec<&[u8]> = copy.iter().map(Vec::as_slice).collect();
        let reader = svc.reader();
        let degraded0 = svc.stats().degraded_calls;
        let seg_start = Instant::now();
        let deadline = seg_start + dur / n;
        let mut off = 0;
        let mut pacer = Pacer::new(seg_start, STEADY_BURST, STEADY_PERIOD);
        trace::set_enabled(traced);
        loop {
            pacer.wait();
            let batch = &refs[off..off + BATCH];
            let t0 = Instant::now();
            let (_, got) = trace::span("dpf.service.classify_batch", ph.batches, || {
                reader.classify_batch_seq(batch)
            });
            let t1 = Instant::now();
            ph.segs.record(ns(t1 - t0), BATCH as u64);
            ph.batches += 1;
            let want = &expect[off..off + BATCH];
            let (mut bad, mut unexplained) = (false, false);
            for ((g, w), m) in got.iter().zip(want).zip(batch) {
                if g != w {
                    bad = true;
                    unexplained |= mism.wrong(*g, &current, m);
                }
            }
            mism.end_batch(bad, unexplained);
            off = (off + BATCH) % refs.len();
            if t1 >= deadline {
                break;
            }
        }
        trace::set_enabled(false);
        ph.segs.end_segment();
        ph.fallback_pkts += svc.stats().degraded_calls - degraded0;
    }
    trace::flush_thread();
    ph.wall_ns = ns(start.elapsed());
    ph
}

/// Serve-path breakdown on the same packets: the compiled classifier
/// body alone (`CompiledSet::classify`), the service's per-batch
/// overhead on top of it (median traced batch time minus the body's
/// time per batch), and the fallback interpreter's cost.
fn serve_path_layers(
    out: &mut Outcome,
    current: &[(u32, &Filter)],
    refs: &[&[u8]],
    batch_p50_ns: f64,
    fallback_pkts: u64,
) {
    let mut d = dpf::Dpf::new();
    for (_, f) in current {
        d.insert((*f).clone());
    }
    d.compile().expect("interpreter fallback always builds");
    let mut mpf = dpf::mpf::Mpf::new();
    for (id, f) in current {
        mpf.insert_as(*id, f);
    }
    trace::set_enabled(true);
    if let Some(set) = d.compiled() {
        for (i, batch) in refs
            .chunks_exact(BATCH)
            .cycle()
            .take(4 * POOL / BATCH)
            .enumerate()
        {
            trace::span("dpf.classify.body", i as u64, || {
                for m in batch {
                    std::hint::black_box(set.classify(m));
                }
            });
        }
    }
    if fallback_pkts > 0 {
        for (i, batch) in refs.chunks_exact(BATCH).enumerate() {
            trace::span("dpf.fallback.classify", i as u64, || {
                for m in batch {
                    std::hint::black_box(mpf.classify(m));
                }
            });
        }
    }
    trace::set_enabled(false);
    trace::flush_thread();
    let s = trace::collect();
    let body = s.get("dpf.classify.body");
    out.layer(
        "dpf.classify.ns_per_pkt",
        body.mean_ns() / BATCH as f64,
        "ns/pkt",
    );
    out.layer(
        "dpf.service.batch_overhead_ns",
        batch_p50_ns - body.mean_ns(),
        "ns",
    );
    out.layer(
        "dpf.fallback.ns_per_pkt",
        s.get("dpf.fallback.classify").mean_ns() / BATCH as f64,
        "ns/pkt",
    );
}

/// Table 3 baselines on the same packets: the MPF bytecode interpreter
/// and the PATHFINDER trie interpreter over the same filters.
fn baseline_layers(out: &mut Outcome, filters: &[Filter], refs: &[&[u8]]) {
    let mut mpf = dpf::mpf::Mpf::new();
    let mut pf = dpf::Pathfinder::new();
    for f in filters {
        mpf.insert(f);
        pf.insert(f.clone());
    }
    trace::set_enabled(true);
    for (i, batch) in refs.chunks_exact(BATCH).enumerate() {
        trace::span("mpf.classify", i as u64, || {
            for m in batch {
                std::hint::black_box(mpf.classify(m));
            }
        });
        trace::span("pathfinder.classify", i as u64, || {
            for m in batch {
                std::hint::black_box(pf.classify(m));
            }
        });
    }
    trace::set_enabled(false);
    trace::flush_thread();
    let s = trace::collect();
    let per_pkt = |name| s.get(name).mean_ns() / BATCH as f64;
    out.layer("mpf.ns_per_pkt", per_pkt("mpf.classify"), "ns/pkt");
    out.layer(
        "pathfinder.ns_per_pkt",
        per_pkt("pathfinder.classify"),
        "ns/pkt",
    );
}

// ---------------------------------------------------------------------
// demux_churn
// ---------------------------------------------------------------------

/// A filter-set change the writer made, keyed by the generation
/// sequence it produced.
#[derive(Debug, Clone, Copy)]
enum Change {
    Insert { id: u32, update: usize },
    Remove { id: u32, update: usize },
}

/// A classified batch kept for the after-run check.
#[derive(Debug)]
struct Sample {
    seq: u64,
    off: usize,
    newest: usize,
    got: Vec<Option<u32>>,
}

/// What the writer thread measured.
#[derive(Debug, Default)]
struct WritePhase {
    /// Update-to-native latencies.
    update_lat: Segments,
    late: Lat,
    issued: u64,
    never_native: u64,
    /// The current segment's changes.
    log: Vec<(u64, Change)>,
}

const STATIC_PER_BATCH: usize = BATCH - CHURN_PKTS;

/// One churn segment's service: the static set plus the churn filters
/// of updates `first..first + CHURN_RESIDENT`, freshly brought up.
struct ChurnSegment<'a> {
    svc: DpfService,
    /// The filter set at `seq0`, in id order.
    initial: Vec<(u32, Filter)>,
    seq0: u64,
    /// Id and update index of each resident churn filter, oldest first.
    resident: VecDeque<(u32, usize)>,
    updates: &'a [Update],
}

impl<'a> ChurnSegment<'a> {
    /// The bring-up is the last of `SEGMENT_SETUPS` when `setups`
    /// samples them.
    fn new(
        set: &FilterSet,
        updates: &'a [Update],
        first: usize,
        setups: Option<&mut Setups>,
    ) -> (ChurnSegment<'a>, bool) {
        let window = &updates[first..first + CHURN_RESIDENT];
        let (svc, native) = match setups {
            Some(s) => s.run(common::SEGMENT_SETUPS, || cold_bring_up(set, window)),
            None => cold_bring_up(set, window),
        };
        let n_static = set.filters.len() as u32;
        let mut initial: Vec<(u32, Filter)> =
            ids(&set.filters).map(|(i, f)| (i, f.clone())).collect();
        initial.extend(
            window
                .iter()
                .zip(n_static..)
                .map(|(u, id)| (id, u.filter.clone())),
        );
        let seg = ChurnSegment {
            seq0: svc.generation(),
            svc,
            initial,
            resident: (0..CHURN_RESIDENT)
                .map(|i| (n_static + i as u32, first + i))
                .collect(),
            updates,
        };
        (seg, native)
    }
}

/// Runs reader and writer against one segment's service for `dur`;
/// returns the sampled batches. `next` is the next update to issue.
fn churn_segment(
    seg: &mut ChurnSegment<'_>,
    refs: &[&[u8]],
    next: &mut usize,
    dur: Duration,
    rng: &mut Rng,
    ph: &mut ReadPhase,
    w: &mut WritePhase,
) -> Vec<Sample> {
    let reader = seg.svc.reader();
    let newest = AtomicU64::new((*next - 1) as u64);
    let start = Instant::now();
    let deadline = start + dur;
    let (svc, updates) = (&seg.svc, seg.updates);
    let resident = &mut seg.resident;
    let degraded0 = svc.stats().degraded_calls;
    let samples = std::thread::scope(|s| {
        let newest = &newest;
        let writer = s.spawn(move || {
            write_loop(svc, updates, resident, next, newest, start, deadline, w);
            trace::flush_thread();
        });
        let mut pacer = Pacer::new(start, CHURN_BURST, CHURN_PERIOD);
        let mut samples: Vec<Sample> = Vec::with_capacity(CHECK_SAMPLE);
        let mut seen = 0;
        let mut batch: Vec<&[u8]> = Vec::with_capacity(BATCH);
        let mut off = 0;
        loop {
            pacer.wait();
            let k = newest.load(Ordering::Acquire) as usize;
            batch.clear();
            batch.extend_from_slice(&refs[off..off + STATIC_PER_BATCH]);
            batch.extend(churn_window(k).map(|j| updates[j].packet.as_slice()));
            let t0 = Instant::now();
            let (seq, got) = trace::span("dpf.service.classify_batch", ph.batches, || {
                reader.classify_batch_seq(&batch)
            });
            let t1 = Instant::now();
            ph.segs.record(ns(t1 - t0), BATCH as u64);
            ph.batches += 1;
            seen += 1;
            // Uniform reservoir sample of the segment's batches.
            let sample = Sample {
                seq,
                off,
                newest: k,
                got,
            };
            if samples.len() < CHECK_SAMPLE {
                samples.push(sample);
            } else {
                let j = rng.below(seen) as usize;
                if j < CHECK_SAMPLE {
                    samples[j] = sample;
                }
            }
            off += STATIC_PER_BATCH;
            if off + STATIC_PER_BATCH > refs.len() {
                off = 0;
            }
            if t1 >= deadline {
                break;
            }
        }
        writer.join().expect("writer thread panicked");
        samples
    });
    ph.segs.end_segment();
    ph.fallback_pkts += svc.stats().degraded_calls - degraded0;
    samples
}

/// The open-loop writer: one update per `1 / UPDATE_HZ`, each inserting
/// the next fresh filter and removing the oldest churn filter. Between
/// updates it polls the service (`poll_upgrade` adopts a finished build
/// at once) and stamps every update a native generation now covers.
#[allow(clippy::too_many_arguments)]
fn write_loop(
    svc: &DpfService,
    updates: &[Update],
    resident: &mut VecDeque<(u32, usize)>,
    next: &mut usize,
    newest: &AtomicU64,
    start: Instant,
    deadline: Instant,
    w: &mut WritePhase,
) {
    let period = Duration::from_secs_f64(1.0 / UPDATE_HZ);
    let mut pending: VecDeque<(u64, Instant)> = VecDeque::new();
    let observe = |pending: &mut VecDeque<(u64, Instant)>, lat: &mut Segments| {
        if pending.is_empty() || !svc.poll_upgrade() {
            return;
        }
        let gen = svc.generation();
        let now = Instant::now();
        while let Some(&(g, due)) = pending.front() {
            if g > gen {
                break;
            }
            lat.record(ns(now - due), 1);
            pending.pop_front();
        }
    };
    let mut i: u32 = 0;
    loop {
        let due = start + period * i;
        if due >= deadline || *next >= updates.len() {
            break;
        }
        loop {
            observe(&mut pending, &mut w.update_lat);
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            std::thread::sleep(if pending.is_empty() && left > Duration::from_micros(150) {
                left - Duration::from_micros(100)
            } else {
                left.min(Duration::from_micros(20))
            });
        }
        let t0 = Instant::now();
        w.late.record(ns(t0 - due));
        let k = *next;
        let id = trace::span("dpf.update", k as u64, || {
            let id = trace::span("dpf.service.insert", k as u64, || {
                svc.insert(updates[k].filter.clone())
            });
            w.log
                .push((svc.generation(), Change::Insert { id, update: k }));
            let (old, update) = resident.pop_front().expect("churn filters resident");
            trace::span("dpf.service.remove", k as u64, || svc.remove(old));
            w.log
                .push((svc.generation(), Change::Remove { id: old, update }));
            id
        });
        resident.push_back((id, k));
        pending.push_back((svc.generation(), due));
        newest.store(k as u64, Ordering::Release);
        *next += 1;
        w.issued += 1;
        i += 1;
    }
    // Give the last builds time to land; an update still not covered by
    // a native generation then never went native.
    svc.flush(Duration::from_secs(5));
    observe(&mut pending, &mut w.update_lat);
    w.update_lat.end_segment();
    w.never_native += pending.len() as u64;
}

/// Applies one change to a filter set kept in id order.
fn apply(set: &mut Vec<(u32, Filter)>, updates: &[Update], change: Change) {
    match change {
        Change::Insert { id, update } => set.push((id, updates[update].filter.clone())),
        Change::Remove { id, .. } => set.retain(|(i, _)| *i != id),
    }
}

/// Inputs and running state of a `demux_churn` run.
struct ChurnRun<'a> {
    set: &'a FilterSet,
    pool: &'a [Vec<u8>],
    updates: &'a [Update],
    /// The next update to issue.
    next: usize,
    rng: Rng,
    mism: Mismatches,
    /// Set-up times, sampled in untraced phases.
    setups: Setups,
}

/// What one churn phase measured, with the filter set its last segment
/// ended on and that segment's changes.
struct ChurnPhase {
    read: ReadPhase,
    write: WritePhase,
    last_set: Vec<(u32, Filter)>,
    last_log: Vec<(u64, Change)>,
}

impl ChurnRun<'_> {
    /// One phase: segments, each against a freshly brought up service;
    /// the sampled batches of each are checked after it ends.
    fn phase(&mut self, dur: Duration, traced: bool) -> ChurnPhase {
        let mut ph = ChurnPhase {
            read: ReadPhase::default(),
            write: WritePhase::default(),
            last_set: Vec::new(),
            last_log: Vec::new(),
        };
        let (read, w) = (&mut ph.read, &mut ph.write);
        let n = Segments::count_for(dur);
        let start = Instant::now();
        for _ in 0..n {
            let first = self.next - CHURN_RESIDENT;
            let setups = (!traced).then_some(&mut self.setups);
            let (mut seg, native) = ChurnSegment::new(self.set, self.updates, first, setups);
            read.not_native += u64::from(!native);
            let copy = self.pool.to_vec();
            let refs: Vec<&[u8]> = copy.iter().map(Vec::as_slice).collect();
            w.log.clear();
            trace::set_enabled(traced);
            let samples = churn_segment(
                &mut seg,
                &refs,
                &mut self.next,
                dur / n,
                &mut self.rng,
                read,
                w,
            );
            trace::set_enabled(false);
            check_churn(
                self.updates,
                &seg.initial,
                &w.log,
                seg.seq0,
                &refs,
                samples,
                &mut self.mism,
            );
            ph.last_set = seg.initial;
            for &(_, change) in &w.log {
                apply(&mut ph.last_set, self.updates, change);
            }
            ph.last_log = std::mem::take(&mut w.log);
        }
        trace::flush_thread();
        read.wall_ns = ns(start.elapsed());
        ph
    }
}

pub fn run_churn(cfg: &Config) -> Outcome {
    let set = filter_set(cfg.seed);
    let pool = traffic(&set, cfg.seed);
    let n_updates = CHURN_RESIDENT + (cfg.seconds * UPDATE_HZ) as usize + 64;
    let updates = updates(&set, cfg.seed, n_updates);

    let mut out = Outcome::new();
    let mut setups = Setups::default();
    let native = setups.run(SETUPS, || cold_bring_up(&set, &updates[..CHURN_RESIDENT]).1);
    out.attempted += 1;
    out.failed += u64::from(!native);
    let mut run = ChurnRun {
        set: &set,
        pool: &pool,
        updates: &updates,
        next: CHURN_RESIDENT,
        rng: Rng::new(cfg.seed, 4),
        mism: Mismatches::default(),
        setups,
    };
    let plain = run.phase(cfg.phase(), false);
    out.e2e.insert("setup_s", (run.setups.median_s(), "s"));
    let mut failed = plain.read.not_native + plain.write.never_native;
    let mut issued = plain.write.issued;
    let ChurnPhase {
        read: r, write: w, ..
    } = if cfg.trace {
        let cache0 = dpf::cache_stats();
        let pool0 = vcode_x64::pool_stats();
        let svc0 = dpf::classifier_service().stats();
        let obs0 = vcode::obs::service_counters();
        let traced = run.phase(cfg.phase(), true);
        let (r, w, fin) = (&traced.read, &traced.write, &traced.last_set);
        let spans = trace::collect();
        let obs1 = vcode::obs::service_counters();
        let svc1 = dpf::classifier_service().stats();
        failed += r.not_native + w.never_native;
        issued += w.issued;
        let batch = spans.get("dpf.service.classify_batch");
        common::overhead_layers(
            &mut out,
            plain.read.rate(),
            r.rate(),
            100.0 * batch.total_ns as f64 / r.wall_ns as f64,
        );
        common::cache_layers(
            &mut out,
            common::CACHE_LAYERS[1],
            common::cache_delta(cache0, dpf::cache_stats()),
        );
        common::pool_layers(&mut out, pool0, vcode_x64::pool_stats());
        fallback_layers(&mut out, r);
        out.layer(
            "dpf.update.call_us",
            spans.get("dpf.update").mean_ns() / 1e3,
            "us",
        );
        out.layer("dpf.update.p50_us", w.update_lat.p50() / 1e3, "us");
        out.layer("dpf.update.p99_us", w.update_lat.p99() / 1e3, "us");
        let builds = obs1.completed - obs0.completed;
        out.layer(
            "vcode.service.build_us",
            (obs1.build_ns - obs0.build_ns) as f64 / builds.max(1) as f64 / 1e3,
            "us",
        );
        out.layer(
            "vcode.service.shed",
            (svc1.shed - svc0.shed) as f64,
            "count",
        );
        out.layer(
            "vcode.service.quarantined",
            (svc1.quarantine_rejects - svc0.quarantine_rejects) as f64,
            "count",
        );
        out.layer("gen.late_p99_us", w.late.percentile(99.0) / 1e3, "us");
        let refs: Vec<&[u8]> = pool.iter().map(Vec::as_slice).collect();
        let current: Vec<(u32, &Filter)> = fin.iter().map(|(i, f)| (*i, f)).collect();
        serve_path_layers(&mut out, &current, &refs, r.segs.p50(), r.fallback_pkts);
        // The compile path, stage by stage, on the sets the last updates
        // produced.
        let recent = recent_sets(fin, &updates, &traced.last_log, 32);
        crate::jit::dpf_compile_layers(&mut out, &recent);
        traced
    } else {
        plain
    };
    let mism = run.mism;
    // Answers a first-match delta window explains are the fallback's
    // known rule, not a failed operation: which batches a window serves
    // depends on thread timing, so their count is not a property of the
    // seed. They are counted in `dpf.fallback.wrong_answers` and in the
    // report; any other wrong answer fails its batch and the run.
    out.attempted += mism.checked + issued;
    out.failed += mism.unexplained_batches + failed;
    out.correct = mism.unexplained == 0;
    if cfg.trace {
        out.layer("dpf.fallback.wrong_answers", mism.answers() as f64, "count");
    }
    out.notes.push(format!(
        "checked {} sampled batches: {} wrong answers in {} batches \
         ({} explained by first-match delta windows, {} unexplained); \
         {} updates never went native",
        mism.checked,
        mism.answers(),
        mism.batches,
        mism.first_match,
        mism.unexplained,
        failed
    ));
    let rate = r.rate();
    let (b50, b99) = (r.segs.p50() / 1e3, r.segs.p99() / 1e3);
    let (u50, u99) = (w.update_lat.p50() / 1e3, w.update_lat.p99() / 1e3);
    // The gated latencies are the readers' batch latencies under churn:
    // on a two-core host the update-to-native tail is set by scheduler
    // time slices and moves by tens of percent between identical runs,
    // so update latency is reported by name and as per-layer metrics.
    out.e2e.insert("throughput_per_s", (rate, "1/s"));
    out.e2e.insert("latency_p50_us", (b50, "us"));
    out.e2e.insert("latency_p99_us", (b99, "us"));
    out.push_named("classify_mpps", rate / 1e6, "Mpkt/s");
    out.push_named("classify_batch_p50_us", b50, "us");
    out.push_named("classify_batch_p99_us", b99, "us");
    out.push_named("update_p50_us", u50, "us");
    out.push_named("update_p99_us", u99, "us");
    out.notes.push(format!(
        "{} updates at {UPDATE_HZ}/s open loop ({} covered by a native generation), writer late \
         p99 {:.1} us; {} batches of {BATCH} from one paced reader thread; medians over {} segments",
        w.issued,
        w.update_lat.all.count(),
        w.late.percentile(99.0) / 1e3,
        r.batches,
        r.segs.segments()
    ));
    out
}

/// Checks each sampled batch against the oracle over the filter set of
/// the generation that served it.
fn check_churn(
    updates: &[Update],
    initial: &[(u32, Filter)],
    log: &[(u64, Change)],
    seq0: u64,
    refs: &[&[u8]],
    mut samples: Vec<Sample>,
    m: &mut Mismatches,
) {
    samples.sort_by_key(|s| s.seq);
    let mut current = initial.to_vec();
    let mut seq = seq0;
    let mut log = log.iter().peekable();
    for s in &samples {
        while let Some(&&(g, change)) = log.peek() {
            if g > s.seq {
                break;
            }
            apply(&mut current, updates, change);
            seq = g;
            log.next();
        }
        assert_eq!(
            seq, s.seq,
            "a sampled batch names a generation the writer never made"
        );
        let view: Vec<(u32, &Filter)> = current.iter().map(|(i, f)| (*i, f)).collect();
        let pkts = refs[s.off..s.off + STATIC_PER_BATCH]
            .iter()
            .copied()
            .chain(churn_window(s.newest).map(|j| updates[j].packet.as_slice()));
        let (mut bad, mut unexplained) = (false, false);
        for (p, got) in pkts.zip(&s.got) {
            if *got != oracle::longest_match(view.iter().copied(), p) {
                bad = true;
                unexplained |= m.wrong(*got, &view, p);
            }
        }
        m.end_batch(bad, unexplained);
    }
}

/// The filter sets (in id order) after each of the last `n` changes of
/// a phase whose final set is `last`.
fn recent_sets(
    last: &[(u32, Filter)],
    updates: &[Update],
    log: &[(u64, Change)],
    n: usize,
) -> Vec<Vec<(u32, Filter)>> {
    // Walk back from the final set, undoing changes.
    let mut cur: Vec<(u32, Filter)> = last.to_vec();
    let mut sets = vec![cur.clone()];
    for &(_, change) in log.iter().rev().take(n.saturating_sub(1)) {
        match change {
            Change::Insert { id, .. } => cur.retain(|(i, _)| *i != id),
            Change::Remove { id, update } => {
                let at = cur.partition_point(|(i, _)| *i < id);
                cur.insert(at, (id, updates[update].filter.clone()));
            }
        }
        sets.push(cur.clone());
    }
    sets
}
