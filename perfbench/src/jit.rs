//! `jit_compile`: one thread works through a seeded stream of compile
//! requests — engine programs on all four targets, DPF filter sets, ASH
//! shapes and C sources — with no disk tier, each request issued when
//! the previous one returned, in paced bursts.

use crate::common::{self, ns, Config, Outcome, Pacer, Setups};
use crate::rng::Rng;
use crate::stats::{Lat, Segments};
use crate::trace;
use crate::units::{self, Unit, FUEL};
use dpf::Filter;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcode::engine::{Backend, Engine, TargetId};

/// Requests in the stream (the loop cycles over it).
const STREAM: usize = 16 * 1024;
/// Requests compiled during set-up, filling the caches.
const SETUP_REQUESTS: usize = 1024;
/// Requests compiled untimed at the start of each segment.
const WARMUP: usize = 256;
/// Engine lambda-cache capacity.
pub const ENGINE_CAPACITY: usize = 64;
/// Requests are paced (see [`Pacer`]): a burst of `BURST` is due every
/// `PERIOD`, about a third of one core at the request cost measured on a
/// 2-vCPU x86-64 VM.
const BURST: u64 = 24;
const PERIOD: Duration = Duration::from_millis(1);
/// Set-ups before the measured phases (more follow at the start of each
/// untraced segment, see [`Setups`]).
const SETUPS: usize = 5;
/// Requests whose first calls' simulated cycles make up `sim.cycles`.
const CYCLE_WINDOW: usize = 1024;

/// An engine with all four backends registered.
pub fn engine() -> Engine {
    vcode_sim::engine::install();
    let mut e = Engine::new(ENGINE_CAPACITY);
    let backends: [Arc<dyn Backend>; 4] = [
        Arc::new(vcode_mips::MipsBackend),
        Arc::new(vcode_sparc::SparcBackend),
        Arc::new(vcode_alpha::AlphaBackend),
        Arc::new(vcode_x64::X64Backend),
    ];
    for b in backends {
        e.register(b);
    }
    e
}

/// The request stream: indices into the unit list. Every fourth request
/// repeats one of the previous eight; the others are new units, drawn
/// from shuffled decks so that every seed asks for the same mix — per 20
/// new units, 10 engine programs (targets in rotation, straight-line and
/// branching alternately), 4 DPF sets (linear and default dispatch
/// alternately), 3 ASH shapes and 3 C units.
pub fn stream(seed: u64) -> (Vec<Unit>, Vec<usize>) {
    const DECK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3];
    let mut rng = Rng::new(seed, 10);
    let mut units = Vec::new();
    let mut reqs: Vec<usize> = Vec::with_capacity(STREAM);
    let (mut deck, mut targets) = (Vec::new(), Vec::new());
    let (mut engines, mut sets) = (0usize, 0usize);
    for i in 0..STREAM {
        if i >= 8 && i % 4 == 3 {
            let back = 1 + rng.below(8) as usize;
            reqs.push(reqs[i - back]);
            continue;
        }
        if deck.is_empty() {
            deck = DECK.to_vec();
            rng.shuffle(&mut deck);
        }
        let u = match deck.pop().expect("refilled") {
            0 => {
                if targets.is_empty() {
                    targets = TargetId::ALL.to_vec();
                    rng.shuffle(&mut targets);
                }
                let t = targets.pop().expect("refilled");
                engines += 1;
                units::engine_unit(&mut rng, t, engines % 2 == 0)
            }
            1 => {
                sets += 1;
                let opts = if sets % 2 == 0 {
                    units::linear_opts()
                } else {
                    dpf::Options::default()
                };
                units::dpf_unit(&mut rng, opts, 0)
            }
            2 => {
                let shape = rng.below(units::ASH_SHAPES as u64) as usize;
                units::ash_unit(&mut rng, shape)
            }
            _ => units::tcc_unit(&mut rng),
        };
        units.push(u);
        reqs.push(units.len() - 1);
    }
    (units, reqs)
}

/// A compiled unit, held until its first call has been checked.
pub enum Handle {
    Engine(Arc<dyn vcode::engine::Lambda>),
    Dpf(Box<dpf::Dpf>),
    Ash(ash::Pipeline),
    Tcc(Result<tcc::Program, tcc::CcError>),
}

/// Brings `unit` up through its client's public compile call.
pub fn compile(engine: &Engine, unit: &Unit, req: u64) -> Option<Handle> {
    match unit {
        Unit::Engine { target, prog, .. } => trace::span("jit.engine", req, || {
            engine
                .compile_cached(*target, prog)
                .ok()
                .map(Handle::Engine)
        }),
        Unit::Dpf { filters, opts, .. } => trace::span("jit.dpf", req, || {
            let mut d = Box::new(dpf::Dpf::with_options(*opts));
            trace::span("dpf.insert", req, || {
                for f in filters {
                    d.insert(f.clone());
                }
            });
            trace::span("dpf.compile", req, || d.compile()).ok()?;
            Some(Handle::Dpf(d))
        }),
        Unit::Ash { steps, unroll, .. } => trace::span("jit.ash", req, || {
            ash::Pipeline::compile_with_unroll(steps, *unroll)
                .ok()
                .map(Handle::Ash)
        }),
        Unit::Tcc { source, .. } => trace::span("jit.tcc", req, || {
            Some(Handle::Tcc(tcc::Program::compile(source)))
        }),
    }
}

/// What one checked first call found.
#[derive(Debug, Default, Clone, Copy)]
pub struct FirstCall {
    /// The unit runs natively (or on its simulator) and answered right.
    pub ok: bool,
    /// The call ran and gave a wrong answer, or wrote past its
    /// destination: wrong code, never an excused failure.
    pub wrong: bool,
    /// VCODE instructions and machine-code bytes, for units that
    /// report them.
    pub insns: u64,
    pub bytes: u64,
    /// Simulated cycles of the call (simulated targets only).
    pub cycles: u64,
    /// The DPF set is not position-independent (cannot persist).
    pub position_dependent: bool,
}

/// Runs the handle's first call and checks it against the unit's
/// independent answer.
pub fn first_call(unit: &Unit, h: &Handle) -> FirstCall {
    let mut fc = FirstCall::default();
    match (unit, h) {
        (Unit::Engine { prog, args, .. }, Handle::Engine(f)) => {
            vcode::obs::take_last_call_cycles();
            let got = f.call(args).ok();
            fc.cycles = vcode::obs::take_last_call_cycles();
            fc.wrong = got != prog.interpret(args, FUEL).ok();
            fc.ok = !fc.wrong && got.is_some();
            fc.insns = f.insns();
            fc.bytes = f.code_len() as u64;
        }
        (Unit::Dpf { probes, .. }, Handle::Dpf(d)) => {
            fc.wrong = probes.iter().any(|(m, want)| d.classify(m) != *want);
            fc.ok = !fc.wrong && d.engine() == Some(dpf::EngineKind::Native);
            if let Some(c) = d.compiled() {
                fc.insns = c.vcode_insns;
                fc.bytes = c.code_len as u64;
                fc.position_dependent = !c.position_independent();
            }
        }
        (Unit::Ash { steps, msg, .. }, Handle::Ash(p)) => {
            // Slack past the destination turns an overrun into a
            // failed check instead of heap corruption.
            let mut buf = vec![0xeeu8; msg.len() + 64];
            let (dst, slack) = buf.split_at_mut(msg.len());
            let sum = p.run(msg, dst);
            let want_sum = if steps.contains(&ash::Step::Checksum) {
                ash::reference::checksum(msg)
            } else {
                0
            };
            let want_dst = if steps.contains(&ash::Step::Swap) {
                ash::reference::swapped(msg)
            } else {
                msg.clone()
            };
            fc.wrong = sum != want_sum || *dst != *want_dst || slack.iter().any(|&b| b != 0xee);
            fc.ok = !fc.wrong && p.engine_kind() == ash::EngineKind::Native;
        }
        (Unit::Tcc { calls, .. }, Handle::Tcc(p)) => {
            // A source that fails to compile is a failed request; a
            // compiled one that answers wrong is wrong code.
            if let Ok(p) = p {
                fc.wrong = calls.iter().any(|(name, args, want)| {
                    p.call_int(name, args).map(|r| r as i32) != Ok(*want as i32)
                });
                fc.ok = !fc.wrong;
            }
        }
        _ => unreachable!("handle kind follows unit kind"),
    }
    fc
}

/// Per-phase accumulators.
#[derive(Debug, Default)]
struct Phase {
    /// Request-to-callable latencies; work is requests.
    segs: Segments,
    wall_ns: u64,
    failed: u64,
    /// Failed requests whose first call gave a wrong answer.
    wrong: u64,
    /// Cache-missing compiles of units that report instruction counts:
    /// (ns, insns, bytes), per target for the engine, then DPF.
    engine_miss: [(u64, u64, u64); 4],
    dpf_miss: (u64, u64, u64),
    ash_miss: Lat,
    tcc: Lat,
    cycles: u64,
    /// Engine, DPF and ASH cache counters over the measured requests.
    caches: [vcode::CacheStats; 3],
}

impl Phase {
    fn rate(&self) -> f64 {
        self.segs.rate()
    }

    fn requests(&self) -> u64 {
        self.segs.work
    }
}

/// The engine's, DPF's and ASH's cache counters.
fn client_caches(engine: &Engine) -> [vcode::CacheStats; 3] {
    [engine.cache_stats(), dpf::cache_stats(), ash::cache_stats()]
}

/// One phase: segments, each with a fresh engine and cold DPF and ASH
/// caches, warmed up with the next `WARMUP` requests, then timed. Each
/// segment starts with set-ups when `setups` samples them.
fn run_phase(
    units: &[Unit],
    reqs: &[usize],
    start_at: usize,
    dur: Duration,
    mut setups: Option<&mut Setups>,
) -> (Phase, usize) {
    let mut ph = Phase::default();
    let n = Segments::count_for(dur);
    let start = Instant::now();
    let mut i = start_at;
    for _ in 0..n {
        if let Some(s) = setups.as_deref_mut() {
            s.run(common::SEGMENT_SETUPS, || set_up(units, reqs));
        }
        let engine = cold_engine();
        for _ in 0..WARMUP {
            drop(compile(&engine, &units[reqs[i % reqs.len()]], i as u64));
            i += 1;
        }
        let caches0 = client_caches(&engine);
        let seg_start = Instant::now();
        let deadline = seg_start + dur / n;
        let mut pacer = Pacer::new(seg_start, BURST, PERIOD);
        loop {
            pacer.wait();
            let unit = &units[reqs[i % reqs.len()]];
            let before = client_caches(&engine);
            let t0 = Instant::now();
            let h = compile(&engine, unit, i as u64);
            let t1 = Instant::now();
            let d = ns(t1 - t0);
            let after = client_caches(&engine);
            ph.segs.record(d, 1);
            let fc = h.as_ref().map(|h| first_call(unit, h)).unwrap_or_default();
            ph.failed += u64::from(!fc.ok);
            ph.wrong += u64::from(fc.wrong);
            if i < CYCLE_WINDOW {
                ph.cycles += fc.cycles;
            }
            match unit {
                Unit::Engine { target, .. } if after[0].misses > before[0].misses => {
                    let e = &mut ph.engine_miss[target.index()];
                    *e = (e.0 + d, e.1 + fc.insns, e.2 + fc.bytes);
                }
                Unit::Dpf { .. } if after[1].misses > before[1].misses => {
                    let e = &mut ph.dpf_miss;
                    *e = (e.0 + d, e.1 + fc.insns, e.2 + fc.bytes);
                }
                Unit::Ash { .. } if after[2].misses > before[2].misses => ph.ash_miss.record(d),
                Unit::Tcc { .. } => ph.tcc.record(d),
                _ => {}
            }
            drop(h);
            i += 1;
            if t1 >= deadline {
                break;
            }
        }
        ph.segs.end_segment();
        for ((acc, b), a) in ph
            .caches
            .iter_mut()
            .zip(caches0)
            .zip(client_caches(&engine))
        {
            let d = common::cache_delta(b, a);
            acc.hits += d.hits;
            acc.misses += d.misses;
            acc.evictions += d.evictions;
        }
    }
    ph.wall_ns = ns(start.elapsed());
    (ph, i)
}

fn cold_engine() -> Engine {
    dpf::clear_cache();
    ash::clear_cache();
    engine()
}

/// The set-up: a fresh engine and cold caches, filled with the first
/// `SETUP_REQUESTS` requests.
fn set_up(units: &[Unit], reqs: &[usize]) {
    let e = cold_engine();
    for (i, &u) in reqs.iter().take(SETUP_REQUESTS).enumerate() {
        drop(compile(&e, &units[u], i as u64));
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let (units, reqs) = stream(cfg.seed);
    let mut out = Outcome::new();
    let mut setups = Setups::default();
    setups.run(SETUPS, || set_up(&units, &reqs));
    let (plain, next) = run_phase(&units, &reqs, 0, cfg.phase(), Some(&mut setups));
    out.e2e.insert("setup_s", (setups.median_s(), "s"));
    out.attempted += plain.requests();
    out.failed += plain.failed;
    out.correct &= plain.wrong == 0;
    let main = if cfg.trace {
        let pool0 = vcode_x64::pool_stats();
        trace::set_enabled(true);
        let (ph, _) = run_phase(&units, &reqs, next, cfg.phase(), None);
        trace::set_enabled(false);
        trace::flush_thread();
        let s = trace::collect();
        out.attempted += ph.requests();
        out.failed += ph.failed;
        out.correct &= ph.wrong == 0;
        let roots: u64 = ["jit.engine", "jit.dpf", "jit.ash", "jit.tcc"]
            .iter()
            .map(|n| s.get(n).total_ns)
            .sum();
        common::overhead_layers(
            &mut out,
            plain.rate(),
            ph.rate(),
            100.0 * roots as f64 / ph.wall_ns as f64,
        );
        for (names, d) in common::CACHE_LAYERS.into_iter().zip(ph.caches) {
            common::cache_layers(&mut out, names, d);
        }
        common::pool_layers(&mut out, pool0, vcode_x64::pool_stats());
        for t in TargetId::ALL {
            let (n, insns, _) = ph.engine_miss[t.index()];
            out.layer(
                engine_layer_name(t),
                n as f64 / insns.max(1) as f64,
                "ns/insn",
            );
        }
        out.layer("ash.compile_us", ph.ash_miss.mean_ns() / 1e3, "us");
        out.layer("tcc.compile_us", ph.tcc.mean_ns() / 1e3, "us");
        out.layer("sim.cycles", plain.cycles as f64, "count");
        let sets: Vec<Vec<(u32, Filter)>> = units
            .iter()
            .filter_map(|u| match u {
                Unit::Dpf { filters, .. } => Some(
                    filters
                        .iter()
                        .cloned()
                        .enumerate()
                        .map(|(i, f)| (i as u32, f))
                        .collect(),
                ),
                _ => None,
            })
            .take(64)
            .collect();
        dpf_compile_layers(&mut out, &sets);
        dcg_layers(&mut out, &units);
        ph
    } else {
        plain
    };
    let (mut n, mut insns, mut bytes) = main.dpf_miss;
    for e in main.engine_miss {
        n += e.0;
        insns += e.1;
        bytes += e.2;
    }
    let p50 = main.segs.p50() / 1e3;
    let p99 = main.segs.p99() / 1e3;
    out.e2e.insert("throughput_per_s", (main.rate(), "1/s"));
    out.e2e.insert("latency_p50_us", (p50, "us"));
    out.e2e.insert("latency_p99_us", (p99, "us"));
    out.push_named("ready_p50_us", p50, "us");
    out.push_named("ready_p99_us", p99, "us");
    out.push_named(
        "compile_ns_per_insn",
        n as f64 / insns.max(1) as f64,
        "ns/insn",
    );
    out.push_named(
        "code_bytes_per_insn",
        bytes as f64 / insns.max(1) as f64,
        "B/insn",
    );
    out.notes.push(format!(
        "{} requests in {} segments (medians over segments; {} samples beyond p99), one thread, \
         paced bursts of {BURST} per {PERIOD:?}; {} failed requests, {} of them wrong answers",
        main.requests(),
        main.segs.segments(),
        main.segs.all.count() / 100,
        main.failed,
        main.wrong
    ));
    out
}

fn engine_layer_name(t: TargetId) -> &'static str {
    match t {
        TargetId::X64 => "vcode.engine.x64.ns_per_insn",
        TargetId::Mips => "vcode.engine.mips.ns_per_insn",
        TargetId::Sparc => "vcode.engine.sparc.ns_per_insn",
        TargetId::Alpha => "vcode.engine.alpha.ns_per_insn",
    }
}

/// The DPF compile path stage by stage on `sets`: trie construction
/// (`dpf::trie::build`), then code generation (`dpf::compile::compile`).
pub fn dpf_compile_layers(out: &mut Outcome, sets: &[Vec<(u32, Filter)>]) {
    let mut insns = 0;
    trace::set_enabled(true);
    for (i, set) in sets.iter().enumerate() {
        let root = trace::span("dpf.trie.build", i as u64, || dpf::trie::build(set));
        let c = trace::span("dpf.compile.codegen", i as u64, || {
            dpf::compile::compile(&root, dpf::Options::default())
        });
        insns += c.map(|c| c.vcode_insns).unwrap_or(0);
    }
    trace::set_enabled(false);
    trace::flush_thread();
    let s = trace::collect();
    let (trie, cg) = (s.get("dpf.trie.build"), s.get("dpf.compile.codegen"));
    out.layer("dpf.trie.build_us", trie.mean_ns() / 1e3, "us");
    out.layer("dpf.codegen.us", cg.mean_ns() / 1e3, "us");
    out.layer(
        "dpf.codegen.ns_per_insn",
        cg.total_ns as f64 / insns.max(1) as f64,
        "ns/insn",
    );
}

/// The DCG baseline (paper §2, "approximately 35 times faster"): the
/// stream's straight-line engine programs built as IR trees and
/// compiled by DCG for x86-64, per VCODE instruction the same program
/// takes through the engine.
fn dcg_layers(out: &mut Outcome, units: &[Unit]) {
    let chains: Vec<&vcode::engine::Program> = units
        .iter()
        .filter_map(|u| match u {
            Unit::Engine {
                prog, chain: true, ..
            } => Some(prog),
            _ => None,
        })
        .take(64)
        .collect();
    let x64 = vcode_x64::X64Backend;
    let insns: u64 = chains
        .iter()
        .map(|p| x64.compile(p).map(|l| l.insns()).unwrap_or(0))
        .sum();
    let mut mem = vec![0u8; 64 * 1024];
    trace::set_enabled(true);
    for round in 0..20u64 {
        for p in &chains {
            trace::span("dcg.compile", round, || dcg_compile(p, &mut mem));
            trace::span("vcode.compile.x64", round, || {
                std::hint::black_box(x64.compile(p).map(|l| l.insns()).ok())
            });
        }
    }
    trace::set_enabled(false);
    trace::flush_thread();
    let s = trace::collect();
    let per_insn = |name| s.get(name).total_ns as f64 / 20.0 / insns.max(1) as f64;
    out.layer("dcg.ns_per_insn", per_insn("dcg.compile"), "ns/insn");
    out.notes.push(format!(
        "DCG {:.1} ns/insn vs VCODE (x64 engine compile, uncached) {:.1} ns/insn on {} straight-line programs",
        per_insn("dcg.compile"),
        per_insn("vcode.compile.x64"),
        chains.len()
    ));
}

/// Translates a straight-line chain program into DCG expression trees
/// and compiles them.
fn dcg_compile(prog: &vcode::engine::Program, mem: &mut [u8]) -> usize {
    use vcode::engine::POp;
    use vcode::Ty;
    let mut f = dcg::Fun::new("%i%i").expect("valid signature");
    let mut t = None;
    for op in prog.ops() {
        match *op {
            POp::Bin { op, a: 0, b: 1, .. } if t.is_none() => {
                let (x, y) = (f.arg(0), f.arg(1));
                t = Some(f.binop(op, Ty::I, x, y));
            }
            POp::Bin { op, b, .. } => {
                let (l, r) = (t.expect("chain head"), f.arg(usize::from(b)));
                t = Some(f.binop(op, Ty::I, l, r));
            }
            POp::BinImm { op, imm, .. } => {
                let (l, r) = (t.expect("chain head"), f.constl(Ty::I, i64::from(imm)));
                t = Some(f.binop(op, Ty::I, l, r));
            }
            POp::Ret { .. } => f.ret(Ty::I, t.expect("chain head")),
            _ => unreachable!("chain programs hold only binary operations"),
        }
    }
    f.compile::<vcode_x64::X64>(mem, vcode::target::Leaf::Yes)
        .map(|fin| fin.len)
        .unwrap_or(0)
}
