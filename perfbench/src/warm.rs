//! `warm_restart`: every measured round starts like a fresh process —
//! empty in-memory caches, drained executable-memory pool — and brings
//! a seeded set of DPF sets, ASH kernels and engine lambdas back up
//! through the same public compile calls, served from the artifact
//! directory that set-up stored them to.

use crate::common::{self, ns, Config, Outcome, Pacer, Setups};
use crate::jit::{self, Handle};
use crate::rng::Rng;
use crate::stats::Segments;
use crate::trace;
use crate::units::{self, Unit};
use dpf::Filter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcode::engine::{Engine, TargetId};
use vcode::{CacheKey, CacheTier, DiskTier};

const DPF_LINEAR: usize = 36;
const DPF_DEFAULT: usize = 12;
const ASH_KERNELS: usize = 8;
const ENGINE_PER_TARGET: usize = 32;
/// Bring-ups are paced (see [`Pacer`]): a burst of `BURST` is due every
/// `PERIOD`, about a third of one core at the bring-up cost measured on a
/// 2-vCPU x86-64 VM.
const BURST: u64 = 10;
const PERIOD: Duration = Duration::from_millis(1);
/// Set-ups per run (see [`Setups`]), all before the measured phases:
/// the artifact tiers, attached for good after them, would serve later
/// compiles from disk.
const SETUPS: usize = 41;
/// Passes of the stage breakdown over every artifact.
const BREAKDOWN_PASSES: usize = 10;

/// The units, in a seeded bring-up order. Most DPF sets use linear
/// dispatch (position-independent, so they persist); the rest keep the
/// default options with a dense port run, take a jump table, and are
/// refused by the artifact codec.
pub fn units(seed: u64) -> Vec<Unit> {
    let mut rng = Rng::new(seed, 20);
    let mut v = Vec::new();
    for _ in 0..DPF_LINEAR {
        v.push(units::dpf_unit(&mut rng, units::linear_opts(), 0));
    }
    for i in 0..DPF_DEFAULT {
        v.push(units::dpf_unit(
            &mut rng,
            dpf::Options::default(),
            6 + i % 4,
        ));
    }
    let mut shapes: Vec<usize> = (0..units::ASH_SHAPES).collect();
    rng.shuffle(&mut shapes);
    for &s in &shapes[..ASH_KERNELS] {
        v.push(units::ash_unit(&mut rng, s));
    }
    for t in TargetId::ALL {
        for i in 0..ENGINE_PER_TARGET {
            v.push(units::engine_unit(&mut rng, t, i % 2 == 0));
        }
    }
    rng.shuffle(&mut v);
    v
}

struct Dirs {
    root: PathBuf,
    dpf: PathBuf,
    ash: PathBuf,
    engine: PathBuf,
}

fn persistent_engine(dirs: &Dirs) -> Engine {
    let e = jit::engine();
    e.enable_persist(&dirs.engine)
        .expect("engine artifact directory");
    e
}

/// Measurements of one phase.
#[derive(Debug, Default)]
struct Phase {
    /// Bring-up latencies; work is units.
    segs: Segments,
    wall_ns: u64,
    rounds: u64,
    failed: u64,
    /// Failed bring-ups whose first call gave a wrong answer.
    wrong: u64,
    not_persistable: u64,
    engine_cache: vcode::CacheStats,
}

impl Phase {
    fn rate(&self) -> f64 {
        self.segs.rate()
    }
}

/// Rounds of fresh-process bring-ups until `dur` has passed, in
/// segments of whole rounds.
fn run_phase(dirs: &Dirs, units: &[Unit], dur: Duration) -> Phase {
    let start = Instant::now();
    let mut ph = Phase::default();
    let n = Segments::count_for(dur);
    let mut seg = 1;
    let mut pacer = Pacer::new(start, BURST, PERIOD);
    loop {
        dpf::clear_cache();
        ash::clear_cache();
        let engine = persistent_engine(dirs);
        vcode_x64::drain_pool();
        let mut held: Vec<Handle> = Vec::with_capacity(units.len());
        let mut last = start;
        for (j, u) in units.iter().enumerate() {
            pacer.wait();
            let t0 = Instant::now();
            let h = jit::compile(&engine, u, j as u64);
            last = Instant::now();
            ph.segs.record(ns(last - t0), 1);
            match h {
                Some(h) => {
                    let fc = jit::first_call(u, &h);
                    ph.failed += u64::from(!fc.ok);
                    ph.wrong += u64::from(fc.wrong);
                    ph.not_persistable += u64::from(fc.position_dependent);
                    held.push(h);
                }
                None => ph.failed += 1,
            }
        }
        let s = engine.cache_stats();
        ph.engine_cache.hits += s.hits;
        ph.engine_cache.misses += s.misses;
        ph.engine_cache.evictions += s.evictions;
        ph.rounds += 1;
        drop(held);
        if last >= start + dur * seg / n {
            ph.segs.end_segment();
            seg += 1;
        }
        if seg > n {
            ph.wall_ns = ns(last - start);
            return ph;
        }
    }
}

/// Brings every unit up through `engine` and checks its first call:
/// (failed, wrong) counts.
fn bring_up(engine: &Engine, units: &[Unit]) -> (u64, u64) {
    let (mut failed, mut wrong) = (0, 0);
    for (j, u) in units.iter().enumerate() {
        let fc = jit::compile(engine, u, j as u64)
            .map(|h| jit::first_call(u, &h))
            .unwrap_or_default();
        failed += u64::from(!fc.ok);
        wrong += u64::from(fc.wrong);
    }
    (failed, wrong)
}

pub fn run(cfg: &Config) -> Outcome {
    let units = units(cfg.seed);
    let root = cfg.work_dir.join(format!("warm-{}", std::process::id()));
    let dirs = Dirs {
        dpf: root.join("dpf"),
        ash: root.join("ash"),
        engine: root.join("engine"),
        root,
    };
    let _ = std::fs::remove_dir_all(&dirs.root);
    let mut out = Outcome::new();
    // Set-up, in two steps: cold compiles of every unit, repeated for
    // `setup_s`; then one pass with the artifact tiers attached that
    // stores every unit through to a fresh directory, timed apart as
    // `store_s`. Each artifact is published with an fsync, and on a
    // shared virtual disk the flush latency swings twofold over minutes
    // (on a 2-vCPU x86-64 VM the cold compiles take about 15 ms, the
    // pass with the stores 60-160 ms), which would drown any change in
    // the program's own set-up work. The traced run reports the store per artifact
    // (`vcode.persist.store_us`).
    let mut setup_wrong = 0;
    let mut setups = Setups::default();
    let setup_failed = setups.run(SETUPS, || {
        dpf::clear_cache();
        ash::clear_cache();
        let (failed, wrong) = bring_up(&jit::engine(), &units);
        setup_wrong += wrong;
        failed
    });
    out.e2e.insert("setup_s", (setups.median_s(), "s"));
    let attached = dpf::enable_persist(&dirs.dpf).expect("dpf artifact directory")
        && ash::enable_persist(&dirs.ash).expect("ash artifact directory");
    assert!(attached, "the artifact tiers attach once per process");
    dpf::clear_cache();
    ash::clear_cache();
    let t0 = Instant::now();
    let (store_failed, store_wrong) = bring_up(&persistent_engine(&dirs), &units);
    out.push_named("store_s", t0.elapsed().as_secs_f64(), "s");
    out.attempted += 2 * units.len() as u64;
    out.failed += setup_failed + store_failed;
    out.correct &= setup_wrong + store_wrong == 0;

    let plain = run_phase(&dirs, &units, cfg.phase());
    out.attempted += plain.segs.work;
    out.failed += plain.failed;
    out.correct &= plain.wrong == 0;
    let main = if cfg.trace {
        let persist0 = vcode::obs::persist_counters();
        let caches0 = (dpf::cache_stats(), ash::cache_stats());
        let pool0 = vcode_x64::pool_stats();
        trace::set_enabled(true);
        let ph = run_phase(&dirs, &units, cfg.phase());
        trace::set_enabled(false);
        trace::flush_thread();
        let s = trace::collect();
        out.attempted += ph.segs.work;
        out.failed += ph.failed;
        out.correct &= ph.wrong == 0;
        let persist1 = vcode::obs::persist_counters();
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
        let caches = [
            ph.engine_cache,
            common::cache_delta(caches0.0, dpf::cache_stats()),
            common::cache_delta(caches0.1, ash::cache_stats()),
        ];
        for (names, d) in common::CACHE_LAYERS.into_iter().zip(caches) {
            common::cache_layers(&mut out, names, d);
        }
        common::pool_layers(&mut out, pool0, vcode_x64::pool_stats());
        out.layer(
            "vcode.persist.hits",
            (persist1.hits - persist0.hits) as f64,
            "count",
        );
        out.layer(
            "vcode.persist.misses",
            (persist1.misses - persist0.misses) as f64,
            "count",
        );
        out.layer(
            "vcode.persist.rejects",
            (persist1.rejects - persist0.rejects) as f64,
            "count",
        );
        out.layer(
            "vcode.persist.not_persistable",
            ph.not_persistable as f64,
            "count",
        );
        load_breakdown(&mut out, &dirs);
        store_layer(&mut out, &dirs);
        // The units the codec refuses recompile every round: their
        // compile path, stage by stage.
        let sets: Vec<Vec<(u32, Filter)>> = units
            .iter()
            .filter_map(|u| match u {
                Unit::Dpf { filters, opts, .. } if opts.use_jump_tables => Some(
                    filters
                        .iter()
                        .cloned()
                        .enumerate()
                        .map(|(i, f)| (i as u32, f))
                        .collect(),
                ),
                _ => None,
            })
            .collect();
        jit::dpf_compile_layers(&mut out, &sets);
        ph
    } else {
        plain
    };
    let _ = std::fs::remove_dir_all(&dirs.root);
    let p50 = main.segs.p50() / 1e3;
    let p99 = main.segs.p99() / 1e3;
    out.e2e.insert("throughput_per_s", (main.rate(), "1/s"));
    out.e2e.insert("latency_p50_us", (p50, "us"));
    out.e2e.insert("latency_p99_us", (p99, "us"));
    out.push_named("ready_p50_us", p50, "us");
    out.push_named("ready_p99_us", p99, "us");
    out.notes.push(format!(
        "{} rounds of {} units in {} segments (medians over segments; {} samples beyond p99); \
         {} bring-ups not persistable (recompiled every round); {} failed bring-ups, {} of them wrong answers",
        main.rounds,
        units.len(),
        main.segs.segments(),
        main.segs.all.count() / 100,
        main.not_persistable,
        main.failed,
        main.wrong
    ));
    out
}

/// Every artifact in `dir` with the key it was stored under.
fn artifacts(dir: &Path) -> Vec<(CacheKey, TargetId)> {
    let mut v = Vec::new();
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Ok(a) = std::fs::read(e.path())
            .map_err(vcode::PersistError::from)
            .and_then(|b| vcode::Artifact::decode(&b))
        {
            v.push((CacheKey::new(a.target, a.key.clone()), a.target));
        }
    }
    v.sort_by_key(|(k, _)| k.hash());
    v
}

fn decoder(t: TargetId) -> Arc<dyn vcode::InsnDecoder + Send + Sync> {
    match t {
        TargetId::X64 => Arc::new(vcode_x64::declen::Decoder),
        _ => vcode::persist::decoder(t).expect("simulator decoders installed"),
    }
}

/// The warm load path, stage by stage, on the same artifacts the rounds
/// load: read and envelope-check (`DiskTier::load_artifact`), the
/// differential re-decode (`vcode::persist::redecode`), and adoption
/// into executable memory (`ExecMem::adopt_bytes`, x86-64 code).
fn load_breakdown(out: &mut Outcome, dirs: &Dirs) {
    let dpf_tier = dpf::persist_tier().expect("attached");
    let ash_tier = ash::persist_tier().expect("attached");
    let engine = persistent_engine(dirs);
    let engine_tier = engine.persist_tier().expect("attached");
    let load = |tier: &str, key: &CacheKey| match tier {
        "dpf" => dpf_tier.load_artifact(key),
        "ash" => ash_tier.load_artifact(key),
        _ => engine_tier.load_artifact(key),
    };
    let sets = [
        ("dpf", artifacts(&dirs.dpf)),
        ("ash", artifacts(&dirs.ash)),
        ("engine", artifacts(&dirs.engine)),
    ];
    trace::set_enabled(true);
    for pass in 0..BREAKDOWN_PASSES as u64 {
        for (tier, arts) in &sets {
            for (key, target) in arts {
                let a = trace::span("vcode.persist.load", pass, || load(tier, key));
                let Ok(Some(a)) = a else { continue };
                let dec = decoder(*target);
                let _ = trace::span("vcode.persist.redecode", pass, || {
                    vcode::persist::redecode(&a.code, &*dec)
                });
                if *target == TargetId::X64 {
                    vcode_x64::drain_pool();
                    let mem = trace::span("x64.exec.adopt", pass, || {
                        vcode_x64::ExecMem::adopt_bytes(&a.code)
                    });
                    drop(mem);
                }
            }
        }
    }
    trace::set_enabled(false);
    trace::flush_thread();
    let s = trace::collect();
    out.layer(
        "vcode.persist.load_us",
        s.get("vcode.persist.load").mean_ns() / 1e3,
        "us",
    );
    out.layer(
        "vcode.persist.redecode_us",
        s.get("vcode.persist.redecode").mean_ns() / 1e3,
        "us",
    );
    out.layer(
        "x64.exec.adopt_us",
        s.get("x64.exec.adopt").mean_ns() / 1e3,
        "us",
    );
}

/// Store-through cost per artifact: each stored unit is loaded, its
/// file removed, and the value stored again through the same tier.
fn store_layer(out: &mut Outcome, dirs: &Dirs) {
    fn restore<V: ?Sized + Send + Sync>(tier: &DiskTier<V>, dir: &Path) {
        for (key, _) in artifacts(dir) {
            let Ok(Some(v)) = tier.load(&key) else {
                continue;
            };
            let _ = std::fs::remove_file(tier.path_for(&key));
            let _ = trace::span("vcode.persist.store", 0, || tier.store(&key, &v));
        }
    }
    let engine = persistent_engine(dirs);
    trace::set_enabled(true);
    restore(&**dpf::persist_tier().expect("attached"), &dirs.dpf);
    restore(&**ash::persist_tier().expect("attached"), &dirs.ash);
    restore(&**engine.persist_tier().expect("attached"), &dirs.engine);
    trace::set_enabled(false);
    trace::flush_thread();
    let s = trace::collect();
    out.layer(
        "vcode.persist.store_us",
        s.get("vcode.persist.store").mean_ns() / 1e3,
        "us",
    );
}
