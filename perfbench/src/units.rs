//! Compile units the `jit_compile` and `warm_restart` workloads bring up,
//! each with the inputs of its checked first call and an independent
//! expected answer.

use crate::oracle::{self, catch_all, frame, port_filter, shift_filter, with_ihl6};
use crate::rng::Rng;
use ash::Step;
use dpf::packet::{IPPROTO_TCP, IPPROTO_UDP};
use dpf::Filter;
use vcode::engine::{Program, TargetId};
use vcode::{BinOp, Cond};

/// Fuel for the reference interpretation of engine programs (every
/// generated program terminates far below it).
pub const FUEL: u64 = 1_000_000;

/// One thing a client asks to have compiled.
#[derive(Debug)]
pub enum Unit {
    /// An engine program for one target; `chain` marks straight-line
    /// programs whose values each feed exactly one later instruction.
    Engine {
        target: TargetId,
        prog: Program,
        args: [i32; 2],
        chain: bool,
    },
    /// A DPF filter set (installed in order, ids from 0) with probe
    /// packets and their longest-match answers.
    Dpf {
        filters: Vec<Filter>,
        opts: dpf::Options,
        probes: Vec<(Vec<u8>, Option<u32>)>,
    },
    /// An ASH pipeline shape and the message its first run transfers.
    Ash {
        steps: Vec<Step>,
        unroll: i32,
        msg: Vec<u8>,
    },
    /// A C translation unit and its checked calls with expected results.
    Tcc {
        source: String,
        calls: Vec<(String, Vec<i64>, i64)>,
    },
}

const CHAIN_OPS: [BinOp; 6] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Xor,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
];

fn chain_ops(rng: &mut Rng, p: &mut Program, n: usize) {
    for _ in 0..n {
        let op = *rng.pick(&CHAIN_OPS);
        if rng.chance(0.5) {
            p.bin(op, 2, 2, rng.below(2) as u8);
        } else {
            p.bin_imm(op, 2, 2, rng.range_i32(-1000, 1000));
        }
    }
}

/// `v2 = x + y`, then `n` operations each folding an argument or a
/// constant into `v2`.
pub fn chain_program(rng: &mut Rng, n: usize) -> Program {
    let mut p = Program::new(2).expect("two arguments");
    p.bin(BinOp::Add, 2, 0, 1);
    chain_ops(rng, &mut p, n);
    p.ret(2);
    p
}

/// A program with control flow: a counted loop or a two-way branch.
pub fn branchy_program(rng: &mut Rng) -> Program {
    let mut p = Program::new(2).expect("two arguments");
    if rng.chance(0.5) {
        let (top, done) = (p.genlabel(), p.genlabel());
        p.set(2, rng.range_i32(-50, 50));
        p.set(3, 0);
        p.label(top);
        p.br_imm(Cond::Ge, 3, rng.range_i32(1, 24), done);
        p.bin(*rng.pick(&[BinOp::Add, BinOp::Xor, BinOp::Sub]), 2, 2, 3);
        let n = rng.below(6) as usize;
        chain_ops(rng, &mut p, n);
        p.bin_imm(BinOp::Add, 3, 3, 1);
        p.jmp(top);
        p.label(done);
    } else {
        let (other, end) = (p.genlabel(), p.genlabel());
        p.bin(*rng.pick(&CHAIN_OPS), 2, 0, 1);
        let cond = *rng.pick(&[Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge, Cond::Eq, Cond::Ne]);
        p.br_imm(cond, 2, rng.range_i32(-500, 500), other);
        let n = 2 + rng.below(6) as usize;
        chain_ops(rng, &mut p, n);
        p.jmp(end);
        p.label(other);
        let n = 2 + rng.below(6) as usize;
        chain_ops(rng, &mut p, n);
        p.label(end);
    }
    let op = *rng.pick(&[BinOp::Div, BinOp::Mod]);
    p.bin_imm(op, 2, 2, rng.range_i32(2, 500));
    p.ret(2);
    p
}

/// A straight-line (`chain`) or branching engine program for `target`.
pub fn engine_unit(rng: &mut Rng, target: TargetId, chain: bool) -> Unit {
    let prog = if chain {
        let n = 8 + rng.below(56) as usize;
        chain_program(rng, n)
    } else {
        branchy_program(rng)
    };
    Unit::Engine {
        target,
        prog,
        args: [rng.range_i32(-1000, 1000), rng.range_i32(-1000, 1000)],
        chain,
    }
}

/// A chain-structured DPF set. With `dense_tcp == 0` its shape is
/// random: one to three destinations, each with an optional catch-all,
/// TCP and UDP port filters and an optional variable-IHL filter. With
/// `dense_tcp > 0` the shape is fixed — two destinations with
/// catch-alls, a dense run of `dense_tcp` TCP ports on the first (a
/// jump table under default options) and four sparse ports on the
/// second — and only the values are random.
pub fn dpf_unit(rng: &mut Rng, opts: dpf::Options, dense_tcp: usize) -> Unit {
    let fixed = dense_tcp > 0;
    let n_dests = if fixed { 2 } else { 1 + rng.below(3) };
    let dests: Vec<u32> = (0..n_dests)
        .map(|i| 0x0a00_0000 | ((rng.below(1 << 16) as u32) << 8) | i as u32)
        .collect();
    let mut filters = Vec::new();
    let mut targets = Vec::new();
    for (i, &ip) in dests.iter().enumerate() {
        if fixed || rng.chance(0.7) {
            filters.push(catch_all(ip));
        }
        let (n, dense) = match (fixed, i) {
            (true, 0) => (dense_tcp, true),
            (true, _) => (4, false),
            _ => (1 + rng.below(8) as usize, rng.chance(0.5)),
        };
        let tcp = oracle::ports(rng, n, dense, &[]);
        for &p in &tcp {
            filters.push(port_filter(ip, IPPROTO_TCP, p));
            targets.push(frame(IPPROTO_TCP, 7, ip, 99, p));
        }
        let n_udp = if fixed { 1 } else { rng.below(3) as usize };
        for p in oracle::ports(rng, n_udp, false, &[]) {
            filters.push(port_filter(ip, IPPROTO_UDP, p));
            targets.push(frame(IPPROTO_UDP, 7, ip, 99, p));
        }
        if !fixed && rng.chance(0.3) {
            let p = oracle::ports(rng, 1, false, &tcp)[0];
            filters.push(shift_filter(ip, p));
            targets.push(with_ihl6(frame(IPPROTO_TCP, 7, ip, 99, p)));
        }
        targets.push(frame(
            IPPROTO_TCP,
            7,
            ip,
            99,
            10_000 + rng.below(10_000) as u16,
        ));
    }
    rng.shuffle(&mut filters);
    let mut msgs: Vec<Vec<u8>> = (0..3).map(|_| rng.pick(&targets).clone()).collect();
    let mut cut = rng.pick(&targets).clone();
    cut.truncate(20 + rng.below(34) as usize);
    msgs.push(cut);
    msgs.push(frame(IPPROTO_TCP, 7, 0x0b00_0001, 99, 80));
    let probes = msgs
        .into_iter()
        .map(|m| {
            let want =
                oracle::longest_match(filters.iter().enumerate().map(|(i, f)| (i as u32, f)), &m);
            (m, want)
        })
        .collect();
    Unit::Dpf {
        filters,
        opts,
        probes,
    }
}

/// Dispatch options that keep a compiled set position-independent (and
/// therefore persistable): compare chains and branch trees only.
pub fn linear_opts() -> dpf::Options {
    dpf::Options {
        use_jump_tables: false,
        use_hashing: false,
        ..dpf::Options::default()
    }
}

const STEPS: [&[Step]; 4] = [
    &[],
    &[Step::Checksum],
    &[Step::Swap],
    &[Step::Checksum, Step::Swap],
];

/// Unroll factors of the ASH shapes. Only powers of two: kernels built
/// with other factors (3, 5, 6, 7, 9..=15) write up to 31 bytes past the
/// end of the destination for most message lengths, which corrupts the
/// heap and aborts the run.
const UNROLLS: [i32; 5] = [1, 2, 4, 8, 16];

/// Distinct ASH shapes: step combination × unroll factor.
pub const ASH_SHAPES: usize = STEPS.len() * UNROLLS.len();

/// ASH shape `index` (of [`ASH_SHAPES`]) and a message of 1..=96 words.
pub fn ash_unit(rng: &mut Rng, index: usize) -> Unit {
    let words = 1 + rng.below(96) as usize;
    Unit::Ash {
        steps: STEPS[index % STEPS.len()].to_vec(),
        unroll: UNROLLS[index / STEPS.len() % UNROLLS.len()],
        msg: (0..words * 4).map(|_| rng.next_u64() as u8).collect(),
    }
}

/// A C translation unit of one to three functions from four templates,
/// with seeded constants and a hand-written Rust twin per function
/// giving the expected result of each checked call.
pub fn tcc_unit(rng: &mut Rng) -> Unit {
    let mut source = String::new();
    let mut calls = Vec::new();
    for i in 0..1 + rng.below(3) {
        let name = format!("f{i}");
        match rng.below(4) {
            0 => {
                let (a, b, c) = (
                    rng.range_i32(1, 100),
                    rng.range_i32(1, 100),
                    rng.range_i32(0, 1 << 20),
                );
                source +=
                    &format!("int {name}(int x, int y) {{ return (x * {a} + y * {b}) ^ {c}; }}\n");
                let (x, y) = (rng.range_i32(-1000, 1000), rng.range_i32(-1000, 1000));
                let want = (x * a + y * b) ^ c;
                calls.push((name, vec![i64::from(x), i64::from(y)], i64::from(want)));
            }
            1 => {
                let (k, m) = (rng.range_i32(0, 100), rng.range_i32(-1000, 1000));
                source += &format!(
                    "int {name}(int n) {{ int s = 0; for (int i = 0; i < n; i++) {{ s += i * {k} + {m}; }} return s; }}\n"
                );
                let n = rng.range_i32(0, 50);
                let want: i32 = (0..n).map(|i| i * k + m).sum();
                calls.push((name, vec![i64::from(n)], i64::from(want)));
            }
            2 => {
                let k = rng.range_i32(1, 10);
                source += &format!(
                    "int {name}(int a, int b) {{ while (b != 0) {{ int t = a % b; a = b; b = t; }} return a * {k}; }}\n"
                );
                let (mut a, mut b) = (rng.range_i32(1, 100_000), rng.range_i32(1, 100_000));
                let args = vec![i64::from(a), i64::from(b)];
                while b != 0 {
                    (a, b) = (b, a % b);
                }
                calls.push((name, args, i64::from(a * k)));
            }
            _ => {
                let t = rng.range_i32(-1000, 1000);
                source += &format!(
                    "int {name}(int x) {{ if (x > {t}) return x - {t}; else return {t} - x; }}\n"
                );
                let x = rng.range_i32(-100_000, 100_000);
                let want = if x > t { x - t } else { t - x };
                calls.push((name, vec![i64::from(x)], i64::from(want)));
            }
        }
    }
    Unit::Tcc { source, calls }
}
