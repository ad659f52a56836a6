//! Differential suite: the slot-resolved work-function interpreter
//! ([`streamlin::graph::lower`]) against the name-based AST interpreter
//! ([`streamlin::graph::exec`]) it replaced on the firing path.
//!
//! For **every filter instance of all nine benchmarks**, both interpreters
//! execute the same firing sequence over the same synthetic tape; pushed
//! values, printed values, pop counts, floating-point operation tallies
//! and the final persistent state must agree exactly. A third run with
//! counting hooks disabled (the `Fast`-mode analogue: identical code, the
//! tally is a no-op) must produce bit-identical values, and a
//! program-level check pins `Measured` vs `Fast` outputs across the full
//! engines.
//!
//! The **bytecode tier** ([`streamlin::graph::bytecode`]) is a third
//! compared family: the compiled form of every work phase (including its
//! fused dot-product loops) runs the same firings and must match the
//! tree-walkers on every dimension — values, pops, tallies, state.

use std::collections::HashMap;

use streamlin::benchmarks::Benchmark;
use streamlin::core::opt::OptStream;
use streamlin::graph::exec::{Env, Host, Interp};
use streamlin::graph::ir::FilterInst;
use streamlin::graph::lower::{SlotInterp, SlotStore};
use streamlin::graph::value::{Cell, EvalError, Value};
use streamlin::runtime::MatMulStrategy;
use streamlin::runtime::{run, ExecMode, RunSpec};
use streamlin::service::env_tier;

/// Fuel per firing, matching the runtime engine's budget.
const FIRING_FUEL: u64 = 50_000_000;

/// Firings per filter (the first may be an `initWork` phase).
const FIRINGS: usize = 3;

/// Test host over a synthetic tape: counts operations when `count` is
/// set, mirroring the runtime's `Measured`/`Fast` split.
#[derive(Default)]
struct TapeHost {
    input: Vec<f64>,
    cursor: usize,
    pushed: Vec<f64>,
    printed: Vec<f64>,
    count: bool,
    adds: u64,
    muls: u64,
    divs: u64,
    others: u64,
}

impl Host for TapeHost {
    fn peek(&mut self, i: usize) -> Result<f64, EvalError> {
        self.input
            .get(self.cursor + i)
            .copied()
            .ok_or_else(|| EvalError::new("peek past end of test tape"))
    }
    fn pop(&mut self) -> Result<f64, EvalError> {
        let v = self.peek(0)?;
        self.cursor += 1;
        Ok(v)
    }
    fn push(&mut self, v: f64) -> Result<(), EvalError> {
        self.pushed.push(v);
        Ok(())
    }
    fn print(&mut self, v: Value, _newline: bool) -> Result<(), EvalError> {
        self.printed.push(v.as_f64()?);
        Ok(())
    }
    fn count_add(&mut self) {
        self.adds += self.count as u64;
    }
    fn count_mul(&mut self) {
        self.muls += self.count as u64;
    }
    fn count_div(&mut self) {
        self.divs += self.count as u64;
    }
    fn count_other(&mut self) {
        self.others += self.count as u64;
    }
}

/// A deterministic, nonzero, sign-varying tape.
fn tape(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 37 + 11) % 97) as f64 / 13.0 - 3.5)
        .collect()
}

/// Tape length covering `FIRINGS` firings of the filter.
fn tape_len(inst: &FilterInst) -> usize {
    let init = inst.init_work.as_ref().unwrap_or(&inst.work);
    let pops = init.pop + (FIRINGS - 1) * inst.work.pop;
    pops + init.peek.max(inst.work.peek) + 4
}

struct RunResult {
    pushed: Vec<f64>,
    printed: Vec<f64>,
    popped: usize,
    tallies: [u64; 4],
    /// Final persistent state, name → cell.
    state: HashMap<String, Cell>,
}

/// Runs `FIRINGS` firings through the name-based AST interpreter.
fn run_name_based(inst: &FilterInst, input: &[f64]) -> RunResult {
    let mut state = inst.state.clone();
    let mut host = TapeHost {
        input: input.to_vec(),
        count: true,
        ..TapeHost::default()
    };
    for k in 0..FIRINGS {
        let phase = match (&inst.init_work, k) {
            (Some(iw), 0) => iw,
            _ => &inst.work,
        };
        let mut interp = Interp::new(&mut host, FIRING_FUEL);
        let mut env = Env::new(&mut state);
        interp
            .exec_block(&mut env, &phase.body)
            .unwrap_or_else(|e| panic!("{} (name-based): {}", inst.name, e.message));
    }
    RunResult {
        popped: host.cursor,
        pushed: host.pushed,
        printed: host.printed,
        tallies: [host.adds, host.muls, host.divs, host.others],
        state,
    }
}

/// Runs `FIRINGS` firings through the slot-resolved interpreter.
fn run_slot_based(inst: &FilterInst, input: &[f64], count: bool) -> RunResult {
    let lowered = &inst.lowered;
    let mut globals: Vec<Cell> = lowered
        .globals
        .iter()
        .map(|n| inst.state[n].clone())
        .collect();
    let mut frame = vec![
        Cell::Scalar(streamlin::lang::ast::DataType::Int, Value::Int(0));
        lowered.frame_slots()
    ];
    let mut host = TapeHost {
        input: input.to_vec(),
        count,
        ..TapeHost::default()
    };
    for k in 0..FIRINGS {
        let code = match (&lowered.init_work, k) {
            (Some(iw), 0) => iw,
            _ => &lowered.work,
        };
        let mut interp = SlotInterp::new(&mut host, FIRING_FUEL);
        let mut store = SlotStore {
            globals: &mut globals,
            frame: &mut frame,
        };
        interp
            .exec_work(&mut store, &code.body)
            .unwrap_or_else(|e| panic!("{} (slot-based): {}", inst.name, e.message));
    }
    let state = lowered.globals.iter().cloned().zip(globals).collect();
    RunResult {
        popped: host.cursor,
        pushed: host.pushed,
        printed: host.printed,
        tallies: [host.adds, host.muls, host.divs, host.others],
        state,
    }
}

/// Runs `FIRINGS` firings through the compiled bytecode tier.
fn run_bytecode(inst: &FilterInst, input: &[f64], count: bool) -> RunResult {
    let lowered = &inst.lowered;
    let mut globals: Vec<Cell> = lowered
        .globals
        .iter()
        .map(|n| inst.state[n].clone())
        .collect();
    let mut frame = vec![
        Cell::Scalar(streamlin::lang::ast::DataType::Int, Value::Int(0));
        lowered.frame_slots()
    ];
    let mut host = TapeHost {
        input: input.to_vec(),
        count,
        ..TapeHost::default()
    };
    for k in 0..FIRINGS {
        let code = match (&lowered.init_work, k) {
            (Some(iw), 0) => iw,
            _ => &lowered.work,
        };
        let mut store = SlotStore {
            globals: &mut globals,
            frame: &mut frame,
        };
        streamlin::graph::bytecode::exec(&code.code, &mut store, &mut host, FIRING_FUEL)
            .unwrap_or_else(|e| panic!("{} (bytecode): {}", inst.name, e.message));
    }
    let state = lowered.globals.iter().cloned().zip(globals).collect();
    RunResult {
        popped: host.cursor,
        pushed: host.pushed,
        printed: host.printed,
        tallies: [host.adds, host.muls, host.divs, host.others],
        state,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check_benchmark(bench: &Benchmark) {
    let mut filters = Vec::new();
    bench
        .graph()
        .for_each_filter(&mut |f| filters.push(f.clone()));
    assert!(!filters.is_empty());
    for inst in &filters {
        let input = tape(tape_len(inst));
        let name_based = run_name_based(inst, &input);
        let slot_counted = run_slot_based(inst, &input, true);
        let slot_uncounted = run_slot_based(inst, &input, false);

        let ctx = format!("{} :: {}", bench.name(), inst.name);
        // Outputs are bit-identical between the interpreters…
        assert_eq!(
            bits(&name_based.pushed),
            bits(&slot_counted.pushed),
            "{ctx}: pushed values diverge"
        );
        assert_eq!(
            bits(&name_based.printed),
            bits(&slot_counted.printed),
            "{ctx}: printed values diverge"
        );
        assert_eq!(
            name_based.popped, slot_counted.popped,
            "{ctx}: pop counts diverge"
        );
        // …the FLOP tallies agree…
        assert_eq!(
            name_based.tallies, slot_counted.tallies,
            "{ctx}: operation tallies diverge (adds/muls/divs/others)"
        );
        // …the persistent state ends identical…
        assert_eq!(
            name_based.state, slot_counted.state,
            "{ctx}: final filter state diverges"
        );
        // …and disabling the counting hooks (the Fast-mode analogue)
        // changes nothing about the values.
        assert_eq!(
            bits(&slot_counted.pushed),
            bits(&slot_uncounted.pushed),
            "{ctx}: counting changed pushed values"
        );
        assert_eq!(
            bits(&slot_counted.printed),
            bits(&slot_uncounted.printed),
            "{ctx}: counting changed printed values"
        );
        assert_eq!(
            slot_uncounted.tallies,
            [0, 0, 0, 0],
            "{ctx}: no-count tallied"
        );

        // The bytecode tier agrees with the tree-walkers on every
        // dimension, in both tally monomorphizations.
        let byte_counted = run_bytecode(inst, &input, true);
        let byte_uncounted = run_bytecode(inst, &input, false);
        assert_eq!(
            bits(&byte_counted.pushed),
            bits(&slot_counted.pushed),
            "{ctx}: bytecode pushed values diverge"
        );
        assert_eq!(
            bits(&byte_counted.printed),
            bits(&slot_counted.printed),
            "{ctx}: bytecode printed values diverge"
        );
        assert_eq!(
            byte_counted.popped, slot_counted.popped,
            "{ctx}: bytecode pop counts diverge"
        );
        assert_eq!(
            byte_counted.tallies, slot_counted.tallies,
            "{ctx}: bytecode operation tallies diverge"
        );
        assert_eq!(
            byte_counted.state, slot_counted.state,
            "{ctx}: bytecode final filter state diverges"
        );
        assert_eq!(
            bits(&byte_uncounted.pushed),
            bits(&byte_counted.pushed),
            "{ctx}: counting changed bytecode pushed values"
        );
        assert_eq!(
            byte_uncounted.tallies,
            [0, 0, 0, 0],
            "{ctx}: bytecode no-count tallied"
        );
    }
}

macro_rules! per_filter_differential {
    ($($test:ident => $bench:expr;)*) => {$(
        #[test]
        fn $test() {
            check_benchmark(&$bench);
        }
    )*}
}

per_filter_differential! {
    fir_filters_match => streamlin::benchmarks::fir(256);
    rate_convert_filters_match => streamlin::benchmarks::rate_convert();
    target_detect_filters_match => streamlin::benchmarks::target_detect();
    fm_radio_filters_match => streamlin::benchmarks::fm_radio();
    radar_filters_match => streamlin::benchmarks::radar(4, 4);
    filter_bank_filters_match => streamlin::benchmarks::filter_bank();
    vocoder_filters_match => streamlin::benchmarks::vocoder();
    oversampler_filters_match => streamlin::benchmarks::oversampler();
    dtoa_filters_match => streamlin::benchmarks::dtoa();
}

/// Program level: the fully interpreted configuration of every benchmark
/// prints bit-identical outputs under `Measured` and `Fast` (same
/// schedule, same slot-resolved interpreter, different tally
/// monomorphization).
#[test]
fn interpreted_programs_match_across_modes() {
    for bench in streamlin::benchmarks::all_default() {
        let opt = OptStream::from_graph(bench.graph());
        let n = bench.default_outputs().min(200);
        // The environment's tier: `STREAMLIN_NO_BYTECODE=1` runs both
        // modes on the tree-walker.
        let measured = RunSpec {
            tier: env_tier(),
            ..RunSpec::new(n)
        };
        let fast = RunSpec {
            matmul: Some(MatMulStrategy::Unrolled),
            mode: ExecMode::Fast,
            ..measured.clone()
        };
        let measured = run(&opt, &measured, None, None)
            .unwrap_or_else(|e| panic!("{} measured: {e}", bench.name()));
        let fast =
            run(&opt, &fast, None, None).unwrap_or_else(|e| panic!("{} fast: {e}", bench.name()));
        assert_eq!(
            bits(&measured.outputs),
            bits(&fast.outputs),
            "{}: interpreted outputs differ between modes",
            bench.name()
        );
        assert_eq!(fast.ops.flops(), 0, "{}: Fast mode tallied", bench.name());
        assert!(
            measured.ops.flops() > 0,
            "{}: Measured mode tallied nothing",
            bench.name()
        );
    }
}
