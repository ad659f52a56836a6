//! Execution engine for `streamlin` stream programs.
//!
//! This crate plays the role of the paper's uniprocessor backend plus its
//! runtime library (§5.1): it lowers an optimized stream
//! ([`streamlin_core::OptStream`]) to a flat graph of nodes connected by
//! FIFO channels and executes it until the program has produced a requested
//! number of outputs, measuring wall-clock time. Execution is generic over
//! [`streamlin_support::Tally`]: under [`measure::ExecMode::Measured`]
//! every floating-point operation is tallied through
//! [`streamlin_support::OpCounter`] (the DynamoRIO substitute); under
//! [`measure::ExecMode::Fast`] the same engines monomorphize over
//! [`streamlin_support::NoCount`] — bit-identical outputs, no accounting,
//! vectorized linear kernels ([`linear_exec::MatMulStrategy::Simd`]).
//!
//! Node executors:
//!
//! * **original filters** run in the slot-resolved work-function
//!   interpreter ([`streamlin_graph::lower`], with a tape-connected
//!   host): storage resolved to `Vec<Cell>` slots at elaboration, no name
//!   hashing on the firing path;
//! * **linear nodes** run as direct matrix-vector products with a choice of
//!   [`linear_exec::MatMulStrategy`] — the default zero-skipping column
//!   loops of the paper's code generator (Figure 5-7) or the cache-blocked
//!   dense kernel standing in for ATLAS (§5.4);
//! * **frequency nodes** and **redundancy nodes** wrap the executors from
//!   `streamlin-core` (plus the decimator stage for `pop > 1`);
//! * **splitters/joiners** move items according to their weights.
//!
//! Two schedulers execute the flat graph:
//!
//! * the **static plan engine** (the default): [`plan`] compiles the
//!   steady-state solution of the balance equations into a fixed firing
//!   sequence — an init phase for peek prologues and `initWork`, then one
//!   repeated steady cycle — with exactly-sized [`ring`] buffers in a
//!   single slab, batching consecutive linear-node firings into blocked
//!   multiplies;
//! * the **data-driven engine** (the fallback, and `Scheduler::Dynamic`):
//!   any node with enough input (and bounded output backlog) may fire —
//!   this is what runs graphs the plan compiler rejects, e.g. feedback
//!   loops.
//!
//! On top of the static plan sits the **pipeline-parallel executor**
//! ([`RunSpec::threads`], `streamlinc --threads N`): [`mod@partition`]
//! cuts the planned graph into cost-balanced contiguous stages and
//! [`parallel`] runs each stage's slice of the schedule on its own
//! pooled worker thread ([`pool`] keeps the threads across runs), handing
//! items across boundaries through the lock-free SPSC rings of
//! [`ring::SharedRings`] — printed outputs stay bit-identical to the
//! single-threaded plan for every thread count, and tallies/firing
//! counts are identical across thread counts.
//!
//! When the cost model's dominant node is stateless or a linear/frequency
//! kernel, **data-parallel fission** ([`fission`],
//! [`RunSpec::fission`], `streamlinc --fission auto|off|N`)
//! rewrites the flat graph to `W` round-robin duplicates behind a
//! synthesized splitter/joiner pair before partitioning, so a graph
//! dominated by one node can still use every stage — with the same
//! bit-identity and tally/firing invariance contract across widths.
//!
//! Execution stops when the requested number of program outputs (captured
//! `print`/`println` values) has been produced. Both schedulers execute
//! identical firing semantics, so their printed output is bit-identical.
//!
//! One value selects everything about a run: a [`RunSpec`] (scheduler,
//! mode, matmul strategy, threads, fission, quantum, watchdog, fallback,
//! interpreter [`Tier`], output count). [`compile`] turns an optimized
//! stream into an [`measure::Artifact`], [`open_session`] instantiates a
//! resident [`session::StreamExec`] from it, and [`run`] is the two
//! composed with one read — the one-shot profile.
//!
//! Everything above is additionally generic over a telemetry
//! [`streamlin_support::Probe`] on the same zero-cost pattern as the
//! tally: production runs instantiate [`streamlin_support::NoProbe`]
//! (every record site compiles away — bit-identical outputs, unchanged
//! throughput), while a [`run`] handed a [`streamlin_support::Recorder`]
//! captures compile-phase spans,
//! per-stage busy/stall time, ring occupancy high-water marks and
//! full/empty stall counts, coordinator quantum waits, and per-node
//! firing costs against the cost model — exported as a human summary
//! (`streamlinc --metrics`) or a Chrome trace-event timeline
//! (`--trace-out`, validated by [`telemetry::validate_trace`]).
//!
//! # Examples
//!
//! ```
//! use streamlin_core::opt::OptStream;
//! use streamlin_runtime::{run, RunSpec};
//!
//! let p = streamlin_lang::parse(
//!     "void->void pipeline Main { add S(); add K(); }
//!      void->float filter S { float x; work push 1 { push(x++); } }
//!      float->void filter K { work pop 1 { println(2 * pop()); } }",
//! )
//! .unwrap();
//! let g = streamlin_graph::elaborate(&p).unwrap();
//! let opt = OptStream::from_graph(&g);
//! let prof = run(&opt, &RunSpec::new(5), None, None).unwrap();
//! assert_eq!(prof.outputs, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
//! ```

pub mod engine;
pub mod fission;
pub mod flat;
pub mod linear_exec;
pub mod measure;
pub mod parallel;
pub mod partition;
pub mod plan;
pub mod pool;
pub mod ring;
pub mod session;
pub mod telemetry;

pub use engine::{Engine, RunError};
pub use fission::{fiss_bottleneck, fissability, Fission, FissionInfo};
pub use flat::Tier;
pub use linear_exec::MatMulStrategy;
pub use measure::{
    compile, first_mismatch, profile_supervised, run, Artifact, ExecMode, Profile, ProfileError,
    RunSpec, Scheduler, Supervision,
};
pub use parallel::{
    parse_quantum, resolve_quantum, resolve_quantum_checked, run_pipeline_quantized,
    PipelineOutcome, PipelineSession, CYCLE_QUANTUM,
};
pub use partition::{partition, Partition};
pub use plan::{ExecPlan, PlanEngine, PlanError};
pub use session::{open_session, CloseReport, Instruments, ReadOut, StreamExec};
pub use telemetry::{validate_trace, TraceShape};
