//! `streamlin` — linear analysis and optimization of stream programs.
//!
//! A from-scratch Rust reproduction of *Linear Analysis and Optimization of
//! Stream Programs* (Lamb, MEng thesis, MIT 2003; PLDI 2003 with Thies and
//! Amarasinghe): a StreamIt-dialect frontend, the linear extraction
//! analysis, the combination/frequency/redundancy transformations, the
//! automatic optimization selector, an instrumented execution engine, the
//! paper's nine-benchmark suite, and a harness that regenerates every table
//! and figure of its evaluation.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`lang`] | `streamlin-lang` | lexer, parser, AST |
//! | [`graph`] | `streamlin-graph` | elaboration, stream IR, steady-state rates |
//! | [`core`] | `streamlin-core` | extraction, combination, frequency, redundancy, selection |
//! | [`runtime`] | `streamlin-runtime` | flattening, execution engines, the `RunSpec` run API |
//! | [`service`] | `streamlin-service` | the `streamlind` daemon: plan cache, streams, admission |
//! | [`benchmarks`] | `streamlin-benchmarks` | the nine paper benchmarks |
//! | [`matrix`], [`fft`], [`support`] | substrates | linear algebra, FFT, op counting |
//!
//! # Quick start
//!
//! ```
//! use streamlin::prelude::*;
//!
//! // 1. Write a stream program in the StreamIt dialect.
//! let program = streamlin::lang::parse(
//!     "void->void pipeline Main { add Src(); add F(); add G(); add K(); }
//!      void->float filter Src { float x; work push 1 { push(x++); } }
//!      float->float filter F { work pop 1 push 1 { push(0.5 * pop()); } }
//!      float->float filter G { work pop 1 push 1 { push(4 * pop() + 1); } }
//!      float->void filter K { work pop 1 { println(pop()); } }",
//! )?;
//!
//! // 2. Elaborate, analyze, optimize.
//! let graph = streamlin::graph::elaborate(&program)?;
//! let analysis = analyze_graph(&graph);
//! assert_eq!(analysis.linear_count(), 2);
//! let optimized = replace(&graph, &analysis, &ReplaceOptions::maximal_linear());
//! assert_eq!(optimized.stats().linear, 1); // F and G fused: y = 2x + 1
//!
//! // 3. Execute both and compare: one `RunSpec` says how (here: the
//! //    defaults, 10 outputs).
//! let spec = RunSpec::new(10);
//! let base = run(&OptStream::from_graph(&graph), &spec, None, None)?;
//! let opt = run(&optimized, &spec, None, None)?;
//! assert_eq!(base.outputs, opt.outputs);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use streamlin_benchmarks as benchmarks;
pub use streamlin_core as core;
pub use streamlin_fft as fft;
pub use streamlin_graph as graph;
pub use streamlin_lang as lang;
pub use streamlin_matrix as matrix;
pub use streamlin_runtime as runtime;
pub use streamlin_service as service;
pub use streamlin_support as support;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use streamlin_core::combine::{analyze_graph, replace, ReplaceOptions, ReplaceTarget};
    pub use streamlin_core::cost::CostModel;
    pub use streamlin_core::extract::extract;
    pub use streamlin_core::node::LinearNode;
    pub use streamlin_core::opt::OptStream;
    pub use streamlin_core::select::{select, SelectOptions};
    pub use streamlin_graph::elaborate::{elaborate, elaborate_named};
    pub use streamlin_graph::ir::Stream;
    pub use streamlin_lang::parse;
    pub use streamlin_runtime::{run, ExecMode, MatMulStrategy, RunSpec, Scheduler, Tier};
    pub use streamlin_support::OpCounter;
}
