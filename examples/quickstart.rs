//! Quickstart: write a small DSP program in the StreamIt dialect, let the
//! compiler find and fuse its linear filters, and watch the operation
//! counts drop while the output stays bit-identical.
//!
//! Run with: `cargo run --release --example quickstart`

use streamlin::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A moving-average smoother followed by a difference filter — the kind
    // of modular decomposition §1.3 of the paper argues programmers should
    // be able to afford.
    let program = parse(
        "void->void pipeline Main {
             add Source();
             add Smooth(8);
             add Diff();
             add Printer();
         }
         void->float filter Source {
             float x;
             work push 1 { push(sin(0.1 * x++)); }
         }
         float->float filter Smooth(int N) {
             work peek N pop 1 push 1 {
                 float acc = 0;
                 for (int i = 0; i < N; i++) acc += peek(i);
                 push(acc / N);
                 pop();
             }
         }
         float->float filter Diff {
             work peek 2 pop 1 push 1 { push(peek(1) - peek(0)); pop(); }
         }
         float->void filter Printer { work pop 1 { println(pop()); } }",
    )?;

    let graph = elaborate(&program)?;
    let analysis = analyze_graph(&graph);
    println!("linear filters found: {}", analysis.linear_count());

    let baseline = OptStream::from_graph(&graph);
    let optimized = replace(&graph, &analysis, &ReplaceOptions::maximal_linear());
    println!("optimized structure:  {}", optimized.describe());

    let n = 1000;
    let base = run(&baseline, &RunSpec::new(n), None, None)?;
    let opt = run(&optimized, &RunSpec::new(n), None, None)?;

    assert_eq!(base.outputs.len(), opt.outputs.len());
    for (a, b) in base.outputs.iter().zip(&opt.outputs) {
        assert!((a - b).abs() < 1e-9, "outputs must be identical");
    }
    println!(
        "multiplications/output: {:.1} -> {:.1}",
        base.mults_per_output(),
        opt.mults_per_output()
    );
    println!(
        "flops/output:           {:.1} -> {:.1}",
        base.flops_per_output(),
        opt.flops_per_output()
    );
    println!("outputs agree on all {n} items.");
    Ok(())
}
