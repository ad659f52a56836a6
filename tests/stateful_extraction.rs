//! Cross-validation of the §7.1 linear-state extension: stateful
//! extraction must agree with the runtime interpreter executing the same
//! filter, including on state-bearing components of the real benchmarks.

use streamlin::core::state_space::extract_stateful;
use streamlin::core::OptStream;
use streamlin::graph::elaborate::{elaborate, elaborate_named};
use streamlin::graph::ir::Stream;
use streamlin::lang::parse;
use streamlin::runtime::{run, RunSpec};
use streamlin::support::OpCounter;

/// Runs `filter_src` (a float->float filter named F) both ways: through
/// the engine's interpreter inside a ramp→F→printer program, and through
/// its extracted state-space node over the same ramp.
fn assert_interp_matches_state_space(filter_src: &str, n: usize) {
    let program_src = format!(
        "void->void pipeline Main {{ add Ramp(); add F(); add K(); }}
         void->float filter Ramp {{ float x; work push 1 {{ push(x); x = x + 0.5; }} }}
         {filter_src}
         float->void filter K {{ work pop 1 {{ println(pop()); }} }}"
    );
    let program = parse(&program_src).unwrap();
    let graph = elaborate(&program).unwrap();
    let interp = run(&OptStream::from_graph(&graph), &RunSpec::new(n), None, None).unwrap();

    let Stream::Filter(f) = elaborate_named(&program, "F", &[]).unwrap() else {
        panic!("F is not a filter");
    };
    let node = extract_stateful(&f).unwrap();
    let ramp: Vec<f64> = (0..(n * node.pop() + node.peek()))
        .map(|i| i as f64 * 0.5)
        .collect();
    let mut ops = OpCounter::new();
    let direct = node.run_over(&ramp, &mut ops);
    assert!(direct.len() >= n, "state-space run produced too little");
    for (i, (a, b)) in interp.outputs.iter().zip(&direct).take(n).enumerate() {
        assert!(
            (a - b).abs() < 1e-9,
            "output {i}: interp {a} vs state-space {b}"
        );
    }
}

#[test]
fn delay_agrees_with_interpreter() {
    assert_interp_matches_state_space(
        "float->float filter F {
             float s;
             work pop 1 push 1 { push(s); s = pop(); }
         }",
        64,
    );
}

#[test]
fn leaky_integrator_agrees_with_interpreter() {
    assert_interp_matches_state_space(
        "float->float filter F {
             float acc;
             work pop 1 push 1 {
                 acc = 0.9 * acc + 0.1 * pop();
                 push(acc);
             }
         }",
        64,
    );
}

#[test]
fn multi_rate_stateful_filter_agrees() {
    // pops 2, pushes 3, with cross-firing state.
    assert_interp_matches_state_space(
        "float->float filter F {
             float carry;
             work pop 2 push 3 {
                 float a = pop();
                 float b = pop();
                 push(carry + a);
                 push(a - b);
                 push(2 * b);
                 carry = a + 0.25 * carry;
             }
         }",
        60,
    );
}

#[test]
fn dtoa_delay_component_is_stateful_linear() {
    // The Delay inside the DToA noise shaper: standard extraction calls it
    // non-linear; the extension recovers the exact one-sample delay.
    let b = streamlin::benchmarks::dtoa();
    let mut found = false;
    b.graph().for_each_filter(&mut |f| {
        if f.decl_name == "Delay" {
            found = true;
            let node = extract_stateful(f).unwrap();
            assert_eq!(node.state_dim(), 1);
            let mut ops = OpCounter::new();
            assert_eq!(
                node.run_over(&[5.0, 6.0, 7.0], &mut ops),
                vec![0.0, 5.0, 6.0]
            );
        }
    });
    assert!(found, "DToA should contain a Delay filter");
}

#[test]
fn stateful_covers_strictly_more_than_stateless() {
    // Over the whole suite: every filter the standard analysis finds
    // linear is also stateful-linear (with zero state), and at least a few
    // previously-rejected filters are recovered.
    let mut recovered = 0;
    for b in streamlin::benchmarks::all_default() {
        let analysis = streamlin::core::combine::analyze_graph(b.graph());
        b.graph()
            .for_each_filter(&mut |f| match (analysis.node_for(f), extract_stateful(f)) {
                (Some(lin), Ok(st)) => {
                    assert!(st.is_stateless(), "{}: gained unexpected state", f.name);
                    let as_lin = st.to_linear().unwrap();
                    assert!(
                        as_lin.approx_eq(lin, 1e-12, 1e-12),
                        "{}: stateless projection differs",
                        f.name
                    );
                }
                (Some(_), Err(e)) => panic!("{}: linear but not stateful-linear: {e}", f.name),
                (None, Ok(st)) => {
                    assert!(st.state_dim() > 0, "{}: recovered without state?", f.name);
                    recovered += 1;
                }
                (None, Err(_)) => {}
            });
    }
    assert!(
        recovered >= 2,
        "expected to recover Delay-like filters, got {recovered}"
    );
}
