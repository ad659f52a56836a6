//! Property test for the extraction analysis (§3.2): generate random
//! linear work functions as *source text*, and check the extracted node's
//! firing semantics against the runtime interpreter executing the same
//! program — analysis and execution must agree item-for-item.

use proptest::prelude::*;
use streamlin::core::combine::analyze_graph;
use streamlin::core::opt::OptStream;
use streamlin::graph::elaborate;
use streamlin::lang::parse;
use streamlin::runtime::{run, RunSpec};

/// A random affine work function: for each output, a sum of
/// `coeff * peek(i)` terms plus a constant.
#[derive(Debug, Clone)]
struct RandFilter {
    peek: usize,
    pop: usize,
    terms: Vec<Vec<(usize, i32)>>,
    offsets: Vec<i32>,
}

fn arb_filter() -> impl Strategy<Value = RandFilter> {
    (1usize..=5, 1usize..=3).prop_flat_map(|(peek, push)| {
        let pop = 1usize..=peek;
        let terms = proptest::collection::vec(
            proptest::collection::vec((0..peek, -3..=3i32), 0..=peek),
            push,
        );
        let offsets = proptest::collection::vec(-2..=2i32, push);
        (Just(peek), pop, terms, offsets).prop_map(|(peek, pop, terms, offsets)| RandFilter {
            peek,
            pop,
            terms,
            offsets,
        })
    })
}

impl RandFilter {
    fn render(&self) -> String {
        let mut body = String::new();
        for (j, terms) in self.terms.iter().enumerate() {
            let mut expr = format!("{}", self.offsets[j]);
            for (pos, coeff) in terms {
                expr.push_str(&format!(" + {coeff} * peek({pos})"));
            }
            body.push_str(&format!("push({expr});\n"));
        }
        for _ in 0..self.pop {
            body.push_str("pop();\n");
        }
        format!(
            "void->void pipeline Main {{ add Src(); add F(); add Sink(); }}
             void->float filter Src {{ float x; work push 1 {{ push(sin(x++)); }} }}
             float->float filter F {{
                 work peek {} pop {} push {} {{
                     {body}
                 }}
             }}
             float->void filter Sink {{ work pop 1 {{ println(pop()); }} }}",
            self.peek,
            self.pop,
            self.terms.len(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn extraction_agrees_with_interpretation(f in arb_filter()) {
        let program = parse(&f.render()).unwrap();
        let graph = elaborate(&program).unwrap();
        let analysis = analyze_graph(&graph);
        // The generated filter is affine by construction: extraction must
        // find it (source and sink are the non-linear ones).
        prop_assert_eq!(analysis.linear_count(), 1);

        let interp = run(&OptStream::from_graph(&graph), &RunSpec::new(64), None, None).unwrap();
        let node_based = run(&streamlin::core::combine::replace( &graph, &analysis, &streamlin::core::combine::ReplaceOptions::per_filter(), ), &RunSpec::new(64), None, None)
        .unwrap();
        prop_assert_eq!(interp.outputs.len(), node_based.outputs.len());
        for (a, b) in interp.outputs.iter().zip(&node_based.outputs) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}
