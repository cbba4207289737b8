//! The engine pinned to the sequential oracles in
//! [`ariadne_analytics::reference`] at thread counts 1/2/3/7, on a fixed
//! R-MAT graph whose hubs skew the degree-weighted chunk cut. WCC must
//! match exactly; SSSP and PageRank within the tolerance the property
//! tests in `oracle_props.rs` use.

use ariadne_analytics::reference::{dijkstra, pagerank_power_iteration, wcc_labels};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::generators::{rmat, RmatConfig};
use ariadne_graph::{Csr, VertexId};
use ariadne_vc::{Engine, EngineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 2 divides n = 256; 3 and 7 do not, so chunk boundaries land unevenly.
const THREADS: [usize; 4] = [1, 2, 3, 7];

fn graph() -> Csr {
    rmat(RmatConfig {
        scale: 8,
        edge_factor: 4,
        ..Default::default()
    })
}

fn engine(threads: usize) -> Engine {
    Engine::new(EngineConfig::parallel(threads))
}

#[test]
fn wcc_matches_union_find_at_every_thread_count() {
    let g = graph();
    let oracle = wcc_labels(&g);
    for t in THREADS {
        assert_eq!(engine(t).run(&Wcc, &g).values, oracle, "{t} threads");
    }
}

#[test]
fn sssp_matches_dijkstra_at_every_thread_count() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = graph().map_weights(|_, _, _| 0.05 + rng.gen::<f64>());
    let source = VertexId(0);
    let oracle = dijkstra(&g, source);
    assert!(oracle.iter().filter(|d| d.is_finite()).count() > 1);
    for t in THREADS {
        let vc = engine(t).run(&Sssp::new(source), &g);
        for (v, (a, b)) in vc.values.iter().zip(&oracle).enumerate() {
            if a.is_finite() || b.is_finite() {
                assert!(
                    (a - b).abs() < 1e-9,
                    "{t} threads, vertex {v}: vc {a} oracle {b}"
                );
            }
        }
    }
}

#[test]
fn pagerank_matches_power_iteration_at_every_thread_count() {
    let g = graph();
    let pr = PageRank {
        supersteps: 15,
        ..Default::default()
    };
    let oracle = pagerank_power_iteration(&g, pr.damping, pr.supersteps);
    for t in THREADS {
        let vc = engine(t).run(&pr, &g);
        assert_eq!(vc.values.len(), oracle.len());
        for (v, (a, b)) in vc.values.iter().zip(&oracle).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "{t} threads, vertex {v}: vc {a} oracle {b}"
            );
        }
    }
}
