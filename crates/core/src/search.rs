//! Search-based layout comparators — probing the Petrank–Rawitz wall.
//!
//! Petrank and Rawitz showed that optimal data (and code) placement is not
//! only NP-hard but inapproximable within a constant factor unless P = NP;
//! the paper names this the *Petrank–Rawitz wall* (§III-D) and argues the
//! way around it is specificity and variety of patterns. These comparators
//! make the wall measurable on small programs:
//!
//! * [`exhaustive_function_orders`] — try **all** `F!` function orders
//!   and return the one with the fewest simulated misses (the true
//!   optimum, computable only for tiny `F`) with every order's misses,
//! * [`random_search_function_order`] — sample random orders with a
//!   seeded generator: an unbiased budget-matched strawman.
//!
//! Experiments compare the model-driven optimizers against both: the
//! heuristics should land near the exhaustive optimum at a vanishing
//! fraction of its cost, while random search demonstrates how unstructured
//! the search space is.

use crate::eval::{EvalConfig, ProgramRun};
use clop_cachesim::CacheStats;
use clop_ir::{FuncId, Layout, Module};

/// Outcome of a layout search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The best layout found.
    pub layout: Layout,
    /// Its simulated solo cache statistics.
    pub stats: CacheStats,
    /// Number of layouts evaluated.
    pub evaluated: u64,
}

fn misses_of(module: &Module, layout: &Layout, config: &EvalConfig) -> CacheStats {
    ProgramRun::evaluate(module, layout, config).solo_sim()
}

/// Evaluate every permutation of the module's functions in one walk
/// (Heap's algorithm) and return the miss-minimal one together with the
/// full landscape: the miss count of every order, in Heap order (unsorted).
/// Ties go to the first order reached. Panics if the module has more than
/// `max_functions` functions — factorial cost is the point, but guard
/// against accidents (8! = 40,320 evaluations already).
pub fn exhaustive_function_orders(
    module: &Module,
    config: &EvalConfig,
    max_functions: usize,
) -> (SearchOutcome, Vec<u64>) {
    let n = module.num_functions();
    assert!(
        n <= max_functions,
        "exhaustive search over {} functions refused (limit {})",
        n,
        max_functions
    );
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut best_order = order.clone();
    let mut best: Option<CacheStats> = None;
    let mut landscape = Vec::new();

    let mut consider = |order: &[u32]| {
        let layout = Layout::FunctionOrder(order.iter().map(|&f| FuncId(f)).collect());
        let stats = misses_of(module, &layout, config);
        landscape.push(stats.misses);
        if best.map(|b| stats.misses < b.misses).unwrap_or(true) {
            best = Some(stats);
            best_order.clear();
            best_order.extend_from_slice(order);
        }
    };
    consider(&order);
    // Heap's algorithm, iterative.
    let mut c = vec![0usize; n];
    let mut i = 0usize;
    while i < n {
        if c[i] < i {
            if i.is_multiple_of(2) {
                order.swap(0, i);
            } else {
                order.swap(c[i], i);
            }
            consider(&order);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }

    let best = SearchOutcome {
        layout: Layout::FunctionOrder(best_order.into_iter().map(FuncId).collect()),
        stats: best.unwrap_or_default(),
        evaluated: landscape.len() as u64,
    };
    (best, landscape)
}

/// Sample `budget` random function orders (seeded xorshift Fisher–Yates)
/// and return the best. Includes the original order as the first sample.
pub fn random_search_function_order(
    module: &Module,
    config: &EvalConfig,
    budget: u64,
    seed: u64,
) -> SearchOutcome {
    let n = module.num_functions();
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut best_order = order.clone();
    let mut best = misses_of(module, &Layout::original(module), config);
    let mut evaluated = 1u64;
    while evaluated < budget.max(1) {
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let layout = Layout::FunctionOrder(order.iter().map(|&f| FuncId(f)).collect());
        let stats = misses_of(module, &layout, config);
        evaluated += 1;
        if stats.misses < best.misses {
            best = stats;
            best_order.copy_from_slice(&order);
        }
    }
    SearchOutcome {
        layout: Layout::FunctionOrder(best_order.into_iter().map(FuncId).collect()),
        stats: best,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_ir::prelude::*;

    /// A 5-function program whose conflict structure has a clear optimum.
    fn small_module() -> Module {
        let mut b = ModuleBuilder::new("small");
        b.function("main")
            .call("c1", 32, "f", "c2")
            .call("c2", 32, "g", "back")
            .branch(
                "back",
                32,
                CondModel::LoopCounter { trip: 300 },
                "c1",
                "end",
            )
            .ret("end", 16)
            .finish();
        b.function("pad").ret("x", 2048).finish();
        b.function("f").ret("x", 1024).finish();
        b.function("pad2").ret("x", 2048).finish();
        b.function("g").ret("x", 1024).finish();
        b.build().unwrap()
    }

    fn eval() -> EvalConfig {
        EvalConfig {
            cache: clop_cachesim::CacheConfig::new(2048, 2, 64),
            exec: ExecConfig::with_fuel(10_000),
            ..Default::default()
        }
    }

    #[test]
    fn exhaustive_visits_factorial_layouts() {
        let m = small_module();
        let (out, _) = exhaustive_function_orders(&m, &eval(), 6);
        assert_eq!(out.evaluated, 120); // 5!
        assert!(out.layout.is_permutation_of(&m));
    }

    #[test]
    fn exhaustive_is_at_least_as_good_as_anything() {
        let m = small_module();
        let cfg = eval();
        let (best, _) = exhaustive_function_orders(&m, &cfg, 6);
        let original = misses_of(&m, &Layout::original(&m), &cfg);
        assert!(best.stats.misses <= original.misses);
        let rand = random_search_function_order(&m, &cfg, 20, 7);
        assert!(best.stats.misses <= rand.stats.misses);
        // And the model-driven optimizer cannot beat the true optimum.
        let opt =
            crate::optimizer::Optimizer::new(crate::optimizer::OptimizerKind::FunctionAffinity)
                .optimize(&m)
                .unwrap();
        let model = misses_of(&opt.module, &opt.layout, &cfg);
        assert!(best.stats.misses <= model.misses);
    }

    #[test]
    fn random_search_improves_with_budget() {
        let m = small_module();
        let cfg = eval();
        let small = random_search_function_order(&m, &cfg, 2, 11);
        let large = random_search_function_order(&m, &cfg, 40, 11);
        assert!(large.stats.misses <= small.stats.misses);
        assert_eq!(large.evaluated, 40);
    }

    #[test]
    fn random_search_is_deterministic_in_seed() {
        let m = small_module();
        let cfg = eval();
        let a = random_search_function_order(&m, &cfg, 10, 3);
        let b = random_search_function_order(&m, &cfg, 10, 3);
        assert_eq!(a.layout, b.layout);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    #[should_panic(expected = "refused")]
    fn exhaustive_guards_against_blowup() {
        let m = small_module();
        exhaustive_function_orders(&m, &eval(), 3);
    }

    #[test]
    fn distribution_covers_all_permutations() {
        let m = small_module();
        let cfg = eval();
        let (best, dist) = exhaustive_function_orders(&m, &cfg, 6);
        assert_eq!(dist.len(), 120);
        // Its minimum is the best order's; the walk starts at the original.
        assert_eq!(dist.iter().copied().min().unwrap(), best.stats.misses);
        assert_eq!(dist[0], misses_of(&m, &Layout::original(&m), &cfg).misses);
    }

    #[test]
    fn exhaustive_walks_heap_order_and_keeps_the_first_minimum() {
        // The first eight orders of Heap's algorithm over five functions.
        let heap_prefix: [[u32; 5]; 8] = [
            [0, 1, 2, 3, 4],
            [1, 0, 2, 3, 4],
            [2, 0, 1, 3, 4],
            [0, 2, 1, 3, 4],
            [1, 2, 0, 3, 4],
            [2, 1, 0, 3, 4],
            [3, 1, 0, 2, 4],
            [1, 3, 0, 2, 4],
        ];
        let order = |o: &[u32; 5]| Layout::FunctionOrder(o.iter().map(|&f| FuncId(f)).collect());
        // A cache that holds the whole program: orders differ only by
        // line alignment, so many tie at the minimum.
        let m = small_module();
        let cfg = EvalConfig {
            cache: clop_cachesim::CacheConfig::new(1 << 20, 8, 64),
            ..eval()
        };
        let (best, dist) = exhaustive_function_orders(&m, &cfg, 6);
        for (i, o) in heap_prefix.iter().enumerate() {
            assert_eq!(dist[i], misses_of(&m, &order(o), &cfg).misses, "order {i}");
        }
        let min = best.stats.misses;
        let first = dist.iter().position(|&x| x == min).unwrap();
        assert!(first + 1 < heap_prefix.len() && dist[first + 1] == min);
        assert_eq!(best.layout, order(&heap_prefix[first]));
    }
}
