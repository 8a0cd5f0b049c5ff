//! Property-based tests over the core data structures and invariants.

use harmony::ns::{HPath, Namespace};
use harmony::resources::{Cluster, Matcher, Strategy as FitStrategy};
use harmony::rsl::expr::{eval, parse_expr, EmptyEnv, MapEnv};
use harmony::rsl::list::{canonicalize, parse_tree};
use harmony::rsl::schema::{parse_bundle_script, NodeDecl};
use harmony::rsl::Value;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// RSL list lexer: canonicalization round-trips; the lexer never panics.
// ---------------------------------------------------------------------

fn word_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_.:*><=+-]{1,12}"
}

fn tree_strategy() -> impl Strategy<Value = String> {
    let leaf = word_strategy();
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(|items| format!("{{{}}}", items.join(" ")))
    })
}

proptest! {
    #[test]
    fn list_lexer_never_panics(s in "\\PC{0,200}") {
        let _ = parse_tree(&s);
    }

    #[test]
    fn list_canonicalization_round_trips(items in prop::collection::vec(tree_strategy(), 0..6)) {
        let src = items.join(" ");
        let parsed = parse_tree(&src).expect("generated trees are valid");
        let canon = canonicalize(&parsed);
        let reparsed = parse_tree(&canon).expect("canonical text parses");
        prop_assert_eq!(parsed, reparsed);
    }
}

// ---------------------------------------------------------------------
// Expressions: parser/display round-trip; evaluation never panics and is
// deterministic.
// ---------------------------------------------------------------------

fn expr_strategy() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        (0i64..1000).prop_map(|i| i.to_string()),
        (0u32..100).prop_map(|x| format!("{}.5", x)),
        "[a-z]{1,6}".prop_map(|s| s),
    ];
    atom.prop_recursive(4, 64, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} * {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} - {b})")),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| format!("({c} > 0 ? {t} : {e})")),
            (inner.clone(), inner).prop_map(|(a, b)| format!("min({a}, {b})")),
        ]
    })
}

proptest! {
    #[test]
    fn expr_parser_never_panics(s in "\\PC{0,120}") {
        let _ = parse_expr(&s);
    }

    #[test]
    fn expr_display_round_trips(src in expr_strategy()) {
        let e = parse_expr(&src).expect("generated expressions parse");
        let reparsed = parse_expr(&e.to_string()).expect("display parses");
        prop_assert_eq!(&e, &reparsed);
        // Evaluation (with every free name bound to 1) is deterministic.
        let mut env = MapEnv::new();
        for name in e.free_names() {
            env.set(name, Value::Int(1));
        }
        let a = eval(&e, &env);
        let b = eval(&e, &env);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn constant_expressions_evaluate_without_env(
        a in 1i64..1000, b in 1i64..1000, c in 1i64..1000
    ) {
        // Associativity of + over integers in the evaluator.
        let left = eval(&parse_expr(&format!("({a} + {b}) + {c}")).unwrap(), &EmptyEnv).unwrap();
        let right = eval(&parse_expr(&format!("{a} + ({b} + {c})")).unwrap(), &EmptyEnv).unwrap();
        prop_assert_eq!(left, right);
    }
}

// ---------------------------------------------------------------------
// Namespace: set/get coherence and prefix algebra.
// ---------------------------------------------------------------------

fn path_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-z0-9]{1,5}", 1..5).prop_map(|c| c.join("."))
}

proptest! {
    #[test]
    fn namespace_last_write_wins(
        writes in prop::collection::vec((path_strategy(), 0i64..100), 1..30)
    ) {
        let mut ns: Namespace<i64> = Namespace::new();
        for (p, v) in &writes {
            ns.set(p.parse().unwrap(), *v);
        }
        // For each distinct path, the last write is visible.
        for (p, _) in &writes {
            let last = writes.iter().rev().find(|(q, _)| q == p).unwrap().1;
            let path: HPath = p.parse().unwrap();
            prop_assert_eq!(ns.get(&path), Some(&last));
        }
    }

    #[test]
    fn path_parent_child_inverse(p in path_strategy(), c in "[a-z]{1,5}") {
        let path: HPath = p.parse().unwrap();
        let child = path.child(&c).unwrap();
        prop_assert_eq!(child.parent().unwrap(), path.clone());
        prop_assert!(child.starts_with(&path));
        prop_assert_eq!(child.strip_prefix(&path).unwrap().to_string(), c);
    }
}

// ---------------------------------------------------------------------
// Matcher/allocator: committed matches never overcommit memory or violate
// distinctness, under arbitrary load sequences and any strategy.
// ---------------------------------------------------------------------

fn cluster_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.5f64..4.0, 32.0f64..512.0), 2..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn allocator_never_overcommits(
        nodes in cluster_strategy(),
        reqs in prop::collection::vec((1u32..4, 8.0f64..128.0), 1..12),
        strategy in prop_oneof![
            Just(FitStrategy::FirstFit),
            Just(FitStrategy::BestFit),
            Just(FitStrategy::WorstFit)
        ],
    ) {
        let mut cluster = Cluster::new();
        for (i, (speed, mem)) in nodes.iter().enumerate() {
            cluster.add_node(NodeDecl::new(format!("n{i}"), *speed, *mem)).unwrap();
        }
        let matcher = Matcher::new(strategy);
        let mut committed = Vec::new();
        for (replicas, mem) in reqs {
            let script = format!(
                "harmonyBundle a b {{ {{o {{node w {{replicate {replicas}}} {{seconds 10}} {{memory {mem}}}}}}} }}"
            );
            let bundle = parse_bundle_script(&script).unwrap();
            if let Ok(alloc) =
                matcher.match_option(&cluster, &bundle.options[0], &MapEnv::new())
            {
                // Replicas land on distinct nodes.
                prop_assert_eq!(alloc.distinct_nodes(), alloc.nodes.len());
                cluster.commit(&alloc).unwrap();
                committed.push(alloc);
            }
            // Invariant: no node's free memory ever goes negative.
            for n in cluster.nodes() {
                prop_assert!(n.free_memory >= -1e-9, "overcommitted {:?}", n);
            }
        }
        // Releasing everything restores the initial capacity.
        for alloc in &committed {
            cluster.release(alloc).unwrap();
        }
        for (i, (_, mem)) in nodes.iter().enumerate() {
            let n = cluster.node(&format!("n{i}")).unwrap();
            prop_assert!((n.free_memory - mem).abs() < 1e-9);
            prop_assert_eq!(n.tasks, 0);
        }
    }
}

// ---------------------------------------------------------------------
// DB: the hash join always agrees with the nested-loop oracle.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn hash_join_agrees_with_oracle(
        seed in 0u64..1000,
        lo1 in 0i64..900,
        lo2 in 0i64..900,
        span in 1i64..100,
    ) {
        use harmony::db::{BufferPool, JoinQuery, QueryEngine};
        let engine = QueryEngine::wisconsin(1000, seed);
        let q = JoinQuery { r1_range: lo1..lo1 + span, r2_range: lo2..lo2 + span };
        let mut pool = BufferPool::new(10_000);
        let (mut hash, stats) = engine.execute_hash(&q, &mut pool);
        let mut oracle = engine.execute_nested_loop(&q);
        hash.sort_unstable();
        oracle.sort_unstable();
        prop_assert_eq!(&hash, &oracle);
        prop_assert_eq!(stats.results as usize, oracle.len());
    }
}

// ---------------------------------------------------------------------
// PS server: work conservation and monotone completion under arbitrary
// add/remove sequences.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn ps_server_conserves_work(
        capacity in 0.5f64..8.0,
        jobs in prop::collection::vec((0.0f64..50.0, 0.1f64..20.0), 1..20),
    ) {
        use harmony::sim::PsServer;
        let mut s = PsServer::new(capacity);
        let mut sorted = jobs.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (i, (at, work)) in sorted.iter().enumerate() {
            s.add(*at, i as u64, *work);
        }
        // Drain to completion; times never decrease, everything finishes.
        let mut now = sorted.last().unwrap().0;
        let mut completed = 0usize;
        while let Some((t, id)) = s.next_completion(now) {
            prop_assert!(t >= now - 1e-9, "time went backwards: {t} < {now}");
            now = t;
            s.remove(now, id);
            completed += 1;
            prop_assert!(completed <= sorted.len());
        }
        prop_assert_eq!(completed, sorted.len());
        // The busy span is at least total work / capacity.
        let total: f64 = sorted.iter().map(|(_, w)| w).sum();
        let first = sorted.first().unwrap().0;
        prop_assert!(now - first >= total / capacity - 1e-6);
    }
}

// ---------------------------------------------------------------------
// Objective: scale-monotonicity — making every job slower never improves
// the score.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn objectives_are_monotone_in_uniform_slowdown(
        rts in prop::collection::vec(0.1f64..1e4, 1..10),
        factor in 1.01f64..10.0,
    ) {
        use harmony::core::mean_completion;
        let slower: Vec<f64> = rts.iter().map(|r| r * factor).collect();
        prop_assert!(
            mean_completion(&slower) >= mean_completion(&rts) - 1e-9,
            "the mean completion time improved under slowdown"
        );
    }

    #[test]
    fn histogram_quantile_bounds_are_monotone(
        values in prop::collection::vec(0.0f64..1e4, 1..100),
    ) {
        use harmony::metrics::Histogram;
        let mut h = Histogram::for_response_times();
        for v in &values {
            h.record(*v);
        }
        let mut prev = 0.0f64;
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            let b = h.quantile_bound(q).unwrap();
            prop_assert!(b >= prev, "quantile bound decreased at q={q}");
            prev = b;
        }
        // The max is an upper bound for every quantile.
        prop_assert!(prev <= h.max().unwrap().max(*h.quantile_bound(1.0).as_ref().unwrap()));
    }
}
