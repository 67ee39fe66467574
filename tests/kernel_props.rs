//! Property suite for the server-side kernel compiler.
//!
//! Random multi-statement DSL programs — random expression trees,
//! temporary rebinding, in-place input updates — are executed through
//! the full service stack (parse → plan → fused per-shard `RowOp`
//! schedule → backend) and compared word-for-word against the host-side
//! `u64` oracle [`Program::eval_words`]. The equivalence must hold on
//! the raw Baseline tier and under the Protected tier's ECC-wrapped
//! shards, at one to four shards and one to eight rows, so striping
//! arithmetic, scratch-row placement, write-back copies and vectors
//! narrower than the pool (shards owning no row) are all exercised.
//!
//! The same random expressions also drive `workloads::query::Predicate`,
//! which shares the DSL's expression grammar: parsed alone or as a
//! statement's right-hand side they give one AST, and a predicate run
//! on a FeRAM or DRAM backend matches the same oracle.

use felim::arch::{BulkBackend, DramBackend, DriftSpec, FeramBackend, MemoryGeometry, RowId};
use felim::exec::derive_seed;
use felim::serve::dsl::Expr;
use felim::serve::{
    BulkService, LogicalOp, Program, ServiceConfig, ServiceTier, TenantId,
};
use felim::workloads::query::Predicate;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Tiny deterministic generator over a splitmix64 stream: the vendored
/// proptest hands each case a `u64` seed; everything else derives from
/// it so failures replay exactly.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = derive_seed(self.state, 1);
        self.state
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, pool: &'a [String]) -> &'a str {
        &pool[self.below(pool.len() as u64) as usize]
    }
}

/// A random expression over the currently readable names. Depth-bounded;
/// leans on leaves so generated programs stay shallow enough to read in
/// a failure message.
fn gen_expr(g: &mut Gen, avail: &[String], depth: u32) -> String {
    if depth == 0 || g.below(3) == 0 {
        return g.pick(avail).to_owned();
    }
    match g.below(4) {
        0 => format!("({} & {})", gen_expr(g, avail, depth - 1), gen_expr(g, avail, depth - 1)),
        1 => format!("({} | {})", gen_expr(g, avail, depth - 1), gen_expr(g, avail, depth - 1)),
        2 => format!("({} ^ {})", gen_expr(g, avail, depth - 1), gen_expr(g, avail, depth - 1)),
        _ => format!("~{}", gen_expr(g, avail, depth - 1)),
    }
}

/// A random program: 2–5 statements assigning temporaries (with
/// rebinding — `t0` may be assigned twice), closed by a statement whose
/// target is a bound vector so the plan always has an output. Leaves
/// only ever reference names already readable, so the program's inputs
/// are exactly a subset of {a, b, c}.
fn gen_program(g: &mut Gen) -> String {
    let mut avail: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
    let n = 2 + g.below(4);
    let mut lines = Vec::new();
    for i in 0..n {
        let target = if i == n - 1 {
            ["a", "b", "c", "out"][g.below(4) as usize].to_string()
        } else {
            format!("t{}", g.below(3))
        };
        let expr = gen_expr(g, &avail, 3);
        lines.push(format!("{target} = {expr}"));
        if !avail.contains(&target) {
            avail.push(target);
        }
    }
    lines.join("\n")
}

/// Runs `program` through one service and checks every bound vector
/// against the host oracle's final environment.
fn check_tier(
    tier: ServiceTier,
    shards: u32,
    rows: u64,
    program: &str,
    inputs: &BTreeMap<String, u64>,
) {
    let parsed = Program::parse(program).expect("generated programs parse");
    let expected = parsed.eval_words(inputs);

    let mut cfg = ServiceConfig::small(shards);
    cfg.tier = tier;
    let mut svc = BulkService::new(cfg).expect("valid config");
    let mut bindings = Vec::new();
    for name in ["a", "b", "c", "out"] {
        let referenced = parsed.inputs().iter().any(|i| i == name)
            || parsed.targets().iter().any(|t| t == name);
        if !referenced {
            continue;
        }
        svc.create_vector(name, rows).expect("vector fits");
        bindings.push((name.to_owned(), name.to_owned()));
    }
    let t = TenantId(0);
    for (name, &value) in inputs {
        if bindings.iter().any(|(d, _)| d == name) {
            svc.submit(
                t,
                LogicalOp::Write {
                    dst: name.clone(),
                    words: vec![value],
                },
                None,
            )
            .expect("write admitted");
        }
    }
    svc.submit(
        t,
        LogicalOp::Kernel {
            program: program.to_owned(),
            bindings: bindings.clone(),
        },
        None,
    )
    .expect("kernel admitted");
    svc.drain();
    let responses = svc.take_responses();
    prop_assert!(
        responses.iter().all(|r| r.is_ok()),
        "all requests succeed: {responses:?}\nprogram:\n{program}"
    );

    for (name, _) in &bindings {
        let want = expected.get(name).copied().unwrap_or(0);
        let got = svc.read_vector(name).expect("vector readable");
        for (r, row) in got.iter().enumerate() {
            for (w, &word) in row.iter().enumerate() {
                prop_assert_eq!(
                    word,
                    want,
                    "vector {} row {} word {} under {} shards\nprogram:\n{}",
                    name,
                    r,
                    w,
                    shards,
                    program
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused schedule computes exactly what the host-side `u64`
    /// evaluation of the same program computes, on both tiers.
    fn random_kernels_match_host_eval(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let program = gen_program(&mut g);
        let shards = 1 + (g.below(4) as u32);
        let rows = 1 + g.below(8);
        let inputs: BTreeMap<String, u64> = [
            ("a".to_owned(), g.next()),
            ("b".to_owned(), g.next()),
            ("c".to_owned(), g.next()),
        ]
        .into_iter()
        .collect();
        check_tier(ServiceTier::Baseline, shards, rows, &program, &inputs);
        check_tier(
            ServiceTier::Protected {
                drift: DriftSpec::quiet(derive_seed(seed, 7)),
                scrub_period_s: 0.5,
            },
            shards,
            rows,
            &program,
            &inputs,
        );
    }

    /// One grammar, both entry points: `Expr::parse(e)` is the
    /// right-hand side of `d = e`, and `Predicate::parse(e)` executed in
    /// memory matches `Program::eval_words` word for word on both
    /// technologies.
    fn predicates_share_the_kernel_grammar(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let names: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let expr = gen_expr(&mut g, &names, 3);
        let program = Program::parse(&format!("d = {expr}")).expect("generated programs parse");
        prop_assert_eq!(
            &Expr::parse(&expr).expect("generated expressions parse"),
            &program.statements[0].expr
        );

        let predicate = Predicate::parse(&expr).expect("generated predicates parse");
        for (tech, backend) in [
            ("FeRAM", &mut FeramBackend::new(MemoryGeometry::tiny()) as &mut dyn BulkBackend),
            ("DRAM", &mut DramBackend::new(MemoryGeometry::tiny()) as &mut dyn BulkBackend),
        ] {
            let words = backend.geometry().row_words();
            let mut columns = BTreeMap::new();
            let mut data = Vec::new();
            for (i, name) in names.iter().enumerate() {
                let row: Vec<u64> = (0..words).map(|_| g.next()).collect();
                backend.install_row(RowId(i as u64), &row).expect("row installs");
                columns.insert(name.clone(), RowId(i as u64));
                data.push(row);
            }
            let dst = RowId(10);
            predicate.execute(backend, &columns, RowId(20), dst).expect("fault-free backend");
            let got = backend.read_row(dst).expect("row readable");
            for (w, &word) in got.iter().enumerate() {
                let env = names.iter().cloned().zip(data.iter().map(|row| row[w])).collect();
                prop_assert_eq!(
                    word,
                    program.eval_words(&env)["d"],
                    "word {} of `{}` on {}",
                    w,
                    expr,
                    tech
                );
            }
        }
    }
}
