//! The kernel compiler: DSL programs → fused per-shard row-op schedules.
//!
//! [`KernelPlan::compile`] lowers a parsed [`Program`] into a DAG of
//! bulk-bitwise ops and schedules it once, at admission time; dispatch
//! then merely stamps the plan out per shard with
//! [`KernelPlan::emit_for_shard`]. The compiler performs the fusion work
//! that makes a kernel cheaper than submitting its statements as
//! individual [`LogicalOp`](crate::LogicalOp)s:
//!
//! * **Common-subexpression elimination** — nodes are hash-consed, so
//!   `(a & b)` computed twice is one node (commutative operands are
//!   canonicalised first, so `a & b` and `b & a` unify).
//! * **NOT fusion** — `~(a & b)` becomes one `Nand` row-op (likewise
//!   `Nor`, and `~~x` cancels), exploiting the array's native
//!   inverting gates instead of spending a scratch row on an
//!   intermediate.
//! * **XOR lowering** — `a ^ b` compiles to the four-gate NAND network
//!   `nand(nand(a,nab), nand(b,nab))` over the *plan's* scratch slots
//!   instead of the backend's default composition. The backend routes
//!   every XOR's intermediates through the same handful of reserved
//!   rows — one subarray, a global serialisation point under the
//!   makespan pricing — whereas plan scratch stripes across subarrays,
//!   and the NAND sub-terms join the hash-cons table (`~(a ^ b)`
//!   complements the final gate into an `And` for free).
//! * **Operand reuse** — temporaries live in reserved scratch rows
//!   allocated by linear scan over the schedule: a slot frees at its
//!   value's last use and is immediately reusable, even by the very op
//!   consuming it (the engine latches operand rows before committing
//!   the result, so in-place destinations are safe). Rebinding a name
//!   (`x = x & y`) therefore costs no extra rows, and renames (`d = t`)
//!   cost no ops at all unless `d` is a bound output.
//! * **Direct output writes** — an output's final op targets the bound
//!   catalog vector directly when no later op still reads that vector's
//!   old value, eliminating the end-of-kernel copy.
//! * **Level interleaving** — ops are ordered by DAG level, so
//!   independent subexpressions sit adjacent in the batch and spread
//!   across subarrays under the makespan that prices each tick.
//!
//! Dead statements (temporaries never reaching a bound output) are
//! dropped entirely. The plan is shape-agnostic: row counts bind at
//! admission, and emission stripes scratch slots with the same
//! row-`i`-on-shard-`i mod S` phase as catalog vectors, so every op
//! stays shard-local.

use crate::dsl::{Expr, Program};
use felim_arch::batch::RowOp;
use felim_arch::geometry::RowId;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// A binary/unary bulk-logic op kind the array executes natively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
enum OpKind {
    Not,
    And,
    Or,
    Nand,
    Nor,
}

impl OpKind {
    /// The kind computing the complement of this kind's result, if the
    /// array has a native gate for it.
    fn complement(self) -> Option<OpKind> {
        match self {
            OpKind::And => Some(OpKind::Nand),
            OpKind::Nand => Some(OpKind::And),
            OpKind::Or => Some(OpKind::Nor),
            OpKind::Nor => Some(OpKind::Or),
            OpKind::Not => None,
        }
    }
}

/// A DAG node: a bound input vector or a fused op over earlier nodes.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Reads the catalog vector at this index of the plan's vector table.
    Input(usize),
    /// An op over one or two earlier nodes.
    Op {
        kind: OpKind,
        a: usize,
        b: Option<usize>,
    },
}

/// Where a value lives during execution.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Loc {
    /// Rows of the catalog vector at this index of the vector table.
    Vector(usize),
    /// Scratch slot `s`: local rows `scratch_base + k·slots + s`
    /// (slot-interleaved, so one step's scratch rows land in different
    /// subarrays and price in parallel under the makespan replay).
    Scratch(u32),
}

/// One vector-level step of the fused schedule.
#[derive(Debug, Clone, PartialEq)]
struct Step {
    kind: OpKind,
    a: Loc,
    b: Option<Loc>,
    dst: Loc,
    /// End-of-kernel write-back copy (`kind` is ignored when set).
    copy: bool,
}

/// Why a parsed program could not be planned against its bindings.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum KernelPlanError {
    /// The program reads a name that is neither bound nor assigned
    /// earlier.
    UnknownName {
        /// The unresolved name.
        name: String,
    },
    /// A DSL name or catalog vector appears twice in the bindings
    /// (aliasing two names onto one vector would make write-back order
    /// ambiguous).
    DuplicateBinding {
        /// The repeated DSL name or vector name.
        name: String,
    },
    /// No bound name is assigned by the program — the kernel would have
    /// no observable effect.
    NoOutputs,
}

impl fmt::Display for KernelPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelPlanError::UnknownName { name } => {
                write!(f, "kernel reads unbound name `{name}`")
            }
            KernelPlanError::DuplicateBinding { name } => {
                write!(f, "kernel binds `{name}` more than once")
            }
            KernelPlanError::NoOutputs => {
                write!(f, "kernel assigns no bound name — it has no outputs")
            }
        }
    }
}

impl std::error::Error for KernelPlanError {}

/// A compiled, shape-agnostic kernel: the fused schedule plus the
/// fusion counters the response reports.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPlan {
    /// Catalog vector names the plan touches (inputs and outputs), in
    /// first-use order; `Loc::Vector` indexes into this table.
    vectors: Vec<String>,
    steps: Vec<Step>,
    /// Indices into `vectors` of the vectors the kernel writes.
    output_vectors: Vec<usize>,
    /// DAG nodes eliminated by hash-consing.
    pub cse_hits: u64,
    /// Distinct scratch slots the schedule needs (peak liveness).
    pub scratch_slots: u32,
    /// Depth of the scheduled DAG (independent level count).
    pub levels: u32,
}

impl KernelPlan {
    /// Compiles `program` against `(dsl_name, vector_name)` bindings.
    ///
    /// # Errors
    ///
    /// [`KernelPlanError`] — unresolved names, duplicate bindings, or a
    /// program that writes no bound name.
    pub fn compile(
        program: &Program,
        bindings: &[(String, String)],
    ) -> Result<KernelPlan, KernelPlanError> {
        // Bindings must be injective in both directions.
        let mut bound: HashMap<&str, &str> = HashMap::new();
        let mut seen_vectors: Vec<&str> = Vec::new();
        for (dsl, vector) in bindings {
            if bound.insert(dsl.as_str(), vector.as_str()).is_some() {
                return Err(KernelPlanError::DuplicateBinding { name: dsl.clone() });
            }
            if seen_vectors.contains(&vector.as_str()) {
                return Err(KernelPlanError::DuplicateBinding {
                    name: vector.clone(),
                });
            }
            seen_vectors.push(vector.as_str());
        }

        let mut b = Builder {
            nodes: Vec::new(),
            cons: HashMap::new(),
            input_of: HashMap::new(),
            vectors: Vec::new(),
            vector_idx: HashMap::new(),
            env: HashMap::new(),
            cse_hits: 0,
        };

        // Lower every statement; `env` tracks each name's current node.
        for stmt in &program.statements {
            let id = b.lower(&stmt.expr, &bound)?;
            b.env.insert(stmt.target.clone(), id);
        }

        // Outputs: bound names the program assigned, in first-assignment
        // order (the write-back order).
        let mut outputs: Vec<(usize, usize)> = Vec::new(); // (vector idx, node)
        for target in program.targets() {
            if let Some(&vector) = bound.get(target.as_str()) {
                let node = b.env[&target];
                outputs.push((b.vector_id(vector), node));
            }
        }
        if outputs.is_empty() {
            return Err(KernelPlanError::NoOutputs);
        }

        Ok(Self::schedule(b, outputs))
    }

    /// Levelises, allocates scratch, and emits the step list.
    fn schedule(b: Builder, outputs: Vec<(usize, usize)>) -> KernelPlan {
        let nodes = &b.nodes;
        // Liveness from the outputs: unneeded nodes are dead code.
        let mut needed = vec![false; nodes.len()];
        let mut stack: Vec<usize> = outputs.iter().map(|&(_, n)| n).collect();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut needed[n], true) {
                continue;
            }
            if let Node::Op { a, b, .. } = &nodes[n] {
                stack.push(*a);
                if let Some(b) = b {
                    stack.push(*b);
                }
            }
        }

        // DAG levels (inputs at 0); node ids are already topological.
        let mut level = vec![0u32; nodes.len()];
        for (n, node) in nodes.iter().enumerate() {
            if let Node::Op { a, b, .. } = node {
                level[n] = 1 + level[*a].max(b.map_or(0, |b| level[b]));
            }
        }

        // Schedule: needed ops ordered by (level, id) so independent
        // same-level subexpressions sit adjacent in the emitted batch.
        let mut order: Vec<usize> = (0..nodes.len())
            .filter(|&n| needed[n] && matches!(nodes[n], Node::Op { .. }))
            .collect();
        order.sort_by_key(|&n| (level[n], n));
        let mut pos = vec![usize::MAX; nodes.len()];
        for (p, &n) in order.iter().enumerate() {
            pos[n] = p;
        }

        // Last use of every node: the latest schedule position reading
        // it; output nodes are also read by the end-of-kernel write-back
        // (one past the schedule).
        let end = order.len();
        let mut last_use = vec![0usize; nodes.len()];
        for &n in &order {
            if let Node::Op { a, b, .. } = &nodes[n] {
                last_use[*a] = last_use[*a].max(pos[n]);
                if let Some(b) = b {
                    last_use[*b] = last_use[*b].max(pos[n]);
                }
            }
        }
        for &(_, n) in &outputs {
            last_use[n] = end;
        }

        // Direct output writes: output (v, n) writes vector v straight
        // from op n when nothing scheduled after n still reads v's old
        // contents (the op itself may — operands latch before commit).
        let mut direct: HashMap<usize, usize> = HashMap::new(); // node → vector
        let mut claimed: Vec<usize> = Vec::new();
        for &(v, n) in &outputs {
            if !matches!(nodes[n], Node::Op { .. }) || direct.contains_key(&n) {
                continue;
            }
            let old_live = b
                .input_of
                .get(&v)
                .map(|&inp| needed[inp] && last_use[inp] > pos[n])
                .unwrap_or(false);
            if !old_live && !claimed.contains(&v) {
                direct.insert(n, v);
                claimed.push(v);
            }
        }

        // Linear-scan scratch allocation over the schedule. Freeing an
        // operand's slot *before* placing the result lets the result
        // overwrite a dying operand in place.
        let mut loc = vec![None::<Loc>; nodes.len()];
        for (n, node) in nodes.iter().enumerate() {
            if let Node::Input(v) = node {
                loc[n] = Some(Loc::Vector(*v));
            }
        }
        let mut free: Vec<u32> = Vec::new();
        let mut next_slot: u32 = 0;
        let mut steps: Vec<Step> = Vec::with_capacity(order.len() + outputs.len());
        for (p, &n) in order.iter().enumerate() {
            let Node::Op { kind, a, b: b2 } = &nodes[n] else {
                unreachable!("schedule holds ops only")
            };
            // An op may read one node twice (`nand(x, x)` from the XOR
            // network); its slot must free exactly once or the free
            // list grows a stale duplicate that later clobbers a live
            // value.
            let b_arg = if *b2 == Some(*a) { None } else { *b2 };
            for arg in [Some(*a), b_arg].into_iter().flatten() {
                if last_use[arg] == p {
                    if let Some(Loc::Scratch(s)) = loc[arg] {
                        // Keep the free list sorted so reuse is
                        // deterministic and low slots stay hot.
                        let at = free.partition_point(|&f| f < s);
                        free.insert(at, s);
                    }
                }
            }
            let dst = if let Some(&v) = direct.get(&n) {
                Loc::Vector(v)
            } else if free.is_empty() {
                let s = next_slot;
                next_slot += 1;
                Loc::Scratch(s)
            } else {
                Loc::Scratch(free.remove(0))
            };
            loc[n] = Some(dst);
            steps.push(Step {
                kind: *kind,
                a: loc[*a].expect("operand scheduled before use"),
                b: b2.map(|b| loc[b].expect("operand scheduled before use")),
                dst,
                copy: false,
            });
        }

        // Write-back hazards: a copy whose source is an *input vector*
        // that this kernel also overwrites (`t = a; a = x; d = t`, or a
        // swap `t = a; a = b; b = t`) must not read it after the
        // overwrite lands. Stage every such source into a scratch slot
        // while its old value is intact — all staging copies precede all
        // write-backs, so write-back order then never matters.
        let out_vectors: Vec<usize> = outputs.iter().map(|&(v, _)| v).collect();
        let mut staged: HashMap<usize, Loc> = HashMap::new();
        for &(v, n) in &outputs {
            if !matches!(nodes[n], Node::Input(_)) || staged.contains_key(&n) {
                continue;
            }
            let Some(Loc::Vector(u)) = loc[n] else { continue };
            if u != v && out_vectors.contains(&u) {
                let s = if free.is_empty() {
                    let s = next_slot;
                    next_slot += 1;
                    s
                } else {
                    free.remove(0)
                };
                steps.push(Step {
                    kind: OpKind::Not, // ignored for copies
                    a: Loc::Vector(u),
                    b: None,
                    dst: Loc::Scratch(s),
                    copy: true,
                });
                staged.insert(n, Loc::Scratch(s));
            }
        }

        // Write-back copies for outputs not already written in place.
        for &(v, n) in &outputs {
            let src = staged
                .get(&n)
                .copied()
                .unwrap_or_else(|| loc[n].expect("output node has a location"));
            if src != Loc::Vector(v) {
                steps.push(Step {
                    kind: OpKind::Not, // ignored for copies
                    a: src,
                    b: None,
                    dst: Loc::Vector(v),
                    copy: true,
                });
            }
        }

        let levels = order.iter().map(|&n| level[n]).max().unwrap_or(0);
        KernelPlan {
            vectors: b.vectors,
            steps,
            output_vectors: outputs.iter().map(|&(v, _)| v).collect(),
            cse_hits: b.cse_hits,
            scratch_slots: next_slot,
            levels,
        }
    }

    /// Vector-level ops in the fused schedule (logic steps plus
    /// write-back copies). Each becomes `rows` row-ops across the pool.
    pub fn vector_ops(&self) -> u64 {
        self.steps.len() as u64
    }

    /// Catalog vector names the plan reads or writes, in table order.
    pub fn vector_names(&self) -> impl Iterator<Item = &str> {
        self.vectors.iter().map(String::as_str)
    }

    /// Names of the catalog vectors the kernel writes.
    pub fn output_names(&self) -> impl Iterator<Item = &str> {
        self.output_indices().map(|v| self.vectors[v].as_str())
    }

    /// Table indices (see [`vector_names`](Self::vector_names)) of the
    /// catalog vectors the kernel writes.
    pub fn output_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.output_vectors.iter().copied()
    }

    /// Scratch rows the plan needs per shard for `rows`-row vectors
    /// striped over `shards` shards (slots × the widest stripe).
    pub fn scratch_rows_needed(&self, rows: u64, shards: u32) -> u64 {
        u64::from(self.scratch_slots) * rows.div_ceil(u64::from(shards.max(1)))
    }

    /// Appends shard `s`'s slice of the fused schedule to `out`.
    ///
    /// `vector_bases[i]` is shard `s`'s first local row of the plan's
    /// `i`-th vector (same order as [`vector_names`](Self::vector_names));
    /// `rows` is the common vector length and `scratch_base` the first
    /// reserved scratch row. Scratch slots stripe exactly like vectors,
    /// so every op's operands and destination are co-resident on `s`.
    pub fn emit_for_shard(
        &self,
        s: u32,
        shards: u32,
        rows: u64,
        vector_bases: &[u64],
        scratch_base: u64,
        out: &mut Vec<RowOp>,
    ) {
        let stride = u64::from(shards.max(1));
        let n = if u64::from(s) >= rows {
            0
        } else {
            (rows - u64::from(s)).div_ceil(stride)
        };
        // Scratch rows interleave by slot (row `k·slots + s`), not by
        // block (`s·stripe + k`): consecutive k of one slot then span
        // subarrays instead of piling into one, which matters because
        // the makespan pricing serialises per subarray. The region is
        // the same `slots × stripe` rows either way.
        let slots = u64::from(self.scratch_slots.max(1));
        let resolve = |loc: Loc, k: u64| match loc {
            Loc::Vector(v) => RowId(vector_bases[v] + k),
            Loc::Scratch(slot) => RowId(scratch_base + k * slots + u64::from(slot)),
        };
        for step in &self.steps {
            for k in 0..n {
                let a = resolve(step.a, k);
                let dst = resolve(step.dst, k);
                out.push(if step.copy {
                    RowOp::Copy { src: a, dst }
                } else {
                    match (step.kind, step.b.map(|b| resolve(b, k))) {
                        (OpKind::Not, None) => RowOp::Not { src: a, dst },
                        (OpKind::And, Some(b)) => RowOp::And { a, b, dst },
                        (OpKind::Or, Some(b)) => RowOp::Or { a, b, dst },
                        (OpKind::Nand, Some(b)) => RowOp::Nand { a, b, dst },
                        (OpKind::Nor, Some(b)) => RowOp::Nor { a, b, dst },
                        (kind, b) => unreachable!("malformed step {kind:?}/{b:?}"),
                    }
                });
            }
        }
    }
}

/// DAG construction state during lowering.
struct Builder {
    nodes: Vec<Node>,
    /// Hash-cons table over op nodes.
    cons: HashMap<(OpKind, usize, usize), usize>,
    /// Vector-table index → its input node, if one exists.
    input_of: HashMap<usize, usize>,
    vectors: Vec<String>,
    vector_idx: HashMap<String, usize>,
    env: HashMap<String, usize>,
    cse_hits: u64,
}

impl Builder {
    fn vector_id(&mut self, name: &str) -> usize {
        if let Some(&v) = self.vector_idx.get(name) {
            return v;
        }
        let v = self.vectors.len();
        self.vectors.push(name.to_owned());
        self.vector_idx.insert(name.to_owned(), v);
        v
    }

    fn input(&mut self, vector: usize) -> usize {
        if let Some(&n) = self.input_of.get(&vector) {
            return n;
        }
        let n = self.nodes.len();
        self.nodes.push(Node::Input(vector));
        self.input_of.insert(vector, n);
        n
    }

    fn mk(&mut self, kind: OpKind, a: usize, b: Option<usize>) -> usize {
        let key = (kind, a, b.unwrap_or(usize::MAX));
        if let Some(&n) = self.cons.get(&key) {
            self.cse_hits += 1;
            return n;
        }
        let n = self.nodes.len();
        self.nodes.push(Node::Op { kind, a, b });
        self.cons.insert(key, n);
        n
    }

    /// `mk` for commutative gates: operands are canonicalised so `a∘b`
    /// unifies with `b∘a` in the cons table.
    fn mk_sym(&mut self, kind: OpKind, mut a: usize, mut b: usize) -> usize {
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        self.mk(kind, a, Some(b))
    }

    /// Lowers `a ^ b` to the four-gate NAND network
    /// `nand(nand(a, nab), nand(b, nab))` where `nab = nand(a, b)`.
    /// Every gate is native (6-cycle) and hash-consed — repeated XORs of
    /// the same operands dedup gate-by-gate, and a `~` over the result
    /// complements the final NAND into an AND via [`OpKind::complement`].
    fn mk_xor(&mut self, a: usize, b: usize) -> usize {
        let nab = self.mk_sym(OpKind::Nand, a, b);
        let x = self.mk_sym(OpKind::Nand, a, nab);
        let y = self.mk_sym(OpKind::Nand, b, nab);
        self.mk_sym(OpKind::Nand, x, y)
    }

    fn lower(
        &mut self,
        expr: &Expr,
        bound: &HashMap<&str, &str>,
    ) -> Result<usize, KernelPlanError> {
        match expr {
            Expr::Name(name) => {
                if let Some(&n) = self.env.get(name) {
                    return Ok(n);
                }
                match bound.get(name.as_str()) {
                    Some(&vector) => {
                        let v = self.vector_id(vector);
                        Ok(self.input(v))
                    }
                    None => Err(KernelPlanError::UnknownName { name: name.clone() }),
                }
            }
            Expr::Not(x) => {
                let inner = self.lower(x, bound)?;
                Ok(match self.nodes[inner].clone() {
                    // ~~x cancels; ~(a∘b) fuses into the inverting gate.
                    Node::Op {
                        kind: OpKind::Not,
                        a,
                        ..
                    } => a,
                    Node::Op { kind, a, b } if kind.complement().is_some() => {
                        self.mk(kind.complement().expect("checked"), a, b)
                    }
                    _ => self.mk(OpKind::Not, inner, None),
                })
            }
            Expr::And(x, y) | Expr::Or(x, y) | Expr::Xor(x, y) => {
                let a = self.lower(x, bound)?;
                let b = self.lower(y, bound)?;
                Ok(match expr {
                    Expr::And(..) => self.mk_sym(OpKind::And, a, b),
                    Expr::Or(..) => self.mk_sym(OpKind::Or, a, b),
                    _ => self.mk_xor(a, b),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felim_arch::batch::execute_batch;
    use felim_arch::geometry::MemoryGeometry;
    use felim_arch::{BulkBackend, FeramBackend};

    fn bind(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|&(d, v)| (d.to_owned(), v.to_owned()))
            .collect()
    }

    fn plan(src: &str, pairs: &[(&str, &str)]) -> KernelPlan {
        KernelPlan::compile(&Program::parse(src).unwrap(), &bind(pairs)).unwrap()
    }

    #[test]
    fn cse_unifies_repeated_and_commuted_subexpressions() {
        let p = plan(
            "d = (a & b) ^ (b & a)\ne = a & b",
            &[("a", "va"), ("b", "vb"), ("d", "vd"), ("e", "ve")],
        );
        // (a&b) built once; (b&a), the second (a&b), and one NAND of the
        // XOR network (its two middle gates coincide when both operands
        // are the same node) are all hits.
        assert_eq!(p.cse_hits, 3);
        // One AND + three distinct XOR-network NANDs, all direct-written.
        assert!(p.vector_ops() <= 4, "steps: {}", p.vector_ops());
    }

    #[test]
    fn not_fuses_into_inverting_gates() {
        let p = plan(
            "d = ~(a & b)\ne = ~(a ^ b)\nf = ~~a",
            &[("a", "va"), ("b", "vb"), ("d", "vd"), ("e", "ve"), ("f", "vf")],
        );
        // d is one direct-written NAND (shared with e's XOR network via
        // CSE); ~(a ^ b) complements the network's final NAND into an
        // AND (3 more gates); f = a is one copy (the double negation
        // cancelled to the input itself).
        assert_eq!(p.vector_ops(), 5);
        assert_eq!(p.cse_hits, 1, "d's NAND is the network's first gate");
        assert_eq!(p.scratch_slots, 2, "two middle gates of the network");
    }

    #[test]
    fn scratch_slots_reuse_dead_temporaries() {
        // A long dependent chain: every temporary dies at its single
        // use, so two slots suffice no matter the chain length (and the
        // final op direct-writes the output).
        let p = plan(
            "t1 = a ^ b\nt2 = t1 & a\nt3 = t2 | b\nt4 = t3 ^ a\nd = t4 & b",
            &[("a", "va"), ("b", "vb"), ("d", "vd")],
        );
        assert!(
            p.scratch_slots <= 2,
            "chain reuses dying slots, got {}",
            p.scratch_slots
        );
        // Two XORs lower to four NANDs each; AND, OR, and the final
        // direct-written AND are one op apiece.
        assert_eq!(p.vector_ops(), 11, "no write-back copy when direct");
    }

    #[test]
    fn dead_statements_are_eliminated() {
        let p = plan(
            "unused = a | b\nd = a & b",
            &[("a", "va"), ("b", "vb"), ("d", "vd")],
        );
        assert_eq!(p.vector_ops(), 1, "dead OR must not be scheduled");
    }

    #[test]
    fn in_place_update_of_an_input_is_scheduled_safely() {
        // `s = s ^ fb` writes the vector it reads: legal, four gates
        // with the final NAND landing on `vs` in place.
        let p = plan("s = s ^ fb", &[("s", "vs"), ("fb", "vfb")]);
        assert_eq!(p.vector_ops(), 4);
        assert_eq!(p.scratch_slots, 2);
        assert_eq!(p.output_names().collect::<Vec<_>>(), vec!["vs"]);
    }

    #[test]
    fn direct_write_blocked_while_old_value_live() {
        // `t` reads d's *old* value and is scheduled after d's new node
        // (`a & b`, level 1), so d cannot be written in place — it takes
        // a scratch slot and a write-back copy.
        let p = plan(
            "t = (a & b) ^ d\nd = a & b\ne = t ^ d",
            &[("a", "va"), ("b", "vb"), ("d", "vd"), ("e", "ve")],
        );
        // and + 4 gates per XOR (e's direct to ve) + one copy slot→vd.
        assert_eq!(p.vector_ops(), 10);
        assert_eq!(p.cse_hits, 1, "d's RHS unifies with t's subterm");
        assert!(p.scratch_slots >= 1);
    }

    #[test]
    fn plan_errors_are_typed() {
        let prog = Program::parse("d = a & ghost").unwrap();
        assert_eq!(
            KernelPlan::compile(&prog, &bind(&[("a", "va"), ("d", "vd")])).unwrap_err(),
            KernelPlanError::UnknownName {
                name: "ghost".into()
            }
        );
        let prog = Program::parse("t = a & a").unwrap();
        assert_eq!(
            KernelPlan::compile(&prog, &bind(&[("a", "va")])).unwrap_err(),
            KernelPlanError::NoOutputs
        );
        let prog = Program::parse("d = a").unwrap();
        assert_eq!(
            KernelPlan::compile(&prog, &bind(&[("a", "va"), ("a", "vb"), ("d", "vd")]))
                .unwrap_err(),
            KernelPlanError::DuplicateBinding { name: "a".into() }
        );
        assert_eq!(
            KernelPlan::compile(&prog, &bind(&[("a", "v"), ("d", "v")])).unwrap_err(),
            KernelPlanError::DuplicateBinding { name: "v".into() }
        );
        for e in [
            KernelPlanError::UnknownName { name: "x".into() },
            KernelPlanError::DuplicateBinding { name: "x".into() },
            KernelPlanError::NoOutputs,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// Write-backs must respect statement-order reads: a rename of an
    /// input that the kernel also rebinds, and a full swap, both need
    /// the old value staged before the overwrite lands.
    #[test]
    fn write_back_order_preserves_old_values() {
        let check = |src: &str, pairs: &[(&str, &str)], inputs: &[(&str, u64)]| {
            let program = Program::parse(src).unwrap();
            let p = KernelPlan::compile(&program, &bind(pairs)).unwrap();
            let rows = 2u64;
            let mut backend = FeramBackend::new(MemoryGeometry::tiny());
            let words = backend.geometry().row_words();
            let bases: Vec<u64> = p
                .vector_names()
                .enumerate()
                .map(|(i, _)| i as u64 * rows)
                .collect();
            let name_base: HashMap<String, u64> = p
                .vector_names()
                .map(String::from)
                .zip(bases.iter().copied())
                .collect();
            let mut env = std::collections::BTreeMap::new();
            for &(dsl, value) in inputs {
                env.insert(dsl.to_owned(), value);
                let vector = pairs.iter().find(|&&(d, _)| d == dsl).unwrap().1;
                for k in 0..rows {
                    let data = vec![value; words];
                    backend
                        .install_row(RowId(name_base[vector] + k), &data)
                        .unwrap();
                }
            }
            let mut ops = Vec::new();
            p.emit_for_shard(0, 1, rows, &bases, 600, &mut ops);
            let report = execute_batch(&mut backend, &ops);
            assert!(report.outputs.iter().all(Result::is_ok));
            let expect = program.eval_words(&env);
            for &(dsl, vector) in pairs {
                let Some(want) = expect.get(dsl) else { continue };
                let got = backend.read_row(RowId(name_base[vector])).unwrap()[0];
                assert_eq!(got, *want, "vector {vector} of `{src}`");
            }
        };
        // Rename + rebind: d must hold the OLD a.
        check(
            "t = a\na = x\nd = t",
            &[("a", "va"), ("x", "vx"), ("d", "vd")],
            &[("a", 0xAAAA), ("x", 0x5555)],
        );
        // Full swap: a cyclic write-back dependency.
        check(
            "t = a\na = b\nb = t",
            &[("a", "va"), ("b", "vb")],
            &[("a", 0x1111), ("b", 0x2222)],
        );
        // Op-valued output feeding a rename stays direct-written.
        check(
            "d = a & b\ne = d\na = a | b",
            &[("a", "va"), ("b", "vb"), ("d", "vd"), ("e", "ve")],
            &[("a", 0xF0F0), ("b", 0x3C3C)],
        );
    }

    /// Single-shard end-to-end: emit the plan onto a raw backend and
    /// compare every output word against the DSL's host-side oracle.
    #[test]
    fn emission_matches_host_eval_single_shard() {
        let src = "t = a & b\n\
                   u = t ^ ~c\n\
                   d = u | (a & b)\n\
                   e = ~(u ^ c)\n\
                   c = c ^ t"; // in-place update of an input
        let program = Program::parse(src).unwrap();
        let pairs = [
            ("a", "va"),
            ("b", "vb"),
            ("c", "vc"),
            ("d", "vd"),
            ("e", "ve"),
        ];
        let p = KernelPlan::compile(&program, &bind(&pairs)).unwrap();

        let rows = 4u64;
        let mut backend = FeramBackend::new(MemoryGeometry::tiny());
        let words = backend.geometry().row_words();
        // Lay vectors out contiguously: vector i at rows [i·rows, ...).
        let bases: Vec<u64> = p
            .vector_names()
            .enumerate()
            .map(|(i, _)| i as u64 * rows)
            .collect();
        let name_base: HashMap<String, u64> = p
            .vector_names()
            .map(String::from)
            .zip(bases.iter().copied())
            .collect();
        let seed_word = |name: &str, k: u64, j: usize| {
            felim_exec::derive_seed(0xC0FFEE, felim_exec::derive_seed(k, j as u64))
                ^ felim_exec::hash::fnv1a_str(name)
        };
        for (dsl, vector) in &pairs[..3] {
            let base = name_base[*vector];
            for k in 0..rows {
                let data: Vec<u64> = (0..words).map(|j| seed_word(dsl, k, j)).collect();
                backend.install_row(RowId(base + k), &data).unwrap();
            }
        }

        let scratch_base = 600; // clear of the laid-out vectors
        let mut ops = Vec::new();
        p.emit_for_shard(0, 1, rows, &bases, scratch_base, &mut ops);
        let report = execute_batch(&mut backend, &ops);
        assert!(report.outputs.iter().all(Result::is_ok));

        for k in 0..rows {
            for j in 0..words {
                let mut env = std::collections::BTreeMap::new();
                for (dsl, _) in &pairs[..3] {
                    env.insert((*dsl).to_owned(), seed_word(dsl, k, j));
                }
                let expect = program.eval_words(&env);
                for (dsl, vector) in &pairs {
                    if !["c", "d", "e"].contains(dsl) {
                        continue;
                    }
                    let got = backend.read_row(RowId(name_base[*vector] + k)).unwrap()[j];
                    assert_eq!(
                        got, expect[*dsl],
                        "vector {vector} row {k} word {j} of `{src}`"
                    );
                }
            }
        }
    }
}
