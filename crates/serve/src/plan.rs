//! The kernel compiler: DSL programs → fused per-shard row-op schedules.
//!
//! [`KernelPlan::compile`] lowers a parsed [`Program`] into a DAG of
//! native gates and schedules it once, at admission time; dispatch
//! then merely stamps the plan out per shard with
//! [`KernelPlan::emit_for_shard`]. The compiler performs the fusion work
//! that makes a kernel cheaper than submitting its statements as
//! individual [`LogicalOp`](crate::LogicalOp)s:
//!
//! * **Common-subexpression elimination** — gates are hash-consed, so
//!   `(a & b)` computed twice is one entry (commutative operands are
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
//! The IR admits only what the array runs. A DAG entry is an input
//! vector or a gate: `Not(a)` or `Bin(kind, a, b)` with `kind` one of
//! `And | Or | Nand | Nor`, whose operands are ids of earlier entries
//! (ids are creation order, which operand canonicalisation and the
//! `(level, id)` schedule key both compare). A scheduled step is a
//! gate over value locations with its destination, or a copy, so
//! emission maps every step to exactly one [`RowOp`] per row.
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
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A two-operand gate the array executes natively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BinKind {
    And,
    Or,
    Nand,
    Nor,
}

impl BinKind {
    /// The native gate computing the complement of this gate's result.
    fn complement(self) -> BinKind {
        match self {
            BinKind::And => BinKind::Nand,
            BinKind::Nand => BinKind::And,
            BinKind::Or => BinKind::Nor,
            BinKind::Nor => BinKind::Or,
        }
    }
}

/// A native gate over operands of type `T`: entry ids in the DAG,
/// value locations in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Gate<T> {
    Not(T),
    Bin(BinKind, T, T),
}

impl<T: Copy + PartialEq> Gate<T> {
    /// The distinct operands. `nand(x, x)` (from the XOR network) reads
    /// `x` once, so a dying operand's slot frees exactly once — a stale
    /// duplicate on the free list would later clobber a live value.
    fn args(self) -> impl Iterator<Item = T> {
        let (a, b) = match self {
            Gate::Not(a) => (a, None),
            Gate::Bin(_, a, b) => (a, (b != a).then_some(b)),
        };
        std::iter::once(a).chain(b)
    }

    fn map<U>(self, mut f: impl FnMut(T) -> U) -> Gate<U> {
        match self {
            Gate::Not(a) => Gate::Not(f(a)),
            Gate::Bin(kind, a, b) => Gate::Bin(kind, f(a), f(b)),
        }
    }
}

/// A DAG entry. Its id is its creation index, so every gate's operand
/// ids are below its own.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    /// Reads the catalog vector at this index of the plan's vector table.
    Input(usize),
    Gate(Gate<usize>),
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
enum Step {
    /// A gate over operand locations, writing `dst`.
    Op { gate: Gate<Loc>, dst: Loc },
    /// A staging or end-of-kernel write-back copy.
    Copy { src: Loc, dst: Loc },
}

/// Scratch slots under linear scan: the lowest freed slot is reused
/// before a new one opens, so allocation is deterministic and low slots
/// stay hot.
#[derive(Default)]
struct Slots {
    free: BTreeSet<u32>,
    /// Slots opened so far: the schedule's peak liveness.
    opened: u32,
}

impl Slots {
    fn take(&mut self) -> u32 {
        self.free.pop_first().unwrap_or_else(|| {
            self.opened += 1;
            self.opened - 1
        })
    }
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
    /// DAG entries eliminated by hash-consing.
    pub cse_hits: u64,
    /// Distinct scratch slots the schedule needs (peak liveness).
    pub scratch_slots: u32,
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

        // Lower every statement; `env` tracks each name's current entry.
        let mut b = Builder::default();
        for stmt in &program.statements {
            let id = b.lower(&stmt.expr, &bound)?;
            b.env.insert(stmt.target.clone(), id);
        }

        // Outputs: bound names the program assigned, in first-assignment
        // order (the write-back order).
        let mut outputs: Vec<(usize, usize)> = Vec::new(); // (vector idx, entry)
        for target in program.targets() {
            if let Some(&vector) = bound.get(target.as_str()) {
                let entry = b.env[&target];
                outputs.push((b.vector_id(vector), entry));
            }
        }
        if outputs.is_empty() {
            return Err(KernelPlanError::NoOutputs);
        }

        Ok(Self::schedule(b, outputs))
    }

    /// Levelises, allocates scratch, and emits the step list.
    fn schedule(b: Builder, outputs: Vec<(usize, usize)>) -> KernelPlan {
        let entries = &b.entries;
        // Liveness from the outputs: unneeded entries are dead code.
        let mut needed = vec![false; entries.len()];
        let mut stack: Vec<usize> = outputs.iter().map(|&(_, n)| n).collect();
        while let Some(n) = stack.pop() {
            if !std::mem::replace(&mut needed[n], true) {
                if let Entry::Gate(gate) = entries[n] {
                    stack.extend(gate.args());
                }
            }
        }

        // DAG levels (inputs at 0); entry ids are already topological.
        let mut level = vec![0u32; entries.len()];
        for (n, entry) in entries.iter().enumerate() {
            if let Entry::Gate(gate) = entry {
                level[n] = 1 + gate.args().fold(0, |l, a| l.max(level[a]));
            }
        }

        // Schedule: needed gates ordered by (level, id) so independent
        // same-level subexpressions sit adjacent in the emitted batch.
        let mut order: Vec<(usize, Gate<usize>)> = entries
            .iter()
            .enumerate()
            .filter_map(|(n, entry)| match *entry {
                Entry::Gate(gate) if needed[n] => Some((n, gate)),
                _ => None,
            })
            .collect();
        order.sort_by_key(|&(n, _)| (level[n], n));
        let mut pos = vec![0; entries.len()];
        for (p, &(n, _)) in order.iter().enumerate() {
            pos[n] = p;
        }

        // Last use of every entry: the latest schedule position reading
        // it; outputs are also read by the end-of-kernel write-back (one
        // past the schedule).
        let mut last_use = vec![0; entries.len()];
        for (p, &(_, gate)) in order.iter().enumerate() {
            for arg in gate.args() {
                last_use[arg] = p;
            }
        }
        for &(_, n) in &outputs {
            last_use[n] = order.len();
        }

        // Direct output writes: output (v, n) writes vector v straight
        // from gate n when nothing scheduled after n still reads v's old
        // contents (the gate itself may — operands latch before commit).
        let mut direct: Vec<Option<usize>> = vec![None; entries.len()]; // entry → vector
        for &(v, n) in &outputs {
            if let Entry::Gate(_) = entries[n] {
                let old_live = b.input_of[v].is_some_and(|i| needed[i] && last_use[i] > pos[n]);
                if !old_live && direct[n].is_none() {
                    direct[n] = Some(v);
                }
            }
        }

        // Linear-scan scratch allocation over the schedule. Freeing an
        // operand's slot *before* placing the result lets the result
        // overwrite a dying operand in place. An input lives in its
        // vector; a gate where its step put it (`placed[pos]`).
        let mut slots = Slots::default();
        let mut placed: Vec<Loc> = Vec::with_capacity(order.len());
        let loc = |n: usize, placed: &[Loc]| match entries[n] {
            Entry::Input(v) => Loc::Vector(v),
            Entry::Gate(_) => placed[pos[n]],
        };
        let mut steps: Vec<Step> = Vec::with_capacity(order.len() + outputs.len());
        for (p, &(n, gate)) in order.iter().enumerate() {
            for arg in gate.args() {
                if last_use[arg] == p {
                    if let Loc::Scratch(s) = loc(arg, &placed) {
                        slots.free.insert(s);
                    }
                }
            }
            let dst = direct[n].map_or_else(|| Loc::Scratch(slots.take()), Loc::Vector);
            steps.push(Step::Op {
                gate: gate.map(|a| loc(a, &placed)),
                dst,
            });
            placed.push(dst);
        }

        // Write-back hazards: a copy whose source is an *input vector*
        // that this kernel also overwrites (`t = a; a = x; d = t`, or a
        // swap `t = a; a = b; b = t`) must not read it after the
        // overwrite lands. Stage every such source into a scratch slot
        // while its old value is intact — all staging copies precede all
        // write-backs, so write-back order then never matters.
        let mut staged: Vec<Option<Loc>> = vec![None; entries.len()];
        for &(v, n) in &outputs {
            if let Entry::Input(u) = entries[n] {
                if u != v && staged[n].is_none() && outputs.iter().any(|&(w, _)| w == u) {
                    let dst = Loc::Scratch(slots.take());
                    steps.push(Step::Copy {
                        src: Loc::Vector(u),
                        dst,
                    });
                    staged[n] = Some(dst);
                }
            }
        }

        // Write-back copies for outputs not already written in place.
        for &(v, n) in &outputs {
            let src = match staged[n] {
                Some(slot) => slot,
                None => loc(n, &placed),
            };
            if src != Loc::Vector(v) {
                steps.push(Step::Copy {
                    src,
                    dst: Loc::Vector(v),
                });
            }
        }

        KernelPlan {
            vectors: b.vectors,
            steps,
            output_vectors: outputs.iter().map(|&(v, _)| v).collect(),
            cse_hits: b.cse_hits,
            scratch_slots: slots.opened,
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
                let at = |loc| resolve(loc, k);
                out.push(match *step {
                    Step::Copy { src, dst } => RowOp::Copy {
                        src: at(src),
                        dst: at(dst),
                    },
                    Step::Op {
                        gate: Gate::Not(src),
                        dst,
                    } => RowOp::Not {
                        src: at(src),
                        dst: at(dst),
                    },
                    Step::Op {
                        gate: Gate::Bin(kind, a, b),
                        dst,
                    } => {
                        let (a, b, dst) = (at(a), at(b), at(dst));
                        match kind {
                            BinKind::And => RowOp::And { a, b, dst },
                            BinKind::Or => RowOp::Or { a, b, dst },
                            BinKind::Nand => RowOp::Nand { a, b, dst },
                            BinKind::Nor => RowOp::Nor { a, b, dst },
                        }
                    }
                });
            }
        }
    }
}

/// DAG construction state during lowering.
#[derive(Default)]
struct Builder {
    entries: Vec<Entry>,
    /// Hash-cons table over gate entries.
    cons: HashMap<Gate<usize>, usize>,
    /// The plan's vector table, in first-use order.
    vectors: Vec<String>,
    /// Vector-table index → its input entry, if one exists.
    input_of: Vec<Option<usize>>,
    env: HashMap<String, usize>,
    cse_hits: u64,
}

impl Builder {
    fn vector_id(&mut self, name: &str) -> usize {
        if let Some(v) = self.vectors.iter().position(|known| known == name) {
            return v;
        }
        self.vectors.push(name.to_owned());
        self.input_of.push(None);
        self.vectors.len() - 1
    }

    fn input(&mut self, vector: usize) -> usize {
        *self.input_of[vector].get_or_insert_with(|| {
            self.entries.push(Entry::Input(vector));
            self.entries.len() - 1
        })
    }

    fn mk(&mut self, gate: Gate<usize>) -> usize {
        if let Some(&n) = self.cons.get(&gate) {
            self.cse_hits += 1;
            return n;
        }
        self.entries.push(Entry::Gate(gate));
        self.cons.insert(gate, self.entries.len() - 1);
        self.entries.len() - 1
    }

    /// `mk` for commutative gates: operands are canonicalised so `a∘b`
    /// unifies with `b∘a` in the cons table.
    fn mk_sym(&mut self, kind: BinKind, a: usize, b: usize) -> usize {
        self.mk(Gate::Bin(kind, a.min(b), a.max(b)))
    }

    /// Lowers `a ^ b` to the four-gate NAND network
    /// `nand(nand(a, nab), nand(b, nab))` where `nab = nand(a, b)`.
    /// Every gate is native (6-cycle) and hash-consed — repeated XORs of
    /// the same operands dedup gate-by-gate, and a `~` over the result
    /// complements the final NAND into an AND via [`BinKind::complement`].
    fn mk_xor(&mut self, a: usize, b: usize) -> usize {
        let nab = self.mk_sym(BinKind::Nand, a, b);
        let x = self.mk_sym(BinKind::Nand, a, nab);
        let y = self.mk_sym(BinKind::Nand, b, nab);
        self.mk_sym(BinKind::Nand, x, y)
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
                let vector = bound
                    .get(name.as_str())
                    .ok_or_else(|| KernelPlanError::UnknownName { name: name.clone() })?;
                let v = self.vector_id(vector);
                Ok(self.input(v))
            }
            Expr::Not(x) => {
                let inner = self.lower(x, bound)?;
                Ok(match self.entries[inner] {
                    // ~~x cancels; ~(a∘b) fuses into the inverting gate.
                    Entry::Gate(Gate::Not(a)) => a,
                    Entry::Gate(Gate::Bin(kind, a, b)) => {
                        self.mk(Gate::Bin(kind.complement(), a, b))
                    }
                    Entry::Input(_) => self.mk(Gate::Not(inner)),
                })
            }
            Expr::And(x, y) | Expr::Or(x, y) | Expr::Xor(x, y) => {
                let a = self.lower(x, bound)?;
                let b = self.lower(y, bound)?;
                Ok(match expr {
                    Expr::And(..) => self.mk_sym(BinKind::And, a, b),
                    Expr::Or(..) => self.mk_sym(BinKind::Or, a, b),
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
        let names: Vec<_> = p.vector_names().collect();
        assert_eq!(
            p.output_indices().map(|v| names[v]).collect::<Vec<_>>(),
            vec!["vs"]
        );
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

    /// A random program over bound `a`–`d` and temporaries `t0`, `t1`:
    /// general assignments, in-place updates, swaps through a
    /// temporary, `x ^ x` and `~~x`, closed by a bound target so the
    /// plan always has an output.
    fn random_program(seed: u64) -> String {
        let mut state = seed;
        let mut draw = |n: u64| {
            state = felim_exec::derive_seed(state, 1);
            state % n
        };
        fn expr(draw: &mut impl FnMut(u64) -> u64, avail: &[&str], depth: u32) -> String {
            if depth == 0 || draw(4) == 0 {
                return avail[draw(avail.len() as u64) as usize].to_owned();
            }
            let x = expr(draw, avail, depth - 1);
            match draw(6) {
                0 => format!("({x} & {})", expr(draw, avail, depth - 1)),
                1 => format!("({x} | {})", expr(draw, avail, depth - 1)),
                2 => format!("({x} ^ {})", expr(draw, avail, depth - 1)),
                3 => format!("({x} ^ {x})"),
                4 => format!("~~{x}"),
                _ => format!("~{x}"),
            }
        }
        const BOUND: [&str; 4] = ["a", "b", "c", "d"];
        let mut avail: Vec<&str> = BOUND.to_vec();
        let mut lines = Vec::new();
        for _ in 0..2 + draw(5) {
            match draw(4) {
                0 => {
                    let (x, y) = (BOUND[draw(4) as usize], BOUND[draw(4) as usize]);
                    lines.push(format!("t0 = {x}\n{x} = {y}\n{y} = t0"));
                    if !avail.contains(&"t0") {
                        avail.push("t0");
                    }
                }
                1 => {
                    let x = BOUND[draw(4) as usize];
                    lines.push(format!("{x} = {x} & {}", expr(&mut draw, &avail, 2)));
                }
                _ => {
                    let target = ["a", "b", "c", "d", "t0", "t1"][draw(6) as usize];
                    lines.push(format!("{target} = {}", expr(&mut draw, &avail, 3)));
                    if !avail.contains(&target) {
                        avail.push(target);
                    }
                }
            }
        }
        let target = BOUND[draw(4) as usize];
        lines.push(format!("{target} = {}", expr(&mut draw, &avail, 3)));
        lines.join("\n")
    }

    /// Pins every emitted row-op stream and every plan counter over a
    /// fixed corpus, so a rewrite of the compiler's internals is held
    /// byte-identical to the schedules it replaces. Rows 1 and 3 on up
    /// to four shards cover shards that own no row.
    #[test]
    fn emission_golden_over_the_kernel_corpus() {
        let to_v = |names: &[&str]| -> Vec<(String, String)> {
            names
                .iter()
                .map(|n| (n.to_string(), format!("v{n}")))
                .collect()
        };
        let mut corpus: Vec<(String, Vec<(String, String)>)> = [
            (
                "d = (a & b) ^ (b & a)\ne = a & b",
                &["a", "b", "d", "e"][..],
            ),
            (
                "d = ~(a & b)\ne = ~(a ^ b)\nf = ~~a",
                &["a", "b", "d", "e", "f"],
            ),
            (
                "t1 = a ^ b\nt2 = t1 & a\nt3 = t2 | b\nt4 = t3 ^ a\nd = t4 & b",
                &["a", "b", "d"],
            ),
            ("unused = a | b\nd = a & b", &["a", "b", "d"]),
            ("s = s ^ fb", &["s", "fb"]),
            (
                "t = (a & b) ^ d\nd = a & b\ne = t ^ d",
                &["a", "b", "d", "e"],
            ),
            ("d = a & ghost", &["a", "d"]),
            ("t = a & a", &["a"]),
            ("t = a\na = x\nd = t", &["a", "x", "d"]),
            ("t = a\na = b\nb = t", &["a", "b"]),
            ("d = a & b\ne = d\na = a | b", &["a", "b", "d", "e"]),
            (
                "t = a & b\nu = t ^ ~c\nd = u | (a & b)\ne = ~(u ^ c)\nc = c ^ t",
                &["a", "b", "c", "d", "e"],
            ),
        ]
        .iter()
        .map(|&(src, names)| (src.to_owned(), to_v(names)))
        .collect();
        let mut crc8 = Vec::new();
        for i in 0..8 {
            crc8.push(format!("fb = c7 ^ m{i}"));
            for k in (1..8).rev() {
                if (0x07u8 >> k) & 1 == 1 {
                    crc8.push(format!("c{k} = c{} ^ fb", k - 1));
                } else {
                    crc8.push(format!("c{k} = c{}", k - 1));
                }
            }
            crc8.push("c0 = fb".to_string());
        }
        let crc8_bindings = (0..8)
            .flat_map(|i| [format!("c{i}"), format!("m{i}")])
            .map(|n| (n.clone(), n))
            .collect();
        corpus.push((crc8.join("\n"), crc8_bindings));
        corpus.push((
            "prev = flagged\n\
             flagged = (price & in_stock) | (flagged & sticky)\n\
             changed = prev ^ flagged"
                .to_owned(),
            ["price", "in_stock", "sticky", "flagged", "prev", "changed"]
                .iter()
                .map(|n| (n.to_string(), n.to_string()))
                .collect(),
        ));
        for i in 0..64 {
            let src = random_program(felim_exec::derive_seed(0x601D, i));
            corpus.push((src, to_v(&["a", "b", "c", "d"])));
        }

        let mut digest = 0u64;
        let mut fold = |text: String| {
            digest = felim_exec::derive_seed(digest, felim_exec::hash::fnv1a_str(&text));
        };
        let mut ops = Vec::new();
        for (src, bindings) in &corpus {
            let plan = match KernelPlan::compile(&Program::parse(src).unwrap(), bindings) {
                Ok(plan) => plan,
                Err(e) => {
                    fold(format!("{e:?}"));
                    continue;
                }
            };
            fold(format!(
                "{:?} {:?} {} {} {}",
                plan.vector_names().collect::<Vec<_>>(),
                plan.output_indices().collect::<Vec<_>>(),
                plan.cse_hits,
                plan.scratch_slots,
                plan.vector_ops()
            ));
            let bases: Vec<u64> = (0..plan.vector_names().count() as u64)
                .map(|i| 1000 * i + 3)
                .collect();
            for shards in 1..=4u32 {
                for rows in [1u64, 3, 7, 64] {
                    for s in 0..shards {
                        ops.clear();
                        plan.emit_for_shard(s, shards, rows, &bases, 100_000, &mut ops);
                        fold(format!("{ops:?}"));
                    }
                }
            }
        }
        assert_eq!(
            digest,
            0x1ad9_9e2c_1097_414f,
            "emission digest over {} kernels",
            corpus.len()
        );
    }
}
