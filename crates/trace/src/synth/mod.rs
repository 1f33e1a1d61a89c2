//! Synthetic CBP-5-style workload generation.
//!
//! The paper evaluates on 662 proprietary industrial traces (SHORT/LONG ×
//! MOBILE/SERVER). We cannot redistribute those, so this module generates
//! *structured* synthetic programs and executes them to produce branch
//! traces with the properties the paper's evaluation depends on:
//!
//! * control flow comes from a static program (call graph, loops, biased
//!   conditionals, switches), so the same global path of instruction
//!   addresses recurs with consistent reuse outcomes — the signal GHRP
//!   learns;
//! * MOBILE workloads have small-to-medium, loopy code footprints;
//! * SERVER workloads sweep large flat code footprints (a hot request
//!   loop plus a rotating dispatch over hundreds of cold handler
//!   functions), which is what pressures a 64 KB I-cache and a 4K-entry
//!   BTB;
//! * per-trace jitter (function counts, sizes, trip counts, biases) gives
//!   a suite with the paper's spread: most traces well under 1 MPKI under
//!   LRU, a heavy tail above it.
//!
//! Everything is deterministic in the workload seed.

#![forbid(unsafe_code)]

pub mod program;
pub mod walker;

use crate::record::BranchRecord;
use program::{Bias, Block, FuncId, Function, Program, Select, Terminator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
pub use walker::{walks_started, Walker};

/// The four CBP-5 workload categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WorkloadCategory {
    /// Small, loopy footprint; short run.
    ShortMobile,
    /// Small-to-medium footprint; long run.
    LongMobile,
    /// Large flat footprint; short run.
    ShortServer,
    /// Large flat footprint; long run.
    LongServer,
}

impl WorkloadCategory {
    /// All categories in canonical order.
    pub const ALL: [WorkloadCategory; 4] = [
        WorkloadCategory::ShortMobile,
        WorkloadCategory::LongMobile,
        WorkloadCategory::ShortServer,
        WorkloadCategory::LongServer,
    ];

    /// Default instruction budget for this category.
    ///
    /// The paper simulates short traces completely and caps long traces at
    /// one billion instructions; we default to laptop-scale budgets (the
    /// experiment harness can raise them).
    pub fn default_instructions(self) -> u64 {
        match self {
            WorkloadCategory::ShortMobile | WorkloadCategory::ShortServer => 4_000_000,
            WorkloadCategory::LongMobile | WorkloadCategory::LongServer => 8_000_000,
        }
    }

    /// Whether this is a server-class workload (large code footprint).
    pub fn is_server(self) -> bool {
        matches!(
            self,
            WorkloadCategory::ShortServer | WorkloadCategory::LongServer
        )
    }
}

impl std::fmt::Display for WorkloadCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkloadCategory::ShortMobile => "SHORT_MOBILE",
            WorkloadCategory::LongMobile => "LONG_MOBILE",
            WorkloadCategory::ShortServer => "SHORT_SERVER",
            WorkloadCategory::LongServer => "LONG_SERVER",
        };
        f.write_str(s)
    }
}

/// Specification of one synthetic workload: category, seed and budget.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable name (e.g. `SHORT_SERVER-017`).
    pub name: String,
    /// Workload category.
    pub category: WorkloadCategory,
    /// Seed controlling both program structure and execution randomness.
    pub seed: u64,
    /// Instruction budget for the walk.
    pub instructions: u64,
}

impl WorkloadSpec {
    /// Create a spec with the category's default instruction budget.
    pub fn new(category: WorkloadCategory, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: format!("{category}-{seed:03}"),
            category,
            seed,
            instructions: category.default_instructions(),
        }
    }

    /// Override the instruction budget (builder style).
    #[must_use]
    pub fn instructions(mut self, n: u64) -> WorkloadSpec {
        self.instructions = n;
        self
    }

    /// Build the static program for this workload.
    pub fn build_program(&self) -> Program {
        ProgramBuilder::new(self.category, self.seed).build()
    }

    /// Stream branch records without materializing the trace.
    ///
    /// The program must have been produced by [`WorkloadSpec::build_program`]
    /// on the same spec for the walk to be meaningful.
    pub fn walk<'p>(&self, program: &'p Program) -> Walker<'p> {
        // Offset the walk seed so structure and execution randomness are
        // decoupled but both derive from the workload seed.
        Walker::new(
            program,
            self.seed ^ 0x9e37_79b9_7f4a_7c15,
            self.instructions,
        )
    }

    /// Build the program, execute it, and collect the full trace.
    pub fn generate(&self) -> SyntheticTrace {
        let program = self.build_program();
        let mut walker = self.walk(&program);
        let records: Vec<BranchRecord> = walker.by_ref().collect();
        SyntheticTrace {
            spec: self.clone(),
            code_bytes: program.code_bytes(),
            instructions: walker.instructions(),
            records,
        }
    }

    /// Prepare the workload for repeated *streaming* replay.
    ///
    /// Builds the program and performs one counting walk to learn the
    /// exact instruction total (the simulator sizes its warm-up window
    /// from it), but never materializes the record vector: a 100 M+
    /// instruction trace costs the program's footprint plus walker state
    /// instead of gigabytes of `Vec<BranchRecord>`. Each
    /// [`StreamedTrace::replay`] call restarts the deterministic walk, so
    /// the record stream is bit-identical to [`WorkloadSpec::generate`].
    pub fn streamed(&self) -> StreamedTrace {
        let program = self.build_program();
        let mut walker = self.walk(&program);
        for _ in walker.by_ref() {}
        StreamedTrace {
            spec: self.clone(),
            code_bytes: program.code_bytes(),
            instructions: walker.instructions(),
            program,
        }
    }
}

/// A fully materialized synthetic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTrace {
    /// The spec that produced this trace.
    pub spec: WorkloadSpec,
    /// Static code footprint of the underlying program, in bytes.
    pub code_bytes: u64,
    /// Total instructions implied by the records (branches + sequential).
    pub instructions: u64,
    /// The branch records, in program order.
    pub records: Vec<BranchRecord>,
}

impl SyntheticTrace {
    /// Workload name shorthand.
    pub fn name(&self) -> &str {
        &self.spec.name
    }
}

/// A workload prepared for streaming replay: the static program plus the
/// exact instruction count, with **no** materialized record vector.
///
/// Produced by [`WorkloadSpec::streamed`]. Every [`StreamedTrace::replay`]
/// restarts the deterministic walk from the beginning, so multiple
/// passes (e.g. an offline-policy precompute pass followed by the
/// simulation pass) observe identical record streams.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedTrace {
    spec: WorkloadSpec,
    program: Program,
    code_bytes: u64,
    instructions: u64,
}

impl StreamedTrace {
    /// Start a fresh walk over the records, in program order.
    pub fn replay(&self) -> Walker<'_> {
        self.spec.walk(&self.program)
    }

    /// Exact instruction total of the walk (branches + sequential).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Static code footprint of the underlying program, in bytes.
    pub fn code_bytes(&self) -> u64 {
        self.code_bytes
    }

    /// The spec this workload was prepared from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Workload name shorthand.
    pub fn name(&self) -> &str {
        &self.spec.name
    }
}

/// Build the standard mixed-category suite of `n` workload specs.
///
/// Categories interleave in the order SHORT-MOBILE, SHORT-SERVER,
/// LONG-MOBILE, LONG-SERVER so any prefix of the suite is a balanced mix.
/// Seeds derive from `base_seed` so suites are reproducible.
///
/// ```
/// let suite = fe_trace::synth::suite(8, 1234);
/// assert_eq!(suite.len(), 8);
/// assert_ne!(suite[0].category, suite[1].category);
/// ```
pub fn suite(n: usize, base_seed: u64) -> Vec<WorkloadSpec> {
    let order = [
        WorkloadCategory::ShortMobile,
        WorkloadCategory::ShortServer,
        WorkloadCategory::LongMobile,
        WorkloadCategory::LongServer,
    ];
    (0..n)
        .map(|i| {
            // lint:allow(pow2-mask): round-robin over a 4-category list, not a hardware structure
            let category = order[i % order.len()];
            WorkloadSpec::new(category, base_seed.wrapping_add(i as u64))
        })
        .collect()
}

/// Structural parameters drawn per workload from the category + seed.
///
/// Workloads have three code tiers with distinct reuse distances, which is
/// what gives real traces their policy ordering:
///
/// * **hot** — executed every request-loop iteration (short reuse
///   distance; LRU protects it, Random damages it);
/// * **warm** — handler pool dispatched with a heavy-tailed (log-uniform)
///   distribution: head handlers recur quickly, the tail recurs at medium
///   distances that only partially fit in cache;
/// * **cold** — a large pool swept round-robin: reuse distances far exceed
///   any cache, so every touch is dead-on-arrival pollution. Dead-block
///   policies win by evicting/bypassing exactly this tier.
#[derive(Debug, Clone)]
struct BuildParams {
    /// Target bytes of hot code (touched every outer iteration).
    hot_bytes: u64,
    /// Target bytes of the warm handler pool.
    warm_bytes: u64,
    /// Target bytes of the cold handler pool.
    cold_bytes: u64,
    n_util: usize,
    /// Hot inner-loop repetitions per dispatch phase.
    hot_repeat: u32,
    /// Warm handlers invoked per iteration.
    warm_fanout: usize,
    /// Cold handlers invoked per iteration.
    cold_fanout: usize,
    /// Loop trip-count range inside hot functions.
    loop_trips: (u32, u32),
    /// Region weights for hot functions: (straight, ifelse, loop, call,
    /// switch).
    hot_weights: [f64; 5],
    /// Region weights for warm/cold handlers (streaming code: few loops).
    handler_weights: [f64; 5],
}

impl BuildParams {
    fn draw(category: WorkloadCategory, rng: &mut SmallRng) -> BuildParams {
        match category {
            WorkloadCategory::ShortMobile | WorkloadCategory::LongMobile => BuildParams {
                // A spread of mobile footprints: many fit in a 64 KB cache
                // (near-zero MPKI), some exceed the small 8–16 KB configs.
                hot_bytes: rng.gen_range(3_000..32_000),
                warm_bytes: rng.gen_range(6_000..48_000),
                cold_bytes: rng.gen_range(16_000..128_000),
                n_util: rng.gen_range(3..8),
                hot_repeat: rng.gen_range(2..6),
                warm_fanout: rng.gen_range(1..3),
                cold_fanout: rng.gen_range(1..4),
                loop_trips: (4, 48),
                hot_weights: [0.20, 0.20, 0.38, 0.14, 0.08],
                handler_weights: [0.34, 0.26, 0.12, 0.16, 0.12],
            },
            WorkloadCategory::ShortServer | WorkloadCategory::LongServer => BuildParams {
                // Server hot sets approach the 64 KB I-cache; warm + cold
                // pools far exceed it and the 4K-entry BTB. Per-iteration
                // work is kept small so a few million instructions give
                // hundreds of request iterations — enough generations per
                // block for dead-block predictors to train, as the paper's
                // hundred-million-instruction traces do at full scale.
                hot_bytes: rng.gen_range(6_000..24_000),
                warm_bytes: rng.gen_range(30_000..130_000),
                // The cold pool is sized so handlers recur every few dozen
                // iterations: far beyond cache reach (dead-on-arrival) yet
                // often enough that a few million instructions give each
                // (block, path) signature several generations to train —
                // standing in for the paper's 100M–1B-instruction traces.
                cold_bytes: rng.gen_range(100_000..260_000),
                n_util: rng.gen_range(8..20),
                hot_repeat: 1,
                warm_fanout: rng.gen_range(2..5),
                // Cold streaming dominates per-set traffic between warm
                // reuses, giving dead-block replacement depth to exploit.
                cold_fanout: rng.gen_range(5..13),
                loop_trips: (2, 8),
                hot_weights: [0.30, 0.26, 0.14, 0.20, 0.10],
                // Handlers are straight-line streaming code with few
                // calls: shared-callee call sites multiply the distinct
                // paths per block, and excessive path diversity (relative
                // to the 4,096-entry tables) is what real instruction
                // streams do not have.
                handler_weights: [0.52, 0.18, 0.08, 0.08, 0.14],
            },
        }
    }
}

/// Size class of a generated function, in regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SizeClass {
    Util,
    Hot,
    /// Warm or cold handler: streaming, loop-light code.
    Handler,
}

impl SizeClass {
    fn regions(self, rng: &mut SmallRng) -> usize {
        match self {
            SizeClass::Util => rng.gen_range(2..5),
            SizeClass::Hot => rng.gen_range(6..16),
            SizeClass::Handler => rng.gen_range(4..14),
        }
    }
}

/// Builds a [`Program`] for a workload category from a seed.
#[derive(Debug)]
struct ProgramBuilder {
    rng: SmallRng,
    params: BuildParams,
    functions: Vec<Function>,
}

impl ProgramBuilder {
    fn new(category: WorkloadCategory, seed: u64) -> ProgramBuilder {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x5851_f42d_4c95_7f2d));
        let params = BuildParams::draw(category, &mut rng);
        ProgramBuilder {
            rng,
            params,
            functions: Vec::new(),
        }
    }

    fn build(mut self) -> Program {
        // Layer 1: leaf utility functions (no callees).
        let utils: Vec<FuncId> = (0..self.params.n_util)
            .map(|_| self.add_function(SizeClass::Util, &[]))
            .collect();

        // Layer 2: hot worker functions plus warm and cold handler pools,
        // all calling utilities.
        let avg_hot = 1_000u64;
        let avg_handler = 800u64;
        let n_hot = (self.params.hot_bytes / avg_hot).clamp(2, 200) as usize;
        let n_warm = (self.params.warm_bytes / avg_handler).clamp(4, 1500) as usize;
        let n_cold = (self.params.cold_bytes / avg_handler).clamp(4, 2000) as usize;
        let hot: Vec<FuncId> = (0..n_hot)
            .map(|_| self.add_function(SizeClass::Hot, &utils))
            .collect();
        let warm: Vec<FuncId> = (0..n_warm)
            .map(|_| self.add_function(SizeClass::Handler, &utils))
            .collect();
        let cold: Vec<FuncId> = (0..n_cold)
            .map(|_| self.add_function(SizeClass::Handler, &utils))
            .collect();

        // Layer 3: the entry function — an infinite request loop:
        //   repeat hot_repeat times: call the hot functions (with skips);
        //   dispatch warm handlers (heavy-tailed) and cold handlers
        //   (round-robin sweep).
        let entry = self.add_entry(&hot, &warm, &cold);

        let mut program = Program {
            functions: self.functions,
            entry,
        };
        program.assign_addresses();
        debug_assert_eq!(program.validate(), Ok(()));
        program
    }

    fn add_function(&mut self, class: SizeClass, callees: &[FuncId]) -> FuncId {
        let n_regions = class.regions(&mut self.rng);
        let weights = if class == SizeClass::Handler {
            self.params.handler_weights
        } else {
            self.params.hot_weights
        };
        let mut blocks: Vec<Block> = Vec::new();
        for _ in 0..n_regions {
            self.push_region(&mut blocks, callees, weights);
        }
        blocks.push(Block {
            start: 0,
            n_instr: self.block_len(),
            term: Terminator::Return,
        });
        let id = self.functions.len();
        self.functions.push(Function { base: 0, blocks });
        id
    }

    fn block_len(&mut self) -> u32 {
        self.rng.gen_range(2..=12)
    }

    /// Append one structured region. Every region leaves control flowing
    /// into the next block to be appended.
    // One match arm per region shape; splitting them would scatter the
    // region grammar across helper functions.
    #[allow(clippy::too_many_lines)]
    fn push_region(&mut self, blocks: &mut Vec<Block>, callees: &[FuncId], w: [f64; 5]) {
        let mut pick = self.rng.gen_range(0.0..w.iter().sum::<f64>());
        let mut kind = 0usize;
        for (i, wi) in w.iter().enumerate() {
            if pick < *wi {
                kind = i;
                break;
            }
            pick -= wi;
        }
        // Degrade call regions to straight-line when no callees exist.
        if kind == 3 && callees.is_empty() {
            kind = 0;
        }
        let i = blocks.len();
        match kind {
            // Straight: one block jumping to the next region.
            0 => blocks.push(Block {
                start: 0,
                n_instr: self.block_len(),
                term: Terminator::Jump { target: i + 1 },
            }),
            // If/else diamond.
            1 => {
                let p = if self.rng.gen_bool(0.12) {
                    // A small fraction of conditionals are weakly biased
                    // (data-dependent); the rest are strongly biased —
                    // "most branches are highly biased to be taken or not
                    // taken" (§III.E). Strong bias also keeps the global
                    // *path* of accesses repeatable, which is the signal
                    // GHRP's signatures rely on.
                    self.rng.gen_range(0.35..0.65)
                } else if self.rng.gen_bool(0.5) {
                    self.rng.gen_range(0.01..0.06)
                } else {
                    self.rng.gen_range(0.94..0.99)
                };
                blocks.push(Block {
                    start: 0,
                    n_instr: self.block_len(),
                    term: Terminator::Cond {
                        target: i + 2,
                        bias: Bias::TakenP(p),
                    },
                });
                blocks.push(Block {
                    start: 0,
                    n_instr: self.block_len(),
                    term: Terminator::Jump { target: i + 3 },
                });
                blocks.push(Block {
                    start: 0,
                    n_instr: self.block_len(),
                    term: Terminator::Jump { target: i + 3 },
                });
            }
            // Loop: one- or two-block body with a counted or random latch.
            2 => {
                let (lo, hi) = self.params.loop_trips;
                let bias = if self.rng.gen_bool(0.5) {
                    Bias::Loop {
                        trips: self.rng.gen_range(lo..=hi),
                    }
                } else {
                    Bias::LoopRandom { min: lo, max: hi }
                };
                if self.rng.gen_bool(0.35) && !callees.is_empty() {
                    // Loop body containing a call.
                    let callee = callees[self.rng.gen_range(0..callees.len())];
                    blocks.push(Block {
                        start: 0,
                        n_instr: self.block_len(),
                        term: Terminator::Call { callee },
                    });
                    blocks.push(Block {
                        start: 0,
                        n_instr: self.block_len(),
                        term: Terminator::Cond { target: i, bias },
                    });
                } else {
                    blocks.push(Block {
                        start: 0,
                        n_instr: self.block_len(),
                        term: Terminator::Cond { target: i, bias },
                    });
                }
            }
            // Call region.
            3 => {
                let callee = callees[self.rng.gen_range(0..callees.len())];
                blocks.push(Block {
                    start: 0,
                    n_instr: self.block_len(),
                    term: Terminator::Call { callee },
                });
            }
            // Switch: 2–5 case blocks.
            _ => {
                let k = self.rng.gen_range(2..=5);
                let join = i + 1 + k;
                blocks.push(Block {
                    start: 0,
                    n_instr: self.block_len(),
                    term: Terminator::IndirectJump {
                        targets: (i + 1..=i + k).collect(),
                        select: if self.rng.gen_bool(0.8) {
                            Select::Skewed
                        } else {
                            Select::Random
                        },
                    },
                });
                for _ in 0..k {
                    blocks.push(Block {
                        start: 0,
                        n_instr: self.block_len(),
                        term: Terminator::Jump { target: join },
                    });
                }
            }
        }
    }

    fn add_entry(&mut self, hot: &[FuncId], warm: &[FuncId], cold: &[FuncId]) -> FuncId {
        let mut blocks: Vec<Block> = Vec::new();
        // Prologue.
        blocks.push(Block {
            start: 0,
            n_instr: self.block_len(),
            term: Terminator::Jump { target: 1 },
        });
        let loop_head = blocks.len();
        // Hot phase: call the hot functions, each guarded by a biased
        // skip branch. The random subset breaks the strict cyclic order
        // that would make the hot loop pathological for LRU; real request
        // loops take data-dependent early exits the same way.
        for &h in hot {
            let i = blocks.len();
            let skip_p = self.rng.gen_range(0.05..0.35);
            blocks.push(Block {
                start: 0,
                n_instr: self.block_len(),
                term: Terminator::Cond {
                    target: i + 2,
                    bias: Bias::TakenP(skip_p),
                },
            });
            blocks.push(Block {
                start: 0,
                n_instr: self.block_len(),
                term: Terminator::Call { callee: h },
            });
        }
        // Inner repeat latch around the hot phase.
        let hot_latch = blocks.len();
        blocks.push(Block {
            start: 0,
            n_instr: self.block_len(),
            term: Terminator::Cond {
                target: loop_head,
                bias: Bias::Loop {
                    trips: self.params.hot_repeat,
                },
            },
        });
        debug_assert_eq!(hot_latch + 1, blocks.len());
        // Warm dispatch phase. Each site owns a disjoint slice of the warm
        // pool and round-robins over it, so a slice of size k recurs every
        // k iterations: small slices behave like extended hot code, large
        // slices sit just beyond LRU reach — the band where dead-block
        // replacement pays off. One site keeps a heavy-tailed selection
        // over the whole pool for realism (data-dependent dispatch).
        let sites = self.params.warm_fanout.max(1);
        let mut cut = 0usize;
        for s in 0..sites {
            let remaining_sites = sites - s;
            let remaining = warm.len() - cut;
            let take = if remaining_sites == 1 {
                remaining
            } else {
                let mean = remaining / remaining_sites;
                self.rng
                    .gen_range((mean / 2).max(1)..=(mean * 3 / 2).max(2))
                    .min(remaining)
            };
            let slice: Vec<FuncId> = warm[cut..cut + take.max(1)].to_vec();
            cut += take.max(1).min(remaining);
            let select = if s == 0 && sites > 1 {
                Select::LogUniform
            } else {
                Select::Rotate
            };
            let callees = if select == Select::LogUniform {
                warm.to_vec()
            } else {
                slice
            };
            blocks.push(Block {
                start: 0,
                n_instr: self.block_len(),
                term: Terminator::IndirectCall { callees, select },
            });
        }
        // Cold dispatch phase: round-robin sweep of the big pool; reuse
        // distances exceed any cache, so this tier is dead-on-arrival.
        for _ in 0..self.params.cold_fanout {
            blocks.push(Block {
                start: 0,
                n_instr: self.block_len(),
                term: Terminator::IndirectCall {
                    callees: cold.to_vec(),
                    select: Select::Rotate,
                },
            });
        }
        // Outer infinite latch.
        blocks.push(Block {
            start: 0,
            n_instr: self.block_len(),
            term: Terminator::Cond {
                target: loop_head,
                bias: Bias::AlwaysTaken,
            },
        });
        // Unreachable return keeps the conditional-latch invariant
        // (conditionals must have a fall-through block).
        blocks.push(Block {
            start: 0,
            n_instr: 1,
            term: Terminator::Return,
        });
        let id = self.functions.len();
        self.functions.push(Function { base: 0, blocks });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchKind;

    #[test]
    fn programs_validate_for_all_categories() {
        for (i, cat) in WorkloadCategory::ALL.iter().enumerate() {
            for seed in 0..8u64 {
                let p = WorkloadSpec::new(*cat, seed * 31 + i as u64).build_program();
                assert_eq!(p.validate(), Ok(()), "category {cat}, seed {seed}");
            }
        }
    }

    #[test]
    fn server_footprint_exceeds_mobile() {
        let mobile = WorkloadSpec::new(WorkloadCategory::ShortMobile, 7).build_program();
        let server = WorkloadSpec::new(WorkloadCategory::ShortServer, 7).build_program();
        assert!(
            server.code_bytes() > mobile.code_bytes(),
            "server {} <= mobile {}",
            server.code_bytes(),
            mobile.code_bytes()
        );
        assert!(server.code_bytes() > 100_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::new(WorkloadCategory::ShortMobile, 5).instructions(50_000);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.records, b.records);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn budget_respected_approximately() {
        let spec = WorkloadSpec::new(WorkloadCategory::ShortServer, 3).instructions(200_000);
        let t = spec.generate();
        assert!(t.instructions >= 200_000);
        assert!(t.instructions < 200_000 + 64, "overshoot too large");
    }

    #[test]
    fn traces_contain_all_major_branch_kinds() {
        let spec = WorkloadSpec::new(WorkloadCategory::ShortServer, 11).instructions(300_000);
        let t = spec.generate();
        let mut seen = std::collections::HashSet::new();
        for r in &t.records {
            seen.insert(r.kind);
        }
        for k in [
            BranchKind::CondDirect,
            BranchKind::UncondDirect,
            BranchKind::Call,
            BranchKind::Return,
            BranchKind::IndirectCall,
        ] {
            assert!(seen.contains(&k), "missing {k}");
        }
    }

    #[test]
    fn branch_density_is_realistic() {
        // Real instruction streams have roughly one branch per 4–10
        // instructions.
        for cat in WorkloadCategory::ALL {
            let t = WorkloadSpec::new(cat, 17).instructions(100_000).generate();
            let per_branch = t.instructions as f64 / t.records.len() as f64;
            assert!(
                (3.0..14.0).contains(&per_branch),
                "{cat}: {per_branch:.1} instructions per branch"
            );
        }
    }

    #[test]
    fn conditional_mix_is_dominant() {
        let t = WorkloadSpec::new(WorkloadCategory::LongMobile, 23)
            .instructions(100_000)
            .generate();
        let cond = t
            .records
            .iter()
            .filter(|r| r.kind == BranchKind::CondDirect)
            .count();
        let frac = cond as f64 / t.records.len() as f64;
        assert!(frac > 0.3, "conditional fraction {frac:.2} too low");
    }

    #[test]
    fn suite_is_balanced_and_reproducible() {
        let a = suite(12, 99);
        let b = suite(12, 99);
        assert_eq!(a, b);
        let servers = a.iter().filter(|s| s.category.is_server()).count();
        assert_eq!(servers, 6);
        // Names are unique.
        let names: std::collections::HashSet<_> = a.iter().map(|s| &s.name).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn walk_matches_generate() {
        let spec = WorkloadSpec::new(WorkloadCategory::ShortMobile, 2).instructions(20_000);
        let program = spec.build_program();
        let streamed: Vec<_> = spec.walk(&program).collect();
        let collected = spec.generate();
        assert_eq!(streamed, collected.records);
    }

    #[test]
    fn streamed_matches_generate_and_replays_identically() {
        let spec = WorkloadSpec::new(WorkloadCategory::ShortServer, 9).instructions(30_000);
        let streamed = spec.streamed();
        let collected = spec.generate();
        assert_eq!(streamed.instructions(), collected.instructions);
        assert_eq!(streamed.code_bytes(), collected.code_bytes);
        let first: Vec<_> = streamed.replay().collect();
        assert_eq!(first, collected.records);
        // Replays restart from the beginning, bit-identically.
        let second: Vec<_> = streamed.replay().collect();
        assert_eq!(first, second);
    }

    #[test]
    fn distinct_seeds_give_distinct_programs() {
        let a = WorkloadSpec::new(WorkloadCategory::ShortServer, 1).build_program();
        let b = WorkloadSpec::new(WorkloadCategory::ShortServer, 2).build_program();
        assert_ne!(a, b);
    }
}
