//! Static program model for synthetic workloads.
//!
//! A [`Program`] is a call graph of [`Function`]s, each a list of
//! [`Block`]s ending in a [`Terminator`]. The model is *static*: it describes
//! code layout and control structure; [`crate::synth::walker::Walker`]
//! executes it to produce a branch trace.
//!
//! The generator builds structured control flow — straight-line regions,
//! if/else diamonds, counted and random loops, switches (indirect jumps),
//! direct and indirect calls — because GHRP's premise is that *paths of
//! instruction addresses correlate with reuse*. Unstructured random branching
//! would erase exactly the signal the paper measures.

#![forbid(unsafe_code)]

use crate::record::INSTRUCTION_BYTES;
use rand::rngs::SmallRng;
use rand::Rng;

/// Index of a function within a [`Program`].
pub type FuncId = usize;
/// Index of a block within a [`Function`].
pub type BlockId = usize;

/// Base address of the synthetic text segment.
pub const TEXT_BASE: u64 = 0x0001_0000;
/// Alignment of function entry points, in bytes.
pub const FUNC_ALIGN: u64 = 64;

/// How a conditional branch decides its direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bias {
    /// Taken with fixed probability `p` on each execution.
    TakenP(f64),
    /// Counted loop back edge: taken `trips` times per loop entry, then
    /// not taken once (loop exit).
    Loop {
        /// Iterations per entry to the loop.
        trips: u32,
    },
    /// Loop back edge with a per-entry random trip count in
    /// `min..=max` — models data-dependent loops.
    LoopRandom {
        /// Minimum trip count (inclusive).
        min: u32,
        /// Maximum trip count (inclusive).
        max: u32,
    },
    /// Periodic: taken for `period` executions, then not taken for
    /// `period`, repeating. Models alternating data-dependent branches.
    Alternate {
        /// Half-period length in executions.
        period: u32,
    },
    /// Always taken (infinite loops, e.g. a server's dispatch loop).
    AlwaysTaken,
}

/// How an indirect branch selects among its targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Select {
    /// Uniformly random each execution.
    Random,
    /// Round-robin over the target list — models request dispatch that
    /// sweeps a large, flat code footprint (the server-trace pattern that
    /// pressures the I-cache and BTB).
    Rotate,
    /// Heavily skewed: target 0 with high probability, others uniform.
    Skewed,
    /// Log-uniform (Zipf-like) over the target list: low indices are hot,
    /// the tail is swept occasionally. This gives dispatch the *temporal
    /// locality* real request streams have — recently used handlers are
    /// likely to run again — which is what makes LRU a strong baseline.
    LogUniform,
}

/// The branch instruction terminating a block.
///
/// Every block ends in exactly one branch, matching the trace format (one
/// record per branch; sequential instructions are implicit).
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Conditional direct branch to `target`; falls through to the next
    /// block when not taken.
    Cond {
        /// Taken-path block within the same function.
        target: BlockId,
        /// Direction behaviour.
        bias: Bias,
    },
    /// Unconditional direct jump within the same function.
    Jump {
        /// Destination block.
        target: BlockId,
    },
    /// Direct call; execution resumes at the next block after the callee
    /// returns.
    Call {
        /// Called function.
        callee: FuncId,
    },
    /// Indirect call through a table of possible callees.
    IndirectCall {
        /// Candidate callees.
        callees: Vec<FuncId>,
        /// Selection mode.
        select: Select,
    },
    /// Indirect jump (switch) within the same function.
    IndirectJump {
        /// Candidate destination blocks.
        targets: Vec<BlockId>,
        /// Selection mode.
        select: Select,
    },
    /// Return to the caller.
    Return,
}

/// A basic block: `n_instr` sequential instructions, the last of which is
/// the terminator branch.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Address of the first instruction. Assigned by
    /// [`Program::assign_addresses`].
    pub start: u64,
    /// Number of instructions including the terminator (≥ 1).
    pub n_instr: u32,
    /// The branch ending the block.
    pub term: Terminator,
}

impl Block {
    /// Address of the terminator branch instruction.
    pub fn branch_pc(&self) -> u64 {
        self.start + u64::from(self.n_instr - 1) * INSTRUCTION_BYTES
    }

    /// Address of the instruction after the block (fall-through target).
    pub fn end(&self) -> u64 {
        self.start + u64::from(self.n_instr) * INSTRUCTION_BYTES
    }
}

/// A function: contiguous blocks, entered at block 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Entry address (== `blocks[0].start` once addresses are assigned).
    pub base: u64,
    /// Blocks in layout order.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Total code size in bytes.
    pub fn code_bytes(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| u64::from(b.n_instr) * INSTRUCTION_BYTES)
            .sum()
    }
}

/// A complete synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// All functions; indices are [`FuncId`]s.
    pub functions: Vec<Function>,
    /// The function where execution starts (its outer loop never exits).
    pub entry: FuncId,
}

impl Program {
    /// Lay the functions out in the text segment and fill in all block
    /// `start` addresses. Called once by the builder.
    pub fn assign_addresses(&mut self) {
        let mut cursor = TEXT_BASE;
        for f in &mut self.functions {
            cursor = (cursor + FUNC_ALIGN - 1) & !(FUNC_ALIGN - 1);
            f.base = cursor;
            for b in &mut f.blocks {
                b.start = cursor;
                cursor += u64::from(b.n_instr) * INSTRUCTION_BYTES;
            }
        }
    }

    /// Total instruction-footprint of the program in bytes.
    pub fn code_bytes(&self) -> u64 {
        self.functions.iter().map(Function::code_bytes).sum()
    }

    /// Instructions in the program's largest block (0 without blocks).
    ///
    /// A walk stops at the first record whose block reaches its budget,
    /// so a walk of budget `b > 0` executes between `b` and
    /// `b + largest_block() - 1` instructions.
    pub fn largest_block(&self) -> u32 {
        self.functions
            .iter()
            .flat_map(|f| &f.blocks)
            .map(|b| b.n_instr)
            .max()
            .unwrap_or(0)
    }

    /// Validate structural invariants; used by tests and debug assertions.
    ///
    /// Checks that every block target exists, every callee exists, blocks
    /// are non-empty, addresses are strictly increasing, and conditional
    /// fall-throughs stay in range.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.entry >= self.functions.len() {
            return Err(format!("entry function {} out of range", self.entry));
        }
        let mut prev_end = 0u64;
        for (fi, f) in self.functions.iter().enumerate() {
            if f.blocks.is_empty() {
                return Err(format!("function {fi} has no blocks"));
            }
            if f.base != f.blocks[0].start {
                return Err(format!("function {fi} base != first block start"));
            }
            for (bi, b) in f.blocks.iter().enumerate() {
                if b.n_instr == 0 {
                    return Err(format!("function {fi} block {bi} is empty"));
                }
                if b.start < prev_end {
                    return Err(format!("function {fi} block {bi} overlaps previous code"));
                }
                prev_end = b.end();
                let check_block = |t: BlockId| -> Result<(), String> {
                    if t >= f.blocks.len() {
                        Err(format!("function {fi} block {bi} targets bad block {t}"))
                    } else {
                        Ok(())
                    }
                };
                let check_func = |c: FuncId| -> Result<(), String> {
                    if c >= self.functions.len() {
                        Err(format!("function {fi} block {bi} calls bad function {c}"))
                    } else {
                        Ok(())
                    }
                };
                match &b.term {
                    Terminator::Cond { target, .. } => {
                        check_block(*target)?;
                        if bi + 1 >= f.blocks.len() {
                            return Err(format!(
                                "function {fi} block {bi}: conditional in last block has no fall-through"
                            ));
                        }
                    }
                    Terminator::Jump { target } => check_block(*target)?,
                    Terminator::Call { callee } => {
                        check_func(*callee)?;
                        if bi + 1 >= f.blocks.len() {
                            return Err(format!(
                                "function {fi} block {bi}: call in last block has no resume block"
                            ));
                        }
                    }
                    Terminator::IndirectCall { callees, .. } => {
                        if callees.is_empty() {
                            return Err(format!("function {fi} block {bi}: empty callee table"));
                        }
                        for c in callees {
                            check_func(*c)?;
                        }
                        if bi + 1 >= f.blocks.len() {
                            return Err(format!(
                                "function {fi} block {bi}: indirect call in last block has no resume block"
                            ));
                        }
                    }
                    Terminator::IndirectJump { targets, .. } => {
                        if targets.is_empty() {
                            return Err(format!("function {fi} block {bi}: empty jump table"));
                        }
                        for t in targets {
                            check_block(*t)?;
                        }
                    }
                    Terminator::Return => {}
                }
            }
        }
        Ok(())
    }
}

/// Pick from a slice according to a [`Select`] mode; `counter` carries
/// round-robin state across executions.
pub(crate) fn select_index(
    select: Select,
    len: usize,
    rng: &mut SmallRng,
    counter: &mut u32,
) -> usize {
    debug_assert!(len > 0);
    match select {
        Select::Random => rng.gen_range(0..len),
        Select::Rotate => {
            let i = (*counter as usize) % len;
            *counter = counter.wrapping_add(1);
            i
        }
        Select::Skewed => {
            if rng.gen_bool(0.75) || len == 1 {
                0
            } else {
                rng.gen_range(1..len)
            }
        }
        Select::LogUniform => {
            let u: f64 = rng.gen_range(0.0..1.0);
            let v = (len as f64 + 1.0).powf(u) - 1.0;
            // Truncation/sign-safe: v ∈ [0, len] by construction and is
            // clamped to [0, len-1] before the cast.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let i = v.clamp(0.0, (len - 1) as f64) as usize;
            i
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_program() -> Program {
        // f0: loop { call f1 } ; f1: straight-line, return.
        let f0 = Function {
            base: 0,
            blocks: vec![
                Block {
                    start: 0,
                    n_instr: 4,
                    term: Terminator::Call { callee: 1 },
                },
                Block {
                    start: 0,
                    n_instr: 2,
                    term: Terminator::Cond {
                        target: 0,
                        bias: Bias::AlwaysTaken,
                    },
                },
                Block {
                    start: 0,
                    n_instr: 1,
                    term: Terminator::Return,
                },
            ],
        };
        let f1 = Function {
            base: 0,
            blocks: vec![Block {
                start: 0,
                n_instr: 8,
                term: Terminator::Return,
            }],
        };
        let mut p = Program {
            functions: vec![f0, f1],
            entry: 0,
        };
        p.assign_addresses();
        p
    }

    #[test]
    fn addresses_are_assigned_contiguously_per_function() {
        let p = tiny_program();
        let f0 = &p.functions[0];
        assert_eq!(f0.base, TEXT_BASE);
        assert_eq!(f0.blocks[0].start, TEXT_BASE);
        assert_eq!(f0.blocks[1].start, TEXT_BASE + 16);
        assert_eq!(f0.blocks[2].start, TEXT_BASE + 24);
        // f1 is aligned to FUNC_ALIGN after f0's 28 bytes.
        let f1 = &p.functions[1];
        assert_eq!(f1.base % FUNC_ALIGN, 0);
        assert!(f1.base >= f0.blocks[2].end());
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(tiny_program().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_target() {
        let mut p = tiny_program();
        p.functions[0].blocks[1].term = Terminator::Jump { target: 99 };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_callee() {
        let mut p = tiny_program();
        p.functions[0].blocks[0].term = Terminator::Call { callee: 7 };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_cond_in_last_block() {
        let mut p = tiny_program();
        let f1 = &mut p.functions[1];
        f1.blocks[0].term = Terminator::Cond {
            target: 0,
            bias: Bias::TakenP(0.5),
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_block() {
        let mut p = tiny_program();
        p.functions[1].blocks[0].n_instr = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn branch_pc_is_last_slot() {
        let b = Block {
            start: 0x100,
            n_instr: 4,
            term: Terminator::Return,
        };
        assert_eq!(b.branch_pc(), 0x10c);
        assert_eq!(b.end(), 0x110);
    }

    #[test]
    fn code_bytes_sums_blocks() {
        let p = tiny_program();
        assert_eq!(p.functions[0].code_bytes(), (4 + 2 + 1) * 4);
        assert_eq!(p.code_bytes(), (4 + 2 + 1 + 8) * 4);
    }

    #[test]
    fn select_rotate_cycles() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut c = 0;
        let picks: Vec<usize> = (0..6)
            .map(|_| select_index(Select::Rotate, 3, &mut rng, &mut c))
            .collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn select_random_in_range() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut c = 0;
        for _ in 0..100 {
            let i = select_index(Select::Random, 5, &mut rng, &mut c);
            assert!(i < 5);
        }
    }

    #[test]
    fn select_skewed_prefers_zero() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut c = 0;
        let zeros = (0..1000)
            .filter(|_| select_index(Select::Skewed, 4, &mut rng, &mut c) == 0)
            .count();
        assert!(zeros > 600, "got {zeros} zeros out of 1000");
    }
}
