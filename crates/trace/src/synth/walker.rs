//! Program walker: executes a [`Program`] and emits the branch trace.

#![forbid(unsafe_code)]

use super::program::{select_index, Bias, BlockId, FuncId, Program, Terminator};
use crate::record::{BranchKind, BranchRecord, INSTRUCTION_BYTES};
use fe_cache::FastMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;

/// One activation record on the walker's call stack.
#[derive(Debug)]
struct Frame {
    func: FuncId,
    /// Block about to execute.
    block: BlockId,
    /// Return address (PC after the call instruction) and resume block in
    /// the caller. `None` for the entry frame.
    resume: Option<(u64, FuncId, BlockId)>,
    /// Remaining trip counts for counted loops, keyed by the latch block.
    /// Keyed access only (never iterated), so the deterministic
    /// [`FastMap`] hasher is safe and keeps the per-branch walk cheap.
    loop_state: FastMap<BlockId, u32>,
}

/// Maximum call depth; deeper calls are skipped (treated as executed but
/// not entered) to keep pathological generated graphs from overflowing.
const MAX_CALL_DEPTH: usize = 128;

/// Starting phase for a round-robin selector, derived from its branch PC.
/// Distinct dispatch sites rotating over the same pool start at staggered
/// offsets, so one request iteration touches several *distinct* handlers
/// instead of all sites calling the same one in lockstep.
fn rotation_offset(pc: u64) -> u32 {
    (pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as u32
}

thread_local! {
    /// Walks started on this thread (see [`walks_started`]).
    static WALKS: Cell<u64> = const { Cell::new(0) };
}

/// Walks ([`Walker::new`] calls) started on the calling thread so far.
///
/// A walk is the costliest way to read a trace; replay tests use this
/// count to check how often a simulation walks each trace.
pub fn walks_started() -> u64 {
    WALKS.with(Cell::get)
}

/// Executes a [`Program`], yielding one [`BranchRecord`] per executed
/// branch, until the instruction budget is exhausted.
///
/// The walker is deterministic for a given `(program, seed, budget)` triple.
#[derive(Debug)]
pub struct Walker<'p> {
    program: &'p Program,
    rng: SmallRng,
    stack: Vec<Frame>,
    /// Periodic-branch state, keyed by branch PC (keyed access only).
    alternation: FastMap<u64, u32>,
    /// Round-robin state for indirect selectors, keyed by branch PC
    /// (keyed access only).
    rotation: FastMap<u64, u32>,
    instructions: u64,
    budget: u64,
    finished: bool,
}

impl<'p> Walker<'p> {
    /// Create a walker over `program` emitting roughly `budget` instructions.
    ///
    /// # Panics
    ///
    /// Panics if the program fails [`Program::validate`] (debug builds only).
    pub fn new(program: &'p Program, seed: u64, budget: u64) -> Walker<'p> {
        debug_assert_eq!(program.validate(), Ok(()));
        WALKS.with(|w| w.set(w.get() + 1));
        Walker {
            program,
            rng: SmallRng::seed_from_u64(seed),
            stack: vec![Frame {
                func: program.entry,
                block: 0,
                resume: None,
                loop_state: FastMap::default(),
            }],
            alternation: FastMap::default(),
            rotation: FastMap::default(),
            instructions: 0,
            budget,
            finished: false,
        }
    }

    /// Instructions executed so far (sequential instructions implied by the
    /// emitted branch records, including the branches themselves).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    fn decide(&mut self, pc: u64, bias: Bias, frame_idx: usize, latch: BlockId) -> bool {
        match bias {
            Bias::TakenP(p) => self.rng.gen_bool(p.clamp(0.0, 1.0)),
            Bias::AlwaysTaken => true,
            Bias::Alternate { period } => {
                let c = self.alternation.entry(pc).or_insert(0);
                let taken = (*c / period.max(1)).is_multiple_of(2);
                *c = c.wrapping_add(1);
                taken
            }
            Bias::Loop { trips } => {
                let frame = &mut self.stack[frame_idx];
                let remaining = frame.loop_state.entry(latch).or_insert(trips);
                if *remaining > 0 {
                    *remaining -= 1;
                    true
                } else {
                    frame.loop_state.remove(&latch);
                    false
                }
            }
            Bias::LoopRandom { min, max } => {
                let trips = self.rng.gen_range(min..=max.max(min));
                let frame = &mut self.stack[frame_idx];
                let remaining = frame.loop_state.entry(latch).or_insert(trips);
                if *remaining > 0 {
                    *remaining -= 1;
                    true
                } else {
                    frame.loop_state.remove(&latch);
                    false
                }
            }
        }
    }
}

impl Iterator for Walker<'_> {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        if self.finished || self.instructions >= self.budget {
            self.finished = true;
            return None;
        }
        let frame_idx = self.stack.len() - 1;
        let (func_id, block_id) = {
            let f = &self.stack[frame_idx];
            (f.func, f.block)
        };
        let func = &self.program.functions[func_id];
        let block = &func.blocks[block_id];
        self.instructions += u64::from(block.n_instr);
        let pc = block.branch_pc();

        // Clone the cheap parts of the terminator we need; vectors in
        // indirect terminators are borrowed in place via the program.
        let record = match &block.term {
            Terminator::Cond { target, bias } => {
                let taken = self.decide(pc, *bias, frame_idx, block_id);
                let target_addr = func.blocks[*target].start;
                self.stack[frame_idx].block = if taken { *target } else { block_id + 1 };
                BranchRecord::new(pc, BranchKind::CondDirect, taken, target_addr)
            }
            Terminator::Jump { target } => {
                let target_addr = func.blocks[*target].start;
                self.stack[frame_idx].block = *target;
                BranchRecord::new(pc, BranchKind::UncondDirect, true, target_addr)
            }
            Terminator::IndirectJump { targets, select } => {
                let counter = self
                    .rotation
                    .entry(pc)
                    .or_insert_with(|| rotation_offset(pc));
                let i = select_index(*select, targets.len(), &mut self.rng, counter);
                let target = targets[i];
                let target_addr = func.blocks[target].start;
                self.stack[frame_idx].block = target;
                BranchRecord::new(pc, BranchKind::Indirect, true, target_addr)
            }
            Terminator::Call { callee } => {
                let callee = *callee;
                let target_addr = self.program.functions[callee].base;
                let ret_addr = pc + INSTRUCTION_BYTES;
                if self.stack.len() < MAX_CALL_DEPTH {
                    self.stack.push(Frame {
                        func: callee,
                        block: 0,
                        resume: Some((ret_addr, func_id, block_id + 1)),
                        loop_state: FastMap::default(),
                    });
                } else {
                    // Depth guard: skip the body, resume immediately.
                    self.stack[frame_idx].block = block_id + 1;
                }
                BranchRecord::new(pc, BranchKind::Call, true, target_addr)
            }
            Terminator::IndirectCall { callees, select } => {
                let counter = self
                    .rotation
                    .entry(pc)
                    .or_insert_with(|| rotation_offset(pc));
                let i = select_index(*select, callees.len(), &mut self.rng, counter);
                let callee = callees[i];
                let target_addr = self.program.functions[callee].base;
                let ret_addr = pc + INSTRUCTION_BYTES;
                if self.stack.len() < MAX_CALL_DEPTH {
                    self.stack.push(Frame {
                        func: callee,
                        block: 0,
                        resume: Some((ret_addr, func_id, block_id + 1)),
                        loop_state: FastMap::default(),
                    });
                } else {
                    self.stack[frame_idx].block = block_id + 1;
                }
                BranchRecord::new(pc, BranchKind::IndirectCall, true, target_addr)
            }
            Terminator::Return => {
                let frame = self.stack.pop().expect("walker stack never empty");
                if let Some((ret_addr, caller_func, caller_block)) = frame.resume {
                    let top = self.stack.last_mut().expect("caller frame present");
                    debug_assert_eq!(top.func, caller_func);
                    top.block = caller_block;
                    BranchRecord::new(pc, BranchKind::Return, true, ret_addr)
                } else {
                    // The entry function returned (generated programs
                    // avoid this, but be robust): restart the program.
                    self.stack.push(Frame {
                        func: self.program.entry,
                        block: 0,
                        resume: None,
                        loop_state: FastMap::default(),
                    });
                    let entry_addr = self.program.functions[self.program.entry].base;
                    BranchRecord::new(pc, BranchKind::Return, true, entry_addr)
                }
            }
        };
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::program::{Block, Function, Select};

    /// f0: b0 calls f1; b1 loops back to b0 3 times then continues; b2
    /// returns (entry return → restart).
    fn call_loop_program() -> Program {
        let f0 = Function {
            base: 0,
            blocks: vec![
                Block {
                    start: 0,
                    n_instr: 2,
                    term: Terminator::Call { callee: 1 },
                },
                Block {
                    start: 0,
                    n_instr: 3,
                    term: Terminator::Cond {
                        target: 0,
                        bias: Bias::Loop { trips: 3 },
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
                n_instr: 5,
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
    fn call_and_return_match() {
        let p = call_loop_program();
        let records: Vec<_> = Walker::new(&p, 1, 200).collect();
        let calls: Vec<_> = records
            .iter()
            .filter(|r| r.kind == BranchKind::Call)
            .collect();
        let rets: Vec<_> = records
            .iter()
            .filter(|r| r.kind == BranchKind::Return)
            .collect();
        assert!(!calls.is_empty());
        // Every non-restart return targets a call's return address.
        let call_rets: std::collections::HashSet<u64> =
            calls.iter().map(|c| c.pc + INSTRUCTION_BYTES).collect();
        let f0_entry = p.functions[0].base;
        for r in rets {
            assert!(
                call_rets.contains(&r.target) || r.target == f0_entry,
                "return to unknown address {:#x}",
                r.target
            );
        }
    }

    #[test]
    fn counted_loop_runs_exact_trips() {
        let p = call_loop_program();
        let records: Vec<_> = Walker::new(&p, 1, 120).collect();
        // The latch branch (block 1 of f0): taken 3 times, then not taken,
        // repeating on each entry-function restart.
        let latch_pc = p.functions[0].blocks[1].branch_pc();
        let outcomes: Vec<bool> = records
            .iter()
            .filter(|r| r.pc == latch_pc)
            .map(|r| r.taken)
            .collect();
        assert!(outcomes.len() >= 4);
        assert_eq!(&outcomes[..4], &[true, true, true, false]);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = call_loop_program();
        let a: Vec<_> = Walker::new(&p, 42, 500).collect();
        let b: Vec<_> = Walker::new(&p, 42, 500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_only_affect_random_choices() {
        // This program is fully deterministic (no random bias), so seeds
        // must not matter.
        let p = call_loop_program();
        let a: Vec<_> = Walker::new(&p, 1, 500).collect();
        let b: Vec<_> = Walker::new(&p, 2, 500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn budget_bounds_instructions() {
        let p = call_loop_program();
        let mut w = Walker::new(&p, 1, 1000);
        while w.next().is_some() {}
        let n = w.instructions();
        // May overshoot by at most one block.
        assert!((1000..1000 + 16).contains(&n), "instructions = {n}");
    }

    #[test]
    fn entry_return_restarts_program() {
        let p = call_loop_program();
        let records: Vec<_> = Walker::new(&p, 1, 400).collect();
        let f0_entry = p.functions[0].base;
        let restarts = records
            .iter()
            .filter(|r| r.kind == BranchKind::Return && r.target == f0_entry)
            .count();
        assert!(restarts >= 1, "entry function should restart");
    }

    #[test]
    fn indirect_jump_targets_all_reachable() {
        // One function: dispatch block with a 3-way switch, cases jump back.
        let f = Function {
            base: 0,
            blocks: vec![
                Block {
                    start: 0,
                    n_instr: 2,
                    term: Terminator::IndirectJump {
                        targets: vec![1, 2, 3],
                        select: Select::Rotate,
                    },
                },
                Block {
                    start: 0,
                    n_instr: 2,
                    term: Terminator::Jump { target: 0 },
                },
                Block {
                    start: 0,
                    n_instr: 4,
                    term: Terminator::Jump { target: 0 },
                },
                Block {
                    start: 0,
                    n_instr: 6,
                    term: Terminator::Jump { target: 0 },
                },
            ],
        };
        let mut p = Program {
            functions: vec![f],
            entry: 0,
        };
        p.assign_addresses();
        let records: Vec<_> = Walker::new(&p, 9, 300).collect();
        let switch_pc = p.functions[0].blocks[0].branch_pc();
        let targets: std::collections::HashSet<u64> = records
            .iter()
            .filter(|r| r.pc == switch_pc)
            .map(|r| r.target)
            .collect();
        assert_eq!(targets.len(), 3, "rotation must visit all cases");
    }

    #[test]
    fn alternate_bias_is_periodic() {
        let f = Function {
            base: 0,
            blocks: vec![
                Block {
                    start: 0,
                    n_instr: 1,
                    term: Terminator::Cond {
                        target: 0,
                        bias: Bias::Alternate { period: 2 },
                    },
                },
                Block {
                    start: 0,
                    n_instr: 1,
                    term: Terminator::Jump { target: 0 },
                },
            ],
        };
        let mut p = Program {
            functions: vec![f],
            entry: 0,
        };
        p.assign_addresses();
        let pc = p.functions[0].blocks[0].branch_pc();
        let outcomes: Vec<bool> = Walker::new(&p, 0, 40)
            .filter(|r| r.pc == pc)
            .map(|r| r.taken)
            .collect();
        assert!(outcomes.len() >= 8);
        assert_eq!(
            &outcomes[..8],
            &[true, true, false, false, true, true, false, false]
        );
    }
}
