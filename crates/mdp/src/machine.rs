//! The two-priority MDP machine executor.
//!
//! Semantics reproduced from the J-Machine (Section 1.1.2 of the paper):
//!
//! * Two complete priority levels, each with its own register set and
//!   message queue.
//! * "When a message arrives to the high-priority queue, low-priority
//!   computation is preempted" — here, at the next instruction boundary
//!   with interrupts enabled (the AM implementation's thread bodies run
//!   with interrupts disabled except at their tops, §2.2).
//! * "Message reception does not interrupt execution of a same-priority
//!   task; dispatch occurs when the task suspends."
//! * Hardware message buffering writes arriving words directly into queue
//!   memory (the top of the memory hierarchy).
//!
//! The machine halts explicitly (a completion inlet executes [`MOp::Halt`])
//! or quiesces when both queues are empty and the low-priority context has
//! suspended — on a uniprocessor no further work can ever arrive.

use crate::decode::{DOp, DOperand, DSendSrc, DecodedImage, INVALID_TARGET};
use crate::queue::{MessageQueue, MsgRef, DEFAULT_QUEUE_WORDS};
use crate::{AluOp, FAluOp};
use crate::{CodeImage, Hooks, MOp, Memory, Operand, Priority, Reg, SendSrc, Word};
use tamsim_trace::{Access, MemoryMap};

/// Addresses of the system-data structures derived from the configuration.
///
/// The runtime lowerings need these addresses at code-generation time, so
/// the layout is a pure function of the configuration rather than machine
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SysLayout {
    /// Base of the low-priority message queue.
    pub low_queue_base: u32,
    /// Base of the high-priority message queue.
    pub high_queue_base: u32,
    /// Base of OS globals (frame-queue head/tail, allocator bumps, the MD
    /// global LCV, scratch).
    pub globals_base: u32,
}

/// Machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// The address-space layout.
    pub map: MemoryMap,
    /// Queue capacities in words, indexed by [`Priority::index`].
    pub queue_words: [u32; 2],
    /// Maximum instructions to execute before aborting the run.
    pub fuel: u64,
    /// Mask applied to register-based load/store addresses before they
    /// reach memory and the trace. A single node uses the identity mask;
    /// a mesh node masks off the node-id bits of global frame and heap
    /// pointers (`tamsim-net` tags those addresses with their home node
    /// so the network interface can route on them, but each node's local
    /// memory is indexed by the untagged address).
    pub addr_mask: u32,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            map: MemoryMap::default(),
            queue_words: [DEFAULT_QUEUE_WORDS, DEFAULT_QUEUE_WORDS],
            fuel: 4_000_000_000,
            addr_mask: u32::MAX,
        }
    }
}

impl MachineConfig {
    /// Whether both queues (plus the globals word) fit inside the system
    /// data region. [`MachineConfig::sys_layout`] asserts this; queue
    /// auto-sizing drivers check it first so a gridlocked program aborts
    /// with a diagnosis instead of a layout panic.
    pub fn queues_fit(&self) -> bool {
        let words = self.queue_words[0] as u64 + self.queue_words[1] as u64;
        self.map.system_data_base as u64 + words * 4 < self.map.frame_base as u64
    }

    /// Compute the system-data layout implied by this configuration.
    pub fn sys_layout(&self) -> SysLayout {
        assert!(self.queues_fit(), "queues overflow system data region");
        let low = self.map.system_data_base;
        let high = low + self.queue_words[Priority::Low.index()] * 4;
        SysLayout {
            low_queue_base: low,
            high_queue_base: high,
            globals_base: high + self.queue_words[Priority::High.index()] * 4,
        }
    }
}

/// Why a run ended successfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// An explicit [`MOp::Halt`] was executed (normal completion).
    Explicit,
    /// Both queues drained and the low context suspended (quiescence; for a
    /// correct program this is also completion, for a buggy one deadlock).
    Quiescent,
}

/// Why a run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// A send found the target queue full; enlarge
    /// [`MachineConfig::queue_words`].
    QueueOverflow {
        /// Which queue overflowed.
        pri: Priority,
    },
    /// The instruction budget was exhausted (runaway program).
    FuelExhausted,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::QueueOverflow { pri } => {
                write!(f, "message queue overflow at priority {pri:?}")
            }
            RunError::FuelExhausted => write!(f, "instruction fuel exhausted"),
        }
    }
}

impl std::error::Error for RunError {}

/// The outcome of a single [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// One instruction executed.
    Ran,
    /// Nothing to do: both contexts suspended and both queues empty. On a
    /// uniprocessor this is quiescence; on a mesh, work may still arrive.
    Idle,
    /// A send found the network interface busy; nothing happened (no
    /// fetch, no counters, no pc change). Retry next cycle.
    Blocked,
    /// The machine executed [`MOp::Halt`] (or quiesced, for [`Machine::run`]).
    Halted(HaltReason),
}

/// Where a send's message went, as decided by a [`NetPort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The message targets this node: enqueue it locally, exactly as on a
    /// single-node machine.
    Local,
    /// The port accepted the message into the network; the machine counts
    /// the send but writes nothing into its own queue memory.
    Injected,
    /// The port cannot accept the message right now (network interface
    /// buffer full — back-pressure). The send stalls and retries.
    Busy,
}

/// A network interface the machine offers every `SEND` to.
///
/// The port sees the fully resolved message words *before* the machine
/// commits to the instruction: on [`RouteOutcome::Busy`] the send has no
/// side effects at all and will be re-offered next step.
pub trait NetPort {
    /// Route a `len`-word message sent at priority `pri`.
    fn route(&mut self, pri: Priority, words: &[Word]) -> RouteOutcome;
}

/// The single-node port: every message is local. [`Machine::run`] uses
/// this, making it bit-identical to the pre-mesh executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Loopback;

impl NetPort for Loopback {
    #[inline]
    fn route(&mut self, _pri: Priority, _words: &[Word]) -> RouteOutcome {
        RouteOutcome::Local
    }
}

/// Counters accumulated over one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Total instructions executed (also the base cycle count: the paper
    /// assumes one cycle per instruction before memory penalties).
    pub instructions: u64,
    /// Instructions by priority level.
    pub instructions_by_pri: [u64; 2],
    /// Message dispatches by priority level.
    pub dispatches: [u64; 2],
    /// Times high-priority work preempted running low-priority code.
    pub preemptions: u64,
    /// Send instructions executed.
    pub sends: u64,
    /// Total words sent.
    pub send_words: u64,
    /// Queue high-water marks in words, by priority.
    pub max_queue_words: [u32; 2],
    /// How the run ended.
    pub halt: HaltReason,
}

/// The machine: registers, memory, queues, and the execution loop.
pub struct Machine<'c> {
    cfg: MachineConfig,
    code: &'c CodeImage,
    /// Pre-decoded form of `code`; when attached, [`Machine::step`] and
    /// [`Machine::run`] use the threaded-code dispatch paths.
    decoded: Option<&'c DecodedImage>,
    /// Data memory (public so drivers can seed inputs and read results).
    pub mem: Memory,
    regs: [[Word; Reg::COUNT]; 2],
    queues: [MessageQueue; 2],
    cur_msg: [Option<MsgRef>; 2],
    high_pc: Option<u32>,
    low_pc: Option<u32>,
    ints_enabled: bool,
    /// Scratch for resolved send words (reused across sends so a stalled
    /// send costs no allocation per retry).
    send_buf: Vec<Word>,
    instructions: u64,
    instructions_by_pri: [u64; 2],
    dispatches: [u64; 2],
    preemptions: u64,
    sends: u64,
    send_words: u64,
}

impl<'c> Machine<'c> {
    /// A fresh machine over `code`.
    pub fn new(cfg: MachineConfig, code: &'c CodeImage) -> Self {
        let layout = cfg.sys_layout();
        Machine {
            mem: Memory::new(&cfg.map),
            regs: [[Word::ZERO; Reg::COUNT]; 2],
            queues: [
                MessageQueue::new(layout.low_queue_base, cfg.queue_words[0]),
                MessageQueue::new(layout.high_queue_base, cfg.queue_words[1]),
            ],
            cur_msg: [None, None],
            high_pc: None,
            low_pc: None,
            ints_enabled: true,
            send_buf: Vec::new(),
            instructions: 0,
            instructions_by_pri: [0, 0],
            dispatches: [0, 0],
            preemptions: 0,
            sends: 0,
            send_words: 0,
            cfg,
            code,
            decoded: None,
        }
    }

    /// Attach a pre-decoded image; subsequent [`Machine::step`] /
    /// [`Machine::run`] calls use the threaded-code dispatch paths
    /// (bit-identical to the baseline interpreter).
    ///
    /// # Panics
    /// Panics if `dec` was not decoded from a code image with the same
    /// region shape as this machine's.
    pub fn attach_decoded(&mut self, dec: &'c DecodedImage) {
        assert_eq!(
            dec.len(),
            self.code.sys_len() + self.code.user_len() + 2,
            "decoded image does not match the machine's code image"
        );
        self.decoded = Some(dec);
    }

    /// Whether a pre-decoded image is attached.
    pub fn is_decoded(&self) -> bool {
        self.decoded.is_some()
    }

    /// Read a register (tests and drivers).
    pub fn reg(&self, pri: Priority, r: Reg) -> Word {
        self.regs[pri.index()][r.index()]
    }

    /// Write a register (tests and drivers).
    pub fn set_reg(&mut self, pri: Priority, r: Reg, v: Word) {
        self.regs[pri.index()][r.index()] = v;
    }

    /// Inspect a queue (stats).
    pub fn queue(&self, pri: Priority) -> &MessageQueue {
        &self.queues[pri.index()]
    }

    /// Start the low-priority context at `addr` (the AM background
    /// scheduler); without this the low context boots suspended.
    pub fn start_low(&mut self, addr: u32) {
        self.low_pc = Some(addr);
    }

    /// Inject a boot message without generating trace events (machine
    /// setup, not program behaviour).
    pub fn inject(&mut self, pri: Priority, words: &[Word]) -> Result<(), RunError> {
        let q = &mut self.queues[pri.index()];
        let m = q
            .begin_enqueue(words.len() as u32)
            .ok_or(RunError::QueueOverflow { pri })?;
        for (i, w) in words.iter().enumerate() {
            let addr = q.addr_of(m.start, i as u32);
            self.mem.write(addr, *w);
        }
        Ok(())
    }

    fn dispatch<H: Hooks>(&mut self, pri: Priority, hooks: &mut H) {
        let q = &self.queues[pri.index()];
        let m = q.front().expect("dispatch from empty queue");
        let haddr = q.addr_of(m.start, 0);
        hooks.access(Access::read(haddr));
        let handler = self.mem.read(haddr).as_addr();
        self.cur_msg[pri.index()] = Some(m);
        self.dispatches[pri.index()] += 1;
        match pri {
            Priority::High => {
                if self.low_pc.is_some() {
                    self.preemptions += 1;
                }
                self.high_pc = Some(handler);
            }
            Priority::Low => self.low_pc = Some(handler),
        }
    }

    /// Write a message's words into queue memory, emitting one trace write
    /// per word (hardware buffering traffic; see the module docs).
    fn enqueue_words<H: Hooks>(
        &mut self,
        target: Priority,
        words: &[Word],
        hooks: &mut H,
    ) -> Result<(), RunError> {
        let m = self.queues[target.index()]
            .begin_enqueue(words.len() as u32)
            .ok_or(RunError::QueueOverflow { pri: target })?;
        for (i, w) in words.iter().enumerate() {
            let addr = self.queues[target.index()].addr_of(m.start, i as u32);
            self.mem.write(addr, *w);
            hooks.access(Access::write(addr));
        }
        Ok(())
    }

    /// Deliver an arriving network message into queue memory.
    ///
    /// Returns `false` without touching anything when the queue lacks
    /// space — the network interface holds the message and retries
    /// (back-pressure propagates to the sender; nothing is ever dropped).
    pub fn try_deliver<H: Hooks>(&mut self, pri: Priority, words: &[Word], hooks: &mut H) -> bool {
        self.enqueue_words(pri, words, hooks).is_ok()
    }

    /// The program counter of the `pri` context, or `None` when that
    /// context is suspended. External schedulers (mesh work stealing)
    /// inspect this to prove a machine is not mid-way through a system
    /// routine before mutating scheduler state behind its back.
    pub fn context_pc(&self, pri: Priority) -> Option<u32> {
        match pri {
            Priority::High => self.high_pc,
            Priority::Low => self.low_pc,
        }
    }

    /// Whether the low-priority context is suspended (no pc). A mesh
    /// network interface checks this on message arrival: a software
    /// scheduler that legitimately suspended when its run queue drained
    /// must be re-armed at its entry point, because new work from the
    /// network is invisible to the single-node quiescence rule.
    pub fn low_suspended(&self) -> bool {
        self.low_pc.is_none()
    }

    /// Whether both contexts are suspended and both queues empty: no step
    /// can make progress until a message arrives from outside.
    ///
    /// A machine has no internal timers, so an event-driven driver may skip
    /// an idle machine's steps without changing its behaviour: a step
    /// would return [`Step::Idle`] and touch nothing. Otherwise a step can
    /// do something *this* cycle (a context is live, a message is queued,
    /// or a blocked `SEND` must retry). A low-priority suspend is not a
    /// wake-up source by itself: the AM scheduler's re-arm condition is
    /// message arrival (the mesh NI checks [`Machine::low_suspended`] on
    /// delivery).
    pub fn is_idle(&self) -> bool {
        self.high_pc.is_none()
            && self.low_pc.is_none()
            && self.queues[0].is_empty()
            && self.queues[1].is_empty()
    }

    /// Message dispatches so far, by priority. A mesh driver snapshots
    /// this around a step to detect the free dispatch transition and
    /// attribute it to the message at the queue head (network tracing).
    pub fn dispatch_counts(&self) -> [u64; 2] {
        self.dispatches
    }

    /// Snapshot the run counters. [`Machine::run`] calls this internally;
    /// mesh drivers call it per node once the global clock stops.
    pub fn stats(&self, halt: HaltReason) -> RunStats {
        self.finish(halt)
    }

    fn finish(&self, halt: HaltReason) -> RunStats {
        RunStats {
            instructions: self.instructions,
            instructions_by_pri: self.instructions_by_pri,
            dispatches: self.dispatches,
            preemptions: self.preemptions,
            sends: self.sends,
            send_words: self.send_words,
            max_queue_words: [
                self.queues[0].max_used_words(),
                self.queues[1].max_used_words(),
            ],
            halt,
        }
    }

    /// Run until halt, quiescence, or error, streaming events into `hooks`.
    ///
    /// With a pre-decoded image attached this uses the batched
    /// threaded-code executor ([`Machine::run_decoded`]); otherwise it is
    /// exactly a [`Machine::step`] loop over the always-local [`Loopback`]
    /// port: on a single node every send loops straight back into the
    /// local queue, and idleness is quiescence (no further work can ever
    /// arrive). Both paths produce bit-identical results, statistics, and
    /// event streams.
    pub fn run<H: Hooks>(&mut self, hooks: &mut H) -> Result<RunStats, RunError> {
        match self.decoded {
            Some(dec) => self.run_decoded_inner(dec, hooks),
            None => self.run_baseline(hooks),
        }
    }

    /// The baseline (non-predecoded) run loop.
    pub fn run_baseline<H: Hooks>(&mut self, hooks: &mut H) -> Result<RunStats, RunError> {
        loop {
            match self.step_baseline(hooks, &mut Loopback)? {
                Step::Ran => {}
                Step::Idle => return Ok(self.finish(HaltReason::Quiescent)),
                Step::Halted(reason) => return Ok(self.finish(reason)),
                Step::Blocked => unreachable!("loopback port never blocks"),
            }
        }
    }

    /// Run the attached pre-decoded image to completion with batched
    /// straight-line dispatch.
    ///
    /// # Panics
    /// Panics if no decoded image is attached.
    pub fn run_decoded<H: Hooks>(&mut self, hooks: &mut H) -> Result<RunStats, RunError> {
        let dec = self
            .decoded
            .expect("run_decoded: no decoded image attached");
        self.run_decoded_inner(dec, hooks)
    }

    /// Execute one instruction, offering any `SEND` to `net` first.
    ///
    /// Free transitions — message dispatch and [`MOp::Mark`] — do not end
    /// the step: the machine keeps going until it executes one costed
    /// instruction ([`Step::Ran`]), runs out of work ([`Step::Idle`]),
    /// stalls on a busy network port ([`Step::Blocked`], zero side
    /// effects), or halts. One `Ran`/`Blocked` step is one machine cycle
    /// on the mesh's global clock.
    ///
    /// With a pre-decoded image attached this routes to
    /// [`Machine::step_decoded`], which preserves the
    /// one-costed-instruction-per-step contract exactly (fused
    /// superinstructions execute their first half only), so mesh drivers
    /// interleave decoded machines cycle-for-cycle like baseline ones.
    pub fn step<H: Hooks, N: NetPort>(
        &mut self,
        hooks: &mut H,
        net: &mut N,
    ) -> Result<Step, RunError> {
        match self.decoded {
            Some(dec) => self.step_decoded_inner(dec, hooks, net),
            None => self.step_baseline(hooks, net),
        }
    }

    /// One instruction through the pre-decoded dispatch path.
    ///
    /// # Panics
    /// Panics if no decoded image is attached.
    pub fn step_decoded<H: Hooks, N: NetPort>(
        &mut self,
        hooks: &mut H,
        net: &mut N,
    ) -> Result<Step, RunError> {
        let dec = self
            .decoded
            .expect("step_decoded: no decoded image attached");
        self.step_decoded_inner(dec, hooks, net)
    }

    /// One instruction through the baseline enum-walking interpreter.
    pub fn step_baseline<H: Hooks, N: NetPort>(
        &mut self,
        hooks: &mut H,
        net: &mut N,
    ) -> Result<Step, RunError> {
        loop {
            // Preemption / activation of high-priority work. High-priority
            // tasks are never preempted; low-priority tasks are preempted
            // only with interrupts enabled (or when suspended).
            if self.high_pc.is_none()
                && !self.queues[Priority::High.index()].is_empty()
                && (self.low_pc.is_none() || self.ints_enabled)
            {
                self.dispatch(Priority::High, hooks);
            }

            let (pri, pc) = match (self.high_pc, self.low_pc) {
                (Some(pc), _) => (Priority::High, pc),
                (None, Some(pc)) => (Priority::Low, pc),
                (None, None) => {
                    if !self.queues[Priority::Low.index()].is_empty() {
                        self.dispatch(Priority::Low, hooks);
                        continue;
                    }
                    return Ok(Step::Idle);
                }
            };

            let op = self.code.at(pc);
            let p = pri.index();

            if let MOp::Mark(m) = op {
                let frame = self.regs[p][Reg::FP.index()].bits() as u32;
                hooks.queue_sample([self.queues[0].used_words(), self.queues[1].used_words()]);
                hooks.mark(*m, frame, pri);
                self.set_pc(pri, pc + 4);
                continue;
            }

            // Sends resolve and route *before* the instruction is charged:
            // a busy port means the instruction has not happened yet — no
            // fetch, no counters, no pc change — and will retry verbatim.
            if let MOp::Send { pri: target, srcs } = op {
                let mut buf = std::mem::take(&mut self.send_buf);
                buf.clear();
                for s in srcs {
                    buf.push(match s {
                        SendSrc::Reg(r) => self.regs[p][r.index()],
                        SendSrc::Imm(w) => *w,
                    });
                }
                let outcome = net.route(*target, &buf);
                if outcome == RouteOutcome::Busy {
                    self.send_buf = buf;
                    return Ok(Step::Blocked);
                }
                hooks.access(Access::fetch(pc));
                hooks.instruction(pri, pc);
                self.instructions += 1;
                self.instructions_by_pri[p] += 1;
                if self.instructions > self.cfg.fuel {
                    self.send_buf = buf;
                    return Err(RunError::FuelExhausted);
                }
                if outcome == RouteOutcome::Local {
                    let res = self.enqueue_words(*target, &buf, hooks);
                    self.send_buf = buf;
                    res?;
                } else {
                    self.send_buf = buf;
                }
                self.sends += 1;
                self.send_words += srcs.len() as u64;
                self.set_pc(pri, pc + 4);
                return Ok(Step::Ran);
            }

            hooks.access(Access::fetch(pc));
            hooks.instruction(pri, pc);
            self.instructions += 1;
            self.instructions_by_pri[p] += 1;
            if self.instructions > self.cfg.fuel {
                return Err(RunError::FuelExhausted);
            }

            let mut next = pc + 4;
            match op {
                MOp::MovI { d, v } => self.regs[p][d.index()] = *v,
                MOp::Mov { d, s } => self.regs[p][d.index()] = self.regs[p][s.index()],
                MOp::Alu { op, d, a, b } => {
                    let a = self.regs[p][a.index()].as_i64();
                    let b = match b {
                        Operand::Reg(r) => self.regs[p][r.index()].as_i64(),
                        Operand::Imm(v) => *v,
                    };
                    self.regs[p][d.index()] = Word::from_i64(eval_alu(*op, a, b, pc));
                }
                MOp::FAlu { op, d, a, b } => {
                    let av = self.regs[p][a.index()];
                    let bv = self.regs[p][b.index()];
                    self.regs[p][d.index()] = eval_falu(*op, av, bv);
                }
                MOp::Ld { d, base, off } => {
                    let addr = offset_addr(self.regs[p][base.index()].as_addr(), *off)
                        & self.cfg.addr_mask;
                    hooks.access(Access::read(addr));
                    self.regs[p][d.index()] = self.mem.read(addr);
                }
                MOp::LdA { d, addr } => {
                    hooks.access(Access::read(*addr));
                    self.regs[p][d.index()] = self.mem.read(*addr);
                }
                MOp::St { s, base, off } => {
                    let addr = offset_addr(self.regs[p][base.index()].as_addr(), *off)
                        & self.cfg.addr_mask;
                    hooks.access(Access::write(addr));
                    self.mem.write(addr, self.regs[p][s.index()]);
                }
                MOp::StA { s, addr } => {
                    hooks.access(Access::write(*addr));
                    self.mem.write(*addr, self.regs[p][s.index()]);
                }
                MOp::LdMsg { d, idx } => {
                    let m = self.cur_msg[p].expect("LdMsg with no current message");
                    debug_assert!((*idx as u32) < m.len, "LdMsg index beyond message");
                    let addr = self.queues[p].addr_of(m.start, *idx as u32);
                    hooks.access(Access::read(addr));
                    self.regs[p][d.index()] = self.mem.read(addr);
                }
                MOp::LdMsgIdx { d, idx } => {
                    let m = self.cur_msg[p].expect("LdMsgIdx with no current message");
                    let i = self.regs[p][idx.index()].as_i64();
                    debug_assert!(
                        i >= 0 && (i as u32) < m.len,
                        "LdMsgIdx index beyond message"
                    );
                    let addr = self.queues[p].addr_of(m.start, i as u32);
                    hooks.access(Access::read(addr));
                    self.regs[p][d.index()] = self.mem.read(addr);
                }
                MOp::Br { t } => next = *t,
                MOp::Bz { c, t } => {
                    if !self.regs[p][c.index()].as_bool() {
                        next = *t;
                    }
                }
                MOp::Bnz { c, t } => {
                    if self.regs[p][c.index()].as_bool() {
                        next = *t;
                    }
                }
                MOp::Jr { s } => next = self.regs[p][s.index()].as_addr(),
                MOp::Call { t } => {
                    self.regs[p][Reg::LINK.index()] = Word::from_addr(pc + 4);
                    next = *t;
                }
                MOp::Ret => next = self.regs[p][Reg::LINK.index()].as_addr(),
                MOp::Suspend => {
                    if let Some(m) = self.cur_msg[p].take() {
                        self.queues[p].retire(m);
                    }
                    match pri {
                        Priority::High => self.high_pc = None,
                        Priority::Low => self.low_pc = None,
                    }
                    return Ok(Step::Ran);
                }
                MOp::EnableInt => self.ints_enabled = true,
                MOp::DisableInt => self.ints_enabled = false,
                MOp::Halt => return Ok(Step::Halted(HaltReason::Explicit)),
                MOp::Mark(_) | MOp::Send { .. } => unreachable!("handled above"),
            }
            self.set_pc(pri, next);
            return Ok(Step::Ran);
        }
    }

    /// One instruction through the decoded dispatch path.
    ///
    /// Mirrors [`Machine::step_baseline`] exactly — same preemption and
    /// dispatch rules, same hook order, same blocked-send rewind — but
    /// reads pre-decoded [`DOp`]s. Fused superinstructions execute their
    /// *first* half only (the second slot holds that instruction's own
    /// decoding), preserving the one-costed-instruction-per-step contract
    /// mesh drivers schedule by.
    fn step_decoded_inner<H: Hooks, N: NetPort>(
        &mut self,
        dec: &DecodedImage,
        hooks: &mut H,
        net: &mut N,
    ) -> Result<Step, RunError> {
        loop {
            if self.high_pc.is_none()
                && !self.queues[Priority::High.index()].is_empty()
                && (self.low_pc.is_none() || self.ints_enabled)
            {
                self.dispatch(Priority::High, hooks);
            }

            let (pri, pc) = match (self.high_pc, self.low_pc) {
                (Some(pc), _) => (Priority::High, pc),
                (None, Some(pc)) => (Priority::Low, pc),
                (None, None) => {
                    if !self.queues[Priority::Low.index()].is_empty() {
                        self.dispatch(Priority::Low, hooks);
                        continue;
                    }
                    return Ok(Step::Idle);
                }
            };

            let op = dec.op(dec.idx_of(pc));
            let p = pri.index();

            if let DOp::Wild { addr, .. } = op {
                // Sequential fall-through past a region end; the baseline
                // panics in `CodeImage::at` before emitting any event.
                dec.wild_jump(*addr);
            }

            if let DOp::Mark(m) = op {
                let frame = self.regs[p][Reg::FP.index()].bits() as u32;
                hooks.queue_sample([self.queues[0].used_words(), self.queues[1].used_words()]);
                hooks.mark(*m, frame, pri);
                self.set_pc(pri, pc + 4);
                continue;
            }

            if let DOp::Send { pri: target, sid } = op {
                let mut buf = std::mem::take(&mut self.send_buf);
                buf.clear();
                for s in dec.send_srcs(*sid) {
                    buf.push(match s {
                        DSendSrc::Reg(r) => self.regs[p][*r as usize & 15],
                        DSendSrc::Imm(w) => *w,
                    });
                }
                let outcome = net.route(*target, &buf);
                if outcome == RouteOutcome::Busy {
                    self.send_buf = buf;
                    return Ok(Step::Blocked);
                }
                hooks.access(Access::fetch(pc));
                hooks.instruction(pri, pc);
                self.instructions += 1;
                self.instructions_by_pri[p] += 1;
                if self.instructions > self.cfg.fuel {
                    self.send_buf = buf;
                    return Err(RunError::FuelExhausted);
                }
                let words = buf.len() as u64;
                if outcome == RouteOutcome::Local {
                    let res = self.enqueue_words(*target, &buf, hooks);
                    self.send_buf = buf;
                    res?;
                } else {
                    self.send_buf = buf;
                }
                self.sends += 1;
                self.send_words += words;
                self.set_pc(pri, pc + 4);
                return Ok(Step::Ran);
            }

            hooks.access(Access::fetch(pc));
            hooks.instruction(pri, pc);
            self.instructions += 1;
            self.instructions_by_pri[p] += 1;
            if self.instructions > self.cfg.fuel {
                return Err(RunError::FuelExhausted);
            }

            let mut next = pc + 4;
            match op {
                DOp::MovI { d, v } => self.regs[p][*d as usize & 15] = *v,
                DOp::Mov { d, s } => {
                    self.regs[p][*d as usize & 15] = self.regs[p][*s as usize & 15]
                }
                DOp::AluRR { op, d, a, b } => {
                    let av = self.regs[p][*a as usize & 15].as_i64();
                    let bv = self.regs[p][*b as usize & 15].as_i64();
                    self.regs[p][*d as usize & 15] = Word::from_i64(eval_alu(*op, av, bv, pc));
                }
                DOp::AluRI { op, d, a, imm } => {
                    let av = self.regs[p][*a as usize & 15].as_i64();
                    self.regs[p][*d as usize & 15] = Word::from_i64(eval_alu(*op, av, *imm, pc));
                }
                DOp::FAlu { op, d, a, b } => {
                    let av = self.regs[p][*a as usize & 15];
                    let bv = self.regs[p][*b as usize & 15];
                    self.regs[p][*d as usize & 15] = eval_falu(*op, av, bv);
                }
                DOp::Ld { d, base, off } => {
                    let addr = offset_addr(self.regs[p][*base as usize & 15].as_addr(), *off)
                        & self.cfg.addr_mask;
                    hooks.access(Access::read(addr));
                    self.regs[p][*d as usize & 15] = self.mem.read(addr);
                }
                DOp::LdA { d, addr } => {
                    hooks.access(Access::read(*addr));
                    self.regs[p][*d as usize & 15] = self.mem.read(*addr);
                }
                DOp::St { s, base, off } => {
                    let addr = offset_addr(self.regs[p][*base as usize & 15].as_addr(), *off)
                        & self.cfg.addr_mask;
                    hooks.access(Access::write(addr));
                    self.mem.write(addr, self.regs[p][*s as usize & 15]);
                }
                DOp::StA { s, addr } => {
                    hooks.access(Access::write(*addr));
                    self.mem.write(*addr, self.regs[p][*s as usize & 15]);
                }
                DOp::LdMsg { d, idx } => {
                    let m = self.cur_msg[p].expect("LdMsg with no current message");
                    debug_assert!((*idx as u32) < m.len, "LdMsg index beyond message");
                    let addr = self.queues[p].addr_of(m.start, *idx as u32);
                    hooks.access(Access::read(addr));
                    self.regs[p][*d as usize & 15] = self.mem.read(addr);
                }
                DOp::LdMsgIdx { d, idx } => {
                    let m = self.cur_msg[p].expect("LdMsgIdx with no current message");
                    let i = self.regs[p][*idx as usize & 15].as_i64();
                    debug_assert!(
                        i >= 0 && (i as u32) < m.len,
                        "LdMsgIdx index beyond message"
                    );
                    let addr = self.queues[p].addr_of(m.start, i as u32);
                    hooks.access(Access::read(addr));
                    self.regs[p][*d as usize & 15] = self.mem.read(addr);
                }
                DOp::Br { t, .. } => next = *t,
                DOp::Bz { c, t, .. } => {
                    if !self.regs[p][*c as usize & 15].as_bool() {
                        next = *t;
                    }
                }
                DOp::Bnz { c, t, .. } => {
                    if self.regs[p][*c as usize & 15].as_bool() {
                        next = *t;
                    }
                }
                DOp::Jr { s } => next = self.regs[p][*s as usize & 15].as_addr(),
                DOp::Call { t, .. } => {
                    self.regs[p][Reg::LINK.index()] = Word::from_addr(pc + 4);
                    next = *t;
                }
                DOp::Ret => next = self.regs[p][Reg::LINK.index()].as_addr(),
                DOp::Suspend => {
                    if let Some(m) = self.cur_msg[p].take() {
                        self.queues[p].retire(m);
                    }
                    match pri {
                        Priority::High => self.high_pc = None,
                        Priority::Low => self.low_pc = None,
                    }
                    return Ok(Step::Ran);
                }
                DOp::EnableInt => self.ints_enabled = true,
                DOp::DisableInt => self.ints_enabled = false,
                DOp::Halt => return Ok(Step::Halted(HaltReason::Explicit)),
                // Fused superinstructions: first half only in step mode.
                DOp::CmpBr { op, d, a, b, .. } => {
                    let av = self.regs[p][*a as usize & 15].as_i64();
                    let bv = match b {
                        DOperand::Reg(r) => self.regs[p][*r as usize & 15].as_i64(),
                        DOperand::Imm(v) => *v,
                    };
                    self.regs[p][*d as usize & 15] = Word::from_i64(eval_alu(*op, av, bv, pc));
                }
                DOp::LdAlu {
                    ld_d, base, off, ..
                } => {
                    let addr = offset_addr(self.regs[p][*base as usize & 15].as_addr(), *off)
                        & self.cfg.addr_mask;
                    hooks.access(Access::read(addr));
                    self.regs[p][*ld_d as usize & 15] = self.mem.read(addr);
                }
                DOp::MovISt { d, v, .. } => self.regs[p][*d as usize & 15] = *v,
                DOp::Mark(_) | DOp::Send { .. } | DOp::Wild { .. } => {
                    unreachable!("handled above")
                }
            }
            self.set_pc(pri, next);
            return Ok(Step::Ran);
        }
    }

    /// The batched decoded run loop (single node, always-local sends).
    ///
    /// Straight-line stretches execute without returning to the outer
    /// dispatch loop; their instruction fetches and ticks are emitted as
    /// one [`Hooks::fetch_run`] batch whose default expansion is exactly
    /// the per-instruction stream. The batch is flushed before anything
    /// the stream orders against — data accesses, marks, control
    /// transfers, suspension, errors — so every hook implementation
    /// observes the events of the baseline interpreter in the baseline
    /// order.
    ///
    /// Only `SEND` (high priority), `EnableInt`, `Suspend`, and `Halt` can
    /// change the outer loop's preemption/dispatch decision on a single
    /// node, so those are the only ops that end a batch early; everything
    /// else keeps streaming.
    fn run_decoded_inner<H: Hooks>(
        &mut self,
        dec: &DecodedImage,
        hooks: &mut H,
    ) -> Result<RunStats, RunError> {
        'outer: loop {
            if self.high_pc.is_none()
                && !self.queues[Priority::High.index()].is_empty()
                && (self.low_pc.is_none() || self.ints_enabled)
            {
                self.dispatch(Priority::High, hooks);
            }

            let (pri, pc) = match (self.high_pc, self.low_pc) {
                (Some(pc), _) => (Priority::High, pc),
                (None, Some(pc)) => (Priority::Low, pc),
                (None, None) => {
                    if !self.queues[Priority::Low.index()].is_empty() {
                        self.dispatch(Priority::Low, hooks);
                        continue;
                    }
                    return Ok(self.finish(HaltReason::Quiescent));
                }
            };

            let p = pri.index();
            let mut idx = dec.idx_of(pc);
            // `cur_pc` is the address of the op at `idx`; `pend` counts
            // already-executed ops whose fetch/tick events are still
            // pending. Batches are contiguous, so the pending run starts
            // at `cur_pc - pend * 4` (or includes `cur_pc` when flushed
            // via `flush_incl`).
            let mut cur_pc = pc;
            let mut pend: u32 = 0;

            // Charge one instruction at address `$at`; on fuel exhaustion
            // emit the failing op's fetch+tick (batched), park the pc on
            // it, and error with no effects applied — exactly baseline.
            macro_rules! charge {
                ($at:expr) => {
                    self.instructions += 1;
                    self.instructions_by_pri[p] += 1;
                    if self.instructions > self.cfg.fuel {
                        pend += 1;
                        hooks.fetch_run(pri, $at - (pend - 1) * 4, pend);
                        self.set_pc(pri, $at);
                        return Err(RunError::FuelExhausted);
                    }
                };
            }
            // Flush the pending batch *including* the op at `$at` (its
            // fetch/tick must precede whatever comes next: a data event,
            // a control transfer, or an error).
            macro_rules! flush_incl {
                ($at:expr) => {
                    pend += 1;
                    hooks.fetch_run(pri, $at - (pend - 1) * 4, pend);
                    #[allow(unused_assignments)]
                    {
                        pend = 0;
                    }
                };
            }
            // Flush the pending batch *excluding* the current op (marks
            // and guards emit no fetch of their own).
            macro_rules! flush_before {
                () => {
                    if pend > 0 {
                        hooks.fetch_run(pri, cur_pc - pend * 4, pend);
                        #[allow(unused_assignments)]
                        {
                            pend = 0;
                        }
                    }
                };
            }

            loop {
                match dec.op(idx) {
                    DOp::MovI { d, v } => {
                        charge!(cur_pc);
                        self.regs[p][*d as usize & 15] = *v;
                        pend += 1;
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::Mov { d, s } => {
                        charge!(cur_pc);
                        self.regs[p][*d as usize & 15] = self.regs[p][*s as usize & 15];
                        pend += 1;
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::AluRR { op, d, a, b } => {
                        charge!(cur_pc);
                        let av = self.regs[p][*a as usize & 15].as_i64();
                        let bv = self.regs[p][*b as usize & 15].as_i64();
                        if matches!(op, AluOp::Div | AluOp::Rem) {
                            // Flush first so a divide-by-zero panic leaves
                            // the delivered stream exactly as baseline.
                            flush_incl!(cur_pc);
                            self.set_pc(pri, cur_pc);
                            self.regs[p][*d as usize & 15] =
                                Word::from_i64(eval_alu(*op, av, bv, cur_pc));
                        } else {
                            self.regs[p][*d as usize & 15] =
                                Word::from_i64(eval_alu(*op, av, bv, cur_pc));
                            pend += 1;
                        }
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::AluRI { op, d, a, imm } => {
                        charge!(cur_pc);
                        let av = self.regs[p][*a as usize & 15].as_i64();
                        if matches!(op, AluOp::Div | AluOp::Rem) {
                            flush_incl!(cur_pc);
                            self.set_pc(pri, cur_pc);
                            self.regs[p][*d as usize & 15] =
                                Word::from_i64(eval_alu(*op, av, *imm, cur_pc));
                        } else {
                            self.regs[p][*d as usize & 15] =
                                Word::from_i64(eval_alu(*op, av, *imm, cur_pc));
                            pend += 1;
                        }
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::FAlu { op, d, a, b } => {
                        charge!(cur_pc);
                        let av = self.regs[p][*a as usize & 15];
                        let bv = self.regs[p][*b as usize & 15];
                        self.regs[p][*d as usize & 15] = eval_falu(*op, av, bv);
                        pend += 1;
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::Ld { d, base, off } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        let addr = offset_addr(self.regs[p][*base as usize & 15].as_addr(), *off)
                            & self.cfg.addr_mask;
                        hooks.access(Access::read(addr));
                        self.regs[p][*d as usize & 15] = self.mem.read(addr);
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::LdA { d, addr } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        hooks.access(Access::read(*addr));
                        self.regs[p][*d as usize & 15] = self.mem.read(*addr);
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::St { s, base, off } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        let addr = offset_addr(self.regs[p][*base as usize & 15].as_addr(), *off)
                            & self.cfg.addr_mask;
                        hooks.access(Access::write(addr));
                        self.mem.write(addr, self.regs[p][*s as usize & 15]);
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::StA { s, addr } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        hooks.access(Access::write(*addr));
                        self.mem.write(*addr, self.regs[p][*s as usize & 15]);
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::LdMsg { d, idx: wi } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        let m = self.cur_msg[p].expect("LdMsg with no current message");
                        debug_assert!((*wi as u32) < m.len, "LdMsg index beyond message");
                        let addr = self.queues[p].addr_of(m.start, *wi as u32);
                        hooks.access(Access::read(addr));
                        self.regs[p][*d as usize & 15] = self.mem.read(addr);
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::LdMsgIdx { d, idx: wi } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        let m = self.cur_msg[p].expect("LdMsgIdx with no current message");
                        let i = self.regs[p][*wi as usize & 15].as_i64();
                        debug_assert!(
                            i >= 0 && (i as u32) < m.len,
                            "LdMsgIdx index beyond message"
                        );
                        let addr = self.queues[p].addr_of(m.start, i as u32);
                        hooks.access(Access::read(addr));
                        self.regs[p][*d as usize & 15] = self.mem.read(addr);
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::Br { ti, t } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        if *ti == INVALID_TARGET {
                            self.set_pc(pri, *t);
                            dec.wild_jump(*t);
                        }
                        idx = *ti;
                        cur_pc = *t;
                    }
                    DOp::Bz { c, ti, t } => {
                        charge!(cur_pc);
                        if !self.regs[p][*c as usize & 15].as_bool() {
                            flush_incl!(cur_pc);
                            if *ti == INVALID_TARGET {
                                self.set_pc(pri, *t);
                                dec.wild_jump(*t);
                            }
                            idx = *ti;
                            cur_pc = *t;
                        } else {
                            pend += 1;
                            idx += 1;
                            cur_pc += 4;
                        }
                    }
                    DOp::Bnz { c, ti, t } => {
                        charge!(cur_pc);
                        if self.regs[p][*c as usize & 15].as_bool() {
                            flush_incl!(cur_pc);
                            if *ti == INVALID_TARGET {
                                self.set_pc(pri, *t);
                                dec.wild_jump(*t);
                            }
                            idx = *ti;
                            cur_pc = *t;
                        } else {
                            pend += 1;
                            idx += 1;
                            cur_pc += 4;
                        }
                    }
                    DOp::Jr { s } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        let t = self.regs[p][*s as usize & 15].as_addr();
                        match dec.try_idx(t) {
                            Some(i) => {
                                idx = i;
                                cur_pc = t;
                            }
                            None => {
                                self.set_pc(pri, t);
                                dec.wild_jump(t);
                            }
                        }
                    }
                    DOp::Call { ti, t } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        self.regs[p][Reg::LINK.index()] = Word::from_addr(cur_pc + 4);
                        if *ti == INVALID_TARGET {
                            self.set_pc(pri, *t);
                            dec.wild_jump(*t);
                        }
                        idx = *ti;
                        cur_pc = *t;
                    }
                    DOp::Ret => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        let t = self.regs[p][Reg::LINK.index()].as_addr();
                        match dec.try_idx(t) {
                            Some(i) => {
                                idx = i;
                                cur_pc = t;
                            }
                            None => {
                                self.set_pc(pri, t);
                                dec.wild_jump(t);
                            }
                        }
                    }
                    DOp::Send { pri: target, sid } => {
                        // Single node: the loopback port routes every
                        // message locally, so no Busy rewind can occur.
                        let mut buf = std::mem::take(&mut self.send_buf);
                        buf.clear();
                        for s in dec.send_srcs(*sid) {
                            buf.push(match s {
                                DSendSrc::Reg(r) => self.regs[p][*r as usize & 15],
                                DSendSrc::Imm(w) => *w,
                            });
                        }
                        self.instructions += 1;
                        self.instructions_by_pri[p] += 1;
                        if self.instructions > self.cfg.fuel {
                            self.send_buf = buf;
                            pend += 1;
                            hooks.fetch_run(pri, cur_pc - (pend - 1) * 4, pend);
                            self.set_pc(pri, cur_pc);
                            return Err(RunError::FuelExhausted);
                        }
                        flush_incl!(cur_pc);
                        let res = self.enqueue_words(*target, &buf, hooks);
                        let words = buf.len() as u64;
                        self.send_buf = buf;
                        if let Err(e) = res {
                            self.set_pc(pri, cur_pc);
                            return Err(e);
                        }
                        self.sends += 1;
                        self.send_words += words;
                        self.set_pc(pri, cur_pc + 4);
                        if *target == Priority::High {
                            // New high-priority work: re-run the outer
                            // preemption/dispatch check.
                            continue 'outer;
                        }
                        // A low send cannot change the preemption decision
                        // while this context runs; keep streaming.
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::Suspend => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        if let Some(m) = self.cur_msg[p].take() {
                            self.queues[p].retire(m);
                        }
                        match pri {
                            Priority::High => self.high_pc = None,
                            Priority::Low => self.low_pc = None,
                        }
                        continue 'outer;
                    }
                    DOp::EnableInt => {
                        charge!(cur_pc);
                        self.ints_enabled = true;
                        pend += 1;
                        if self.high_pc.is_none() && !self.queues[Priority::High.index()].is_empty()
                        {
                            // Preemption just became possible.
                            hooks.fetch_run(pri, cur_pc - (pend - 1) * 4, pend);
                            self.set_pc(pri, cur_pc + 4);
                            continue 'outer;
                        }
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::DisableInt => {
                        charge!(cur_pc);
                        self.ints_enabled = false;
                        pend += 1;
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::Halt => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        self.set_pc(pri, cur_pc);
                        return Ok(self.finish(HaltReason::Explicit));
                    }
                    DOp::Mark(m) => {
                        flush_before!();
                        let frame = self.regs[p][Reg::FP.index()].bits() as u32;
                        hooks.queue_sample([
                            self.queues[0].used_words(),
                            self.queues[1].used_words(),
                        ]);
                        hooks.mark(*m, frame, pri);
                        idx += 1;
                        cur_pc += 4;
                        // The pending run restarts after the mark; marks
                        // emit no fetch so the batch cannot span one.
                    }
                    DOp::CmpBr {
                        op,
                        d,
                        a,
                        b,
                        bnz,
                        ti,
                        t,
                    } => {
                        // ALU half.
                        charge!(cur_pc);
                        let av = self.regs[p][*a as usize & 15].as_i64();
                        let bv = match b {
                            DOperand::Reg(r) => self.regs[p][*r as usize & 15].as_i64(),
                            DOperand::Imm(v) => *v,
                        };
                        self.regs[p][*d as usize & 15] =
                            Word::from_i64(eval_alu(*op, av, bv, cur_pc));
                        pend += 1;
                        // Branch half at cur_pc + 4.
                        charge!(cur_pc + 4);
                        if self.regs[p][*d as usize & 15].as_bool() == *bnz {
                            pend += 1;
                            hooks.fetch_run(pri, (cur_pc + 4) - (pend - 1) * 4, pend);
                            pend = 0;
                            if *ti == INVALID_TARGET {
                                self.set_pc(pri, *t);
                                dec.wild_jump(*t);
                            }
                            idx = *ti;
                            cur_pc = *t;
                        } else {
                            pend += 1;
                            idx += 2;
                            cur_pc += 8;
                        }
                    }
                    DOp::LdAlu {
                        ld_d,
                        base,
                        off,
                        op,
                        d,
                        a,
                        b,
                    } => {
                        // Load half.
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        let addr = offset_addr(self.regs[p][*base as usize & 15].as_addr(), *off)
                            & self.cfg.addr_mask;
                        hooks.access(Access::read(addr));
                        self.regs[p][*ld_d as usize & 15] = self.mem.read(addr);
                        // ALU half at cur_pc + 4 (never Div/Rem).
                        charge!(cur_pc + 4);
                        let av = self.regs[p][*a as usize & 15].as_i64();
                        let bv = match b {
                            DOperand::Reg(r) => self.regs[p][*r as usize & 15].as_i64(),
                            DOperand::Imm(v) => *v,
                        };
                        self.regs[p][*d as usize & 15] =
                            Word::from_i64(eval_alu(*op, av, bv, cur_pc + 4));
                        pend += 1;
                        idx += 2;
                        cur_pc += 8;
                    }
                    DOp::MovISt { d, v, base, off } => {
                        // MovI half.
                        charge!(cur_pc);
                        self.regs[p][*d as usize & 15] = *v;
                        pend += 1;
                        // Store half at cur_pc + 4.
                        charge!(cur_pc + 4);
                        flush_incl!(cur_pc + 4);
                        let addr = offset_addr(self.regs[p][*base as usize & 15].as_addr(), *off)
                            & self.cfg.addr_mask;
                        hooks.access(Access::write(addr));
                        self.mem.write(addr, self.regs[p][*d as usize & 15]);
                        idx += 2;
                        cur_pc += 8;
                    }
                    DOp::Wild { addr, .. } => {
                        flush_before!();
                        self.set_pc(pri, *addr);
                        dec.wild_jump(*addr);
                    }
                }
            }
        }
    }

    #[inline]
    fn set_pc(&mut self, pri: Priority, pc: u32) {
        match pri {
            Priority::High => self.high_pc = Some(pc),
            Priority::Low => self.low_pc = Some(pc),
        }
    }
}

#[inline]
fn offset_addr(base: u32, off: i32) -> u32 {
    (base as i64 + off as i64) as u32
}

fn eval_alu(op: AluOp, a: i64, b: i64, pc: u32) -> i64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            assert!(b != 0, "division by zero at pc {pc:#x}");
            a.wrapping_div(b)
        }
        AluOp::Rem => {
            assert!(b != 0, "remainder by zero at pc {pc:#x}");
            a.wrapping_rem(b)
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b as u32),
        AluOp::Shr => a.wrapping_shr(b as u32),
        AluOp::Eq => (a == b) as i64,
        AluOp::Ne => (a != b) as i64,
        AluOp::Lt => (a < b) as i64,
        AluOp::Le => (a <= b) as i64,
        AluOp::Gt => (a > b) as i64,
        AluOp::Ge => (a >= b) as i64,
        AluOp::Min => a.min(b),
        AluOp::Max => a.max(b),
    }
}

fn eval_falu(op: FAluOp, a: Word, b: Word) -> Word {
    match op {
        FAluOp::FAdd => Word::from_f64(a.as_f64() + b.as_f64()),
        FAluOp::FSub => Word::from_f64(a.as_f64() - b.as_f64()),
        FAluOp::FMul => Word::from_f64(a.as_f64() * b.as_f64()),
        FAluOp::FDiv => Word::from_f64(a.as_f64() / b.as_f64()),
        FAluOp::FLt => Word::from_bool(a.as_f64() < b.as_f64()),
        FAluOp::FLe => Word::from_bool(a.as_f64() <= b.as_f64()),
        FAluOp::FEq => Word::from_bool(a.as_f64() == b.as_f64()),
        FAluOp::ItoF => Word::from_f64(a.as_i64() as f64),
        FAluOp::FtoI => Word::from_i64(a.as_f64() as i64),
        FAluOp::FNeg => Word::from_f64(-a.as_f64()),
        FAluOp::FAbs => Word::from_f64(a.as_f64().abs()),
        FAluOp::FMin => Word::from_f64(a.as_f64().min(b.as_f64())),
        FAluOp::FMax => Word::from_f64(a.as_f64().max(b.as_f64())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{NoHooks, SinkHooks};
    use crate::Mark;
    use tamsim_trace::{AccessKind, VecSink};

    fn map() -> MemoryMap {
        MemoryMap::default()
    }

    /// Build a code image whose user code is `ops`, starting at user base.
    fn user_image(ops: Vec<MOp>) -> (CodeImage, u32) {
        let mut img = CodeImage::new(&map());
        let entry = img.next_user();
        for op in ops {
            img.push_user(op);
        }
        (img, entry)
    }

    fn run_user(ops: Vec<MOp>) -> (RunStats, Vec<tamsim_trace::Access>) {
        let (img, entry) = user_image(ops);
        let mut m = Machine::new(MachineConfig::default(), &img);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        let stats = m.run(&mut hooks).expect("run failed");
        (stats, hooks.0.events)
    }

    #[test]
    fn straight_line_arithmetic_and_halt() {
        let (img, entry) = user_image(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(6),
            },
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(7),
            },
            MOp::Alu {
                op: AluOp::Mul,
                d: Reg(2),
                a: Reg(0),
                b: Operand::Reg(Reg(1)),
            },
            MOp::Halt,
        ]);
        let mut m = Machine::new(MachineConfig::default(), &img);
        m.start_low(entry);
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(stats.instructions, 4);
        assert_eq!(stats.halt, HaltReason::Explicit);
        assert_eq!(m.reg(Priority::Low, Reg(2)).as_i64(), 42);
    }

    #[test]
    fn every_instruction_emits_one_fetch() {
        let (_stats, events) = run_user(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(1),
            },
            MOp::Mov {
                d: Reg(1),
                s: Reg(0),
            },
            MOp::Halt,
        ]);
        let fetches: Vec<_> = events
            .iter()
            .filter(|a| a.kind == AccessKind::Fetch)
            .collect();
        assert_eq!(fetches.len(), 3);
        // Sequential addresses 4 bytes apart.
        assert_eq!(fetches[1].addr, fetches[0].addr + 4);
        assert_eq!(fetches[2].addr, fetches[1].addr + 4);
    }

    #[test]
    fn loads_and_stores_touch_memory_and_trace() {
        let fb = map().frame_base;
        let (stats, events) = run_user(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_addr(fb),
            },
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(99),
            },
            MOp::St {
                s: Reg(1),
                base: Reg(0),
                off: 8,
            },
            MOp::Ld {
                d: Reg(2),
                base: Reg(0),
                off: 8,
            },
            MOp::Halt,
        ]);
        assert_eq!(stats.instructions, 5);
        assert!(events.contains(&Access::write(fb + 8)));
        assert!(events.contains(&Access::read(fb + 8)));
    }

    #[test]
    fn branches_and_loop() {
        // Sum 1..=5 with a loop.
        let ub = map().user_code_base;
        let (img, entry) = user_image(vec![
            /* 0 */
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(0),
            }, // acc
            /* 1 */
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(5),
            }, // i
            /* 2 */
            MOp::Alu {
                op: AluOp::Add,
                d: Reg(0),
                a: Reg(0),
                b: Operand::Reg(Reg(1)),
            },
            /* 3 */
            MOp::Alu {
                op: AluOp::Sub,
                d: Reg(1),
                a: Reg(1),
                b: Operand::Imm(1),
            },
            /* 4 */
            MOp::Bnz {
                c: Reg(1),
                t: ub + 2 * 4,
            },
            /* 5 */ MOp::Halt,
        ]);
        let mut m = Machine::new(MachineConfig::default(), &img);
        m.start_low(entry);
        m.run(&mut NoHooks).unwrap();
        assert_eq!(m.reg(Priority::Low, Reg(0)).as_i64(), 15);
    }

    #[test]
    fn call_and_ret_use_link_register() {
        let ub = map().user_code_base;
        let (img, entry) = user_image(vec![
            /* 0 */ MOp::Call { t: ub + 3 * 4 },
            /* 1 */
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(2),
            },
            /* 2 */ MOp::Halt,
            /* 3: callee */
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(1),
            },
            /* 4 */ MOp::Ret,
        ]);
        let mut m = Machine::new(MachineConfig::default(), &img);
        m.start_low(entry);
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(m.reg(Priority::Low, Reg(0)).as_i64(), 1);
        assert_eq!(m.reg(Priority::Low, Reg(1)).as_i64(), 2);
        assert_eq!(stats.instructions, 5);
    }

    #[test]
    fn dispatch_runs_handler_and_quiesces() {
        // Handler: read message arg, store to frame, suspend.
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let handler = img.next_user();
        img.push_user(MOp::LdMsg { d: Reg(0), idx: 1 });
        img.push_user(MOp::MovI {
            d: Reg(1),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::St {
            s: Reg(0),
            base: Reg(1),
            off: 0,
        });
        img.push_user(MOp::Suspend);
        let mut m = Machine::new(MachineConfig::default(), &img);
        m.inject(
            Priority::Low,
            &[Word::from_addr(handler), Word::from_i64(17)],
        )
        .unwrap();
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(stats.halt, HaltReason::Quiescent);
        assert_eq!(stats.dispatches, [1, 0]);
        assert_eq!(m.mem.read(fb).as_i64(), 17);
    }

    #[test]
    fn send_enqueues_and_dispatches_chained_messages() {
        // Low task A sends a low message to handler B carrying 5; B doubles
        // it into frame memory and halts.
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let a = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::ZERO,
        }); // placeholder for B addr, patched below
        img.push_user(MOp::MovI {
            d: Reg(3),
            v: Word::from_i64(5),
        });
        img.push_user(MOp::Send {
            pri: Priority::Low,
            srcs: vec![SendSrc::Reg(Reg(2)), SendSrc::Reg(Reg(3))],
        });
        img.push_user(MOp::Suspend);
        let b = img.next_user();
        img.push_user(MOp::LdMsg { d: Reg(0), idx: 1 });
        img.push_user(MOp::Alu {
            op: AluOp::Add,
            d: Reg(0),
            a: Reg(0),
            b: Operand::Reg(Reg(0)),
        });
        img.push_user(MOp::MovI {
            d: Reg(1),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::St {
            s: Reg(0),
            base: Reg(1),
            off: 0,
        });
        img.push_user(MOp::Halt);
        img.patch(
            a,
            MOp::MovI {
                d: Reg(2),
                v: Word::from_addr(b),
            },
        );

        let mut m = Machine::new(MachineConfig::default(), &img);
        m.inject(Priority::Low, &[Word::from_addr(a)]).unwrap();
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(stats.halt, HaltReason::Explicit);
        assert_eq!(stats.sends, 1);
        assert_eq!(stats.send_words, 2);
        assert_eq!(stats.dispatches, [2, 0]);
        assert_eq!(m.mem.read(fb).as_i64(), 10);
    }

    #[test]
    fn send_words_are_written_to_queue_memory() {
        let mut img = CodeImage::new(&map());
        let entry = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(0xAB),
        });
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(0))],
        });
        img.push_user(MOp::Halt);
        // The high handler at 0xAB would be wild; halt before dispatch
        // happens only if interrupts disabled — so disable first.
        let mut img2 = CodeImage::new(&map());
        let entry2 = img2.next_user();
        img2.push_user(MOp::DisableInt);
        img2.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(0xAB),
        });
        img2.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(0))],
        });
        img2.push_user(MOp::Halt);
        let _ = (img, entry);

        let cfg = MachineConfig::default();
        let hq_base = cfg.sys_layout().high_queue_base;
        let mut m = Machine::new(cfg, &img2);
        m.start_low(entry2);
        let mut hooks = SinkHooks(VecSink::new());
        m.run(&mut hooks).unwrap();
        assert!(hooks.0.events.contains(&Access::write(hq_base)));
        assert_eq!(m.mem.read(hq_base).as_i64(), 0xAB);
    }

    #[test]
    fn high_priority_preempts_enabled_low_code() {
        // Low code sends a high message, then (interrupts enabled) the
        // handler must run before the next low instruction writes the frame.
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        // High handler: write 1 to frame[0], suspend.
        let h = img.next_sys();
        img.push_sys(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_sys(MOp::MovI {
            d: Reg(1),
            v: Word::from_i64(1),
        });
        img.push_sys(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_sys(MOp::Suspend);
        // Low: send high, then read frame[0] into r5, halt.
        let entry = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::from_addr(h),
        });
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(2))],
        });
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::Ld {
            d: Reg(5),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::Halt);

        let mut m = Machine::new(MachineConfig::default(), &img);
        m.start_low(entry);
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(stats.preemptions, 1);
        assert_eq!(
            m.reg(Priority::Low, Reg(5)).as_i64(),
            1,
            "handler ran before the load"
        );
    }

    #[test]
    fn disabled_interrupts_defer_high_priority_until_enable() {
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let h = img.next_sys();
        img.push_sys(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_sys(MOp::MovI {
            d: Reg(1),
            v: Word::from_i64(1),
        });
        img.push_sys(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_sys(MOp::Suspend);
        let entry = img.next_user();
        img.push_user(MOp::DisableInt);
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::from_addr(h),
        });
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(2))],
        });
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        // Handler has NOT run yet: frame[0] still 0.
        img.push_user(MOp::Ld {
            d: Reg(5),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::EnableInt);
        // Handler runs here, before the next low instruction.
        img.push_user(MOp::Ld {
            d: Reg(6),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::Halt);

        let mut m = Machine::new(MachineConfig::default(), &img);
        m.start_low(entry);
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(
            m.reg(Priority::Low, Reg(5)).as_i64(),
            0,
            "deferred while disabled"
        );
        assert_eq!(
            m.reg(Priority::Low, Reg(6)).as_i64(),
            1,
            "ran at enable point"
        );
        assert_eq!(stats.preemptions, 1);
    }

    #[test]
    fn same_priority_messages_do_not_interrupt() {
        // A low task sends itself another low message; it must finish
        // before the second handler is dispatched.
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let h2 = img.next_sys(); // handler 2 in sys code for address separation
        img.push_sys(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_sys(MOp::MovI {
            d: Reg(1),
            v: Word::from_i64(2),
        });
        img.push_sys(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_sys(MOp::Halt);
        let entry = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::from_addr(h2),
        });
        img.push_user(MOp::Send {
            pri: Priority::Low,
            srcs: vec![SendSrc::Reg(Reg(2))],
        });
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::MovI {
            d: Reg(1),
            v: Word::from_i64(1),
        });
        img.push_user(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::Suspend);

        let mut m = Machine::new(MachineConfig::default(), &img);
        m.inject(Priority::Low, &[Word::from_addr(entry)]).unwrap();
        m.run(&mut NoHooks).unwrap();
        // Handler 2 ran after the first task, overwriting 1 with 2.
        assert_eq!(m.mem.read(fb).as_i64(), 2);
    }

    #[test]
    fn queue_overflow_is_an_error() {
        let mut img = CodeImage::new(&map());
        let entry = img.next_user();
        img.push_user(MOp::DisableInt);
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(1),
        });
        let loop_pc = img.next_user();
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(0))],
        });
        img.push_user(MOp::Br { t: loop_pc });
        let cfg = MachineConfig {
            queue_words: [8, 8],
            ..Default::default()
        };
        let mut m = Machine::new(cfg, &img);
        m.start_low(entry);
        assert_eq!(
            m.run(&mut NoHooks),
            Err(RunError::QueueOverflow {
                pri: Priority::High
            })
        );
    }

    #[test]
    fn fuel_exhaustion_is_an_error() {
        let mut img = CodeImage::new(&map());
        let entry = img.next_user();
        img.push_user(MOp::Br { t: entry });
        let cfg = MachineConfig {
            fuel: 100,
            ..Default::default()
        };
        let mut m = Machine::new(cfg, &img);
        m.start_low(entry);
        assert_eq!(m.run(&mut NoHooks), Err(RunError::FuelExhausted));
    }

    #[test]
    fn marks_cost_nothing_and_report_fp() {
        struct MarkHook {
            marks: Vec<(Mark, u32)>,
        }
        impl Hooks for MarkHook {
            fn access(&mut self, _a: Access) {}
            fn mark(&mut self, m: Mark, f: u32, _pri: Priority) {
                self.marks.push((m, f));
            }
        }
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let entry = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg::FP,
            v: Word::from_addr(fb + 64),
        });
        img.push_user(MOp::Mark(Mark::ThreadStart {
            codeblock: 3,
            thread: 1,
        }));
        img.push_user(MOp::Halt);
        let mut m = Machine::new(MachineConfig::default(), &img);
        m.start_low(entry);
        let mut h = MarkHook { marks: vec![] };
        let stats = m.run(&mut h).unwrap();
        assert_eq!(stats.instructions, 2, "mark is free");
        assert_eq!(
            h.marks,
            vec![(
                Mark::ThreadStart {
                    codeblock: 3,
                    thread: 1
                },
                fb + 64
            )]
        );
    }

    #[test]
    fn high_queue_drains_completely_before_low_dispatch() {
        // Preload both rings before the machine starts. The low boot
        // message was injected first, but the dispatch loop must drain
        // every high-priority message before touching the low queue.
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        // High handler: frame[0] += 1, suspend.
        let h = img.next_sys();
        img.push_sys(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_sys(MOp::Ld {
            d: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_sys(MOp::Alu {
            op: AluOp::Add,
            d: Reg(1),
            a: Reg(1),
            b: Operand::Imm(1),
        });
        img.push_sys(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_sys(MOp::Suspend);
        // Low handler: snapshot the count it observes into frame[4], halt.
        let lo = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::Ld {
            d: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 4,
        });
        img.push_user(MOp::Halt);

        let mut m = Machine::new(MachineConfig::default(), &img);
        m.inject(Priority::Low, &[Word::from_addr(lo)]).unwrap();
        m.inject(Priority::High, &[Word::from_addr(h)]).unwrap();
        m.inject(Priority::High, &[Word::from_addr(h)]).unwrap();
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(stats.dispatches, [1, 2]);
        assert_eq!(
            m.mem.read(fb + 4).as_i64(),
            2,
            "low handler saw both high handlers' effects"
        );
        // No running low code was ever interrupted — the low task only
        // started once the high ring was empty.
        assert_eq!(stats.preemptions, 0);
    }

    #[test]
    fn queue_capacities_are_independent_per_priority() {
        // The two hardware rings are separate memories: filling the high
        // ring exactly to capacity is legal, one more word overflows it,
        // and the low ring's occupancy never enters into either decision.
        let mut img = CodeImage::new(&map());
        let entry = img.next_user();
        img.push_user(MOp::DisableInt);
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(9),
        });
        // 3-word low message: occupies the low ring only.
        img.push_user(MOp::Send {
            pri: Priority::Low,
            srcs: vec![
                SendSrc::Reg(Reg(0)),
                SendSrc::Reg(Reg(0)),
                SendSrc::Reg(Reg(0)),
            ],
        });
        // 8-word high message: fills the high ring exactly — legal.
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(0)); 8],
        });
        // One more high word cannot fit, despite 5 free low words.
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(0))],
        });
        img.push_user(MOp::Halt);
        let cfg = MachineConfig {
            queue_words: [8, 8],
            ..Default::default()
        };
        let mut m = Machine::new(cfg, &img);
        m.start_low(entry);
        assert_eq!(
            m.run(&mut NoHooks),
            Err(RunError::QueueOverflow {
                pri: Priority::High
            })
        );
        assert_eq!(m.queue(Priority::Low).used_words(), 3);
        assert_eq!(m.queue(Priority::High).used_words(), 8);
    }

    /// A port that refuses the first `busy` sends, then routes locally.
    struct FlakyPort {
        busy: u32,
        offered: Vec<Vec<Word>>,
    }
    impl NetPort for FlakyPort {
        fn route(&mut self, _pri: Priority, words: &[Word]) -> RouteOutcome {
            self.offered.push(words.to_vec());
            if self.busy > 0 {
                self.busy -= 1;
                RouteOutcome::Busy
            } else {
                RouteOutcome::Local
            }
        }
    }

    #[test]
    fn blocked_send_has_no_side_effects_and_retries_verbatim() {
        let (img, entry) = user_image(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(0x55),
            },
            MOp::Send {
                pri: Priority::Low,
                srcs: vec![SendSrc::Reg(Reg(0)), SendSrc::Imm(Word::from_i64(7))],
            },
            MOp::Halt,
        ]);
        let mut m = Machine::new(MachineConfig::default(), &img);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        let mut port = FlakyPort {
            busy: 2,
            offered: vec![],
        };
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Ran); // MovI
        let events_before = hooks.0.events.len();
        // Two stalled attempts: nothing happens at all.
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Blocked);
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Blocked);
        assert_eq!(
            hooks.0.events.len(),
            events_before,
            "no events while blocked"
        );
        assert_eq!(m.stats(HaltReason::Quiescent).instructions, 1);
        assert_eq!(m.stats(HaltReason::Quiescent).sends, 0);
        // Third attempt goes through; the same words were offered each time.
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Ran);
        assert_eq!(port.offered.len(), 3);
        assert_eq!(port.offered[0], port.offered[2]);
        assert_eq!(port.offered[2][0].as_i64(), 0x55);
        assert_eq!(port.offered[2][1].as_i64(), 7);
        assert_eq!(m.stats(HaltReason::Quiescent).sends, 1);
        assert!(hooks.0.events.len() > events_before, "send now traced");
    }

    /// A port that injects everything into a fake network.
    struct InjectAll;
    impl NetPort for InjectAll {
        fn route(&mut self, _pri: Priority, _words: &[Word]) -> RouteOutcome {
            RouteOutcome::Injected
        }
    }

    #[test]
    fn injected_send_counts_but_writes_no_queue_memory() {
        let (img, entry) = user_image(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(3),
            },
            MOp::Send {
                pri: Priority::Low,
                srcs: vec![SendSrc::Reg(Reg(0))],
            },
            MOp::Halt,
        ]);
        let mut m = Machine::new(MachineConfig::default(), &img);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        let mut port = InjectAll;
        while !matches!(m.step(&mut hooks, &mut port).unwrap(), Step::Halted(_)) {}
        let stats = m.stats(HaltReason::Explicit);
        assert_eq!(stats.sends, 1);
        assert_eq!(stats.send_words, 1);
        assert!(m.queue(Priority::Low).is_empty(), "message left the node");
        assert!(
            !hooks.0.events.iter().any(|a| a.kind == AccessKind::Write),
            "no local queue writes for an injected message"
        );
    }

    #[test]
    fn try_deliver_backpressures_at_exact_capacity_and_resumes() {
        // Mirrors queue.rs's exact-capacity tests at the machine level: a
        // remote arrival that does not fit leaves everything untouched and
        // succeeds verbatim once the front message retires.
        let mut img = CodeImage::new(&map());
        let handler = img.next_user();
        img.push_user(MOp::Suspend);
        let cfg = MachineConfig {
            queue_words: [8, 8],
            ..Default::default()
        };
        let mut m = Machine::new(cfg, &img);
        let msg = [Word::from_addr(handler), Word::ZERO, Word::ZERO, Word::ZERO];
        let mut hooks = SinkHooks(VecSink::new());
        assert!(m.try_deliver(Priority::Low, &msg, &mut hooks));
        assert!(m.try_deliver(Priority::Low, &msg, &mut hooks));
        assert_eq!(m.queue(Priority::Low).used_words(), 8);
        // Full to the word: the third delivery is refused, nothing changes.
        let events_before = hooks.0.events.len();
        assert!(!m.try_deliver(Priority::Low, &msg, &mut hooks));
        assert_eq!(m.queue(Priority::Low).used_words(), 8);
        assert_eq!(m.queue(Priority::Low).len(), 2);
        assert_eq!(hooks.0.events.len(), events_before);
        // Dispatch + suspend retires the front message; space reopens.
        assert_eq!(m.step(&mut hooks, &mut Loopback).unwrap(), Step::Ran);
        assert!(m.try_deliver(Priority::Low, &msg, &mut hooks));
        assert_eq!(m.queue(Priority::Low).used_words(), 8);
    }

    #[test]
    fn addr_mask_localizes_tagged_pointers() {
        let fb = map().frame_base;
        let tagged = (1u32 << 23) | fb;
        let (img, entry) = user_image(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_addr(tagged),
            },
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(99),
            },
            MOp::St {
                s: Reg(1),
                base: Reg(0),
                off: 4,
            },
            MOp::Ld {
                d: Reg(2),
                base: Reg(0),
                off: 4,
            },
            MOp::Halt,
        ]);
        let cfg = MachineConfig {
            addr_mask: (1 << 23) - 1,
            ..Default::default()
        };
        let mut m = Machine::new(cfg, &img);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        m.run(&mut hooks).unwrap();
        assert_eq!(m.reg(Priority::Low, Reg(2)).as_i64(), 99);
        assert_eq!(m.mem.read(fb + 4).as_i64(), 99, "store landed untagged");
        assert!(
            hooks.0.events.contains(&Access::write(fb + 4)),
            "the trace sees the masked (local) address"
        );
    }

    #[test]
    fn high_handler_resumes_preempted_low_context_exactly() {
        let mut img = CodeImage::new(&map());
        let h = img.next_sys();
        img.push_sys(MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(7),
        }); // high file
        img.push_sys(MOp::Suspend);
        let entry = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(1),
        }); // low file
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::from_addr(h),
        });
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(2))],
        });
        img.push_user(MOp::Alu {
            op: AluOp::Add,
            d: Reg(0),
            a: Reg(0),
            b: Operand::Imm(1),
        });
        img.push_user(MOp::Halt);
        let mut m = Machine::new(MachineConfig::default(), &img);
        m.start_low(entry);
        m.run(&mut NoHooks).unwrap();
        // Separate register files: low r0 == 2, high r0 == 7.
        assert_eq!(m.reg(Priority::Low, Reg(0)).as_i64(), 2);
        assert_eq!(m.reg(Priority::High, Reg(0)).as_i64(), 7);
    }

    // ---- decoded dispatch equivalence -----------------------------------

    use crate::decode::DecodedImage;
    use tamsim_trace::{MarkLog, Tee};

    /// Run `img` twice — baseline and decoded — with identical setup and
    /// full-stream recording hooks, and assert the runs are bit-identical:
    /// stats, every access event in order, every mark record, and the
    /// per-priority cycle counters.
    fn assert_decoded_matches(
        img: &CodeImage,
        setup: impl Fn(&mut Machine),
    ) -> (RunStats, Vec<Access>) {
        let mut base = Machine::new(MachineConfig::default(), img);
        setup(&mut base);
        let mut bh = SinkHooks(Tee::new(VecSink::new(), MarkLog::new()));
        let bstats = base.run_baseline(&mut bh).expect("baseline run failed");

        let dec = DecodedImage::decode(img);
        let mut m = Machine::new(MachineConfig::default(), img);
        m.attach_decoded(&dec);
        setup(&mut m);
        let mut dh = SinkHooks(Tee::new(VecSink::new(), MarkLog::new()));
        let dstats = m.run(&mut dh).expect("decoded run failed");

        assert_eq!(dstats, bstats, "run stats diverge");
        assert_eq!(dh.0.a.events, bh.0.a.events, "access streams diverge");
        assert_eq!(dh.0.b.records, bh.0.b.records, "mark records diverge");
        assert_eq!(dh.0.b.cycles, bh.0.b.cycles, "cycle counters diverge");
        for p in [Priority::Low, Priority::High] {
            for r in 0..Reg::COUNT {
                assert_eq!(
                    m.reg(p, Reg(r as u8)),
                    base.reg(p, Reg(r as u8)),
                    "register {p:?}/r{r} diverges"
                );
            }
        }
        (dstats, dh.0.a.events)
    }

    #[test]
    fn decoded_run_matches_baseline_on_a_fusing_loop() {
        // Exercises every fusion rule: MovI+St, Ld+Alu, Alu+Bnz, plus a
        // mark inside the loop so batches break mid-stream.
        let fb = map().frame_base;
        let ub = map().user_code_base;
        let (img, entry) = user_image(vec![
            /* 0 */
            MOp::MovI {
                d: Reg(0),
                v: Word::from_addr(fb),
            },
            /* 1: MovI+St pair */
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(40),
            },
            /* 2 */
            MOp::St {
                s: Reg(1),
                base: Reg(0),
                off: 0,
            },
            /* 3: loop head — Ld+Alu pair */
            MOp::Ld {
                d: Reg(2),
                base: Reg(0),
                off: 0,
            },
            /* 4 */
            MOp::Alu {
                op: AluOp::Sub,
                d: Reg(2),
                a: Reg(2),
                b: Operand::Imm(1),
            },
            /* 5 */
            MOp::St {
                s: Reg(2),
                base: Reg(0),
                off: 0,
            },
            /* 6 */ MOp::Mark(Mark::ThreadEnd),
            /* 7: Alu+Bnz pair */
            MOp::Alu {
                op: AluOp::Gt,
                d: Reg(3),
                a: Reg(2),
                b: Operand::Imm(0),
            },
            /* 8 */
            MOp::Bnz {
                c: Reg(3),
                t: ub + 3 * 4,
            },
            /* 9 */ MOp::Halt,
        ]);
        let (stats, _) = assert_decoded_matches(&img, |m| m.start_low(entry));
        assert_eq!(stats.halt, HaltReason::Explicit);
        assert!(stats.instructions > 100, "the loop actually looped");
    }

    #[test]
    fn decoded_run_matches_baseline_with_preemption_and_enable_int() {
        // DisableInt / high send / EnableInt: the decoded batch must break
        // exactly where the baseline re-checks preemption.
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let h = img.next_sys();
        img.push_sys(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_sys(MOp::MovI {
            d: Reg(1),
            v: Word::from_i64(1),
        });
        img.push_sys(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_sys(MOp::Suspend);
        let entry = img.next_user();
        img.push_user(MOp::DisableInt);
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::from_addr(h),
        });
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(2))],
        });
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::Ld {
            d: Reg(5),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::EnableInt);
        img.push_user(MOp::Ld {
            d: Reg(6),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::Halt);
        let (stats, _) = assert_decoded_matches(&img, |m| m.start_low(entry));
        assert_eq!(stats.preemptions, 1);
    }

    #[test]
    fn decoded_run_matches_baseline_on_message_chains() {
        // Send/dispatch/suspend chains and LdMsg queue reads.
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let a = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::ZERO,
        });
        img.push_user(MOp::MovI {
            d: Reg(3),
            v: Word::from_i64(5),
        });
        img.push_user(MOp::Send {
            pri: Priority::Low,
            srcs: vec![SendSrc::Reg(Reg(2)), SendSrc::Reg(Reg(3))],
        });
        img.push_user(MOp::Suspend);
        let b = img.next_user();
        img.push_user(MOp::LdMsg { d: Reg(0), idx: 1 });
        img.push_user(MOp::Alu {
            op: AluOp::Add,
            d: Reg(0),
            a: Reg(0),
            b: Operand::Reg(Reg(0)),
        });
        img.push_user(MOp::MovI {
            d: Reg(1),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::St {
            s: Reg(0),
            base: Reg(1),
            off: 0,
        });
        img.push_user(MOp::Halt);
        img.patch(
            a,
            MOp::MovI {
                d: Reg(2),
                v: Word::from_addr(b),
            },
        );
        let (stats, events) = assert_decoded_matches(&img, |m| {
            m.inject(Priority::Low, &[Word::from_addr(a)]).unwrap()
        });
        assert_eq!(stats.sends, 1);
        assert_eq!(stats.dispatches, [2, 0]);
        assert!(events.contains(&Access::write(fb)));
    }

    #[test]
    fn decoded_fuel_exhaustion_matches_baseline_mid_batch() {
        // An infinite straight-line loop; fuel runs out inside a batch.
        // The decoded path must emit the failing op's fetch, park the pc on
        // it, and report the same error at the same instruction count.
        let ub = map().user_code_base;
        let (img, entry) = user_image(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(1),
            },
            MOp::Alu {
                op: AluOp::Add,
                d: Reg(0),
                a: Reg(0),
                b: Operand::Imm(1),
            },
            MOp::Br { t: ub + 4 },
        ]);
        let cfg = MachineConfig {
            fuel: 100,
            ..Default::default()
        };

        let mut base = Machine::new(cfg, &img);
        base.start_low(entry);
        let mut bh = SinkHooks(VecSink::new());
        let berr = base.run_baseline(&mut bh).unwrap_err();

        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(cfg, &img);
        m.attach_decoded(&dec);
        m.start_low(entry);
        let mut dh = SinkHooks(VecSink::new());
        let derr = m.run(&mut dh).unwrap_err();

        assert_eq!(derr, berr);
        assert_eq!(dh.0.events, bh.0.events);
        assert_eq!(
            m.reg(Priority::Low, Reg(0)),
            base.reg(Priority::Low, Reg(0))
        );
    }

    #[test]
    fn decoded_step_blocked_send_rewinds_like_baseline() {
        let (img, entry) = user_image(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(0x55),
            },
            MOp::Send {
                pri: Priority::Low,
                srcs: vec![SendSrc::Reg(Reg(0)), SendSrc::Imm(Word::from_i64(7))],
            },
            MOp::Halt,
        ]);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &img);
        m.attach_decoded(&dec);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        let mut port = FlakyPort {
            busy: 2,
            offered: vec![],
        };
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Ran);
        let events_before = hooks.0.events.len();
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Blocked);
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Blocked);
        assert_eq!(hooks.0.events.len(), events_before);
        assert_eq!(m.stats(HaltReason::Quiescent).sends, 0);
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Ran);
        assert_eq!(port.offered.len(), 3);
        assert_eq!(port.offered[0], port.offered[2]);
        assert_eq!(m.stats(HaltReason::Quiescent).sends, 1);
    }

    #[test]
    fn decoded_step_executes_fused_pairs_one_instruction_at_a_time() {
        // In step mode a fused cmp+branch costs two steps — the mesh's
        // global clock must see the same cycle count as baseline.
        let ub = map().user_code_base;
        let ops = vec![
            /* 0 */
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(3),
            },
            /* 1: fuses with 2 */
            MOp::Alu {
                op: AluOp::Gt,
                d: Reg(0),
                a: Reg(1),
                b: Operand::Imm(0),
            },
            /* 2 */
            MOp::Bnz {
                c: Reg(0),
                t: ub + 4 * 4,
            },
            /* 3 */ MOp::Halt,
            /* 4 */ MOp::Halt,
        ];
        let (img, entry) = user_image(ops);
        let dec = DecodedImage::decode(&img);
        assert!(dec.fused_count() > 0, "the pair fused");
        let mut m = Machine::new(MachineConfig::default(), &img);
        m.attach_decoded(&dec);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        assert_eq!(m.step(&mut hooks, &mut Loopback).unwrap(), Step::Ran); // MovI
        assert_eq!(m.step(&mut hooks, &mut Loopback).unwrap(), Step::Ran); // Alu half
        assert_eq!(m.reg(Priority::Low, Reg(0)).as_i64(), 1);
        assert_eq!(
            m.stats(HaltReason::Quiescent).instructions,
            2,
            "fused pair charges one instruction per step"
        );
        assert_eq!(m.step(&mut hooks, &mut Loopback).unwrap(), Step::Ran); // Bnz half
                                                                           // The branch target is slot 4 (the second halt).
        assert_eq!(
            m.step(&mut hooks, &mut Loopback).unwrap(),
            Step::Halted(HaltReason::Explicit)
        );
        let fetches: Vec<u32> = hooks
            .0
            .events
            .iter()
            .filter(|a| a.kind == AccessKind::Fetch)
            .map(|a| a.addr)
            .collect();
        assert_eq!(fetches, vec![ub, ub + 4, ub + 8, ub + 16]);
    }

    #[test]
    fn decoded_wild_jump_panics_with_baseline_message() {
        let (img, entry) = user_image(vec![MOp::Br {
            t: map().user_code_base + 0x400,
        }]);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &img);
        m.attach_decoded(&dec);
        m.start_low(entry);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = m.run(&mut NoHooks);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("wild jump to") && msg.contains("(user code)"),
            "got: {msg}"
        );
    }
}
