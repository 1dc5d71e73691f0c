//! The mesh experiment driver: K machines on a global cycle clock.
//!
//! Each global cycle is (1) every node executes at most one instruction —
//! a node whose `SEND` finds its network interface full burns the cycle
//! stalled; (2) the fabric moves messages one hop; (3) every node's NI
//! tries to retire one arrived message into the machine's hardware queue,
//! holding it under back-pressure when the queue is full. All iteration
//! is in fixed node order, so runs are bit-deterministic.
//!
//! With one node this degenerates to exactly `Machine::run`'s step loop
//! (the port is always-local, the fabric stays empty), which is the
//! anchor invariant the differential tests enforce.
//!
//! **Active set.** By default one cycle costs what happens in it, not
//! the mesh size. The driver keeps a *runnable* bitset — bit `n` set iff
//! node `n`'s machine is not idle ([`Machine::is_idle`]) — refreshed
//! after each node's own step and after every delivery, AM re-arm, and
//! serve arrival that touches a machine. Phase (1) steps only runnable
//! nodes, phase (3) retires only from occupied receive queues (the
//! fabric's occupancy index), and the fabric tick visits only occupied
//! buffers. Skipping an idle machine is invisible: its step would be a
//! no-op returning `Idle`, and nothing in phase (1) can wake it (a step
//! touches only its own machine). Activity timelines are recorded
//! lazily: a per-node cursor fills the `Idle` gap when the node next
//! steps, and at the end of the run.
//!
//! **Fast-forward.** When the runnable set is empty the only possible
//! events are the fabric's, so the driver computes the **event
//! horizon**, the fabric's next move/delivery edge
//! ([`Fabric::next_horizon`]), and jumps the global clock there in one
//! step instead of ticking cycle-by-cycle. The skipped iterations are
//! provably no-ops, so cycle counts, stats, activity timelines, and
//! access streams are bit-identical to the lockstep driver
//! ([`MeshExperiment::lockstep`], which steps and retires at every node
//! every cycle and never jumps — kept as the differential oracle).
//! Whenever a ready message is merely stuck behind back-pressure, the
//! driver ticks cycle by cycle.

use crate::bitset::BitSet;
use crate::fabric::{Fabric, LinkStat, NetConfig, NetStats};
use crate::hooks::{NetHooks, NoNetHooks};
use crate::place::{Placement, PlacementPolicy};
use crate::port::NodePort;
use crate::serve::{ReqCell, ServePlan, ServeState};
use crate::steal::{StealEngine, StealView};
use crate::topology::MeshTopology;
use crate::trace::{NetTrace, NetTraceMode, NetTraceRecorder};
use crate::{node_tag, LOCAL_MASK, MAX_NODES, NODE_SHIFT};
use tamsim_core::{link, Implementation, Linked, LoweringOptions};
use tamsim_mdp::{
    HaltReason, Hooks, Machine, MachineConfig, Priority, RunError, RunStats, Step, Word,
};
use tamsim_tam::Program;
use tamsim_trace::{Access, AccessCounts, CountingSink, Mark, MarkSink, TraceLog, TraceSink};

/// Default cycles without any instruction, fabric movement, or delivery
/// before the driver concludes the mesh is gridlocked on queue space and
/// restarts with bigger queues (see [`MeshExperiment::watchdog_cycles`]).
pub const WATCHDOG_CYCLES: u64 = 100_000;

/// What a node did in one global cycle (for the per-node timeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Executed an instruction.
    Run,
    /// Stalled on a full network interface (blocked `SEND`).
    Stall,
    /// Nothing to do.
    Idle,
}

/// One run-length-encoded span of a node's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the node was doing.
    pub state: NodeState,
    /// First global cycle of the span.
    pub start: u64,
    /// Span length in cycles.
    pub cycles: u64,
}

/// A node's full timeline, run-length encoded (feeds the Perfetto
/// export's one-track-per-node view).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityTrack {
    /// Maximal spans, in time order.
    pub spans: Vec<Span>,
}

impl ActivityTrack {
    /// Record `n` consecutive cycles of `state` starting at `cycle` —
    /// exactly what `n` single-cycle records would produce (the spans are
    /// maximal either way), so the active-set driver's bulk idle spans
    /// are bit-identical to lockstep's cycle-by-cycle ones.
    fn record_span(&mut self, cycle: u64, state: NodeState, n: u64) {
        if let Some(last) = self.spans.last_mut() {
            if last.state == state && last.start + last.cycles == cycle {
                last.cycles += n;
                return;
            }
        }
        self.spans.push(Span {
            state,
            start: cycle,
            cycles: n,
        });
    }

    /// Fill the cycles from `*next` up to (not including) `cycle` as
    /// `Idle`, and move the cursor there.
    fn idle_until(&mut self, next: &mut u64, cycle: u64) {
        if *next < cycle {
            self.record_span(*next, NodeState::Idle, cycle - *next);
            *next = cycle;
        }
    }

    /// Record `state` at `cycle` after the idle gap since the cursor.
    fn record_at(&mut self, next: &mut u64, cycle: u64, state: NodeState) {
        self.idle_until(next, cycle);
        self.record_span(cycle, state, 1);
        *next = cycle + 1;
    }

    /// Total cycles spent in `state`.
    pub fn cycles_in(&self, state: NodeState) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.state == state)
            .map(|s| s.cycles)
            .sum()
    }
}

/// Per-node observation hooks: region/kind access counters plus an
/// optional recorded trace for cache replay.
pub(crate) struct NodeHooks {
    pub(crate) counts: CountingSink,
    pub(crate) log: Option<TraceLog>,
}

impl Hooks for NodeHooks {
    #[inline]
    fn access(&mut self, access: Access) {
        self.counts.access(access);
        if let Some(log) = &mut self.log {
            log.access(access);
        }
    }

    #[inline]
    fn instruction(&mut self, pri: Priority, pc: u32) {
        if let Some(log) = &mut self.log {
            MarkSink::instruction(log, pri, pc);
        }
    }

    #[inline]
    fn queue_sample(&mut self, used_words: [u32; 2]) {
        if let Some(log) = &mut self.log {
            MarkSink::queue_sample(log, used_words);
        }
    }

    #[inline]
    fn mark(&mut self, mark: Mark, frame: u32, pri: Priority) {
        if let Some(log) = &mut self.log {
            MarkSink::mark(log, mark, frame, pri);
        }
    }
}

/// Everything measured in one mesh run.
#[derive(Debug, Clone)]
pub struct MeshRunResult {
    /// Which implementation ran.
    pub implementation: Implementation,
    /// Frame-placement policy used.
    pub policy: PlacementPolicy,
    /// Node count.
    pub nodes: u32,
    /// Mesh X extent.
    pub width: u32,
    /// Mesh Y extent.
    pub height: u32,
    /// Global cycles until completion.
    pub cycles: u64,
    /// How the run ended (`Explicit` = some node executed the done
    /// handler's `HALT`; `Quiescent` = everything drained).
    pub halt: HaltReason,
    /// The words `main` returned (read from node 0).
    pub result: Vec<Word>,
    /// Final contents of the initial arrays (node 0's heap).
    pub arrays: Vec<Vec<Option<Word>>>,
    /// Instructions summed over all nodes.
    pub instructions: u64,
    /// Per-node machine counters.
    pub stats: Vec<RunStats>,
    /// Per-node region/kind access counts.
    pub counts: Vec<AccessCounts>,
    /// Per-node cycles burned on a full network interface.
    pub stall_cycles: Vec<u64>,
    /// Fabric counters.
    pub net: NetStats,
    /// Per-node deliver-stall cycles (fabric had a ready message but the
    /// destination machine's queue was full) — sums to `net.deliver_stalls`.
    pub deliver_stalls: Vec<u64>,
    /// Always-on per-buffer telemetry: one row per mesh link (edge
    /// buffers excluded), inject queue, and recv queue.
    pub link_stats: Vec<LinkStat>,
    /// Causal message trace when the run was [`MeshExperiment::traced`];
    /// `None` otherwise. Deliberately excluded from the bit-identity
    /// differentials — tracing must never perturb the run itself.
    pub net_trace: Option<NetTrace>,
    /// Queue capacities the run used (auto-doubled on overflow or
    /// gridlock, like the single-node driver).
    pub queue_words: [u32; 2],
    /// Per-node run-length timelines.
    pub activity: Vec<ActivityTrack>,
    /// Per-node live-frame census at the end of the run.
    pub live_frames: Vec<u64>,
    /// Frames migrated *off* each node by work stealing (all zero under
    /// the static policies); sums to the run's total steal count.
    pub steals: Vec<u64>,
    /// Gridlock-watchdog trips over the whole run (each one doubled every
    /// queue and restarted the attempt).
    pub watchdog_trips: u32,
    /// Times the quiescence-time backstop re-armed an AM scheduler that
    /// suspended with posted frames (the arrival/suspend race), summed
    /// over all attempts.
    pub backstop_rearms: u64,
    /// Per-node recorded access traces (when recording was requested);
    /// replay each into its own `CacheBank` for per-node locality.
    pub logs: Option<Vec<TraceLog>>,
}

impl MeshRunResult {
    /// Total NI-stall cycles across nodes.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }
}

/// A mesh run plus its per-node access traces
/// (see [`MeshExperiment::run_recorded`]).
#[derive(Debug, Clone)]
pub struct MeshRecordedRun {
    /// The run itself (`logs` moved out).
    pub run: MeshRunResult,
    /// One recorded trace per node, in node order.
    pub logs: Vec<TraceLog>,
}

impl MeshRecordedRun {
    /// Total recorded access events across all nodes.
    pub fn events(&self) -> u64 {
        self.logs.iter().map(|l| l.len() as u64).sum()
    }
}

/// High-level mesh driver: one implementation + placement policy + fabric
/// configuration, reusable across programs (the mesh analogue of
/// `tamsim_core::Experiment`).
#[derive(Debug, Clone, Copy)]
pub struct MeshExperiment {
    /// The back-end to lower to.
    pub implementation: Implementation,
    /// Lowering optimization switches.
    pub opts: LoweringOptions,
    /// Instruction budget per node.
    pub fuel: u64,
    /// Initial queue capacities (words); doubled automatically on
    /// overflow or gridlock.
    pub queue_words: [u32; 2],
    /// Node count (factored into a near-square mesh).
    pub nodes: u32,
    /// Fabric timing and buffering.
    pub net: NetConfig,
    /// Frame-placement policy.
    pub placement: PlacementPolicy,
    /// Record per-node access traces for cache replay.
    pub record: bool,
    /// The active-set driver with event-horizon fast-forwarding (on by
    /// default; results are bit-identical either way).
    /// [`MeshExperiment::lockstep`] disables it for the differential
    /// tests.
    pub fast_forward: bool,
    /// Cycles without any instruction, fabric movement, or delivery
    /// before the gridlock watchdog doubles the queues and restarts
    /// (default [`WATCHDOG_CYCLES`]; tests lower it to trip quickly).
    pub watchdog_cycles: u64,
    /// Causal network tracing (default [`NetTraceMode::Off`]: the run
    /// loop monomorphizes over [`NoNetHooks`] and pays nothing).
    pub net_trace: NetTraceMode,
}

impl MeshExperiment {
    /// A mesh experiment with the single-node driver's defaults.
    ///
    /// # Panics
    /// Panics when `nodes` is zero or exceeds [`MAX_NODES`].
    pub fn new(implementation: Implementation, nodes: u32) -> Self {
        assert!(
            (1..=MAX_NODES).contains(&nodes),
            "node count must be in 1..={MAX_NODES}"
        );
        MeshExperiment {
            implementation,
            opts: LoweringOptions::default(),
            fuel: 2_000_000_000,
            queue_words: [1024, 1024],
            nodes,
            net: NetConfig::default(),
            placement: PlacementPolicy::default(),
            record: false,
            fast_forward: true,
            watchdog_cycles: WATCHDOG_CYCLES,
            net_trace: NetTraceMode::Off,
        }
    }

    /// Override the lowering options.
    pub fn with_opts(mut self, opts: LoweringOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Override the fabric configuration.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Override the frame-placement policy.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Enable per-node trace recording.
    pub fn recorded(mut self) -> Self {
        self.record = true;
        self
    }

    /// Enable causal network tracing: the result's
    /// [`MeshRunResult::net_trace`] carries per-message lifecycle records
    /// and latency histograms. The traced loop is a separate
    /// monomorphization, and the fuzz cross-check pins its results
    /// bit-identical to the untraced one.
    pub fn traced(mut self, mode: NetTraceMode) -> Self {
        self.net_trace = mode;
        self
    }

    /// Select the lockstep driver: step and retire at every node on every
    /// global cycle, never jumping. Results are bit-identical to the
    /// default active-set driver — this exists as the differential
    /// oracle.
    pub fn lockstep(mut self) -> Self {
        self.fast_forward = false;
        self
    }

    pub(crate) fn config(&self, queue_words: [u32; 2]) -> MachineConfig {
        MachineConfig {
            queue_words,
            fuel: self.fuel,
            // Identity on every valid single-node address (all are below
            // `map.top = 1 << NODE_SHIFT`), so node 0 of a 1×1 mesh is
            // bit-identical to an unmasked machine.
            addr_mask: LOCAL_MASK,
            ..MachineConfig::default()
        }
    }

    /// Double every queue after a gridlock-watchdog trip. Remote
    /// deliveries never overflow (they hold), so more queue space
    /// everywhere is the only cure; a program whose demand outgrows the
    /// system data region is diagnosed as gridlocked rather than left to
    /// trip the machine's layout assert at the next boot.
    pub(crate) fn double_queues_for_gridlock(&self, queue_words: &mut [u32; 2]) {
        for w in queue_words.iter_mut() {
            *w *= 2;
        }
        assert!(
            self.config(*queue_words).queues_fit(),
            "queue demand implausibly large; gridlocked program?"
        );
    }

    /// Run `program` on the mesh to completion.
    pub fn run(&self, program: &Program) -> MeshRunResult {
        match self.net_trace {
            NetTraceMode::Off => self.run_with(program, &mut NoNetHooks),
            mode => {
                let mut rec = NetTraceRecorder::new(mode, self.nodes);
                let mut run = self.run_with(program, &mut rec);
                run.net_trace = Some(rec.finish());
                run
            }
        }
    }

    /// The run loop, monomorphized over the net observation hooks: with
    /// [`NoNetHooks`] (`H::ENABLED == false`) every hook call and every
    /// dispatch-detection snapshot compiles away, so the untraced driver
    /// is exactly the pre-tracing one.
    fn run_with<H: NetHooks>(&self, program: &Program, net_hooks: &mut H) -> MeshRunResult {
        self.run_serve_with(program, net_hooks, None).0
    }

    /// The serial run loop, optionally in serve mode: with a
    /// [`ServePlan`] the batch boot is suppressed and the arrival pump
    /// injects scheduled requests instead (see `serve.rs`); the second
    /// return value carries the per-request cells.
    pub(crate) fn run_serve_with<H: NetHooks>(
        &self,
        program: &Program,
        net_hooks: &mut H,
        plan: Option<&ServePlan>,
    ) -> (MeshRunResult, Option<Vec<ReqCell>>) {
        let topo = MeshTopology::for_nodes(self.nodes);
        let k = self.nodes as usize;
        let mut queue_words = self.queue_words;
        let mut watchdog_trips: u32 = 0;
        let mut backstop_rearms: u64 = 0;

        'attempt: loop {
            // Queue-doubling restarts replay the whole run; drop any
            // partial trace so the recorder only describes the attempt
            // that completed.
            net_hooks.reset(self.nodes);
            let linked = link(
                program,
                self.implementation,
                self.opts,
                self.config(queue_words),
            );
            assert_eq!(
                linked.cfg.map.top,
                1 << NODE_SHIFT,
                "node tag would collide with the local address space"
            );
            let mut machines = self.boot_nodes(&linked, plan.is_none());
            let mut serve = plan.map(|p| ServeState::new(p, &linked, k));
            if H::ENABLED && plan.is_none() {
                // The boot message goes straight onto node 0's high queue
                // without touching the fabric; the dispatch matcher needs
                // to see it occupy the slot ahead of later deliveries.
                net_hooks.local_enqueue(0, Priority::High, 0);
            }
            let mut hooks: Vec<NodeHooks> = (0..k)
                .map(|_| NodeHooks {
                    counts: CountingSink::new(linked.cfg.map),
                    log: self.record.then(TraceLog::new),
                })
                .collect();
            let mut fabric = Fabric::new(topo, self.net);
            let mut placement = Placement::new(self.placement, self.nodes);
            if plan.is_none() {
                // The boot message allocates main's frame on node 0.
                placement.commit(0);
            }
            // Work stealing needs a software frame queue to steal from
            // (AM only — MD's task queue is the hardware queue) and a
            // second node to steal to; otherwise the policy degenerates
            // to locality with zero steals and no directory overhead.
            let mut steal = (self.placement == PlacementPolicy::WorkStealing
                && self.implementation.is_am()
                && self.nodes > 1)
                .then(|| StealEngine::new(&linked, topo, self.net.inject_capacity));
            let mut steal_installed: Vec<u32> = Vec::new();
            let mut steal_freed: Vec<u32> = Vec::new();

            let mut cycle: u64 = 0;
            let mut last_progress: u64 = 0;
            let mut prev_moves: u64 = 0;
            let mut stall_cycles = vec![0u64; k];
            let mut activity = vec![ActivityTrack::default(); k];
            // Per-node activity cursor: the first cycle not yet recorded.
            let mut act_next = vec![0u64; k];
            let mut runnable = BitSet::new(k);
            for (n, m) in machines.iter().enumerate() {
                runnable.set(n, !m.is_idle());
            }
            let mut halted_node: Option<usize> = None;

            let halt = loop {
                // Serve mode: the arrival pump runs at the top of every
                // global cycle — a machine whose queue just accepted a
                // request is runnable this cycle.
                if let Some(sv) = serve.as_mut() {
                    sv.pump(
                        cycle,
                        &mut machines,
                        &mut hooks,
                        &mut placement,
                        &mut *net_hooks,
                        linked.start_low,
                        self.implementation.is_am(),
                        &mut runnable,
                    );
                }

                let all_waiting = runnable.is_empty();
                let fabric_empty = all_waiting && fabric.msg_count() == 0;
                if fabric_empty {
                    // Backstop for the arrival/suspend race: a message can
                    // land between the AM scheduler's final frame-queue
                    // check and its suspend, leaving posted frames with no
                    // scheduler. Re-arm any such node instead of wrongly
                    // quiescing. (Never fires at K = 1: the fabric is
                    // unused, and the single-node scheduler's
                    // check-enable-recheck sequence makes the race
                    // impossible without deliveries — which also keeps
                    // the 1×1 run bit-identical.)
                    let mut rearmed = false;
                    if self.nodes > 1 && self.implementation.is_am() {
                        for (n, m) in machines.iter_mut().enumerate() {
                            if m.mem.read(linked.net.q_head).bits() != 0 {
                                m.start_low(linked.start_low);
                                runnable.insert(n);
                                rearmed = true;
                                backstop_rearms += 1;
                            }
                        }
                    }
                    if !rearmed {
                        match serve.as_ref() {
                            Some(sv) if !sv.drained() => {
                                // The mesh drained but the schedule did
                                // not: requests are still to come. (An
                                // injected-but-uncompleted request keeps
                                // some queue non-empty, so reaching here
                                // means the cursor is mid-schedule.)
                                // Neither driver lets the watchdog trip
                                // on an arrival gap.
                                let target = sv
                                    .next_arrival_cycle()
                                    .expect("idle serve run with requests unaccounted for");
                                debug_assert!(target > cycle);
                                if self.fast_forward {
                                    fabric.skip_to(target);
                                    cycle = target;
                                    last_progress = target;
                                    continue;
                                }
                                last_progress = cycle;
                            }
                            _ => break HaltReason::Quiescent,
                        }
                    }
                }

                // Event-horizon fast-forward: when no machine is runnable
                // the only possible events are the fabric's, and its next
                // move/delivery edge is already scheduled. Jump straight
                // there; every skipped iteration would have stepped no
                // machine and ticked a fabric with no ready head — pure
                // no-ops. Ticks cycle by cycle whenever a ready head is
                // stuck behind back-pressure (`next_horizon` returns
                // `None`). (`!fabric_empty` also skips the jump after a
                // backstop re-arm, whose `start_low` made `all_waiting`
                // stale.)
                if self.fast_forward && all_waiting && !fabric_empty {
                    if let Some(horizon) = fabric.next_horizon() {
                        debug_assert!(horizon > cycle);
                        // Serve mode clamps the jump to the next arrival:
                        // a request landing before the fabric's next edge
                        // wakes its origin machine, exactly as lockstep
                        // would see it.
                        let target = serve
                            .as_ref()
                            .and_then(|s| s.next_arrival_cycle())
                            .map_or(horizon, |a| horizon.min(a.max(cycle + 1)));
                        // The skipped stretch makes no progress; if the
                        // lockstep watchdog would have tripped inside it
                        // (after the iteration at `last_progress +
                        // watchdog_cycles`), trip identically.
                        if target > last_progress + self.watchdog_cycles {
                            watchdog_trips += 1;
                            self.double_queues_for_gridlock(&mut queue_words);
                            continue 'attempt;
                        }
                        fabric.skip_to(target);
                        cycle = target;
                        // Arrivals due exactly at `target` inject now —
                        // the loop-top pump this jump skipped over. (No
                        // arrival exists strictly between the old cycle
                        // and `target`, so the stretch stays a no-op.)
                        if let Some(sv) = serve.as_mut() {
                            sv.pump(
                                cycle,
                                &mut machines,
                                &mut hooks,
                                &mut placement,
                                &mut *net_hooks,
                                linked.start_low,
                                self.implementation.is_am(),
                                &mut runnable,
                            );
                        }
                    }
                }

                // Work stealing runs entirely between node steps: first
                // settle the previous cycle's bookkeeping (activate
                // installed frames, retire freed ones, reclaim orphaned
                // home slots), then scan for new steals. The scan is
                // gated on a runnable machine — a node with stealable
                // backlog always has a live scheduler context — so every
                // iteration a fast-forward jump skips is provably a steal
                // no-op too, keeping the two drivers bit-identical.
                if let Some(eng) = steal.as_mut() {
                    eng.settle(&steal_installed, &steal_freed, &mut machines);
                    steal_installed.clear();
                    steal_freed.clear();
                    if !runnable.is_empty() {
                        eng.scan(&mut machines, &mut fabric, &mut placement, &mut *net_hooks);
                    }
                }
                debug_assert!(
                    machines
                        .iter()
                        .enumerate()
                        .all(|(n, m)| runnable.contains(n) != m.is_idle()),
                    "runnable set out of step with the machines at cycle {cycle}"
                );

                // (1) Every runnable node executes at most one
                // instruction (lockstep: every node).
                let mut progress = false;
                let mut cursor = 0;
                while let Some(n) = if self.fast_forward {
                    runnable.next_from(cursor)
                } else {
                    (cursor < k).then_some(cursor)
                } {
                    cursor = n + 1;
                    // Dispatch is a free transition inside the machine, so
                    // the driver attributes it by counter delta: whatever
                    // the step dispatched came from the head of that
                    // priority's queue, which the trace recorder mirrors.
                    let before = if H::ENABLED {
                        machines[n].dispatch_counts()
                    } else {
                        [0, 0]
                    };
                    let stepped = {
                        let mut port = NodePort {
                            node: n as u32,
                            info: linked.net,
                            fabric: &mut fabric,
                            placement: &mut placement,
                            hooks: &mut *net_hooks,
                            serve: serve.as_mut().map(|s| s.tap(cycle)),
                            steal: steal.as_ref().map(|engine| StealView {
                                engine,
                                frees: &mut steal_freed,
                            }),
                        };
                        machines[n].step(&mut hooks[n], &mut port)
                    };
                    if H::ENABLED {
                        let after = machines[n].dispatch_counts();
                        for pri in [Priority::Low, Priority::High] {
                            let i = pri.index();
                            for _ in before[i]..after[i] {
                                net_hooks.dispatch(n as u32, pri, cycle);
                            }
                        }
                    }
                    let state = match stepped {
                        Ok(Step::Ran) => {
                            progress = true;
                            NodeState::Run
                        }
                        Ok(Step::Idle) => NodeState::Idle,
                        Ok(Step::Blocked) => {
                            stall_cycles[n] += 1;
                            NodeState::Stall
                        }
                        Ok(Step::Halted(_)) => {
                            activity[n].record_at(&mut act_next[n], cycle, NodeState::Run);
                            halted_node = Some(n);
                            cycle += 1;
                            // The done handler ran: the answer is in node
                            // 0's result words; stop the whole mesh.
                            break;
                        }
                        Err(RunError::QueueOverflow { pri }) => {
                            let i = pri.index();
                            assert!(
                                queue_words[i] < 1 << 22,
                                "queue demand implausibly large; runaway program?"
                            );
                            queue_words[i] *= 2;
                            continue 'attempt;
                        }
                        Err(e) => panic!(
                            "program {} failed on node {n} under {:?}: {e}",
                            program.name, self.implementation
                        ),
                    };
                    activity[n].record_at(&mut act_next[n], cycle, state);
                    runnable.set(n, !machines[n].is_idle());
                }
                if halted_node.is_some() {
                    break HaltReason::Explicit;
                }

                // (2) The fabric moves messages one hop. On an empty
                // fabric a tick only advances the clock, and there is
                // nothing to deliver.
                if fabric.msg_count() == 0 {
                    fabric.skip_to(cycle + 1);
                    cycle += 1;
                    if progress {
                        last_progress = cycle;
                    } else if cycle - last_progress > self.watchdog_cycles {
                        // Unreachable in practice (an empty fabric with a
                        // runnable machine always progresses or overflows
                        // first), but keep the lockstep watchdog exact.
                        watchdog_trips += 1;
                        self.double_queues_for_gridlock(&mut queue_words);
                        continue 'attempt;
                    }
                    continue;
                }
                fabric.tick_traced(&mut *net_hooks);

                // (3) Each NI with a queued arrival retires at most one
                // message (lockstep: every NI looks).
                let mut cursor = 0;
                while let Some(n) = if self.fast_forward {
                    fabric.next_occupied_recv(cursor as u32).map(|n| n as usize)
                } else {
                    (cursor < k).then_some(cursor)
                } {
                    cursor = n + 1;
                    // Work stealing intercepts two message shapes before
                    // ordinary delivery: a migration installs its frame
                    // into this node, and a message addressed to a
                    // frame that migrated *away* is forwarded to the
                    // frame's new home (FIFO links put the migration
                    // itself ahead of it on the same path, so a forward
                    // can never outrun the install).
                    if let Some(eng) = steal.as_ref() {
                        if let Some(head) = fabric.ready_recv(n as u32) {
                            if StealEngine::is_migration(&head.words) {
                                let words = head.words.clone();
                                let old = words[2].bits() as u32;
                                if eng.try_install(&mut machines[n], &words, linked.start_low) {
                                    fabric.pop_recv_traced(n as u32, &mut *net_hooks);
                                    runnable.set(n, !machines[n].is_idle());
                                    progress = true;
                                    steal_installed.push(old);
                                } else {
                                    // Target mid-system-code: hold the
                                    // install under back-pressure.
                                    fabric.note_deliver_stall_traced(n as u32, &mut *net_hooks);
                                }
                                continue;
                            }
                            if eng.has_entries()
                                && head.words.len() >= 2
                                && head.words[1].bits() <= u32::MAX as u64
                            {
                                if let Some(e) = eng.forward_of(head.words[1].bits() as u32) {
                                    let mut words = head.words.clone();
                                    words[1] = Word::from_addr(e.new);
                                    let pri = head.pri;
                                    let is_free = words[0].bits() == linked.net.ffree_addr as u64;
                                    let dest = crate::node_of(e.new);
                                    if fabric.try_inject_traced(
                                        n as u32,
                                        dest,
                                        pri,
                                        &words,
                                        &mut *net_hooks,
                                    ) {
                                        if is_free && eng.frees_new(e.new) {
                                            steal_freed.push(e.new);
                                        }
                                        fabric.pop_recv_traced(n as u32, &mut *net_hooks);
                                        progress = true;
                                    } else {
                                        // Inject queue full: the forward
                                        // waits its turn next cycle.
                                        fabric.note_deliver_stall_traced(n as u32, &mut *net_hooks);
                                    }
                                    continue;
                                }
                            }
                        }
                    }
                    let delivered = match fabric.ready_recv(n as u32) {
                        Some(msg) => machines[n].try_deliver(msg.pri, &msg.words, &mut hooks[n]),
                        None => continue,
                    };
                    if delivered {
                        fabric.pop_recv_traced(n as u32, &mut *net_hooks);
                        progress = true;
                        // AM's background scheduler suspends for good once
                        // its frame queue drains — on a single node that
                        // is provably terminal, but here the delivered
                        // message may post fresh frames. Message arrival
                        // re-arms a suspended scheduler at its entry
                        // point; if it finds nothing it just re-suspends.
                        // (MD needs no re-arm: its task queue is the
                        // hardware queue, and dispatch wakes it.)
                        if self.implementation.is_am() && machines[n].low_suspended() {
                            machines[n].start_low(linked.start_low);
                        }
                        runnable.insert(n);
                    } else {
                        fabric.note_deliver_stall_traced(n as u32, &mut *net_hooks);
                    }
                }

                cycle += 1;
                if progress || fabric.moves() != prev_moves {
                    prev_moves = fabric.moves();
                    last_progress = cycle;
                } else if cycle - last_progress > self.watchdog_cycles {
                    // Gridlock: every queue full, nothing moving.
                    watchdog_trips += 1;
                    self.double_queues_for_gridlock(&mut queue_words);
                    continue 'attempt;
                }
            };

            // Flush the lazy timelines: every node is idle from its cursor
            // to the end of the run, except that in the halt cycle the
            // nodes after the halting one never stepped.
            for (n, (track, next)) in activity.iter_mut().zip(&mut act_next).enumerate() {
                let end = match halted_node {
                    Some(h) if n > h => cycle - 1,
                    _ => cycle,
                };
                track.idle_until(next, end);
            }

            let stats: Vec<RunStats> = machines
                .iter()
                .enumerate()
                .map(|(n, m)| {
                    m.stats(if halted_node == Some(n) {
                        halt
                    } else {
                        HaltReason::Quiescent
                    })
                })
                .collect();
            let run = MeshRunResult {
                implementation: self.implementation,
                policy: self.placement,
                nodes: self.nodes,
                width: topo.width,
                height: topo.height,
                cycles: cycle,
                halt,
                result: linked.read_result(&machines[0]),
                arrays: linked.read_arrays(&machines[0]),
                instructions: stats.iter().map(|s| s.instructions).sum(),
                stats,
                counts: hooks.iter().map(|h| h.counts.counts).collect(),
                stall_cycles,
                net: fabric.stats(),
                deliver_stalls: fabric.deliver_stalls_by_node().to_vec(),
                link_stats: fabric.link_stats(),
                net_trace: None,
                queue_words,
                activity,
                live_frames: placement.live().to_vec(),
                steals: steal
                    .as_ref()
                    .map_or_else(|| vec![0; k], |e| e.steals_from.clone()),
                watchdog_trips,
                backstop_rearms,
                logs: self
                    .record
                    .then(|| hooks.into_iter().map(|h| h.log.unwrap()).collect()),
            };
            return (run, serve.map(|s| s.cells));
        }
    }

    /// Run `program` with per-node trace recording, whatever
    /// [`MeshExperiment::record`] says, and hand the logs back separately
    /// — the mesh analogue of `tamsim_core::Experiment::run_recorded`.
    ///
    /// One machine-run per configuration is all a cache sweep needs:
    /// replay each node's log into `tamsim_cache::CacheBank` banks across
    /// every geometry. Recording rides the same attempt loop as
    /// [`MeshExperiment::run`] (queue auto-sizing restarts rebuild the
    /// logs), so the returned run is bit-identical to an unrecorded one.
    pub fn run_recorded(&self, program: &Program) -> MeshRecordedRun {
        let mut run = self.recorded().run(program);
        let logs = run.logs.take().expect("recording was requested");
        MeshRecordedRun { run, logs }
    }

    /// Build and seed one machine per node.
    ///
    /// Every node gets the same code image, descriptors, and boot of its
    /// low-priority scheduler context. Node 0 additionally gets the
    /// seeded heap arrays and — unless a serve plan suppresses it
    /// (`inject_boot == false`; requests boot `main` instead) — the boot
    /// message; nodes `n > 0` skip the arrays (they live on node 0) and
    /// point their frame/heap bump allocators at *tagged* addresses, so
    /// every frame or heap cell they hand out carries its home-node tag.
    pub(crate) fn boot_nodes<'c>(&self, linked: &'c Linked, inject_boot: bool) -> Vec<Machine<'c>> {
        (0..self.nodes)
            .map(|n| {
                let mut machine = Machine::new(linked.cfg, &linked.code);
                if let Some(dec) = &linked.decoded {
                    machine.attach_decoded(dec);
                }
                for &(addr, w) in &linked.seed {
                    if n > 0 && addr >= linked.cfg.map.heap_base {
                        continue; // initial arrays live on node 0
                    }
                    machine.mem.write(addr, w);
                }
                if n > 0 {
                    let tag = node_tag(n);
                    machine.mem.write(
                        linked.net.frame_bump,
                        Word::from_addr(tag | linked.cfg.map.frame_base),
                    );
                    machine.mem.write(
                        linked.net.heap_bump,
                        Word::from_addr(tag | linked.net.heap_bump_init),
                    );
                }
                machine.start_low(linked.start_low);
                if n == 0 && inject_boot {
                    machine
                        .inject(Priority::High, &linked.boot)
                        .expect("boot message exceeds queue capacity");
                }
                machine
            })
            .collect()
    }
}
