//! Applying fault effects to a firing's live data.
//!
//! The effect-level injector (see `cg-fault`) decides *what class* of
//! error a register flip manifests as; this module applies the class
//! mechanically to the firing that was executing when the fault struck.
//! Both executors fire through [`Firing`], so a fault class is
//! interpreted once, drawing from the per-core RNG in one fixed order.

use cg_fault::{
    sample_burst_len, ControlPerturbation, CoreInjector, DetRng, EffectKind, FaultClass,
    FaultEvent, StuckAtState,
};
use cg_graph::NodeKind;
use cg_queue::{SimQueue, Which};
use commguard::{CoreGuard, Protection};
use rand::Rng;

use crate::work::WorkFn;

/// The queues one node is attached to, numbered in-edges first, then
/// out-edges: the order fault targeting draws from.
pub(crate) trait AttachedQueues {
    /// How many queues are attached.
    fn count(&self) -> usize;

    /// Runs `f` on attached queue `idx`.
    fn with_queue<R>(&mut self, idx: usize, f: impl FnOnce(&mut SimQueue) -> R) -> R;
}

/// One firing's working set, borrowed from either executor's node state.
pub(crate) struct Firing<'a> {
    pub kind: NodeKind,
    pub push_rates: &'a [u32],
    pub work: &'a mut Option<Box<dyn WorkFn>>,
    pub staged_in: &'a mut [Vec<u32>],
    pub staged_out: &'a mut [Vec<u32>],
    pub sink_buf: &'a mut Vec<u32>,
}

/// What a faulted firing can strike beyond its own buffers.
pub(crate) struct Strike<'a, Q: AttachedQueues> {
    pub injector: &'a mut CoreInjector,
    /// The latched stuck-at defect, if any.
    pub stuck: Option<StuckAtState>,
    pub queues: &'a mut Q,
    pub protection: Protection,
    /// The threaded executor's guard: each addressing error can also land
    /// in its soft state, where checked triplication heals it at the next
    /// scrub point. The deterministic executor passes `None` and draws
    /// nothing for it.
    pub guard: Option<&'a mut CoreGuard>,
}

/// Advances `injector` over a firing of `instr` instructions and
/// partitions whatever struck. `None` when nothing did and no stuck-at
/// defect is latched: the error-free firing then runs
/// [`Firing::compute`] alone.
pub(crate) fn firing_faults(
    class: FaultClass,
    injector: &mut CoreInjector,
    stuck: &mut Option<StuckAtState>,
    instr: u64,
) -> Option<FiringFaults> {
    let events = injector.advance(instr);
    if events.is_empty() && stuck.is_none() {
        return None;
    }
    Some(partition_events(class, &events, injector, stuck))
}

impl Firing<'_> {
    /// The compute body: the bound work function, or the node kind's
    /// structural behaviour.
    pub(crate) fn compute(&mut self) {
        match self.kind {
            NodeKind::Source | NodeKind::Filter => {
                let work = self.work.as_mut().expect("validated: work bound");
                work.fire(self.staged_in, self.staged_out);
            }
            NodeKind::SplitDuplicate => {
                for out in self.staged_out.iter_mut() {
                    out.extend_from_slice(&self.staged_in[0]);
                }
            }
            NodeKind::SplitRoundRobin => {
                let mut off = 0usize;
                for (port, out) in self.staged_out.iter_mut().enumerate() {
                    let take = self.push_rates[port] as usize;
                    let end = (off + take).min(self.staged_in[0].len());
                    out.extend_from_slice(&self.staged_in[0][off..end]);
                    // Short input (itself an upstream error effect): pad the
                    // distribution with zeros to keep rates structural.
                    out.resize(out.len() + take - (end - off), 0);
                    off = end;
                }
            }
            NodeKind::JoinRoundRobin => {
                for inp in self.staged_in.iter() {
                    self.staged_out[0].extend_from_slice(inp);
                }
            }
            NodeKind::Sink => {
                for inp in self.staged_in.iter() {
                    self.sink_buf.extend_from_slice(inp);
                }
            }
        }
    }

    /// Runs the compute body with `faults` applied around it: data flips
    /// on the inputs before, then output flips, bursts, the stuck-at
    /// defect, control perturbations, and addressing, pointer and header
    /// strikes after.
    pub(crate) fn run_faulted<Q: AttachedQueues>(
        &mut self,
        faults: FiringFaults,
        mut strike: Strike<'_, Q>,
    ) {
        for _ in 0..faults.pre_flips {
            let mut bufs: Vec<&mut Vec<u32>> = self.staged_in.iter_mut().collect();
            flip_random_item(&mut bufs, strike.injector.rng_mut());
        }
        let sink_mark = self.sink_buf.len();
        self.compute();
        for _ in 0..faults.post_flips {
            self.flip_output(flip_random_item, strike.injector.rng_mut());
        }
        for _ in 0..faults.bursts {
            self.flip_output(burst_flip_random_item, strike.injector.rng_mut());
        }
        if let Some(st) = strike.stuck {
            // A latched defect distorts every word the core produces.
            for out in self.staged_out.iter_mut() {
                for v in out.iter_mut() {
                    *v = st.apply(*v);
                }
            }
            for v in self.sink_buf[sink_mark..].iter_mut() {
                *v = st.apply(*v);
            }
        }
        for pert in faults.perturbations {
            apply_perturbation(self.staged_out, pert, strike.injector.rng_mut());
        }
        for _ in 0..faults.addressing {
            strike.addressing_fault(self);
        }
        for _ in 0..faults.pointer_hits {
            strike.pointer_fault(self);
        }
        for _ in 0..faults.header_hits {
            strike.header_fault(self);
        }
    }

    /// Applies `flip` to one random staged output item. Sinks have no
    /// outputs, so there the flip lands in the collected data.
    fn flip_output(
        &mut self,
        flip: fn(&mut [&mut Vec<u32>], &mut DetRng) -> bool,
        rng: &mut DetRng,
    ) {
        let mut bufs: Vec<&mut Vec<u32>> = self.staged_out.iter_mut().collect();
        if !flip(&mut bufs, rng) && self.kind == NodeKind::Sink {
            flip(&mut [&mut *self.sink_buf], rng);
        }
    }

    /// Every staged item, inputs first.
    fn staged(&mut self) -> Vec<&mut Vec<u32>> {
        self.staged_in
            .iter_mut()
            .chain(self.staged_out.iter_mut())
            .collect()
    }
}

impl<Q: AttachedQueues> Strike<'_, Q> {
    /// An addressing error: corrupts a shared queue pointer of a random
    /// attached queue (silently fatal when pointers are unprotected — the
    /// paper's QME class) or, when no queue is attached or on the
    /// local-buffer side of the coin flip, garbles a staged item.
    fn addressing_fault(&mut self, firing: &mut Firing<'_>) {
        let attached = self.queues.count();
        if attached > 0 && self.injector.rng_mut().gen::<bool>() {
            self.strike_pointer(attached);
        } else {
            garble_random_item(&mut firing.staged(), self.injector.rng_mut());
        }
        // Unprotected-header ablation: addressing errors can also strike
        // in-flight header words, silently changing their ids.
        let cfg = self.protection.guard_config();
        if cfg.is_some_and(|c| !c.protect_headers) && attached > 0 {
            let rng = self.injector.rng_mut();
            let idx = rng.gen_range(0..attached);
            let slot_seed = rng.gen::<u32>();
            let bit = rng.gen_range(0..8u32); // low id bits: nearby frames
            self.queues.with_queue(idx, |q| {
                q.corrupt_random_header_payload(slot_seed, bit);
            });
        }
        if let Some(guard) = self.guard.as_deref_mut() {
            let sel = u64::from(self.injector.rng_mut().gen::<u32>());
            guard.corrupt_guard_state(sel);
        }
    }

    /// The `PointerCorruption` fault class: every event strikes the shared
    /// head/tail pointer of a random attached queue (QME, concentrated).
    /// Falls back to garbling a staged item when the node has no queues.
    fn pointer_fault(&mut self, firing: &mut Firing<'_>) {
        match self.queues.count() {
            0 => {
                garble_random_item(&mut firing.staged(), self.injector.rng_mut());
            }
            attached => self.strike_pointer(attached),
        }
    }

    /// The `HeaderCorruption` fault class: every event flips one or two bits
    /// of an in-flight frame-header codeword on a random attached queue,
    /// stressing the HI/AM SECDED path. When no header is in flight (or no
    /// queue is attached) the event degrades to a plain item flip.
    fn header_fault(&mut self, firing: &mut Firing<'_>) {
        let attached = self.queues.count();
        let mut struck = false;
        if attached > 0 {
            let rng = self.injector.rng_mut();
            let idx = rng.gen_range(0..attached);
            let slot_seed = rng.gen::<u32>();
            // Mostly single-bit (ECC corrects); occasionally double-bit
            // (SECDED detects, AM recovers conservatively).
            let bits = if rng.gen::<f64>() < 0.25 { 2 } else { 1 };
            struck = self
                .queues
                .with_queue(idx, |q| q.corrupt_random_header_codeword(slot_seed, bits));
        }
        if !struck {
            flip_random_item(&mut firing.staged(), self.injector.rng_mut());
        }
    }

    /// Flips one bit of the shared head or tail pointer of a random one of
    /// the `attached` queues.
    fn strike_pointer(&mut self, attached: usize) {
        let rng = self.injector.rng_mut();
        let idx = rng.gen_range(0..attached);
        let which = if rng.gen::<bool>() {
            Which::Head
        } else {
            Which::Tail
        };
        let bit = rng.gen_range(0..20u32); // pointers are small counters
        self.queues
            .with_queue(idx, |q| q.corrupt_shared_pointer(which, bit));
    }
}

/// A firing's fault events, partitioned into the mechanical effects
/// [`Firing::run_faulted`] applies around the compute body.
#[derive(Debug, Default)]
pub(crate) struct FiringFaults {
    /// Data flips applied to staged inputs before compute.
    pub pre_flips: u32,
    /// Data flips applied to staged outputs after compute.
    pub post_flips: u32,
    /// Correlated multi-bit bursts applied after compute.
    pub bursts: u32,
    /// Shared-queue pointer strikes (the concentrated QME class).
    pub pointer_hits: u32,
    /// In-flight header-codeword strikes.
    pub header_hits: u32,
    /// Control-flow perturbations applied to the firing's outputs.
    pub perturbations: Vec<ControlPerturbation>,
    /// Addressing errors (queue pointer or local-buffer garble).
    pub addressing: u32,
}

/// Partitions the firing's fault events per the configured fault class.
/// The baseline follows the effect model (data flips before/after
/// compute, control perturbations after, addressing immediately); the
/// structured classes concentrate every non-masked event into their
/// mode. A `StuckAt` event latches the defect into `stuck` permanently.
fn partition_events(
    class: FaultClass,
    events: &[FaultEvent],
    injector: &mut CoreInjector,
    stuck: &mut Option<StuckAtState>,
) -> FiringFaults {
    let mut f = FiringFaults::default();
    for ev in events {
        match (class, ev.kind) {
            (_, EffectKind::Silent) => {}
            (FaultClass::PointerCorruption, _) => f.pointer_hits += 1,
            (FaultClass::HeaderCorruption, _) => f.header_hits += 1,
            (FaultClass::StuckAt, _) => {
                // The first event latches the defect permanently; later
                // events land on an already-stuck datapath.
                if stuck.is_none() {
                    *stuck = Some(StuckAtState::sample(injector.rng_mut()));
                }
            }
            (FaultClass::Burst, EffectKind::DataValue) => f.bursts += 1,
            (FaultClass::Baseline, EffectKind::DataValue) => {
                if injector.rng_mut().gen::<bool>() {
                    f.pre_flips += 1;
                } else {
                    f.post_flips += 1;
                }
            }
            (FaultClass::Baseline | FaultClass::Burst, EffectKind::ControlFlow) => {
                let model = *injector.model();
                f.perturbations
                    .push(model.sample_perturbation(injector.rng_mut()));
            }
            (FaultClass::Baseline | FaultClass::Burst, EffectKind::Addressing) => {
                f.addressing += 1;
            }
        }
    }
    f
}

/// Flips one random bit of one random item across the given buffers.
/// Returns `false` when every buffer is empty (the flip was absorbed by
/// dead state — effectively masked).
fn flip_random_item(bufs: &mut [&mut Vec<u32>], rng: &mut DetRng) -> bool {
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    if total == 0 {
        return false;
    }
    let mut idx = rng.gen_range(0..total);
    for buf in bufs {
        if idx < buf.len() {
            let bit = rng.gen_range(0..32u32);
            buf[idx] ^= 1 << bit;
            return true;
        }
        idx -= buf.len();
    }
    unreachable!("index within total length")
}

/// Applies a correlated burst to one random item: a run of adjacent bits
/// flips together, and with probability ½ the burst spills into the next
/// item at the same bit positions (a strike across adjacent cells).
/// Returns `false` when every buffer is empty.
fn burst_flip_random_item(bufs: &mut [&mut Vec<u32>], rng: &mut DetRng) -> bool {
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    if total == 0 {
        return false;
    }
    let len = sample_burst_len(rng);
    let start = rng.gen_range(0..32u32.saturating_sub(len - 1).max(1));
    let mask = (((1u64 << len) - 1) as u32) << start;
    let spill = rng.gen::<bool>();
    let mut idx = rng.gen_range(0..total);
    for buf in bufs {
        if idx < buf.len() {
            buf[idx] ^= mask;
            if spill && idx + 1 < buf.len() {
                buf[idx + 1] ^= mask;
            }
            return true;
        }
        idx -= buf.len();
    }
    unreachable!("index within total length")
}

/// Replaces one random item with an arbitrary word (a load/store that went
/// to the wrong local address). Returns `false` when buffers are empty.
fn garble_random_item(bufs: &mut [&mut Vec<u32>], rng: &mut DetRng) -> bool {
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    if total == 0 {
        return false;
    }
    let mut idx = rng.gen_range(0..total);
    for buf in bufs {
        if idx < buf.len() {
            buf[idx] = rng.gen();
            return true;
        }
        idx -= buf.len();
    }
    unreachable!("index within total length")
}

/// Applies a control-flow perturbation to the firing's staged outputs:
/// the firing pushes extra garbage items, loses trailing items, skips its
/// body, or runs twice. Bounded by construction — the PPU guarantee that
/// control errors cannot escape the firing.
fn apply_perturbation(outputs: &mut [Vec<u32>], pert: ControlPerturbation, rng: &mut DetRng) {
    if outputs.is_empty() {
        return;
    }
    match pert {
        ControlPerturbation::ExtraItems(k) => {
            let port = rng.gen_range(0..outputs.len());
            for _ in 0..k {
                outputs[port].push(rng.gen());
            }
        }
        ControlPerturbation::LostItems(k) => {
            let port = rng.gen_range(0..outputs.len());
            let keep = outputs[port].len().saturating_sub(k as usize);
            outputs[port].truncate(keep);
        }
        ControlPerturbation::SkipFiring => {
            for out in outputs.iter_mut() {
                out.clear();
            }
        }
        ControlPerturbation::ExtraFiring => {
            for out in outputs.iter_mut() {
                let copy = out.clone();
                out.extend(copy);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_fault::core_rng;

    #[test]
    fn flip_changes_one_bit() {
        let mut rng = core_rng(1, 0);
        let mut a = vec![0u32; 4];
        let mut b = vec![0u32; 4];
        {
            let mut bufs = [&mut a, &mut b];
            assert!(flip_random_item(&mut bufs, &mut rng));
        }
        let ones: u32 = a.iter().chain(&b).map(|v| v.count_ones()).sum();
        assert_eq!(ones, 1);
    }

    #[test]
    fn flip_on_empty_is_masked() {
        let mut rng = core_rng(1, 0);
        let mut a: Vec<u32> = Vec::new();
        let mut bufs = [&mut a];
        assert!(!flip_random_item(&mut bufs, &mut rng));
    }

    #[test]
    fn burst_flips_adjacent_bits() {
        let mut rng = core_rng(8, 0);
        for _ in 0..200 {
            let mut a = vec![0u32; 6];
            {
                let mut bufs = [&mut a];
                assert!(burst_flip_random_item(&mut bufs, &mut rng));
            }
            let hit: Vec<u32> = a.iter().copied().filter(|&v| v != 0).collect();
            // One item (or two adjacent with identical masks on spill).
            assert!((1..=2).contains(&hit.len()));
            for &v in &hit {
                let ones = v.count_ones();
                assert!((2..=8).contains(&ones), "burst width {ones}");
                // Contiguous run: v is a shifted block of ones.
                assert_eq!(v >> v.trailing_zeros(), (1 << ones) - 1);
            }
            if hit.len() == 2 {
                assert_eq!(hit[0], hit[1], "spill reuses the mask");
            }
        }
    }

    #[test]
    fn burst_on_empty_is_masked() {
        let mut rng = core_rng(8, 0);
        let mut a: Vec<u32> = Vec::new();
        let mut bufs = [&mut a];
        assert!(!burst_flip_random_item(&mut bufs, &mut rng));
    }

    #[test]
    fn garble_replaces_one_item() {
        let mut rng = core_rng(2, 0);
        let mut a = vec![7u32; 8];
        {
            let mut bufs = [&mut a];
            assert!(garble_random_item(&mut bufs, &mut rng));
        }
        let changed = a.iter().filter(|&&v| v != 7).count();
        assert_eq!(changed, 1);
    }

    #[test]
    fn perturbations_change_counts() {
        let mut rng = core_rng(3, 0);
        let mut out = vec![vec![1, 2, 3], vec![4, 5]];
        apply_perturbation(&mut out, ControlPerturbation::ExtraItems(2), &mut rng);
        assert_eq!(out[0].len() + out[1].len(), 7);
        apply_perturbation(&mut out, ControlPerturbation::LostItems(1), &mut rng);
        assert_eq!(out[0].len() + out[1].len(), 6);
        apply_perturbation(&mut out, ControlPerturbation::ExtraFiring, &mut rng);
        assert_eq!(out[0].len() + out[1].len(), 12);
        apply_perturbation(&mut out, ControlPerturbation::SkipFiring, &mut rng);
        assert_eq!(out[0].len() + out[1].len(), 0);
    }

    #[test]
    fn lost_items_saturates() {
        let mut rng = core_rng(4, 0);
        let mut out = vec![vec![1u32]];
        apply_perturbation(&mut out, ControlPerturbation::LostItems(10), &mut rng);
        assert!(out[0].is_empty());
    }
}
