#include "tracecache/fill_unit.hh"

#include "cluster/station.hh"
#include "common/logging.hh"
#include "obs/sink.hh"

namespace ctcp {

FillUnit::FillUnit(const TraceCacheConfig &cfg, unsigned num_clusters,
                   unsigned slots_per_cluster, TraceCache &tc,
                   RetireAssignmentPolicy &policy)
    : cfg_(cfg), numClusters_(num_clusters),
      slotsPerCluster_(slots_per_cluster), tc_(tc), policy_(policy)
{
    ctcp_assert(num_clusters * slots_per_cluster == cfg.maxInsts,
                "trace line size must equal total issue slots");
}

void
FillUnit::retire(const TimedInst &inst, Cycle now)
{
    PendingInst p;
    p.op = inst.dyn.op;
    p.taken = inst.dyn.taken;
    p.nextPc = inst.dyn.nextPc;

    DraftInst &d = p.draft;
    d.pc = inst.dyn.pc;
    d.dst = inst.dyn.dst;
    d.src1 = inst.dyn.src1;
    d.src2 = inst.dyn.src2;
    d.writesDst = inst.dyn.hasDst();
    const TimedInstCold &cold = inst.cold();
    d.criticalSrc = cold.criticalSrc;
    d.criticalForwarded = cold.criticalForwarded;
    d.criticalInterTrace = cold.criticalInterTrace;
    d.criticalProducerPc = cold.criticalProducerPc;
    d.criticalProducerProfile = cold.criticalProducerProfile;
    d.carriedProfile = inst.profile;
    d.newProfile = inst.profile;   // policies may refine

    pending_.push_back(p);

    bool done = false;
    if (isBranch(p.op)) {
        ++blocks_;
        if (isIndirect(p.op) || blocks_ >= cfg_.maxBlocks)
            done = true;
        // A backward taken branch (loop-closing edge) also ends the
        // trace. This aligns trace boundaries to loop bodies so that a
        // loop reconstructs the same trace identities every iteration,
        // which is what lets the FDRT profile fields accumulate
        // meaningful history instead of phase-shifted noise.
        if (inst.dyn.taken && inst.dyn.targetPc <= inst.dyn.pc)
            done = true;
    }
    if (pending_.size() >= cfg_.maxInsts || p.op == Opcode::Halt)
        done = true;
    if (done)
        finalize(now);
}

void
FillUnit::flush()
{
    if (!pending_.empty())
        finalize(0);
}

void
FillUnit::analyzeIntraTrace(TraceDraft &draft) const
{
    const std::size_t n = draft.insts.size();
    // Critical intra-trace producer: last earlier writer of the
    // dynamically critical source register.
    for (std::size_t i = 0; i < n; ++i) {
        DraftInst &d = draft.insts[i];
        d.intraProducer = -1;
        if (d.criticalSrc == 0)
            continue;
        const RegId reg = d.criticalSrc == 1 ? d.src1 : d.src2;
        if (reg == invalidReg || reg == zeroReg)
            continue;
        for (std::size_t j = i; j-- > 0;) {
            if (draft.insts[j].writesDst && draft.insts[j].dst == reg) {
                d.intraProducer = static_cast<int>(j);
                break;
            }
        }
    }
    // Intra-trace consumer: someone later reads our destination before
    // it is redefined.
    for (std::size_t i = 0; i < n; ++i) {
        DraftInst &d = draft.insts[i];
        d.hasIntraConsumer = false;
        if (!d.writesDst)
            continue;
        for (std::size_t j = i + 1; j < n; ++j) {
            const DraftInst &c = draft.insts[j];
            if ((c.src1 == d.dst) || (c.src2 == d.dst)) {
                d.hasIntraConsumer = true;
                break;
            }
            if (c.writesDst && c.dst == d.dst)
                break;   // redefined before any use
        }
    }
}

void
FillUnit::finalize(Cycle now)
{
    ctcp_assert(!pending_.empty(), "finalize with no pending instructions");

    TraceDraft &draft = draftScratch_;
    draft.numClusters = numClusters_;
    draft.slotsPerCluster = slotsPerCluster_;
    draft.insts.clear();
    draft.insts.reserve(pending_.size());
    for (const PendingInst &p : pending_)
        draft.insts.push_back(p.draft);

    analyzeIntraTrace(draft);
    policy_.setObsCycle(now);
    policy_.assign(draft);

    TraceLine line;
    line.key.startPc = pending_.front().draft.pc;
    unsigned blocks = 0;
    for (const PendingInst &p : pending_) {
        if (isBranch(p.op)) {
            ++blocks;
            if (isConditionalBranch(p.op)) {
                ctcp_assert(line.key.numCondBranches < traceLineMaxBranches,
                            "too many conditional branches in one trace");
                if (p.taken)
                    line.key.condDirs |=
                        1u << line.key.numCondBranches;
                line.condBranchPcs.push_back(p.draft.pc);
                ++line.key.numCondBranches;
            }
            if (isIndirect(p.op))
                line.endsWithIndirect = true;
        }
    }
    // A line that does not end on a branch ends inside one more block.
    if (!isBranch(pending_.back().op))
        ++blocks;
    line.numBlocks = static_cast<std::uint8_t>(blocks);
    line.successorPc = pending_.back().nextPc;

    line.insts.reserve(draft.insts.size());
    for (std::size_t i = 0; i < draft.insts.size(); ++i) {
        const DraftInst &d = draft.insts[i];
        ctcp_assert(d.physSlot >= 0 &&
                    d.physSlot < static_cast<int>(draft.totalSlots()),
                    "policy left an instruction without a physical slot");
        TraceSlot slot;
        slot.pc = d.pc;
        slot.physSlot = static_cast<std::uint8_t>(d.physSlot);
        // Memoized dispatch plan: this line's slot→cluster routing and
        // the instruction's station class are fixed once the policy
        // has placed it, so compute them here — fetch replays the two
        // bytes instead of re-deriving them per delivered instruction.
        slot.cluster =
            static_cast<std::uint8_t>(slot.physSlot / slotsPerCluster_);
        slot.station = static_cast<std::uint8_t>(
            stationFor(opcodeInfo(pending_[i].op).fu));
        slot.profile = d.newProfile;
        line.insts.push_back(slot);
    }

    if (observer_)
        observer_->onTraceConstructed(draft, line);
    if (obs_ && obs_->enabled(ObsKind::TraceBuild)) {
        ObsEvent ev;
        ev.cycle = now;
        ev.kind = ObsKind::TraceBuild;
        ev.pc = line.key.startPc;
        ev.arg0 = static_cast<std::int64_t>(draft.insts.size());
        ev.arg1 = line.numBlocks;
        obs_->record(ev);
    }

    ++traces_;
    instsInTraces_ += pending_.size();
    tc_.insert(std::move(line), now + cfg_.fillLatency);

    pending_.clear();
    blocks_ = 0;
}

void
FillUnit::dumpStats(StatDump &out) const
{
    out.scalar("fill.traces_built", traces_.value());
    out.scalar("fill.mean_trace_size", meanTraceSize());
}

} // namespace ctcp
