#include "ort.hh"

#include <algorithm>

#include "obs/trace.hh"

namespace tss
{

Ort::Ort(std::string name, EventQueue &eq, Network &network, NodeId node,
         unsigned ort_index, const PipelineConfig &config,
         FrontendStats &frontend_stats, const Footprint *footprint)
    : FrontendModule(std::move(name), eq, network, node),
      ortIndex(ort_index), cfg(config), stats(frontend_stats),
      edram(config.ortTotalBytes / config.totalOrt(),
            config.edramLatency),
      numSets(config.ortSets()),
      freeSlots(config.slotsPerOvt(),
                footprint ? footprint->slices.at(ort_index).versionSlots
                          : config.slotsPerOvt())
{
    std::uint32_t used = 0;
    setBase.assign(numSets, noSet);
    for (std::uint32_t set = 0; set < setBase.size(); ++set) {
        if (!footprint || footprint->slices[ort_index].sets[set])
            setBase[set] = cfg.ortWays * used++;
    }
    ways.assign(std::size_t(used) * cfg.ortWays, Entry{});
    slots.assign(freeSlots.reach(), Slot{});
    reserveSlots = std::min<std::uint32_t>(layout::maxOperands,
                                           freeSlots.capacity());
}

std::size_t
Ort::ticketParkedOperands() const
{
    std::size_t n = 0;
    for (const auto &[addr, waiting] : deferredByAddr)
        n += waiting.size();
    return n;
}

Ort::ParkedOperand
Ort::oldestParked() const
{
    ParkedOperand oldest;
    auto consider = [&](const DecodeOperandMsg &msg, bool for_slot) {
        // Deterministic winner: (trace index, operand index) — the
        // container iteration order (an unordered_map) must not show.
        if (oldest.valid &&
            (oldest.traceIndex < msg.traceIndex ||
             (oldest.traceIndex == msg.traceIndex &&
              oldest.operand <= msg.op.index))) {
            return;
        }
        oldest.valid = true;
        oldest.traceIndex = msg.traceIndex;
        oldest.operand = msg.op.index;
        oldest.addr = msg.addr;
        oldest.forSlot = for_slot;
    };
    for (const auto &msg : slotWaiters)
        consider(msg, true);
    for (const auto &[addr, waiting] : deferredByAddr) {
        for (const auto &msg : waiting)
            consider(msg, false);
    }
    return oldest;
}

std::size_t
Ort::liveEntries() const
{
    std::size_t n = 0;
    for (const auto &e : ways)
        n += e.valid ? 1 : 0;
    return n;
}

Ort::Entry *
Ort::lookup(std::uint64_t addr, bool &hit, std::uint32_t &index)
{
    std::uint32_t set = PipelineConfig::ortSetOf(addr, numSets);
    std::uint32_t first = setBase[set];
    TSS_ASSERT(first != noSet, "ORT %u: object %#llx maps to set %u, "
               "outside the trace's footprint", ortIndex,
               static_cast<unsigned long long>(addr), set);
    Entry *base = &ways[first];

    for (unsigned w = 0; w < cfg.ortWays; ++w) {
        if (base[w].valid && base[w].addr == addr) {
            hit = true;
            index = first + w;
            return &base[w];
        }
    }
    hit = false;
    // Prefer an invalid way, then a reclaimable (dead object) way.
    for (unsigned w = 0; w < cfg.ortWays; ++w) {
        if (!base[w].valid) {
            index = first + w;
            return &base[w];
        }
    }
    for (unsigned w = 0; w < cfg.ortWays; ++w) {
        if (base[w].liveVersions == 0) {
            sampleChain(base[w]);
            base[w] = Entry{};
            index = first + w;
            return &base[w];
        }
    }
    return nullptr;
}

Ort::Entry &
Ort::entryAt(std::uint32_t index)
{
    TSS_ASSERT(index < ways.size(), "ORT %u: entry %u out of range",
               ortIndex, index);
    return ways[index];
}

Ort::Slot &
Ort::slotAt(std::uint32_t slot)
{
    TSS_ASSERT(slot < slots.size(), "ORT %u: version slot %u out of "
               "range", ortIndex, slot);
    return slots[slot];
}

void
Ort::sampleChain(Entry &entry)
{
    if (entry.valid && entry.hasCurVersion)
        stats.chainConsumers.sample(entry.chainHops);
}

Ort::Service
Ort::process(ProtoMsg &msg)
{
    switch (msg.type) {
      case MsgType::DecodeOperand: {
        Service svc = handleDecode(static_cast<DecodeOperandMsg &>(msg));
        if (!svc.parked)
            returnCredit(msg.src);
        return svc;
      }
      case MsgType::DecodeAdmit:
        return handleDecode(static_cast<DecodeOperandMsg &>(msg));
      case MsgType::DecodeBatch: {
        Service svc = handleBatch(static_cast<DecodeBatchMsg &>(msg));
        if (!svc.parked)
            returnCredit(msg.src);
        return svc;
      }
      case MsgType::VersionDead:
        return handleVersionDead(static_cast<VersionDeadMsg &>(msg));
      case MsgType::VersionQuiescent:
        return handleQuiescent(static_cast<VersionQuiescentMsg &>(msg));
      case MsgType::WatermarkAdvance:
        // Data-free wakeup from a subscribed TRS (see protocol.hh):
        // the watermark moved, so a capacity-parked operand may now
        // be the machine-oldest and eligible for the reserve escape.
        wakeSlotWaiters();
        return {1, false};
      default:
        panic("ORT %u: unexpected message type %d", ortIndex,
              static_cast<int>(msg.type));
    }
}

bool
Ort::admissible(const DecodeOperandMsg &msg, const AdmitState &st)
{
    if (msg.epoch != st.epoch)
        return false;
    // Readers of the current epoch commute; the epoch's closing
    // writer must wait for all of them.
    return !writesObject(msg.dir) || st.readsSeen == msg.priorReads;
}

void
Ort::commitAdmission(const DecodeOperandMsg &msg)
{
    AdmitState &st = admitState[msg.addr];
    if (writesObject(msg.dir)) {
        st.epoch = msg.epoch + 1;
        st.readsSeen = 0;
    } else {
        ++st.readsSeen;
    }

    auto it = deferredByAddr.find(msg.addr);
    if (it == deferredByAddr.end())
        return;
    auto &waiting = it->second;
    for (std::size_t i = 0; i < waiting.size();) {
        if (admissible(waiting[i], st)) {
            obs::trace(obs::TraceEvent::OperandUnpark, curCycle(),
                       ortIndex, waiting[i].addr);
            sendMsg(nodeId(),
                    std::make_unique<DecodeAdmitMsg>(waiting[i]));
            waiting[i] = waiting.back();
            waiting.pop_back();
        } else {
            ++i;
        }
    }
    if (waiting.empty())
        deferredByAddr.erase(it);
}

Ort::Service
Ort::handleDecode(DecodeOperandMsg &msg)
{
    // Out-of-ticket-order operand for a shared object: park it aside
    // (a tag probe's worth of service) and let the queue flow. Its
    // re-arbitration is injected by commitAdmission.
    if (orderedAdmission && !admissible(msg, admitState[msg.addr])) {
        deferredByAddr[msg.addr].push_back(msg);
        ++deferrals;
        obs::trace(obs::TraceEvent::OperandTicketPark, curCycle(),
                   ortIndex, msg.addr);
        // The park costs a tag probe — unless the ideal-admission
        // oracle is measuring what that protocol cost buys.
        if (cfg.idealAdmission)
            return {1, false};
        return {cfg.packetLatency + edram.read(), false};
    }

    // Two sequential 64 B tag-block reads per lookup (section IV-B.3).
    Cycle cost = cfg.packetLatency + edram.read(2);

    bool hit = false;
    std::uint32_t index = 0;
    Entry *entry = lookup(msg.addr, hit, index);

    bool needs_version = !hit || !entry || !entry->hasCurVersion ||
        writesObject(msg.dir);
    bool blocked = !entry ||
        (needs_version && freeSlots.empty() && !orderedAdmission);
    if (blocked) {
        // Full set (or no version credits without the reserve
        // escape): stall every gateway that feeds this directory
        // slice until a version dies, leaving the packet parked at
        // the head.
        if (!stallSent) {
            stallSent = true;
            stallStarted = curCycle();
            ++stalls;
            for (NodeId gw : gatewayNodes)
                sendMsg(gw, std::make_unique<GatewayStallMsg>());
        }
        return {cost, true};
    }

    if (orderedAdmission) {
        if (needs_version) {
            // Reserve rule: with the pool at the reserve mark, only
            // the machine-oldest task claims; everyone else parks
            // aside (the queue keeps flowing) and re-arbitrates on a
            // version death or watermark advance.
            if (!canClaimSlot(msg))
                return parkForSlot(msg, cost);
        } else if (slotAt(entry->curVersion).reserved &&
                   !isOldestTask(msg)) {
            // Joining a reserve-claimed version would pin a reserve
            // slot with a younger task — the liveness argument needs
            // reserve slots pinned only by tasks at or before the
            // claim-time oldest, so the younger reader parks too.
            return parkForSlot(msg, cost);
        }
    }

    if (stallSent) {
        stallSent = false;
        stats.gatewayStallCycles += curCycle() - stallStarted;
        for (NodeId gw : gatewayNodes)
            sendMsg(gw, std::make_unique<GatewayResumeMsg>());
    }

    if (!entry->valid) {
        entry->valid = true;
        entry->addr = msg.addr;
    }

    VersionRef cur{static_cast<std::uint16_t>(ortIndex),
                   entry->curVersion};

    if (readsObject(msg.dir) && !writesObject(msg.dir)) {
        // Pure input operand (Figure 8).
        if (entry->hasCurVersion) {
            ++slotAt(entry->curVersion).readersIssued;
            sendMsg(ovtNode, std::make_unique<AddReaderMsg>(
                entry->curVersion, msg.op));
            OperandId chain_to =
                cfg.consumerChaining ? entry->lastUser : OperandId{};
            if (cfg.consumerChaining)
                ++entry->chainHops;
            sendMsg(trsNodes[msg.op.task.trs],
                    std::make_unique<OperandInfoMsg>(
                        msg.op, msg.dir, msg.objectBytes, cur, chain_to,
                        false, 0));
        } else {
            // Miss (or all versions dead): the data rests in memory.
            std::uint32_t slot = claimSlot();
            slots[slot].readersIssued = 1;
            sendMsg(ovtNode, std::make_unique<CreateVersionMsg>(
                slot, slots[slot].epoch, OperandId{}, msg.addr,
                msg.objectBytes, false, false, 0, index));
            sendMsg(ovtNode,
                    std::make_unique<AddReaderMsg>(slot, msg.op));
            entry->hasCurVersion = true;
            entry->curVersion = slot;
            ++entry->liveVersions;
            entry->chainHops = 0;
            VersionRef v0{static_cast<std::uint16_t>(ortIndex), slot};
            sendMsg(trsNodes[msg.op.task.trs],
                    std::make_unique<OperandInfoMsg>(
                        msg.op, msg.dir, msg.objectBytes, v0,
                        OperandId{}, true, msg.addr));
        }
    } else {
        // Writer: output or inout (Figures 7 and 9).
        bool in_place = msg.dir == Dir::InOut || !cfg.renameOutputs;
        bool has_prev = entry->hasCurVersion;
        std::uint32_t prev = entry->curVersion;

        std::uint32_t slot = claimSlot();
        slots[slot].readersIssued = 0;

        bool reads = readsObject(msg.dir);
        OperandId chain_to;
        bool ready_now = false;
        if (reads) {
            if (has_prev && cfg.consumerChaining) {
                chain_to = entry->lastUser;
                ++entry->chainHops; // the inout joins the old chain
            } else if (!has_prev) {
                ready_now = true; // input data rests in memory
            }
        }

        if (has_prev)
            sampleChain(*entry); // close the superseded version's chain

        sendMsg(ovtNode, std::make_unique<CreateVersionMsg>(
            slot, slots[slot].epoch, msg.op, msg.addr, msg.objectBytes,
            !in_place, has_prev, prev, index));

        VersionRef produced{static_cast<std::uint16_t>(ortIndex), slot};
        auto info = std::make_unique<OperandInfoMsg>(
            msg.op, msg.dir, msg.objectBytes, produced, chain_to,
            ready_now, 0);
        if (reads && has_prev) {
            info->waitVersion =
                VersionRef{static_cast<std::uint16_t>(ortIndex), prev};
        }
        sendMsg(trsNodes[msg.op.task.trs], std::move(info));

        entry->hasCurVersion = true;
        entry->curVersion = slot;
        ++entry->liveVersions;
        entry->chainHops = 0;
    }

    entry->lastUser = msg.op;
    if (orderedAdmission)
        commitAdmission(msg);
    cost += edram.write(); // entry update
    return {cost, false};
}

bool
Ort::isOldestTask(const DecodeOperandMsg &msg) const
{
    // A decoding task cannot have finished (readiness needs all its
    // operand info), so its index is never below the watermark;
    // equality means it *is* the machine-wide oldest unfinished task.
    return msg.traceIndex == registry->minUnfinishedIndex();
}

bool
Ort::canClaimSlot(const DecodeOperandMsg &msg) const
{
    if (freeSlots.empty())
        return false;
    if (isOldestTask(msg))
        return true; // ROB-head escape: may drain into the reserve
    return freeSlots.numFree() > reserveSlots;
}

std::uint32_t
Ort::claimSlot()
{
    // Claims made at or below the reserve mark (the escape regime)
    // are flagged: such versions admit no younger readers, so the
    // reserve is only ever pinned by tasks the watermark has already
    // passed or is at — all of which finish and return it.
    bool from_reserve =
        orderedAdmission && freeSlots.numFree() <= reserveSlots;
    std::uint32_t slot = freeSlots.claim();
    slots[slot].reserved = from_reserve;
    if (from_reserve) {
        obs::trace(obs::TraceEvent::VersionReserved, curCycle(),
                   ortIndex, slot);
    }
    return slot;
}

Ort::Service
Ort::parkForSlot(const DecodeOperandMsg &msg, Cycle cost)
{
    slotWaiters.push_back(msg);
    ++slotParks;
    obs::trace(obs::TraceEvent::OperandSlotPark, curCycle(), ortIndex,
               msg.addr);
    if (!starveSubscribed) {
        // First starvation: subscribe to every TRS's watermark
        // advances. Each TRS acks with an immediate wakeup, so an
        // advance that fired before the subscription landed cannot
        // become a missed wakeup.
        starveSubscribed = true;
        for (NodeId trs : trsNodes)
            sendMsg(trs, std::make_unique<SliceStarvedMsg>());
    }
    return {cost, false};
}

void
Ort::wakeSlotWaiters()
{
    if (slotWaiters.empty())
        return;
    // Canonical wake order: (trace index, operand index) — oldest
    // first, independent of park order, so re-arbitration is
    // deterministic and the machine-oldest task is served first.
    std::sort(slotWaiters.begin(), slotWaiters.end(),
              [](const DecodeOperandMsg &a, const DecodeOperandMsg &b) {
                  if (a.traceIndex != b.traceIndex)
                      return a.traceIndex < b.traceIndex;
                  return a.op.index < b.op.index;
              });
    // Wake a prefix under a conservative slot budget (a woken
    // operand may not need a slot — joining a version instead — but
    // over-waking just re-parks, and under-waking never strands: the
    // next death or advance rescans).
    std::size_t budget = freeSlots.numFree();
    std::uint32_t oldest = registry->minUnfinishedIndex();
    std::size_t n = 0;
    for (; n < slotWaiters.size() && budget > 0; ++n) {
        bool is_oldest = slotWaiters[n].traceIndex == oldest;
        if (!is_oldest && budget <= reserveSlots)
            break;
        --budget;
    }
    for (std::size_t i = 0; i < n; ++i) {
        obs::trace(obs::TraceEvent::OperandUnpark, curCycle(),
                   ortIndex, slotWaiters[i].addr);
        sendMsg(nodeId(),
                std::make_unique<DecodeAdmitMsg>(slotWaiters[i]));
    }
    slotWaiters.erase(slotWaiters.begin(),
                      slotWaiters.begin() + static_cast<long>(n));
}

void
Ort::returnCredit(NodeId gateway)
{
    if (cfg.slicePacketCredits == 0)
        return;
    sendMsg(gateway, std::make_unique<DecodeCreditMsg>(ortIndex));
}

Ort::Service
Ort::handleBatch(DecodeBatchMsg &msg)
{
    // Service the packed descriptors in order, accumulating their
    // individual costs. A blocked descriptor parks the whole packet
    // with the cursor at the blocked position, so a later unpark
    // resumes exactly where servicing stopped (descriptors already
    // handled are never replayed).
    Cycle cost = 0;
    while (msg.next < msg.ops.size()) {
        Service svc = handleDecode(msg.ops[msg.next]);
        cost += svc.cost;
        if (svc.parked)
            return {cost, true};
        ++msg.next;
    }
    return {std::max<Cycle>(cost, 1), false};
}

Ort::Service
Ort::handleVersionDead(VersionDeadMsg &msg)
{
    freeSlots.release(msg.slot);
    Slot &slot = slotAt(msg.slot);
    ++slot.epoch;
    slot.reserved = false;
    Entry &entry = entryAt(msg.ortEntry);
    TSS_ASSERT(entry.valid && entry.liveVersions > 0,
               "version death for idle ORT entry");
    --entry.liveVersions;
    if (entry.hasCurVersion && entry.curVersion == msg.slot) {
        sampleChain(entry);
        entry.hasCurVersion = false;
    }
    unpark();
    wakeSlotWaiters();
    return {cfg.packetLatency, false};
}

Ort::Service
Ort::handleQuiescent(VersionQuiescentMsg &msg)
{
    Entry &entry = entryAt(msg.ortEntry);
    const Slot &slot = slotAt(msg.slot);
    // Grant retirement only if the hint is fresh (same slot
    // incarnation), this is still the current version, and every
    // reader registration we ever issued for the slot has been seen
    // by the OVT (none in flight). Otherwise deny silently; the
    // in-flight reader's eventual release re-arms the hint.
    bool fresh = slot.epoch == msg.epoch;
    bool current = entry.valid && entry.hasCurVersion &&
        entry.curVersion == msg.slot;
    if (fresh && current && slot.readersIssued == msg.readersSeen) {
        sampleChain(entry);
        entry.hasCurVersion = false;
        sendMsg(ovtNode,
                std::make_unique<RetireVersionMsg>(msg.slot,
                                                   msg.epoch));
    }
    return {cfg.packetLatency, false};
}

} // namespace tss
