#include "obs/trace.hh"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

namespace tss
{
namespace obs
{

thread_local TraceBuf *traceBuf = nullptr;

std::uint32_t
categoryOf(TraceEvent type)
{
    switch (type) {
      case TraceEvent::TaskSubmit:
      case TraceEvent::TaskAlloc:
      case TraceEvent::TaskDecodeDone:
      case TraceEvent::TaskReady:
      case TraceEvent::TaskDispatch:
      case TraceEvent::TaskStart:
      case TraceEvent::TaskRetire:
      case TraceEvent::OperandTicketPark:
      case TraceEvent::OperandSlotPark:
      case TraceEvent::OperandUnpark:
        return cat::task;
      case TraceEvent::VersionCreate:
      case TraceEvent::VersionReserved:
      case TraceEvent::VersionDead:
        return cat::version;
      case TraceEvent::NocSend:
      case TraceEvent::NocDeliver:
      case TraceEvent::NocLaneWait:
        return cat::noc;
      case TraceEvent::WindowBarrier:
        return cat::engine;
    }
    return cat::all;
}

const char *
traceEventName(TraceEvent type)
{
    switch (type) {
      case TraceEvent::TaskSubmit: return "task.submit";
      case TraceEvent::TaskAlloc: return "task.alloc";
      case TraceEvent::TaskDecodeDone: return "task.decode";
      case TraceEvent::TaskReady: return "task.ready";
      case TraceEvent::TaskDispatch: return "task.dispatch";
      case TraceEvent::TaskStart: return "task.start";
      case TraceEvent::TaskRetire: return "task.retire";
      case TraceEvent::OperandTicketPark: return "ort.park.ticket";
      case TraceEvent::OperandSlotPark: return "ort.park.slot";
      case TraceEvent::OperandUnpark: return "ort.unpark";
      case TraceEvent::VersionCreate: return "ovt.create";
      case TraceEvent::VersionReserved: return "ovt.reserved";
      case TraceEvent::VersionDead: return "ovt.dead";
      case TraceEvent::NocSend: return "noc.send";
      case TraceEvent::NocDeliver: return "noc.deliver";
      case TraceEvent::NocLaneWait: return "noc.lanewait";
      case TraceEvent::WindowBarrier: return "engine.window";
    }
    return "unknown";
}

namespace
{

const char *
categoryName(TraceEvent type)
{
    switch (categoryOf(type)) {
      case cat::task: return "task";
      case cat::version: return "version";
      case cat::noc: return "noc";
      case cat::engine: return "engine";
    }
    return "other";
}

struct NamedCat
{
    const char *name;
    std::uint32_t bit;
};

constexpr NamedCat namedCats[] = {
    {"task", cat::task},   {"version", cat::version},
    {"noc", cat::noc},     {"engine", cat::engine},
    {"serve", cat::serve},
};

} // namespace

std::uint32_t
parseTraceFilter(const std::string &spec)
{
    if (spec.empty() || spec == "all")
        return cat::all;
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string name = spec.substr(pos, comma - pos);
        if (name == "all")
            mask |= cat::all;
        for (const NamedCat &c : namedCats)
            if (name == c.name)
                mask |= c.bit;
        pos = comma + 1;
    }
    return mask;
}

std::string
formatTraceFilter(std::uint32_t mask)
{
    if ((mask & cat::all) == cat::all)
        return "all";
    std::string out;
    for (const NamedCat &c : namedCats) {
        if (!(mask & c.bit))
            continue;
        if (!out.empty())
            out += ',';
        out += c.name;
    }
    return out;
}

TraceMode
parseTraceMode(const std::string &name)
{
    if (name == "off")
        return TraceMode::Off;
    if (name == "full")
        return TraceMode::Full;
    return TraceMode::Tail;
}

const char *
traceModeName(TraceMode mode)
{
    switch (mode) {
      case TraceMode::Off: return "off";
      case TraceMode::Tail: return "tail";
      case TraceMode::Full: return "full";
    }
    return "tail";
}

std::vector<TraceRecord>
TraceBuf::take()
{
    return std::exchange(records, {});
}

std::vector<TraceRecord>
TraceBuf::ringTail() const
{
    std::vector<TraceRecord> out;
    if (ring.empty() || ringCount == 0)
        return out;
    std::uint64_t kept = std::min<std::uint64_t>(ringCount, ring.size());
    out.reserve(static_cast<std::size_t>(kept));
    for (std::uint64_t i = ringCount - kept; i < ringCount; ++i)
        out.push_back(ring[i & ringMask]);
    return out;
}

namespace
{

/** The global record order: the DeferKey-style (when, station, seq,
 *  sub) key, unique across shards (a station lives on one shard). */
bool
keyLess(const TraceRecord &x, const TraceRecord &y)
{
    if (x.when != y.when)
        return x.when < y.when;
    if (x.station != y.station)
        return x.station < y.station;
    if (x.seq != y.seq)
        return x.seq < y.seq;
    return x.sub < y.sub;
}

} // namespace

Tracer::Tracer(TraceMode mode, std::uint32_t filter_mask,
               unsigned num_shards, std::size_t tail_records)
    : _mode(mode), mask(filter_mask), barrier(filter_mask),
      tailCap(tail_records == 0 ? 1 : tail_records)
{
    shardBufs.reserve(num_shards);
    for (unsigned i = 0; i < num_shards; ++i)
        shardBufs.emplace_back(filter_mask);
    if (_mode == TraceMode::Tail) {
        // Bounded tail: preallocated rings, no per-window drain.
        for (TraceBuf &buf : shardBufs)
            buf.setRing(tailCap);
        barrier.setRing(tailCap);
    }
}

void
Tracer::beginBarrier()
{
    traceBuf = &barrier;
}

void
Tracer::endBarrier()
{
    traceBuf = nullptr;
}

void
Tracer::recordWindowBarrier(Cycle window_end, std::size_t applied)
{
    barrier.emit(TraceEvent::WindowBarrier, window_end,
                 static_cast<std::uint32_t>(applied), window_end);
}

void
Tracer::drainWindow()
{
    if (_mode == TraceMode::Tail)
        return; // rings self-retain; end-sorted once in tailJson()

    auto window_begin = static_cast<std::ptrdiff_t>(full.size());
    for (TraceBuf &buf : shardBufs) {
        std::vector<TraceRecord> recs = buf.take();
        full.insert(full.end(), recs.begin(), recs.end());
    }
    std::vector<TraceRecord> brecs = barrier.take();
    full.insert(full.end(), brecs.begin(), brecs.end());
    std::stable_sort(full.begin() + window_begin, full.end(), keyLess);
}

std::uint64_t
Tracer::totalRecords() const
{
    if (_mode != TraceMode::Tail)
        return full.size();
    std::uint64_t n = barrier.emitted();
    for (const TraceBuf &buf : shardBufs)
        n += buf.emitted();
    return n;
}

void
Tracer::setTrackName(int pid, std::int64_t tid, std::string name)
{
    tracks.push_back(TrackName{pid, tid, std::move(name)});
}

namespace
{

/** (pid, tid) of a record's Chrome track. */
void
recordTrack(const TraceRecord &r, int &pid, std::int64_t &tid)
{
    if (r.station != TraceBuf::barrierStation) {
        pid = 0;
        tid = r.station;
        return;
    }
    switch (r.type) {
      case TraceEvent::NocSend:
        pid = 0;
        tid = static_cast<std::int64_t>(r.a >> 16);
        return;
      case TraceEvent::NocDeliver:
        pid = 0;
        tid = static_cast<std::int64_t>(r.a & 0xffff);
        return;
      case TraceEvent::NocLaneWait:
        pid = 1;
        tid = 1;
        return;
      default:
        pid = 1;
        tid = 0;
        return;
    }
}

} // namespace

void
Tracer::writeChrome(std::ostream &os,
                    const std::vector<TraceRecord> &records) const
{
    os << "{\"traceEvents\": [";
    bool first = true;
    auto sep = [&os, &first]() {
        os << (first ? "\n" : ",\n");
        first = false;
    };

    std::vector<TrackName> named = tracks;
    std::stable_sort(named.begin(), named.end(),
                     [](const TrackName &x, const TrackName &y) {
                         if (x.pid != y.pid)
                             return x.pid < y.pid;
                         return x.tid < y.tid;
                     });
    for (const TrackName &t : named) {
        sep();
        os << "{\"ph\": \"M\", \"pid\": " << t.pid << ", \"tid\": "
           << t.tid << ", \"name\": \"thread_name\", \"args\": "
           << "{\"name\": \"" << t.name << "\"}}";
    }

    for (const TraceRecord &r : records) {
        int pid = 0;
        std::int64_t tid = 0;
        recordTrack(r, pid, tid);
        const char *name = traceEventName(r.type);
        const char *cname = categoryName(r.type);

        sep();
        os << "{\"name\": \"" << name << "\", \"cat\": \"" << cname
           << "\", \"ph\": \"X\", \"ts\": " << r.when
           << ", \"dur\": 1, \"pid\": " << pid << ", \"tid\": " << tid
           << ", \"args\": {\"a\": " << r.a << ", \"b\": " << r.b
           << "}}";

        // The task lifecycle is stitched into one Perfetto flow per
        // task (id = registry trace index), bound to the dur-1 slices
        // emitted above.
        const char *flow = nullptr;
        switch (r.type) {
          case TraceEvent::TaskSubmit:
            flow = "s";
            break;
          case TraceEvent::TaskAlloc:
          case TraceEvent::TaskDecodeDone:
          case TraceEvent::TaskReady:
          case TraceEvent::TaskDispatch:
          case TraceEvent::TaskStart:
            flow = "t";
            break;
          case TraceEvent::TaskRetire:
            flow = "f";
            break;
          default:
            break;
        }
        if (flow) {
            sep();
            os << "{\"name\": \"task\", \"cat\": \"task\", \"ph\": \""
               << flow << "\", ";
            if (r.type == TraceEvent::TaskRetire)
                os << "\"bp\": \"e\", ";
            os << "\"id\": " << r.a << ", \"ts\": " << r.when
               << ", \"pid\": " << pid << ", \"tid\": " << tid << "}";
        }

        // Retirement carries the start cycle: recover the actual
        // execution interval as a real-duration slice.
        if (r.type == TraceEvent::TaskRetire && r.when > r.b) {
            sep();
            os << "{\"name\": \"task.run\", \"cat\": \"task\", "
               << "\"ph\": \"X\", \"ts\": " << r.b << ", \"dur\": "
               << (r.when - r.b) << ", \"pid\": " << pid
               << ", \"tid\": " << tid << ", \"args\": {\"a\": "
               << r.a << "}}";
        }
    }
    os << "\n]}\n";
}

void
Tracer::exportChromeJson(std::ostream &os) const
{
    writeChrome(os, full);
}

std::string
Tracer::chromeJson() const
{
    std::ostringstream os;
    exportChromeJson(os);
    return os.str();
}

std::string
Tracer::tailJson() const
{
    std::vector<TraceRecord> records;
    if (_mode == TraceMode::Tail) {
        for (const TraceBuf &buf : shardBufs) {
            std::vector<TraceRecord> recs = buf.ringTail();
            records.insert(records.end(), recs.begin(), recs.end());
        }
        std::vector<TraceRecord> brecs = barrier.ringTail();
        records.insert(records.end(), brecs.begin(), brecs.end());
        std::stable_sort(records.begin(), records.end(), keyLess);
        if (records.size() > tailCap)
            records.erase(records.begin(),
                          records.end() -
                              static_cast<std::ptrdiff_t>(tailCap));
    } else {
        records.assign(full.end() - static_cast<std::ptrdiff_t>(
                                        std::min(full.size(), tailCap)),
                       full.end());
    }
    std::ostringstream os;
    writeChrome(os, records);
    return os.str();
}

void
appendChromeEvents(std::string &doc, const std::string &events)
{
    if (events.empty())
        return;
    static const char suffix[] = "\n]}\n";
    const std::size_t slen = sizeof(suffix) - 1;
    if (doc.size() < slen ||
        doc.compare(doc.size() - slen, slen, suffix) != 0) {
        // Not one of our documents; refuse to guess at its structure.
        return;
    }
    bool wasEmpty = doc.size() >= slen + 1 &&
        doc[doc.size() - slen - 1] == '[';
    doc.resize(doc.size() - slen);
    doc += wasEmpty ? "\n" : ",\n";
    doc += events;
    doc += suffix;
}

std::string
serveStageSlice(const std::string &name, int stage, std::int64_t ts_us,
                std::int64_t dur_us, std::uint64_t job_id)
{
    std::ostringstream os;
    os << "{\"name\": \"" << name << "\", \"cat\": \"serve\", "
       << "\"ph\": \"X\", \"ts\": " << ts_us << ", \"dur\": "
       << (dur_us < 1 ? 1 : dur_us) << ", \"pid\": 2, \"tid\": "
       << stage << ", \"args\": {\"job\": " << job_id << "}}";
    return os.str();
}

} // namespace obs
} // namespace tss
