#include "rename_store.hh"

#include <cstring>

#include "sim/logging.hh"

namespace tss::starss
{

RenameStore::RenameStore(const TaskTrace &task_trace) : trace(task_trace)
{
    auto n = static_cast<std::uint32_t>(trace.size());
    readVersionOf.resize(n);
    writeVersionOf.resize(n);

    // Program order: readers consume the current version of their
    // object, writers create a new one (the ORT's renaming decode).
    struct ObjectState
    {
        std::int64_t curVersion = -1;
    };
    std::unordered_map<std::uint64_t, ObjectState> objects;
    std::int64_t next_version = 0;

    for (std::uint32_t t = 0; t < n; ++t) {
        const TraceTask &task = trace.tasks[t];
        readVersionOf[t].assign(task.operands.size(), -1);
        writeVersionOf[t].assign(task.operands.size(), -1);
        for (std::size_t i = 0; i < task.operands.size(); ++i) {
            const TraceOperand &op = task.operands[i];
            if (!isMemoryOperand(op.dir))
                continue;
            ObjectState &obj = objects[op.addr];
            if (readsObject(op.dir))
                readVersionOf[t][i] = obj.curVersion;
            if (writesObject(op.dir)) {
                obj.curVersion = next_version++;
                versionBytes.push_back(op.bytes);
                writeVersionOf[t][i] = obj.curVersion;
            }
        }
    }

    for (const auto &[addr, obj] : objects)
        finalVersion.emplace(addr, obj.curVersion);

    buffers.resize(static_cast<std::size_t>(next_version));
}

RenameStore::VersionBuffer &
RenameStore::materialize(std::int64_t version)
{
    auto &buf = buffers[static_cast<std::size_t>(version)];
    if (!buf.data) {
        Bytes bytes = versionBytes[static_cast<std::size_t>(version)];
        buf.data = std::make_unique<std::uint8_t[]>(bytes);
        buf.bytes = bytes;
    }
    return buf;
}

std::vector<void *>
RenameStore::bind(std::uint32_t t, const std::vector<Param> &params)
{
    const TraceTask &task = trace.tasks[t];
    std::vector<void *> ptrs(task.operands.size());
    for (std::size_t i = 0; i < task.operands.size(); ++i) {
        const TraceOperand &op = task.operands[i];
        if (!isMemoryOperand(op.dir)) {
            ptrs[i] = params[i].ptr;
            continue;
        }
        if (op.dir == Dir::In) {
            std::int64_t v = readVersionOf[t][i];
            ptrs[i] = v < 0
                ? params[i].ptr
                : buffers[static_cast<std::size_t>(v)].data.get();
        } else {
            VersionBuffer &dst = materialize(writeVersionOf[t][i]);
            if (op.dir == Dir::InOut) {
                // True dependency: seed the new version with the
                // consumed version's contents.
                std::int64_t v = readVersionOf[t][i];
                const void *src = params[i].ptr;
                Bytes copy_bytes = dst.bytes;
                if (v >= 0) {
                    const auto &prev =
                        buffers[static_cast<std::size_t>(v)];
                    src = prev.data.get();
                    copy_bytes = std::min(copy_bytes, prev.bytes);
                }
                std::memcpy(dst.data.get(), src, copy_bytes);
            }
            ptrs[i] = dst.data.get();
        }
    }
    return ptrs;
}

void
RenameStore::copyBack()
{
    for (const auto &[addr, version] : finalVersion) {
        if (version < 0)
            continue;
        const VersionBuffer &buf =
            buffers[static_cast<std::size_t>(version)];
        if (buf.data) {
            std::memcpy(reinterpret_cast<void *>(addr), buf.data.get(),
                        buf.bytes);
        }
    }
}

} // namespace tss::starss
