#include "sim/conflict.hh"

#include <algorithm>
#include <map>
#include <set>

namespace muir::sim
{

namespace
{

/**
 * Is `from` reachable backward to `to` over non-memory inputs? Every
 * input references an earlier id, so the search only visits ids in
 * (to, from], pruning anything below the target.
 */
bool
happensBefore(const CompiledDdg &cd, uint32_t to, uint32_t from)
{
    const Record &rec = *cd.record;
    std::vector<uint32_t> stack{from};
    std::set<uint32_t> seen;
    while (!stack.empty()) {
        uint32_t id = stack.back();
        stack.pop_back();
        if (id == to)
            return true;
        if (id < to || !seen.insert(id).second)
            continue;
        for (uint32_t k = rec.depStart[id]; k < rec.depStart[id + 1];
             ++k) {
            if (rec.isMemDep(k))
                continue; // Ordered only by the memory system.
            stack.push_back(rec.deps[k]);
        }
        if (cd.windowDep[id] != kNoId32)
            stack.push_back(cd.windowDep[id]);
    }
    return false;
}

} // namespace

std::vector<MemConflict>
findConflicts(const CompiledDdg &cd, size_t max_conflicts)
{
    const Record &rec = *cd.record;
    std::vector<MemConflict> conflicts;
    auto isStore = [&](uint32_t id) { return rec.flags[id] & kEvStore; };

    // Accesses per 4-byte word, in record order.
    std::map<uint64_t, std::vector<uint32_t>> by_word;
    for (uint32_t id = 0; id < cd.numEvents; ++id) {
        if (!(rec.flags[id] & (kEvLoad | kEvStore)))
            continue;
        for (unsigned w = 0; w < std::max<unsigned>(1, rec.words[id]); ++w)
            by_word[(rec.addr[id] & ~uint64_t(3)) + w * 4].push_back(id);
    }

    std::set<std::pair<uint32_t, uint32_t>> reported;
    for (const auto &[word, ids] : by_word) {
        for (size_t i = 0;
             i < ids.size() && conflicts.size() < max_conflicts; ++i) {
            for (size_t j = i + 1;
                 j < ids.size() && conflicts.size() < max_conflicts;
                 ++j) {
                uint32_t a = ids[i], b = ids[j];
                if (!isStore(a) && !isStore(b))
                    continue;
                if (!reported.emplace(a, b).second)
                    continue;
                if (happensBefore(cd, a, b))
                    continue;
                MemConflict c;
                c.first = a;
                c.second = b;
                c.firstNode = cd.node(a);
                c.secondNode = cd.node(b);
                c.addr = word;
                conflicts.push_back(c);
            }
        }
    }
    return conflicts;
}

} // namespace muir::sim
