#include "sim/event_queue.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace firefly
{

void
EventQueue::schedule(Cycle when, EventFn fn, const char *label)
{
    if (when < horizon) {
        panic("event '%s' scheduled at cycle %llu, but cycle %llu "
              "has already run (a lost-completion bug the watchdog "
              "cannot see)",
              label && *label ? label : "(unlabelled)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(horizon));
    }
    std::uint32_t slot;
    if (freeSlots.empty()) {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    } else {
        slot = freeSlots.back();
        freeSlots.pop_back();
    }
    slots[slot].label = label;
    slots[slot].fn = std::move(fn);
    heap.push_back({when, nextSeq++, slot});
    std::push_heap(heap.begin(), heap.end(), Later{});
}

std::size_t
EventQueue::runPending(Cycle now)
{
    std::size_t ran = 0;
    while (!heap.empty() && heap.front().when <= now) {
        std::pop_heap(heap.begin(), heap.end(), Later{});
        const Key key = heap.back();
        heap.pop_back();
        // Move the closure out and free its slot first, so the
        // callback may schedule new events (and grow the slot table).
        EventFn fn = std::move(slots[key.slot].fn);
        freeSlots.push_back(key.slot);
        // The horizon tracks the event being processed, not the sweep
        // target: a callback at cycle 1 may schedule for cycle 2 even
        // when this sweep runs to 5 (the new event still fires in
        // order, within this sweep).
        if (key.when > horizon)
            horizon = key.when;
        fn();
        ++ran;
    }
    if (now > horizon)
        horizon = now;
    return ran;
}

std::string
EventQueue::describePending(std::size_t max) const
{
    if (heap.empty())
        return "  (event queue empty)\n";
    std::vector<Key> sorted = heap;
    std::sort(sorted.begin(), sorted.end(),
              [](const Key &a, const Key &b) { return Later{}(b, a); });
    std::ostringstream os;
    std::size_t shown = 0;
    for (const Key &key : sorted) {
        if (shown++ == max) {
            os << "  ... " << (sorted.size() - max) << " more\n";
            break;
        }
        const char *label = slots[key.slot].label;
        os << "  cycle " << key.when << ": "
           << (label && *label ? label : "(unlabelled)") << "\n";
    }
    return os.str();
}

} // namespace firefly
