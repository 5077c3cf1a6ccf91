#include "topaz/runtime.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace firefly
{

/** Per-processor reference stream fed by the runtime interpreter. */
class TopazPort : public RefSource
{
  public:
    TopazPort(TopazRuntime &rt, unsigned cpu) : rt(rt), cpu(cpu) {}

    CpuStep
    next() override
    {
        if (queue.empty() && !halted)
            rt.advance(cpu);
        if (queue.empty()) {
            halted = true;
            return CpuStep::makeHalt();
        }
        const CpuStep step = queue.front();
        queue.pop_front();
        return step;
    }

    void
    onRefCompleted(const MemRef &ref, Word data) override
    {
        if (armedIncrement && ref.addr == *armedIncrement &&
            !isWrite(ref.type)) {
            armedIncrement.reset();
            // Real read-modify-write: the new value derives from the
            // value the coherent memory system actually returned.
            queue.push_front(
                CpuStep::makeRef({ref.addr, RefType::DataWrite,
                                  data + 1}));
        }
    }

    std::uint64_t instructionsCompleted() const override
    {
        return instrs;
    }

    void push(const CpuStep &step) { queue.push_back(step); }
    void countInstruction() { ++instrs; }
    void armIncrement(Addr addr) { armedIncrement = addr; }
    bool idle() const { return queue.empty(); }

  private:
    TopazRuntime &rt;
    unsigned cpu;
    std::deque<CpuStep> queue;
    std::optional<Addr> armedIncrement;
    std::uint64_t instrs = 0;
    bool halted = false;
};

TopazRuntime::TopazRuntime(const TopazConfig &config)
    : cfg(config), arena(arenaBase, arenaBytes),
      scheduler(config.cpus, config.policy), rng(config.seed),
      statGroup("topaz")
{
    if (cfg.cpus == 0)
        fatal("Topaz runtime needs at least one CPU");

    nubCodeBase = arena.allocate(nubCodeWords * 4, "nub-code");
    nubPtr.assign(cfg.cpus, 0);
    for (unsigned i = 0; i < cfg.cpus; ++i) {
        readyQueueAddr.push_back(
            arena.allocate(16 * 4, "ready-queue" + std::to_string(i)));
    }
    for (unsigned i = 0; i < mutexCount; ++i)
        mutexes.push_back({arena.allocate(4, "mutex"), -1, {}});
    for (unsigned i = 0; i < conditionCount; ++i)
        conditions.push_back({arena.allocate(4, "condition"), {}});
    counterBase = arena.allocate(TopazConfig::counters * 4, "counters");
    sharedHeapBase =
        arena.allocate(sharedHeapWords * 4, "shared-heap");

    currentThread.assign(cfg.cpus, -1);
    for (unsigned i = 0; i < cfg.cpus; ++i)
        ports.push_back(std::make_unique<TopazPort>(*this, i));

    statGroup.addCounter(&contextSwitches, "context_switches",
                         "thread dispatches and suspensions");
    statGroup.addCounter(&migrations, "migrations",
                         "dispatches on a different processor");
    statGroup.addCounter(&locksAcquired, "locks_acquired",
                         "mutex acquisitions (incl. handoffs)");
    statGroup.addCounter(&lockContentions, "lock_contentions",
                         "acquisitions that had to block");
    statGroup.addCounter(&waits, "waits", "condition waits");
    statGroup.addCounter(&signals, "signals", "condition signals");
    statGroup.addCounter(&broadcasts, "broadcasts",
                         "condition broadcasts");
    statGroup.addCounter(&forks, "forks", "threads forked");
    statGroup.addCounter(&joins, "joins", "joins completed");
    statGroup.addCounter(&yields, "yields",
                         "voluntary and slice-forced yields");
    statGroup.addCounter(&idleSpins, "idle_spins",
                         "idle-loop polls of the ready queue");
    statGroup.addCounter(&orphanWakes, "orphan_wakes",
                         "end-of-run spurious wakeups of condition "
                         "waiters with no signaller left");
    statGroup.addCounter(&deadlockBreaks, "deadlock_breaks",
                         "watchdog force-wakes (0 in a correct run)");
    statGroup.addCounter(&userInstructions, "user_instructions",
                         "application instructions interpreted");
    statGroup.addCounter(&kernelInstructions, "kernel_instructions",
                         "Nub instructions interpreted");
    statGroup.addFormula("steals", "affinity queue steals",
        [this] { return double(scheduler.steals.value()); });
}

TopazRuntime::~TopazRuntime() = default;

unsigned
TopazRuntime::registerProgram(BehaviorProgram program)
{
    programs.push_back(std::move(program));
    return programs.size() - 1;
}

unsigned
TopazRuntime::addThread(unsigned program_id)
{
    if (program_id >= programs.size())
        fatal("fork of unregistered program %u", program_id);
    auto thread = std::make_unique<Thread>();
    thread->id = threads.size();
    thread->programId = program_id;
    thread->iterationsLeft =
        std::max<std::uint64_t>(1, programs[program_id].iterations);
    thread->tcb = arena.allocate(32 * 4, "tcb");
    thread->stackBase =
        arena.allocate(threadStackWords * 4, "stack");
    thread->codeBase = arena.allocate(threadCodeWords * 4, "code");
    thread->rng = Rng(cfg.seed + 31 * thread->id + 7);
    thread->lastCpu = nextForkCpu % cfg.cpus;
    nextForkCpu++;
    const unsigned id = thread->id;
    threads.push_back(std::move(thread));
    joinWaiters.emplace_back();
    scheduler.makeReady(id, threads[id]->lastCpu);
    return id;
}

RefSource &
TopazRuntime::port(unsigned cpu)
{
    return *ports.at(cpu);
}

bool
TopazRuntime::done() const
{
    return !threads.empty() && doneCount == threads.size();
}

void
TopazRuntime::offlineCpu(unsigned cpu)
{
    scheduler.setOffline(cpu);
    const int id = currentThread.at(cpu);
    if (id < 0)
        return;
    // Administrative requeue: the processor is being fenced, so the
    // usual context-save reference burst is not emitted - the thread's
    // interpreter state (pc, opProgress) simply moves to an online
    // CPU via the scheduler's redirect.
    Thread &thread = *threads[id];
    thread.state = ThreadState::Ready;
    scheduler.makeReady(thread.id, cpu);
    currentThread[cpu] = -1;
    --runningCount;
    ++contextSwitches;
}

Addr
TopazRuntime::counterAddr(unsigned index) const
{
    if (index >= TopazConfig::counters)
        panic("counter index %u out of range", index);
    return counterBase + 4 * index;
}

Addr
TopazRuntime::heapWordAddr(unsigned word) const
{
    return sharedHeapBase + 4 * (word % sharedHeapWords);
}

// ---------------------------------------------------------------------------
// Emission helpers.
// ---------------------------------------------------------------------------

void
TopazRuntime::emitRef(unsigned cpu, const MemRef &ref)
{
    ports[cpu]->push(CpuStep::makeRef(ref));
}

void
TopazRuntime::emitCompute(unsigned cpu, std::uint32_t ticks)
{
    if (ticks > 0)
        ports[cpu]->push(CpuStep::makeCompute(ticks));
}

void
TopazRuntime::emitKernel(unsigned cpu, unsigned instructions)
{
    // Nub code: a shared loop all processors fetch from.
    for (unsigned i = 0; i < instructions; ++i) {
        ++kernelInstructions;
        ports[cpu]->countInstruction();
        emitRef(cpu, {nubCodeBase + 4 * nubPtr[cpu],
                      RefType::InstrRead, 0});
        nubPtr[cpu] = (nubPtr[cpu] + 1) % nubCodeWords;
        emitCompute(cpu, 2);
    }
}

void
TopazRuntime::emitUserInstructions(unsigned cpu, Thread &thread,
                                   unsigned instructions)
{
    for (unsigned i = 0; i < instructions; ++i) {
        ++userInstructions;
        ports[cpu]->countInstruction();
        const InstrRefs refs = drawInstrRefs(VaxMix{}, thread.rng);
        for (unsigned f = 0; f < refs.instrReads; ++f) {
            emitRef(cpu, {thread.codeBase + 4 * thread.codePtr,
                          RefType::InstrRead, 0});
            thread.codePtr = (thread.codePtr + 1) % threadCodeWords;
        }
        // Private accesses mix a hot frame (the top of the stack)
        // with colder spills across the whole stack; the cold misses
        // displace stale copies left in other caches by migration,
        // which is what bounds how long conditional write-through
        // keeps firing on private data.
        const Addr hot_words = std::min<Addr>(threadStackWords, 64);
        for (unsigned r = 0; r < refs.dataReads; ++r) {
            Addr addr;
            if (thread.rng.chance(0.05)) {
                addr = heapWordAddr(
                    thread.rng.below(sharedHeapWords));
            } else if (thread.rng.chance(0.80)) {
                addr = thread.stackBase + 4 * thread.rng.below(hot_words);
            } else {
                addr = thread.stackBase +
                       4 * thread.rng.below(threadStackWords);
            }
            emitRef(cpu, {addr, RefType::DataRead, 0});
        }
        for (unsigned w = 0; w < refs.dataWrites; ++w) {
            Addr addr;
            if (thread.rng.chance(0.06)) {
                addr = heapWordAddr(
                    thread.rng.below(sharedHeapWords));
            } else if (thread.rng.chance(0.40)) {
                addr = thread.stackBase + 4 * thread.rng.below(hot_words);
            } else {
                addr = thread.stackBase +
                       4 * thread.rng.below(threadStackWords);
            }
            emitRef(cpu, {addr, RefType::DataWrite, writeSeq++});
        }
        thread.computeDebt += microVaxBaseTpi - 2.13 * hitTicks;
        const auto ticks =
            static_cast<std::uint32_t>(thread.computeDebt);
        thread.computeDebt -= ticks;
        emitCompute(cpu, ticks);
        if (thread.sliceLeft > 0)
            --thread.sliceLeft;
    }
}

void
TopazRuntime::emitTouch(unsigned cpu, Thread &thread, Addr base,
                        Addr words, unsigned count)
{
    for (unsigned i = 0; i < count; ++i) {
        const Addr addr = base + 4 * thread.rng.below(words);
        emitRef(cpu, {addr, RefType::DataRead, 0});
        emitRef(cpu, {addr, RefType::DataWrite, writeSeq++});
        emitCompute(cpu, 2);
        ports[cpu]->countInstruction();
    }
}

void
TopazRuntime::emitInterlocked(unsigned cpu, Addr word, Word value)
{
    // A VAX interlocked instruction: read then write of the lock
    // word, atomic at runtime level.
    emitRef(cpu, {word, RefType::DataRead, 0});
    emitRef(cpu, {word, RefType::DataWrite, value});
}

// ---------------------------------------------------------------------------
// Scheduler plumbing.
// ---------------------------------------------------------------------------

void
TopazRuntime::wake(unsigned thread_id)
{
    Thread &thread = *threads[thread_id];
    if (thread.state != ThreadState::Blocked)
        panic("waking thread %u in state %d", thread_id,
              static_cast<int>(thread.state));

    if (thread.resumeMutex >= 0) {
        // Mesa semantics: a thread woken from a condition wait must
        // reacquire the mutex before it can run.
        Mutex &mutex = mutexes[thread.resumeMutex];
        if (mutex.holder < 0) {
            mutex.holder = static_cast<int>(thread_id);
            ++locksAcquired;
            thread.resumeMutex = -1;
        } else {
            mutex.waiters.push_back(thread_id);
            return;  // stays blocked until the mutex is released
        }
    }
    thread.state = ThreadState::Ready;
    scheduler.makeReady(thread_id, thread.lastCpu);
}

void
TopazRuntime::switchOut(unsigned cpu, Thread &thread,
                        ThreadState new_state)
{
    // Save context: a burst of TCB writes plus Nub scheduler code.
    emitKernel(cpu, 6);
    for (unsigned i = 0; i < 8; ++i) {
        emitRef(cpu,
                {thread.tcb + 4 * i, RefType::DataWrite, writeSeq++});
    }
    thread.state = new_state;
    if (new_state == ThreadState::Ready) {
        scheduler.makeReady(thread.id, cpu);
        // Ready-queue manipulation is visible, shared traffic.
        emitRef(cpu, {readyQueueAddr[cpu], RefType::DataWrite,
                      writeSeq++});
        emitRef(cpu, {readyQueueAddr[cpu] + 4, RefType::DataWrite,
                      writeSeq++});
    }
    currentThread[cpu] = -1;
    --runningCount;
    ++contextSwitches;
}

void
TopazRuntime::dispatch(unsigned cpu)
{
    const int id = scheduler.pick(cpu);
    if (id < 0)
        return;
    Thread &thread = *threads[id];
    if (thread.everRan && thread.lastCpu != cpu)
        ++migrations;
    thread.everRan = true;
    thread.lastCpu = cpu;
    thread.state = ThreadState::Running;
    thread.sliceLeft = sliceInstructions;
    currentThread[cpu] = id;
    ++runningCount;
    ++contextSwitches;

    // Restore context: ready-queue pop + TCB reads + Nub code.
    emitRef(cpu, {readyQueueAddr[cpu], RefType::DataRead, 0});
    emitKernel(cpu, 6);
    for (unsigned i = 0; i < 8; ++i)
        emitRef(cpu, {thread.tcb + 4 * i, RefType::DataRead, 0});
}

void
TopazRuntime::breakDeadlockIfStuck(unsigned cpu)
{
    if (runningCount > 0 || scheduler.readyCount() > 0 || done())
        return;
    (void)cpu;

    // The machine is fully idle with blocked threads left.  Threads
    // parked on a *condition* with nobody left to signal them are
    // orphaned waiters (the last Wait of a signalling chain); Mesa
    // condition semantics permit spurious wakeups, so release them.
    for (auto &cond : conditions) {
        while (!cond.waiters.empty()) {
            const unsigned waiter = cond.waiters.front();
            cond.waiters.pop_front();
            ++orphanWakes;
            wake(waiter);
        }
    }
    if (scheduler.readyCount() > 0 || done())
        return;

    // Still stuck: a mutex/join cycle - a genuine workload bug.
    // Force-wake so the simulation terminates; tests assert this
    // never fires.
    warn("Topaz watchdog: all threads blocked; force-waking");
    for (auto &thread : threads) {
        if (thread->state != ThreadState::Blocked)
            continue;
        ++deadlockBreaks;
        for (auto &mutex : mutexes) {
            std::erase(mutex.waiters, thread->id);
            if (mutex.holder == static_cast<int>(thread->id))
                mutex.holder = -1;
        }
        for (auto &cond : conditions)
            std::erase(cond.waiters, thread->id);
        thread->resumeMutex = -1;
        thread->state = ThreadState::Ready;
        scheduler.makeReady(thread->id, thread->lastCpu);
    }
}

// ---------------------------------------------------------------------------
// The interpreter.
// ---------------------------------------------------------------------------

void
TopazRuntime::advance(unsigned cpu)
{
    if (currentThread[cpu] >= 0) {
        interpret(cpu, *threads[currentThread[cpu]]);
        return;
    }
    if (done())
        return;  // port will emit Halt

    dispatch(cpu);
    if (currentThread[cpu] >= 0)
        return;

    breakDeadlockIfStuck(cpu);
    if (done())
        return;

    // Idle loop: poll the ready queue.
    ++idleSpins;
    emitKernel(cpu, 2);
    emitRef(cpu, {readyQueueAddr[cpu], RefType::DataRead, 0});
    emitCompute(cpu, 6);
}

void
TopazRuntime::finishIteration(unsigned cpu, Thread &thread)
{
    emitKernel(cpu, 2);  // loop bookkeeping
    thread.pc = 0;
    if (--thread.iterationsLeft == 0)
        threadDone(cpu, thread);
}

void
TopazRuntime::threadDone(unsigned cpu, Thread &thread)
{
    emitKernel(cpu, 6);
    emitRef(cpu, {thread.tcb, RefType::DataWrite, 0xdead});
    thread.state = ThreadState::Done;
    ++doneCount;
    currentThread[cpu] = -1;
    --runningCount;
    ++contextSwitches;

    for (const unsigned waiter : joinWaiters[thread.id]) {
        if (threads[waiter]->state == ThreadState::Blocked)
            wake(waiter);
    }
    joinWaiters[thread.id].clear();
}

void
TopazRuntime::interpret(unsigned cpu, Thread &thread)
{
    const BehaviorProgram &program = programs[thread.programId];
    if (thread.pc >= program.body.size()) {
        finishIteration(cpu, thread);
        return;
    }
    const BehaviorOp &op = program.body[thread.pc];

    switch (op.kind) {
      case BehaviorOp::Kind::Compute: {
        if (thread.opProgress == 0)
            thread.opProgress = std::max<std::uint32_t>(op.count, 1);
        const auto chunk =
            static_cast<unsigned>(std::min<std::uint64_t>(
                thread.opProgress, 32));
        emitUserInstructions(cpu, thread, chunk);
        thread.opProgress -= chunk;
        if (thread.opProgress == 0)
            ++thread.pc;
        if (thread.sliceLeft == 0 && scheduler.readyCount() > 0) {
            ++yields;
            switchOut(cpu, thread, ThreadState::Ready);
        }
        return;
      }

      case BehaviorOp::Kind::TouchShared: {
        if (thread.opProgress == 0)
            thread.opProgress = std::max<std::uint32_t>(op.count, 1);
        const auto chunk =
            static_cast<unsigned>(std::min<std::uint64_t>(
                thread.opProgress, 16));
        emitTouch(cpu, thread, sharedHeapBase, sharedHeapWords,
                  chunk);
        thread.opProgress -= chunk;
        if (thread.opProgress == 0)
            ++thread.pc;
        return;
      }

      case BehaviorOp::Kind::TouchPrivate: {
        if (thread.opProgress == 0)
            thread.opProgress = std::max<std::uint32_t>(op.count, 1);
        const auto chunk =
            static_cast<unsigned>(std::min<std::uint64_t>(
                thread.opProgress, 16));
        emitTouch(cpu, thread, thread.stackBase, threadStackWords,
                  chunk);
        thread.opProgress -= chunk;
        if (thread.opProgress == 0)
            ++thread.pc;
        return;
      }

      case BehaviorOp::Kind::LockAcquire: {
        Mutex &mutex = mutexes.at(op.index);
        emitKernel(cpu, 4);
        emitInterlocked(cpu, mutex.word, 1);
        ++thread.pc;
        if (mutex.holder < 0) {
            mutex.holder = static_cast<int>(thread.id);
            ++locksAcquired;
        } else {
            ++lockContentions;
            mutex.waiters.push_back(thread.id);
            switchOut(cpu, thread, ThreadState::Blocked);
        }
        return;
      }

      case BehaviorOp::Kind::LockRelease: {
        Mutex &mutex = mutexes.at(op.index);
        if (mutex.holder != static_cast<int>(thread.id))
            warn("thread %u releases mutex it does not hold",
                 thread.id);
        emitKernel(cpu, 3);
        emitRef(cpu, {mutex.word, RefType::DataWrite, 0});
        ++thread.pc;
        if (!mutex.waiters.empty()) {
            const unsigned next = mutex.waiters.front();
            mutex.waiters.pop_front();
            mutex.holder = static_cast<int>(next);
            ++locksAcquired;  // direct handoff
            threads[next]->resumeMutex = -1;
            threads[next]->state = ThreadState::Blocked;
            // Wake without the reacquire dance (ownership granted).
            threads[next]->state = ThreadState::Ready;
            scheduler.makeReady(next, threads[next]->lastCpu);
            emitRef(cpu, {readyQueueAddr[threads[next]->lastCpu],
                          RefType::DataWrite, writeSeq++});
        } else {
            mutex.holder = -1;
        }
        return;
      }

      case BehaviorOp::Kind::Wait: {
        Condition &cond = conditions.at(op.index);
        Mutex &mutex = mutexes.at(op.index2);
        emitKernel(cpu, 5);
        emitRef(cpu, {cond.word, RefType::DataWrite, writeSeq++});
        cond.waiters.push_back(thread.id);
        thread.resumeMutex = static_cast<int>(op.index2);
        ++waits;
        ++thread.pc;

        // Atomically release the mutex.
        if (mutex.holder != static_cast<int>(thread.id))
            warn("thread %u waits on mutex it does not hold",
                 thread.id);
        emitRef(cpu, {mutex.word, RefType::DataWrite, 0});
        if (!mutex.waiters.empty()) {
            const unsigned next = mutex.waiters.front();
            mutex.waiters.pop_front();
            mutex.holder = static_cast<int>(next);
            ++locksAcquired;
            threads[next]->state = ThreadState::Ready;
            scheduler.makeReady(next, threads[next]->lastCpu);
        } else {
            mutex.holder = -1;
        }
        switchOut(cpu, thread, ThreadState::Blocked);
        return;
      }

      case BehaviorOp::Kind::Signal: {
        Condition &cond = conditions.at(op.index);
        emitKernel(cpu, 3);
        emitRef(cpu, {cond.word, RefType::DataWrite, writeSeq++});
        ++signals;
        ++thread.pc;
        if (!cond.waiters.empty()) {
            const unsigned waiter = cond.waiters.front();
            cond.waiters.pop_front();
            wake(waiter);
        }
        return;
      }

      case BehaviorOp::Kind::Broadcast: {
        Condition &cond = conditions.at(op.index);
        emitKernel(cpu, 3);
        emitRef(cpu, {cond.word, RefType::DataWrite, writeSeq++});
        ++broadcasts;
        ++thread.pc;
        while (!cond.waiters.empty()) {
            const unsigned waiter = cond.waiters.front();
            cond.waiters.pop_front();
            wake(waiter);
        }
        return;
      }

      case BehaviorOp::Kind::IncrementCounter: {
        emitKernel(cpu, 2);
        const Addr addr = counterAddr(op.index);
        emitRef(cpu, {addr, RefType::DataRead, 0});
        ports[cpu]->armIncrement(addr);
        ports[cpu]->countInstruction();
        ++thread.pc;
        return;
      }

      case BehaviorOp::Kind::Yield: {
        emitKernel(cpu, 3);
        ++yields;
        ++thread.pc;
        switchOut(cpu, thread, ThreadState::Ready);
        return;
      }

      case BehaviorOp::Kind::Fork: {
        emitKernel(cpu, 8);
        const unsigned child = addThread(op.index);
        thread.forkedChildren.push_back(child);
        // Initialising the child's TCB is real shared-memory work.
        for (unsigned i = 0; i < 8; ++i) {
            emitRef(cpu, {threads[child]->tcb + 4 * i,
                          RefType::DataWrite, writeSeq++});
        }
        ++forks;
        ++thread.pc;
        return;
      }

      case BehaviorOp::Kind::JoinAll: {
        emitKernel(cpu, 2);
        for (const unsigned child : thread.forkedChildren) {
            emitRef(cpu, {threads[child]->tcb, RefType::DataRead, 0});
            if (threads[child]->state != ThreadState::Done) {
                // Block on this child and re-run JoinAll when woken
                // (pc is left pointing at this op).
                joinWaiters[child].push_back(thread.id);
                switchOut(cpu, thread, ThreadState::Blocked);
                return;
            }
        }
        joins += thread.forkedChildren.size();
        ++thread.pc;
        return;
      }

      case BehaviorOp::Kind::Join: {
        emitKernel(cpu, 3);
        ++thread.pc;
        if (op.index >= threads.size()) {
            warn("join on unknown thread %u", op.index);
            return;
        }
        emitRef(cpu,
                {threads[op.index]->tcb, RefType::DataRead, 0});
        if (threads[op.index]->state == ThreadState::Done) {
            ++joins;
        } else {
            joinWaiters[op.index].push_back(thread.id);
            ++joins;
            switchOut(cpu, thread, ThreadState::Blocked);
        }
        return;
      }
    }
    panic("unhandled behaviour op");
}

} // namespace firefly
