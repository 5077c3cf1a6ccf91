/**
 * @file
 * The Topaz thread scheduler's ready queues.
 *
 * The paper: "the Topaz scheduler goes to some effort to avoid
 * process migration", because under conditional write-through a
 * migrated thread's writable data sits in two caches and every write
 * keeps being written through until one copy is displaced.  Two
 * policies are modelled:
 *
 *   Affinity - per-processor ready queues; a woken thread is queued
 *   on the processor it last ran on, and an idle processor steals
 *   from others only when its own queue is empty (each steal is a
 *   migration).
 *
 *   Global - one FIFO queue served by every processor; threads
 *   migrate freely.  This is the policy the paper argues against,
 *   used as the X3 ablation baseline.
 */

#ifndef FIREFLY_TOPAZ_SCHEDULER_HH
#define FIREFLY_TOPAZ_SCHEDULER_HH

#include <deque>
#include <vector>

#include "sim/stats.hh"

namespace firefly
{

/** Migration policy. */
enum class SchedulerPolicy
{
    Affinity,
    Global,
};

const char *toString(SchedulerPolicy policy);

/** Ready-queue structure shared by the simulated processors. */
class TopazScheduler
{
  public:
    TopazScheduler(unsigned cpus, SchedulerPolicy policy);

    /** Queue a runnable thread; `preferred_cpu` is its last CPU. */
    void makeReady(unsigned thread, unsigned preferred_cpu);

    /**
     * Dequeue work for `cpu`.  Returns the thread id or -1.  Under
     * Affinity, taking from another processor's queue counts as a
     * steal.
     */
    int pick(unsigned cpu);

    /** Runnable threads currently queued. */
    std::size_t readyCount() const;

    /**
     * Take `cpu` out of service: its ready queue drains to the
     * lowest-numbered online CPU, future makeReady calls preferring
     * it are redirected there, and pick() returns nothing for it.
     * At least one CPU must stay online.
     */
    void setOffline(unsigned cpu);

    SchedulerPolicy policy() const { return _policy; }

    Counter steals;    ///< affinity: picks from a foreign queue
    Counter enqueues;

  private:
    void traceDispatch(unsigned thread, unsigned cpu, bool migrated);
    unsigned firstOnline() const;

    SchedulerPolicy _policy;
    std::vector<std::deque<unsigned>> queues;  ///< per CPU (Affinity)
    std::deque<unsigned> globalQueue;          ///< Global policy
    std::vector<bool> offline;                 ///< fenced CPUs
};

} // namespace firefly

#endif // FIREFLY_TOPAZ_SCHEDULER_HH
