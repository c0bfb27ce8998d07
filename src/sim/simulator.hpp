#pragma once

// Deterministic discrete-event simulator with fiber-backed process contexts.
//
// Each simulated physical process runs real C++ code on its own stack
// (a ucontext fiber) and is cooperatively scheduled: exactly one context
// (a process or the scheduler) executes at any instant, and control
// transfers happen only inside simulator calls (delay/park). Virtual time
// advances only through events, so a given program produces bit-identical
// traces on every run — which is what makes crash-interleaving experiments
// (mid-task, mid-update) reproducible.
//
// The design mirrors classic "user context" simulation backends (e.g.,
// SimGrid's ucontext factory). Everything runs on one OS thread, so a
// context switch is a swapcontext pair — no futex round trips, no kernel
// scheduler in the loop — which is what bounds how many delay/park/unpark
// transitions a message-heavy bench can afford. Hot-path costs are kept off
// the allocator too: event nodes are pooled and recycled, callbacks are
// stored inline in the node (heap-boxed only when they exceed the inline
// slot), a timed delay schedules its own resume directly instead of a
// callback-plus-unpark pair, and finished fibers return their guard-paged
// mmap stacks to a per-simulator pool for the next spawn (replica restarts
// and back-to-back worlds skip the mmap/mprotect/munmap round trip).
//
// Pending events live in two lanes, merged by (time, sequence) when
// dispatching so execution order is exactly schedule order among ties:
//   * ready lane — a plain FIFO for events at the *current* instant.
//     unpark(), kill(), spawn() and schedule_at(now, ...) land here in O(1),
//     bypassing the timed queue entirely ("zero-heap wakeups"); the FIFO is
//     automatically (t, seq)-ordered because entries are created at the
//     clock with fresh sequence numbers.
//   * timed lane — a binary min-heap (std::push_heap/pop_heap under
//     EventAfter, sim/event_queue.hpp) holding every later event.
// Callers may rely on the wakeup ordering contract: an unpark at virtual
// time t runs after every event already scheduled at t and before anything
// scheduled later.
//
// Thread-confinement contract: one Simulator is single-threaded by design,
// but the substrate keeps NO process-wide mutable state, so independent
// Simulators may run concurrently on separate OS threads (scenario-level
// parallelism — see support::TaskPool). A Simulator may be *driven* by one
// thread at a time with explicit synchronization between handoffs: the
// sharded engine (sim/shard.hpp) runs each shard's simulator on a dedicated
// worker thread via run_until() and touches it from the window-boundary
// hook only while every worker is quiescent at a barrier. The throughput
// counters it feeds are thread-local, and everything else it touches is
// instance-local.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "support/error.hpp"

namespace repmpi::sim {

// Time, Pid and kNoPid are defined in sim/event_queue.hpp (time_sync.hpp
// needs them too).

class Simulator;

/// Substrate counters of one Simulator or of one thread. The instance
/// snapshot (Simulator::counters(), ShardedMachine::counters()) holds
/// everything that simulator executed, the messages its attached Network(s)
/// reported, its fiber-stack pool's reuse and the event engine's fast-path
/// hits: the per-run API for drivers that own many concurrent simulators.
///
/// substrate_totals() holds the same counters summed per *thread* over every
/// Simulator that ran on the calling thread. The bench driver snapshots them
/// around each bench for the JSON report's event/message counts, and
/// perfbench around each round for its sim.* probes; because a bench
/// executes entirely on one worker thread, concurrent benches never see
/// each other's counts. Drivers that fan simulations out to their own worker
/// pool (the sweep bench) diff these totals around each run *on the worker
/// thread that ran it*, then deposit the sum back on their own thread with
/// add_substrate().
struct SubstrateTotals {
  std::uint64_t events = 0;            ///< DES events executed
  std::uint64_t messages = 0;          ///< simulated messages transferred
  std::uint64_t stacks_allocated = 0;  ///< fiber stacks mmap'ed
  std::uint64_t stacks_reused = 0;     ///< fiber stacks served from the pool
  std::uint64_t fiber_switches = 0;    ///< control transfers into fibers
  std::uint64_t heap_bypass = 0;       ///< ready-lane (same-time) events
  std::uint64_t wakeups_elided = 0;    ///< focused waits: wakes never issued

  SubstrateTotals& operator+=(const SubstrateTotals& o) {
    events += o.events;
    messages += o.messages;
    stacks_allocated += o.stacks_allocated;
    stacks_reused += o.stacks_reused;
    fiber_switches += o.fiber_switches;
    heap_bypass += o.heap_bypass;
    wakeups_elided += o.wakeups_elided;
    return *this;
  }
  SubstrateTotals& operator-=(const SubstrateTotals& o) {
    events -= o.events;
    messages -= o.messages;
    stacks_allocated -= o.stacks_allocated;
    stacks_reused -= o.stacks_reused;
    fiber_switches -= o.fiber_switches;
    heap_bypass -= o.heap_bypass;
    wakeups_elided -= o.wakeups_elided;
    return *this;
  }
};

SubstrateTotals substrate_totals();
/// Deposits a whole cross-thread delta at once (sweep-style drivers that
/// run simulations on worker threads and attribute totals to their own).
void add_substrate(const SubstrateTotals& delta);

/// Thrown inside a simulated process when it is killed; the process body must
/// let it propagate (the thread wrapper catches it). RAII cleanup runs as the
/// stack unwinds, which is exactly what a crashed process must NOT rely on
/// for protocol state — all protocol effects of a crash are handled by the
/// surviving processes via the failure-notification path.
struct ProcessKilled {};

/// Handle given to a process body; all simulator interaction goes through it.
class Context {
 public:
  Context(Simulator& sim, Pid pid) : sim_(sim), pid_(pid) {}

  Time now() const;
  Pid pid() const { return pid_; }
  Simulator& simulator() { return sim_; }

  /// Advances this process's virtual time by dt (models compute cost).
  void delay(Time dt);

  /// Blocks until another context calls Simulator::unpark(pid()).
  /// A pending unpark "permit" makes the next park return immediately
  /// (LockSupport semantics), which closes the notify-before-wait race.
  void park();

  /// Declares (or clears, with nullptr) the single condition this process is
  /// about to park on. While a non-null token is set and the process is
  /// parked, Simulator::unpark_hint with a *different* token elides the
  /// wakeup entirely — the notifier must have made its effect observable
  /// through shared state (e.g. a request's done flag) so the waiter picks
  /// it up without a wake/re-park round trip. Plain unpark/kill ignore the
  /// token. Callers clear it before doing anything else after the loop.
  void set_wait_token(const void* token);

  /// Throws ProcessKilled if this process has been marked dead. The wait
  /// primitives call this automatically; long compute loops may call it at
  /// safe points to model crashes inside computation.
  void check_killed();

 private:
  Simulator& sim_;
  Pid pid_;
};

using ProcessFn = std::function<void(Context&)>;

/// Central event-driven scheduler. Not thread-safe for external callers:
/// schedule/unpark/kill/spawn may only be invoked from the scheduler thread
/// (i.e., from event callbacks) or from a currently-running simulated process.
class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Creates a process; it becomes runnable at the current virtual time.
  /// May be called before run() or dynamically during the simulation (used to
  /// model replica restart).
  Pid spawn(std::string name, ProcessFn fn);

  /// Schedules a callback to run in scheduler context at absolute time t.
  /// The callable is stored in a pooled event node (inline when it fits) —
  /// no per-call heap allocation on the steady-state path. A callback at
  /// the current instant goes through the O(1) ready lane.
  template <typename F>
  void schedule_at(Time t, F&& fn) {
    REPMPI_CHECK_MSG(t >= now_, "event scheduled in the past: t="
                                    << t << " now=" << now_);
    EventNode* n = acquire_node(t, kNoPid);
    attach_callable(n, std::forward<F>(fn));
    enqueue(n);
  }

  template <typename F>
  void schedule_after(Time dt, F&& fn) {
    schedule_at(now_ + dt, std::forward<F>(fn));
  }

  /// schedule_at for engine-internal control events (sharded-run death
  /// announcements, companion retirement): dispatched in strict (t, seq)
  /// order like any event but excluded from events_executed, so per-shard
  /// control traffic cannot make event counts depend on the shard count.
  template <typename F>
  void schedule_internal_at(Time t, F&& fn) {
    REPMPI_CHECK_MSG(t >= now_, "event scheduled in the past: t="
                                    << t << " now=" << now_);
    EventNode* n = acquire_node(t, kNoPid);
    n->no_count = true;
    attach_callable(n, std::forward<F>(fn));
    enqueue(n);
  }

  /// Makes a parked process runnable (a resume event at the current time,
  /// through the ready lane — no timed-queue traffic).
  void unpark(Pid pid);

  /// unpark, except that a target parked under a different non-null wait
  /// token (Context::set_wait_token) is left asleep and the wakeup counted
  /// as elided: the caller guarantees the condition is observable via
  /// shared state. The one notifier the target is focused on still wakes
  /// it. Used by the MPI layer to fuse message delivery with wakeup and to
  /// fan waitall completions into a single resume.
  void unpark_hint(Pid pid, const void* token);

  /// Marks a process dead. If parked it is woken immediately to unwind;
  /// otherwise the ProcessKilled exception is raised at its next simulator
  /// call.
  void kill(Pid pid);

  bool alive(Pid pid) const;
  bool finished(Pid pid) const;
  const std::string& name(Pid pid) const;
  Time now() const { return now_; }
  std::size_t num_processes() const { return procs_.size(); }
  std::uint64_t events_executed() const { return events_executed_; }

  /// Snapshot of this instance's substrate counters: events, messages,
  /// stack-pool reuse, fiber switches, ready-lane events and elided
  /// wakeups. Monotonic over the simulator's lifetime; callers running many
  /// simulators concurrently diff snapshots per run instead of reading the
  /// thread-local process totals.
  SubstrateTotals counters() const {
    return {events_executed_, messages_,       stacks_allocated_,
            stacks_reused_,   fiber_switches_, heap_bypass_,
            wakeups_elided_};
  }

  /// Called by an attached Network (same thread by the confinement
  /// contract) to attribute its delivered messages to this instance.
  void add_messages(std::uint64_t n) { messages_ += n; }

  /// Runs until the event queue drains. Throws DeadlockError if live
  /// processes remain parked with no pending events.
  void run();

  /// Runs every pending event with t < end in strict (t, seq) order and
  /// returns (the sharded engine's per-window drive). Events at or beyond
  /// `end` stay queued; no deadlock diagnosis (the engine aggregates
  /// stuck_processes() across shards at termination) and no totals flush
  /// (counts reach the thread-local totals when the simulator is destroyed
  /// on its owning thread).
  void run_until(Time end);

  /// Earliest pending event time across both lanes, or +infinity when the
  /// queue is empty. Used by the sharded engine to compute the next global
  /// time window.
  Time next_event_time() const;

  /// Disables delay()'s advance-in-place fast path so every delay schedules
  /// a timed resume event. The fast path's trigger condition ("no pending
  /// event before the deadline") inspects only this instance's queue, which
  /// under sharding depends on which ranks share the shard — the elided
  /// resume events would make event counts and tie sequencing vary with the
  /// shard layout. Strict mode makes the event stream a function of the
  /// program alone. Single-simulator runs keep the fast path (default on).
  void set_inplace_delay(bool enabled) { inplace_delay_ = enabled; }

  /// Human-readable list of live parked processes, or "" when none — the
  /// deadlock diagnostic shared by run() and the sharded engine.
  std::string stuck_processes() const;

  /// Resumes every still-live process with the kill flag so its stack
  /// unwinds, then releases the fiber stacks. Idempotent. Owners whose
  /// objects are referenced from process stacks (e.g., the MPI world) must
  /// call this before destroying those objects; the destructor calls it as
  /// a last resort.
  void terminate_processes();

  /// Optional hook observing every context switch (pid, time); used by the
  /// determinism tests to fingerprint an execution.
  void set_switch_hook(std::function<void(Pid, Time)> hook) {
    switch_hook_ = std::move(hook);
  }

 private:
  friend class Context;

  enum class PState { kReady, kRunning, kParked, kFinished };

  /// Fiber stack size. Application mains keep bulk data on the heap
  /// (std::vector everywhere), so stacks stay shallow; 512 KiB leaves ample
  /// headroom for deep call chains in debug builds.
  static constexpr std::size_t kStackBytes = 512 * 1024;

  /// mmap-backed fiber stack with a PROT_NONE guard page at the low end
  /// (stacks grow down), so an overflow faults cleanly instead of silently
  /// corrupting adjacent heap memory. Movable so finished fibers' stacks can
  /// be recycled through the simulator's stack pool.
  struct StackMem {
    void* base = nullptr;      ///< mmap base (the guard page)
    std::size_t total = 0;     ///< guard + usable bytes
    std::byte* sp = nullptr;   ///< usable stack bottom (above the guard)

    StackMem() = default;
    StackMem(const StackMem&) = delete;
    StackMem& operator=(const StackMem&) = delete;
    StackMem(StackMem&& o) noexcept
        : base(o.base), total(o.total), sp(o.sp) {
      o.base = nullptr;
      o.total = 0;
      o.sp = nullptr;
    }
    StackMem& operator=(StackMem&& o) noexcept {
      if (this != &o) {
        reset();
        base = o.base;
        total = o.total;
        sp = o.sp;
        o.base = nullptr;
        o.total = 0;
        o.sp = nullptr;
      }
      return *this;
    }
    ~StackMem() { reset(); }

    bool valid() const { return base != nullptr; }
    void allocate(std::size_t usable);
    void reset();
  };

  struct Process {
    std::string name;
    ProcessFn fn;
    std::unique_ptr<Context> ctx;
    fiber::Context fctx;
    StackMem stack;
    void* tsan_fiber = nullptr;  ///< ThreadSanitizer fiber handle (TSan only)
    PState state = PState::kReady;
    bool started = false;
    bool killed = false;
    bool park_permit = false;
    bool resume_scheduled = false;
    const void* wait_token = nullptr;  ///< focused-park token (see Context)
    std::exception_ptr pending_exception;
  };

  // EventNode / EventAfter live in sim/event_queue.hpp.

  template <typename F>
  void attach_callable(EventNode* n, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= EventNode::kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(n->storage)) Fn(std::forward<F>(fn));
      n->run = [](EventNode& e) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(e.storage));
        // Move to the stack before invoking so the callable is destroyed
        // even if the invocation throws (the node returns to the pool).
        Fn local(std::move(*f));
        f->~Fn();
        local();
      };
      n->drop = [](EventNode& e) {
        std::launder(reinterpret_cast<Fn*>(e.storage))->~Fn();
      };
    } else {
      auto* boxed = new Fn(std::forward<F>(fn));
      std::memcpy(n->storage, &boxed, sizeof(boxed));
      n->run = [](EventNode& e) {
        Fn* f;
        std::memcpy(&f, e.storage, sizeof(f));
        std::unique_ptr<Fn> guard(f);
        (*f)();
      };
      n->drop = [](EventNode& e) {
        Fn* f;
        std::memcpy(&f, e.storage, sizeof(f));
        delete f;
      };
    }
  }

  EventNode* acquire_node(Time t, Pid resume);
  void release_node(EventNode* n);

  /// Routes a filled node to the right lane: the ready FIFO when it is due
  /// at the current instant (zero timed-queue traffic), the timed heap
  /// otherwise.
  void enqueue(EventNode* n) {
    if (n->t <= now_) {
      n->next = nullptr;
      if (ready_tail_ != nullptr) {
        ready_tail_->next = n;
      } else {
        ready_head_ = n;
      }
      ready_tail_ = n;
      ++heap_bypass_;
    } else {
      timed_.push_back(n);
      std::push_heap(timed_.begin(), timed_.end(), EventAfter{});
    }
  }

  /// The timed lane's (t, seq) minimum, or nullptr when it is empty.
  EventNode* timed_min() const {
    return timed_.empty() ? nullptr : timed_.front();
  }

  EventNode* pop_timed() {
    std::pop_heap(timed_.begin(), timed_.end(), EventAfter{});
    EventNode* n = timed_.back();
    timed_.pop_back();
    return n;
  }

  /// Next event in strict (t, seq) order across both lanes, or nullptr.
  /// Ready entries carry the current timestamp, so the merge is a single
  /// comparison against the timed lane's minimum.
  EventNode* pop_next() {
    EventNode* r = ready_head_;
    EventNode* m = timed_min();
    if (m != nullptr && (r == nullptr || EventAfter{}(r, m))) {
      return pop_timed();
    }
    if (r == nullptr) return nullptr;
    ready_head_ = r->next;
    if (ready_head_ == nullptr) ready_tail_ = nullptr;
    return r;
  }

  /// True when no pending event is due at or before `t` — the condition for
  /// delay()'s advance-in-place fast path.
  bool nothing_before(Time t) const {
    if (ready_head_ != nullptr) return false;
    EventNode* m = timed_min();
    return m == nullptr || m->t > t;
  }

  /// Executes one popped event: advances the clock, counts it, and either
  /// resumes the target process or runs the stored callback. Shared by
  /// run() and run_until().
  void dispatch(EventNode* ev);

  /// Pushes a resume event for `pid` at time t (callback-free fast path).
  void push_resume(Pid pid, Time t);

  /// Used by Context::delay: registers a pending resume at `t` so
  /// intermediate unparks collapse into a permit instead of a wake/re-park
  /// round trip through the process thread.
  void schedule_timed_resume(Pid pid, Time t);

  // Transfers control to process p; returns when p parks/finishes.
  void switch_to(Pid pid);

  // Called from a process fiber: yields control back to the scheduler and
  // suspends until resumed. `next` is the state recorded while suspended.
  void yield_from_process(Process& p, PState next);

  void start_fiber(Process& p, Pid pid);

  /// The two fiber switch directions, with their sanitizer annotations:
  /// scheduler into `p` (returns when p yields back), and `p` back to the
  /// scheduler (returns when p is resumed; never, once p has `finished`).
  void swap_into(Process& p);
  void swap_out(Process& p, bool finished);

  /// Fiber-stack pool: finished fibers park their guard-paged mmap stacks
  /// here instead of munmapping, and the next spawn reuses them (pages stay
  /// warm, three syscalls saved per process). Everything is freed when the
  /// simulator is destroyed.
  void acquire_stack(StackMem& out);
  void recycle_stack(StackMem& s);
  void retire_fiber(Process& p);  ///< recycle stack + drop TSan fiber

  /// Fiber entry trampoline. Entry functions take no arguments in the
  /// fast-fiber ABI; the Simulator pointer travels through a thread_local
  /// set immediately before the first switch, the pid via current_.
  static void fiber_entry();

  /// Adds everything not yet reported to the thread-local substrate totals.
  void flush_totals();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t messages_ = 0;        ///< reported by attached Network(s)
  std::uint64_t stacks_allocated_ = 0;
  std::uint64_t stacks_reused_ = 0;
  std::uint64_t fiber_switches_ = 0;  ///< control transfers into fibers
  std::uint64_t heap_bypass_ = 0;     ///< ready-lane events
  std::uint64_t wakeups_elided_ = 0;  ///< unpark_hint suppressions
  SubstrateTotals flushed_;           ///< already added to substrate totals
  std::vector<EventNode*> timed_;     ///< min-heap of future events
  EventNode* ready_head_ = nullptr;   ///< same-instant FIFO (seq order)
  EventNode* ready_tail_ = nullptr;
  EventNode* free_nodes_ = nullptr;
  std::vector<StackMem> stack_pool_;
  std::vector<std::unique_ptr<Process>> procs_;

  fiber::Context sched_ctx_;  ///< saved scheduler context during a switch
  Pid current_ = kNoPid;      ///< fiber currently executing (kNoPid: scheduler)
  void* sched_tsan_fiber_ = nullptr;  ///< TSan handle of the scheduler side
  /// Scheduler stack as AddressSanitizer last reported it (ASan only).
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;

  std::function<void(Pid, Time)> switch_hook_;
  bool in_run_ = false;
  bool inplace_delay_ = true;  ///< delay() fast path (off under sharding)
};

}  // namespace repmpi::sim
