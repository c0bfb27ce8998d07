#include "sim/simulator.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <exception>
#include <limits>
#include <sstream>

// ThreadSanitizer fiber support: TSan models each ucontext fiber as its own
// synchronization context, but only if we tell it when we swap. Without the
// annotations every swapcontext looks like racy single-thread magic and the
// concurrent-scenario tests drown in false positives.
#if defined(__SANITIZE_THREAD__)
#define REPMPI_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define REPMPI_TSAN_FIBERS 1
#endif
#endif

#ifdef REPMPI_TSAN_FIBERS
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

// AddressSanitizer fiber support: ASan knows one stack per thread unless
// each swapcontext is bracketed by start/finish annotations. Without them a
// throw on a fiber stack (ProcessKilled unwinding a crashed rank) makes
// __asan_handle_no_return unpoison against the thread stack's bounds and
// report a stack-buffer-overflow.
#if defined(__SANITIZE_ADDRESS__)
#define REPMPI_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define REPMPI_ASAN_FIBERS 1
#endif
#endif

#ifdef REPMPI_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
}
#endif

namespace repmpi::sim {

namespace {
// Destination annotation immediately before each swapcontext call site.
inline void tsan_switch([[maybe_unused]] void* fiber) {
#ifdef REPMPI_TSAN_FIBERS
  __tsan_switch_to_fiber(fiber, 0);
#endif
}

// Before a swap: the destination stack. A null `fake_stack` means the
// current fiber never resumes (its fake frames are released).
inline void asan_start_switch([[maybe_unused]] void** fake_stack,
                              [[maybe_unused]] const void* bottom,
                              [[maybe_unused]] std::size_t size) {
#ifdef REPMPI_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
#endif
}

// First thing after a swap returns: reports the stack control came from.
inline void asan_finish_switch([[maybe_unused]] void* fake_stack,
                               [[maybe_unused]] const void** bottom_old,
                               [[maybe_unused]] std::size_t* size_old) {
#ifdef REPMPI_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, bottom_old, size_old);
#endif
}
}  // namespace

// ---------------------------------------------------------------------------
// Substrate totals (thread-local: concurrent simulations never share them)
// ---------------------------------------------------------------------------

namespace {
thread_local SubstrateTotals t_totals;

/// Hands the owning Simulator to a freshly entered fiber (fiber entry
/// functions take no arguments). Written in switch_to immediately before
/// every swap into a fiber, read on first entry; nothing can run between
/// the store and the swap, so even a switch hook that drives a nested
/// Simulator on this thread cannot clobber the handoff.
thread_local Simulator* t_entering_sim = nullptr;
}  // namespace

SubstrateTotals substrate_totals() { return t_totals; }

void add_substrate(const SubstrateTotals& delta) { t_totals += delta; }

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

Time Context::now() const { return sim_.now_; }

void Context::check_killed() {
  auto& p = *sim_.procs_[static_cast<std::size_t>(pid_)];
  if (p.killed) throw ProcessKilled{};
}

void Context::delay(Time dt) {
  REPMPI_CHECK_MSG(dt >= 0.0, "negative delay " << dt);
  check_killed();
  if (dt == 0.0) return;
  const Time target = sim_.now_ + dt;
  // Fast path: when no pending event precedes the deadline (strictly — a
  // tie must still run the earlier-scheduled event first, and a ready-lane
  // entry is by construction at or before `target`), nothing in the
  // simulation can observe or perturb this process before `target`, so the
  // scheduler round trip is provably a no-op: advance the clock in place.
  // This turns runs of short charges (per-message overheads, back-to-back
  // compute slices) into plain arithmetic instead of context switches.
  // Sharded runs disable it (set_inplace_delay): the trigger condition is
  // a property of the shard layout, not of the program.
  if (sim_.inplace_delay_ && sim_.nothing_before(target)) {
    sim_.now_ = target;
    return;
  }
  // One resume event at the deadline, scheduled up front. Unparks that land
  // mid-delay (e.g., a message delivery completing a pending request while
  // we "compute") turn into park permits instead of wake/re-park round trips
  // through the scheduler; the loop below absorbs any permit without
  // advancing past the deadline. Waiters that rely on permits re-check their
  // own conditions, so a leftover permit cannot lose a wakeup.
  sim_.schedule_timed_resume(pid_, target);
  while (sim_.now_ < target) {
    park();
  }
}

void Context::park() {
  check_killed();
  auto& p = *sim_.procs_[static_cast<std::size_t>(pid_)];
  if (p.park_permit) {
    p.park_permit = false;
    return;
  }
  sim_.yield_from_process(p, Simulator::PState::kParked);
}

void Context::set_wait_token(const void* token) {
  sim_.procs_[static_cast<std::size_t>(pid_)]->wait_token = token;
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

Simulator::Simulator() = default;

Simulator::~Simulator() {
  terminate_processes();
  // Drain undelivered events (their callables may own payload references)
  // and free the node pool.
  while (ready_head_ != nullptr) {
    EventNode* n = ready_head_;
    ready_head_ = n->next;
    if (n->drop != nullptr) n->drop(*n);
    delete n;
  }
  ready_tail_ = nullptr;
  for (EventNode* n : timed_) {
    if (n->drop != nullptr) n->drop(*n);
    delete n;
  }
  timed_.clear();
  while (free_nodes_ != nullptr) {
    EventNode* next = free_nodes_->next;
    delete free_nodes_;
    free_nodes_ = next;
  }
  flush_totals();
  // stack_pool_ munmaps its entries via ~StackMem.
}

void Simulator::flush_totals() {
  const SubstrateTotals cur = counters();
  SubstrateTotals delta = cur;
  delta -= flushed_;
  t_totals += delta;
  flushed_ = cur;
}

EventNode* Simulator::acquire_node(Time t, Pid resume) {
  EventNode* n = free_nodes_;
  if (n != nullptr) {
    free_nodes_ = n->next;
  } else {
    n = new EventNode();
  }
  n->t = t;
  n->seq = next_seq_++;
  n->resume = resume;
  n->run = nullptr;
  n->drop = nullptr;
  n->next = nullptr;
  n->no_count = false;
  return n;
}

void Simulator::release_node(EventNode* n) {
  n->next = free_nodes_;
  free_nodes_ = n;
}

void Simulator::push_resume(Pid pid, Time t) {
  enqueue(acquire_node(t, pid));
}

void Simulator::schedule_timed_resume(Pid pid, Time t) {
  procs_[static_cast<std::size_t>(pid)]->resume_scheduled = true;
  push_resume(pid, t);
}

void Simulator::terminate_processes() {
  // Resume each live fiber with the kill flag set so it unwinds (RAII on its
  // stack runs), then drop its stack. Must only be called from scheduler
  // context — i.e., never from inside a simulated process.
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    Process& p = *procs_[i];
    if (!p.started || p.state == PState::kFinished) continue;
    p.killed = true;
    p.state = PState::kRunning;
    ++fiber_switches_;
    current_ = static_cast<Pid>(i);
    swap_into(p);
    current_ = kNoPid;
    retire_fiber(p);
  }
}

Pid Simulator::spawn(std::string name, ProcessFn fn) {
  const Pid pid = static_cast<Pid>(procs_.size());
  auto p = std::make_unique<Process>();
  p->name = std::move(name);
  p->fn = std::move(fn);
  p->ctx = std::make_unique<Context>(*this, pid);
  p->state = PState::kParked;  // becomes runnable via the initial resume event
  p->resume_scheduled = true;
  procs_.push_back(std::move(p));
  push_resume(pid, now_);
  return pid;
}

void Simulator::unpark(Pid pid) {
  REPMPI_CHECK(pid >= 0 && static_cast<std::size_t>(pid) < procs_.size());
  Process& p = *procs_[static_cast<std::size_t>(pid)];
  if (p.state == PState::kFinished) return;
  if (p.state == PState::kParked && !p.resume_scheduled) {
    p.resume_scheduled = true;
    push_resume(pid, now_);
  } else {
    p.park_permit = true;
  }
}

void Simulator::unpark_hint(Pid pid, const void* token) {
  REPMPI_CHECK(pid >= 0 && static_cast<std::size_t>(pid) < procs_.size());
  Process& p = *procs_[static_cast<std::size_t>(pid)];
  // A focused waiter asleep on a different condition stays asleep: the
  // notifier's effect is already visible through shared state, and the
  // waiter collects it when its own condition resumes it. This is what
  // makes waitall wake once per request it is actively collecting instead
  // of once per completion anywhere in the set.
  if (p.state == PState::kParked && p.wait_token != nullptr &&
      p.wait_token != token) {
    ++wakeups_elided_;
    return;
  }
  unpark(pid);
}

void Simulator::kill(Pid pid) {
  REPMPI_CHECK(pid >= 0 && static_cast<std::size_t>(pid) < procs_.size());
  Process& p = *procs_[static_cast<std::size_t>(pid)];
  if (p.state == PState::kFinished || p.killed) return;
  p.killed = true;
  // Wake it so the ProcessKilled exception unwinds the stack. A parked
  // process is woken even when a timed resume is already pending (a crash
  // mid-delay must unwind now, not at the delay's deadline).
  if (p.state == PState::kParked) {
    p.resume_scheduled = true;
    push_resume(pid, now_);
  } else {
    p.park_permit = true;
  }
}

bool Simulator::alive(Pid pid) const {
  const Process& p = *procs_[static_cast<std::size_t>(pid)];
  return !p.killed && p.state != PState::kFinished;
}

bool Simulator::finished(Pid pid) const {
  return procs_[static_cast<std::size_t>(pid)]->state == PState::kFinished;
}

const std::string& Simulator::name(Pid pid) const {
  return procs_[static_cast<std::size_t>(pid)]->name;
}

void Simulator::swap_into(Process& p) {
  tsan_switch(p.tsan_fiber);
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, p.stack.sp, kStackBytes);
  fiber::swap(sched_ctx_, p.fctx);
  asan_finish_switch(fake_stack, nullptr, nullptr);
}

void Simulator::swap_out(Process& p, bool finished) {
  tsan_switch(sched_tsan_fiber_);
  void* fake_stack = nullptr;
  asan_start_switch(finished ? nullptr : &fake_stack, sched_stack_bottom_,
                    sched_stack_size_);
  fiber::swap(p.fctx, sched_ctx_);
  asan_finish_switch(fake_stack, &sched_stack_bottom_, &sched_stack_size_);
}

void Simulator::fiber_entry() {
  Simulator* self = t_entering_sim;
  asan_finish_switch(nullptr, &self->sched_stack_bottom_,
                      &self->sched_stack_size_);
  const Pid pid = self->current_;
  Process& p = *self->procs_[static_cast<std::size_t>(pid)];
  // Every exception is caught on this side of the context switch: unwinding
  // must never cross a fiber switch. Exceptions other than ProcessKilled are
  // stashed and re-thrown in scheduler context so failures surface in run().
  try {
    if (p.killed) throw ProcessKilled{};
    p.fn(*p.ctx);
  } catch (const ProcessKilled&) {
    // Normal crash unwind.
  } catch (...) {
    p.pending_exception = std::current_exception();
  }
  p.state = PState::kFinished;
  self->swap_out(p, /*finished=*/true);  // never returns
}

void Simulator::StackMem::allocate(std::size_t usable) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  total = usable + page;
  base = mmap(nullptr, total, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  REPMPI_CHECK_MSG(base != MAP_FAILED, "fiber stack mmap failed");
  // Guard page at the low end: stacks grow down, so overflow hits it.
  REPMPI_CHECK(mprotect(base, page, PROT_NONE) == 0);
  sp = static_cast<std::byte*>(base) + page;
}

void Simulator::StackMem::reset() {
  if (base != nullptr) {
    munmap(base, total);
    base = nullptr;
    total = 0;
    sp = nullptr;
  }
}

void Simulator::acquire_stack(StackMem& out) {
  if (!stack_pool_.empty()) {
    out = std::move(stack_pool_.back());
    stack_pool_.pop_back();
    ++stacks_reused_;
    return;
  }
  out.allocate(kStackBytes);
  ++stacks_allocated_;
}

void Simulator::recycle_stack(StackMem& s) {
  // Cap the pool so a huge world that drained does not pin its whole stack
  // footprint (guard pages stay mapped; dirty pages stay warm — that is the
  // point of reuse).
  constexpr std::size_t kMaxPooledStacks = 64;
  if (s.valid() && stack_pool_.size() < kMaxPooledStacks) {
    stack_pool_.push_back(std::move(s));
  } else {
    s.reset();
  }
}

void Simulator::retire_fiber(Process& p) {
  recycle_stack(p.stack);
#ifdef REPMPI_TSAN_FIBERS
  if (p.tsan_fiber != nullptr) {
    __tsan_destroy_fiber(p.tsan_fiber);
    p.tsan_fiber = nullptr;
  }
#endif
}

void Simulator::start_fiber(Process& p, Pid pid) {
  p.started = true;
  acquire_stack(p.stack);
#ifdef REPMPI_TSAN_FIBERS
  p.tsan_fiber = __tsan_create_fiber(0);
#endif
  fiber::make(p.fctx, p.stack.sp, kStackBytes, &Simulator::fiber_entry);
  (void)pid;
}

void Simulator::switch_to(Pid pid) {
  Process& p = *procs_[static_cast<std::size_t>(pid)];
  if (p.state == PState::kFinished) return;  // stale resume
  p.state = PState::kRunning;
#ifdef REPMPI_TSAN_FIBERS
  if (sched_tsan_fiber_ == nullptr)
    sched_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  if (!p.started) start_fiber(p, pid);
  if (switch_hook_) switch_hook_(pid, now_);
  ++fiber_switches_;
  current_ = pid;
  t_entering_sim = this;  // consumed by fiber_entry on a first switch-in
  swap_into(p);
  current_ = kNoPid;
  if (p.state == PState::kFinished) {
    retire_fiber(p);  // the fiber can never run again; recycle its stack
    if (p.pending_exception) {
      auto eptr = p.pending_exception;
      p.pending_exception = nullptr;
      std::rethrow_exception(eptr);
    }
  }
}

void Simulator::yield_from_process(Process& p, PState next) {
  p.state = next;
  swap_out(p, /*finished=*/false);
  if (p.killed) throw ProcessKilled{};
}

void Simulator::dispatch(EventNode* ev) {
  REPMPI_CHECK(ev->t >= now_);
  now_ = ev->t;
  if (!ev->no_count) ++events_executed_;
  const Pid resume = ev->resume;
  if (resume != kNoPid) {
    release_node(ev);
    Process& p = *procs_[static_cast<std::size_t>(resume)];
    p.resume_scheduled = false;
    if (p.state != PState::kParked) {
      // The process was already resumed by an earlier event at this time
      // and yielded in a non-parked way, or finished; treat as a permit.
      if (p.state != PState::kFinished) p.park_permit = true;
      return;
    }
    switch_to(resume);
  } else {
    // Return the node to the pool whether or not the callback throws; the
    // callable itself is moved out and destroyed inside dispatch().
    struct NodeReturner {
      Simulator* sim;
      EventNode* node;
      ~NodeReturner() { sim->release_node(node); }
    } ret{this, ev};
    ev->run(*ev);
  }
}

void Simulator::run() {
  REPMPI_CHECK_MSG(!in_run_, "Simulator::run is not reentrant");
  in_run_ = true;
  for (;;) {
    EventNode* ev = pop_next();
    if (ev == nullptr) break;
    dispatch(ev);
  }
  in_run_ = false;
  flush_totals();

  // Diagnose deadlock: any live process still parked with nothing pending.
  const std::string stuck = stuck_processes();
  if (!stuck.empty()) {
    throw support::DeadlockError("simulation deadlock: " + stuck);
  }
}

void Simulator::run_until(Time end) {
  REPMPI_CHECK_MSG(!in_run_, "Simulator::run_until is not reentrant");
  in_run_ = true;
  // Peek the earliest pending time before popping, so an event at or
  // beyond the horizon stays queued for a later window.
  while (next_event_time() < end) dispatch(pop_next());
  in_run_ = false;
}

Time Simulator::next_event_time() const {
  const EventNode* r = ready_head_;
  const EventNode* m = timed_min();
  if (r == nullptr && m == nullptr) {
    return std::numeric_limits<Time>::infinity();
  }
  if (r == nullptr) return m->t;
  if (m == nullptr) return r->t;
  return std::min(r->t, m->t);
}

std::string Simulator::stuck_processes() const {
  std::ostringstream stuck;
  int n_stuck = 0;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const Process& p = *procs_[i];
    if (p.killed || p.state == PState::kFinished || !p.started) continue;
    if (p.state == PState::kParked) {
      if (n_stuck++ < 8) stuck << ' ' << p.name << "(pid " << i << ')';
    }
  }
  if (n_stuck == 0) return {};
  std::ostringstream os;
  os << n_stuck << " live process(es) parked with empty event queue:"
     << stuck.str();
  return os.str();
}

}  // namespace repmpi::sim
