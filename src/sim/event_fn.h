// EventFn — the engine's event closure type: a move-only callable with a
// small-buffer optimization sized for the simulator's hot producers, so the
// common wakes (coroutine Delay resumes, transport hops carrying a boxed
// Message, disk completions, fault-plan jitter deliveries) store their
// captures inline in the pooled event node and allocate nothing per event.
// Oversized callables fall back to the heap transparently.
//
// std::function is unsuitable here twice over: it requires copyable targets
// (event closures move-capture std::unique_ptr<Message> boxes and coroutine
// handles), and its inline buffer is implementation-defined and smaller than
// many of the closures below, forcing a heap allocation per event.
#ifndef SRC_SIM_EVENT_FN_H_
#define SRC_SIM_EVENT_FN_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace asvm {

class EventFn {
 public:
  // A census of every closure scheduled on the three perfbench workloads
  // found the largest at 64 bytes (FilePager::ReadPage's completion,
  // NodeVm::PullRequest, RemoteForkTask); transport closures carry a boxed
  // Message and are 24 bytes. A 64-byte buffer made perfbench's file-read
  // 4-6% faster (4 alternating pairs on a shared 4-vCPU host), but it spills
  // bench_simcore's 128-byte payload to the heap and cut that bench's gated
  // wheel/heap ratios: schedule_run from 2.4-2.7x to 1.7-1.8x (floor 1.5x),
  // exponential_arrivals from 1.6-1.7x to 1.3x (floor 1.0x). So it stays at
  // 144 bytes while that bench gates a 128-byte payload.
  static constexpr size_t kInlineBytes = 144;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adaptor
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  // Destroys the held callable (if any), returning to the empty state.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs the callable from src's storage into dst's storage and
    // destroys the source — one erased call per relocation, so moving an
    // EventFn between the free-lane ring, event nodes, and locals stays cheap.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* storage) { (*std::launder(reinterpret_cast<Fn*>(storage)))(); },
      [](void* src, void* dst) noexcept {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* storage) noexcept { std::launder(reinterpret_cast<Fn*>(storage))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* storage) { (**std::launder(reinterpret_cast<Fn**>(storage)))(); },
      [](void* src, void* dst) noexcept {
        Fn** from = std::launder(reinterpret_cast<Fn**>(src));
        ::new (dst) Fn*(*from);
        *from = nullptr;
      },
      [](void* storage) noexcept { delete *std::launder(reinterpret_cast<Fn**>(storage)); },
  };

  void MoveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

}  // namespace asvm

#endif  // SRC_SIM_EVENT_FN_H_
