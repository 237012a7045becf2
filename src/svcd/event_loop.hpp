// svcd::EventLoop — the daemon's single-threaded epoll reactor.
//
// Worker connections, worker stderr pipes, admin clients, and per-unit
// lease deadlines come and go continuously, so this loop keeps interest
// registered in the kernel (epoll), multiplexes any number of one-shot
// timers through a single timerfd armed to the earliest deadline, and
// turns SIGINT/SIGTERM into an ordinary readable fd via signalfd so
// shutdown is a callback, not an async-signal-unsafe handler.
//
// Reentrancy: watches and timers are addressed by opaque tokens, never by
// fd or array index. A callback may unwatch any token (including its own)
// or add new ones; a token cancelled mid-batch is simply skipped when its
// queued event comes up, and a new watch on a recycled fd number gets a
// fresh token, so stale events can never be delivered to the wrong owner.
//
// Fork hygiene: the daemon forks workers. close_fds_after_fork() closes
// the epoll/timerfd/signalfd descriptors and restores the pre-loop signal
// mask in the child (signalfd only works while the signals are blocked;
// a worker that inherited the blocked mask could never be interrupted).
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

namespace bgpsim::svcd {

class EventLoop {
 public:
  /// fd callback; `events` is the epoll event mask (EPOLLIN | EPOLLHUP...).
  using FdCallback = std::function<void(std::uint32_t events)>;
  using TimerCallback = std::function<void()>;
  using SignalCallback = std::function<void(int signo)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` for `events` (EPOLLIN etc.). The loop does not own the
  /// fd; unwatch before closing it. Returns the watch token.
  std::uint64_t watch(int fd, std::uint32_t events, FdCallback cb);
  void unwatch(std::uint64_t token);

  /// One-shot timer firing `delay_ms` from now. Returns the timer token;
  /// cancel_timer() before expiry is a no-op after it fired.
  std::uint64_t add_timer(std::uint64_t delay_ms, TimerCallback cb);
  void cancel_timer(std::uint64_t token);

  /// Block `signals` process-wide and deliver them through the loop as
  /// callbacks (signalfd). Call at most once, before run(). The previous
  /// signal mask is restored by the destructor.
  void watch_signals(const std::vector<int>& signals, SignalCallback cb);

  /// Dispatch events until stop(). Safe to call run() again after a stop.
  void run();
  void stop() { running_ = false; }

  /// Post-fork(), in the child: close the loop's kernel objects (epoll,
  /// timerfd, signalfd) and restore the inherited signal mask. The child
  /// must not touch the EventLoop object afterwards.
  void close_fds_after_fork();

 private:
  struct Watch {
    int fd = -1;
    FdCallback cb;
  };
  struct Timer {
    std::uint64_t deadline_ms = 0;  // CLOCK_MONOTONIC, absolute
    TimerCallback cb;
  };

  void arm_timerfd();
  void fire_due_timers();
  void drain_signalfd();
  static std::uint64_t now_ms();

  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  int signal_fd_ = -1;
  bool running_ = false;
  bool signal_mask_saved_ = false;
  sigset_t saved_mask_{};
  std::uint64_t next_token_ = 1;
  std::map<std::uint64_t, Watch> watches_;
  std::map<std::uint64_t, Timer> timers_;  // scanned for the earliest deadline
  SignalCallback signal_cb_;
};

}  // namespace bgpsim::svcd
