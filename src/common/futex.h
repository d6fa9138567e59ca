// Park/wake on a 32-bit word: the Linux futex, process-private.
//
// A thread that has nothing to do reads the word, re-checks its condition,
// and parks with FutexWait(word, seen, timeout); whoever changes the
// condition bumps the word and calls FutexWake. Bumping before waking is
// what makes the handoff race-free: a wake that lands between the waiter's
// re-check and its syscall changes the word, so the kernel returns at once
// instead of sleeping. The futex is only a sleep - every piece of data the
// two threads share still travels through the caller's own atomics or
// mutex - and the timeout bounds a wake the caller chose not to send.
#ifndef DDOSCOPE_COMMON_FUTEX_H_
#define DDOSCOPE_COMMON_FUTEX_H_

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>

namespace ddos::common {

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
              "futex words must be plain 32-bit cells");

// Sleeps while *word == expected, for at most `timeout`. Returns on a
// wake, the timeout, a signal, or at once when the word already differs;
// callers re-check their condition either way.
inline void FutexWait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                      std::chrono::nanoseconds timeout) {
  const auto secs = std::chrono::duration_cast<std::chrono::seconds>(timeout);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(secs.count());
  ts.tv_nsec = static_cast<long>((timeout - secs).count());
  syscall(SYS_futex, word, FUTEX_WAIT_PRIVATE, expected, &ts, nullptr, 0);
}

// Wakes one thread parked on `word`; the caller has already bumped it.
inline void FutexWake(std::atomic<std::uint32_t>* word) {
  syscall(SYS_futex, word, FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
}

}  // namespace ddos::common

#endif  // DDOSCOPE_COMMON_FUTEX_H_
