package pace

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerslack is prctl's PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// Pin locks the calling goroutine — the generator — to its OS thread
// and lowers that thread's timer slack from the default 50 µs to 1 µs,
// so a paced emit wakes within a few µs of its due time without
// spinning. The returned function undoes the lock.
func Pin() (unpin func()) {
	runtime.LockOSThread()
	// A failure leaves the default slack: sleeps overshoot by ~60 µs
	// instead of ~10 µs, which the reported lateness shows.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
	return runtime.UnlockOSThread
}

// preciseSleep blocks the calling thread in nanosleep(2).
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
