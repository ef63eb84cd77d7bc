package granting

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The runtime's timers wake an idle process up to
// a millisecond late (its poller sleeps in whole milliseconds), which is half
// a commit interval; nanosleep is good to ~0.1 ms. Interrupted sleeps resume.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return is handled by the loop
	}
}
