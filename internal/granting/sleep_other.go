//go:build !linux

package granting

import "time"

// sleepUntil blocks until t, as precisely as the runtime's timers allow.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
