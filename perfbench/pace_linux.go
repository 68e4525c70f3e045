package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil paces the open loop. time.Sleep may wake up to a
// millisecond late, and a plain nanosleep by the thread's 50µs default
// timer slack; either would make the generator, not the server, set
// the latency at these rates. The calling thread's slack is cut to 1ns
// (threads the runtime reuses keep it; the call is idempotent), after
// which nanosleep wakes within ~10µs, so sleep that much short of due.
func sleepUntil(due time.Time) {
	const early = 10 * time.Microsecond
	wait := time.Until(due) - early
	if wait <= 0 {
		return
	}
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(int64(wait))
	syscall.Nanosleep(&ts, nil)
}
