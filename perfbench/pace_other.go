//go:build !linux

package main

import "time"

// sleepUntil paces the open loop; see pace_linux.go for why Linux
// needs more than time.Sleep.
func sleepUntil(due time.Time) { time.Sleep(time.Until(due)) }
