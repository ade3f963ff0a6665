//go:build !linux

package main

import (
	"runtime"
	"time"
)

// pacer waits for due times with time.Sleep.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

// sleepUntil blocks until t.
func (*pacer) sleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (*pacer) close() error { return nil }

// maxRSSMiB approximates peak memory by the bytes the Go runtime holds
// from the OS.
func maxRSSMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
