//go:build !linux

package pace

import "time"

// Pin is a no-op where the precise sleep is unavailable.
func Pin() (unpin func()) { return func() {} }

func preciseSleep(d time.Duration) { time.Sleep(d) }
