// Package leakcheck fails a test when goroutines spawned by this
// module outlive it. Close paths are where middleware rots quietly —
// a writer goroutine, an accept loop or a sweeper that survives Close
// shows up nowhere until a long-running process runs out of threads —
// so shutdown tests pin the property directly:
//
//	defer leakcheck.Check(t)()
//
// as the first statement, before anything is constructed.
//
// Goroutines are identified by their "created by" frame, counted
// before and after, and the comparison retries briefly so workers
// mid-exit (Close has returned, the goroutine is between its last
// statement and termination) do not flap the test. Only goroutines
// created by this module are considered: the testing harness and
// stdlib helpers are invisible to the check.
package leakcheck

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// modulePrefix keys "created by" frames to this repository.
const modulePrefix = "github.com/gloss/active/"

// Check snapshots the module's live goroutines and returns the
// function that enforces the snapshot; defer its result immediately.
func Check(t testing.TB) func() {
	t.Helper()
	before := snapshot()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			leaked := diff(before, snapshot())
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutines leaked past test end:\n%s", strings.Join(leaked, "\n"))
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// snapshot counts live goroutines per module "created by" site.
func snapshot() map[string]int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	counts := make(map[string]int)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if site := createdBy(g); site != "" {
			counts[site]++
		}
	}
	return counts
}

// createdBy extracts the module spawn site of one goroutine dump, or
// "" for goroutines this module did not create.
func createdBy(stack string) string {
	for _, line := range strings.Split(stack, "\n") {
		rest, ok := strings.CutPrefix(line, "created by ")
		if !ok {
			continue
		}
		if fn, _, found := strings.Cut(rest, " in goroutine"); found {
			rest = fn
		}
		if strings.HasPrefix(rest, modulePrefix) && !strings.HasPrefix(rest, modulePrefix+"internal/leakcheck") {
			return rest
		}
		return ""
	}
	return ""
}

// diff lists spawn sites with more live goroutines after than before.
func diff(before, after map[string]int) []string {
	var leaked []string
	for site, n := range after {
		if extra := n - before[site]; extra > 0 {
			leaked = append(leaked, fmt.Sprintf("  %d leaked from %s", extra, site))
		}
	}
	sort.Strings(leaked)
	return leaked
}
