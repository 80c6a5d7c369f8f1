package server

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutineStacks returns the current all-goroutine dump, one block per
// goroutine.
func goroutineStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(strings.TrimSpace(string(buf[:n])), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// goroutineID extracts the "goroutine N" prefix of one dump block. IDs are
// never reused within a process, so a block whose ID was not present before
// the test is a goroutine the test started.
func goroutineID(block string) string {
	if i := strings.Index(block, " ["); i > 0 {
		return block[:i]
	}
	return block
}

// leakCheck fails the test if goroutines it started outlive it: the
// subscriber fan-out, event-stream handlers, HTTP connections, job runners
// and shutdown drains must all terminate with their owners. Teardown is
// asynchronous (connection readers notice the close on their next read,
// runners drain in-flight evaluations), so the check retries for up to two
// seconds before dumping the stacks of the survivors.
func leakCheck(t *testing.T) {
	t.Helper()
	before := map[string]bool{}
	for _, b := range goroutineStacks() {
		before[goroutineID(b)] = true
	}
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			var leaked []string
			for _, b := range goroutineStacks() {
				if !before[goroutineID(b)] {
					leaked = append(leaked, b)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%d goroutine(s) leaked by this test:\n\n%s",
					len(leaked), strings.Join(leaked, "\n\n"))
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
	})
}
