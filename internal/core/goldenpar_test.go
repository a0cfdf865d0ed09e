package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestGoldenFrozenUnderParallelKernel is the golden freeze under host
// parallelism: the committed migration snapshots must pass byte for byte
// when `workers` independent kernels run the pinned scenario at once, with
// the Go runtime on `workers` OS threads. Each kernel hands control between
// its activities one at a time, so neither other kernels in the process nor
// the thread count may reach its output; a golden that moves here is shared
// state leaking between clusters, never an acceptable regeneration.
func TestGoldenFrozenUnderParallelKernel(t *testing.T) {
	for _, batched := range []bool{true, false} {
		mode := "legacy"
		if batched {
			mode = "batched"
		}
		want, err := os.ReadFile(filepath.Join("testdata", "migration_"+mode+".golden"))
		if err != nil {
			t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
		}
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers%d", mode, workers), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(workers)
				t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
				for k := 0; k < workers; k++ {
					t.Run(fmt.Sprintf("kernel%d", k), func(t *testing.T) {
						t.Parallel()
						got := migrationSnapshot(t, 1, batched)
						if got != string(want) {
							t.Fatalf("concurrent kernel moved the %s golden:\n--- got ---\n%s\n--- want ---\n%s", mode, got, want)
						}
					})
				}
			})
		}
	}
}
