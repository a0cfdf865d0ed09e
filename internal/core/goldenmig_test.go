package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sprite/internal/fs"
	"sprite/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the migration snapshot goldens under testdata/")

// migrationSnapshot runs the pinned migration scenario — open files, a dirty
// heap, one migration, a touchback — and renders everything observable about
// it: the record's full phase decomposition, the bulk data-plane counters,
// and the whole metrics snapshot.
func migrationSnapshot(t *testing.T, seed int64, batched bool) string {
	t.Helper()
	params := DefaultParams()
	params.Batch.Enabled = batched
	c, err := NewCluster(Options{Workstations: 2, FileServers: 1, Seed: seed, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedBinary("/bin/prog", 64<<10); err != nil {
		t.Fatal(err)
	}
	if err := c.Seed("/data/f0", []byte("golden")); err != nil {
		t.Fatal(err)
	}
	src, dst := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "golden", func(ctx *Ctx) error {
			if _, err := ctx.Open("/data/f0", fs.ReadMode, fs.OpenOptions{}); err != nil {
				return err
			}
			if err := ctx.TouchHeap(0, 32, true); err != nil {
				return err
			}
			if err := ctx.Migrate(dst.Host()); err != nil {
				return err
			}
			return ctx.TouchHeap(0, 8, false)
		}, ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 32, StackPages: 2})
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	recs := c.MigrationRecords()
	if len(recs) != 1 {
		t.Fatalf("migrations = %d, want 1", len(recs))
	}
	rec := recs[0]
	var b strings.Builder
	fmt.Fprintf(&b, "strategy=%s batched=%v\n", rec.Strategy, rec.Batched)
	fmt.Fprintf(&b, "total=%v freeze=%v\n", rec.Total, rec.Freeze)
	fmt.Fprintf(&b, "negotiate=%v vm=%v streams=%v pcb=%v resume=%v\n",
		rec.NegotiateTime, rec.VMTime, rec.FileTime, rec.PCBTime, rec.ResumeTime)
	fmt.Fprintf(&b, "vm_bytes=%d pages_flushed=%d pages_copied=%d files=%d\n",
		rec.VMBytes, rec.PagesFlushed, rec.PagesCopied, rec.Files)
	fmt.Fprintf(&b, "batch_runs=%d batch_fragments=%d batch_retransmits=%d\n",
		rec.BatchRuns, rec.BatchFragments, rec.BatchRetransmits)
	b.WriteString(c.MetricsSnapshot().Text())
	return b.String()
}

// TestGoldenMigrationSnapshots pins one batched and one legacy migration run
// byte for byte: the snapshot must be identical run over run, identical
// across two seeds (the scenario draws no randomness — any divergence means
// nondeterminism leaked into the data plane), and identical to the golden
// committed under testdata/. Regenerate with -update-golden when a cost
// model change is intentional.
func TestGoldenMigrationSnapshots(t *testing.T) {
	for _, batched := range []bool{true, false} {
		mode := "legacy"
		if batched {
			mode = "batched"
		}
		t.Run(mode, func(t *testing.T) {
			got := migrationSnapshot(t, 1, batched)
			if again := migrationSnapshot(t, 1, batched); again != got {
				t.Fatalf("same-seed reruns differ:\n--- first ---\n%s\n--- second ---\n%s", got, again)
			}
			if other := migrationSnapshot(t, 2, batched); other != got {
				t.Fatalf("seed 2 diverged from seed 1:\n--- seed1 ---\n%s\n--- seed2 ---\n%s", got, other)
			}
			path := filepath.Join("testdata", "migration_"+mode+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("snapshot changed vs %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
