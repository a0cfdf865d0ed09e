// Golden determinism tests: the experiment drivers must produce
// bit-identical tables for a fixed seed, run after run and process after
// process. A change in any charged cost shows up here first — regenerate
// EXPERIMENTS.md when that is intentional.
package sprite_test

import (
	"strings"
	"testing"

	"sprite/internal/experiments"
)

// goldenE12 is the only experiment whose full output is stable by
// construction (it is a census, independent of timing constants); it pins
// the Appendix-A classification itself.
const goldenE12 = `E12 — Kernel-call handling for migrated processes (Appendix A census)
  [paper: thesis Appendix A]
policy             calls  examples
-----------------------------------------------------------------
local              14     [geteuid getgid getpid getppid]
file-system        21     [chdir chmod chown close]
forwarded-home     12     [fork gethostname getpgrp getpriority]
transferred-state  5      [brk exec exit sigreturn]
denied             2      [mmap-shared ptrace]
note: total calls classified: 54; the conformance tests exercise each modeled call before and after migration
`

func TestGoldenAppendixA(t *testing.T) {
	tbl, err := experiments.E12SyscallTable(experiments.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.String(); got != goldenE12 {
		t.Fatalf("Appendix-A census changed:\n--- got ---\n%s\n--- want ---\n%s", got, goldenE12)
	}
}

// TestExperimentsAreReproducible runs every driver twice with the same
// seed and requires identical tables.
func TestExperimentsAreReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := experiments.Config{Seed: 7, Quick: true}
	for _, r := range experiments.All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			a, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("%s not reproducible:\n%s\nvs\n%s", r.ID, a, b)
			}
		})
	}
}

// TestSeedChangesOutcome guards against accidentally ignoring the seed:
// stochastic experiments must differ across seeds.
func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed int64) string {
		tbl, err := experiments.E11PlacementVsMigration(experiments.Config{Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return tbl.String()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical E11 tables")
	}
}

// TestTablesRenderCleanly: every table renders with aligned columns and a
// paper reference.
func TestTablesRenderCleanly(t *testing.T) {
	cfg := experiments.Config{Seed: 42, Quick: true}
	for _, r := range []string{"E12", "E13"} {
		tbl, err := experiments.Find(r).Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := tbl.String()
		if !strings.Contains(s, "[paper:") {
			t.Errorf("%s missing paper reference:\n%s", r, s)
		}
		lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
		if len(lines) < 4 {
			t.Errorf("%s too short:\n%s", r, s)
		}
	}
}
