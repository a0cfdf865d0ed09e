package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"sprite/internal/recovery"
)

// E15CrashRecovery goes beyond the thesis' performance tables into the
// availability story Sprite's design leans on: host liveness epochs, orphan
// reaping, and checkpoint-backed failover. It runs the canonical demo — a
// deferred-reap cluster, a liveness monitor, and three supervised jobs whose
// host dies mid-run — and reports what the recovery plane observed. The
// fault schedule is overridable from the CLI (-crash host@t[+dur]), and
// -snapshot dumps the full metrics snapshot as JSON for dashboards
// and the CI chaos artifact.
func E15CrashRecovery(cfg Config) (*Table, error) {
	res, err := recovery.RunDemoWith(cfg.Seed, cfg.Crashes)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:       "E15",
		Title:    "crash recovery and checkpointed failover",
		PaperRef: "beyond the thesis: Sprite's recovery model (host epochs, Welch 1990)",
		Columns:  []string{"metric", "value"},
	}
	cnt := res.Snapshot.Counters
	t.AddRow("jobs submitted", fmt.Sprintf("%d", cnt["recovery.jobs.submitted"]))
	t.AddRow("jobs completed", fmt.Sprintf("%d", res.Completed))
	t.AddRow("jobs lost", fmt.Sprintf("%d", len(res.Lost)))
	t.AddRow("restarts", fmt.Sprintf("%d", res.Restarts))
	t.AddRow("checkpoints taken", fmt.Sprintf("%d", cnt["recovery.checkpoints"]))
	t.AddRow("cpu recovered (ms)", ms(time.Duration(cnt["recovery.cpu_recovered_ns"])))
	t.AddRow("host-down events", fmt.Sprintf("%d", cnt["recovery.host_down"]))
	t.AddRow("host-up events", fmt.Sprintf("%d", cnt["recovery.host_up"]))
	if d, ok := res.Snapshot.Timings["recovery.detect_latency"]; ok && d.N > 0 {
		t.AddRow("detect latency p50 (ms)", ms(d.P50))
	}
	if r, ok := res.Snapshot.Timings["recovery.restart_latency"]; ok && r.N > 0 {
		t.AddRow("restart latency p50 (ms)", ms(r.P50))
	}

	var evs []string
	for _, ev := range res.Events {
		evs = append(evs, fmt.Sprintf("%v %v epoch=%d at=%v", ev.Kind, ev.Host, ev.Epoch, ev.At))
	}
	t.AddNote("liveness events: %s", strings.Join(evs, "; "))
	if len(res.Violations) != 0 {
		t.AddNote("INVARIANT VIOLATIONS: %s", strings.Join(res.Violations, "; "))
	}
	t.CaptureSnapshot(cfg, "demo", res.Snapshot)
	if cfg.Snapshot != "" {
		data, err := res.Snapshot.JSON()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.Snapshot, data, 0o644); err != nil {
			return nil, fmt.Errorf("write recovery snapshot: %w", err)
		}
		t.AddNote("metrics snapshot written to %s", cfg.Snapshot)
	}
	return t, nil
}
