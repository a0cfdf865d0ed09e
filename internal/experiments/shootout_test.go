package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchHostsel mirrors bench/BENCH_hostsel.json: ceiling-style bounds on the
// gossip selector's quick-mode shoot-out point. Virtual time makes the run
// deterministic, so the gate is exact — a drift past any bound is a real
// behaviour change, not noise.
type benchHostsel struct {
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick"`
	Gossip     struct {
		MaxMisplaceRate float64 `json:"max_misplace_rate"`
		MinGranted      uint64  `json:"min_granted"`
		MaxMeanMs       float64 `json:"max_mean_ms"`
	} `json:"gossip"`
}

// TestGossipMisplaceGate runs the quick shoot-out at the checked-in seed and
// gates the gossip selector against bench/BENCH_hostsel.json: misplacement
// must stay under the ceiling (bounded stale views recovering via claim
// verification), enough requests must be granted (the selector keeps working
// through churn), and mean selection latency must stay local-read cheap.
func TestGossipMisplaceGate(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "BENCH_hostsel.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base benchHostsel
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(t.TempDir(), "HOSTSEL_gate.json")
	cfg := Config{Seed: base.Seed, Quick: base.Quick, Snapshot: snap}
	if _, err := E16SelectorShootout(cfg); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var rows []e16Row
	if err := json.Unmarshal(out, &rows); err != nil {
		t.Fatal(err)
	}
	var gossip *e16Row
	for i := range rows {
		if rows[i].Architecture == "gossip" {
			gossip = &rows[i]
		}
	}
	if gossip == nil {
		t.Fatal("no gossip row in shoot-out snapshot")
	}
	if gossip.MisplaceRate > base.Gossip.MaxMisplaceRate {
		t.Errorf("gossip misplace rate %.4f exceeds baseline ceiling %.4f (bench/BENCH_hostsel.json)",
			gossip.MisplaceRate, base.Gossip.MaxMisplaceRate)
	}
	if gossip.Granted < base.Gossip.MinGranted {
		t.Errorf("gossip granted %d below baseline floor %d", gossip.Granted, base.Gossip.MinGranted)
	}
	if gossip.MeanMs > base.Gossip.MaxMeanMs {
		t.Errorf("gossip mean selection %.2fms exceeds baseline ceiling %.2fms", gossip.MeanMs, base.Gossip.MaxMeanMs)
	}
}
