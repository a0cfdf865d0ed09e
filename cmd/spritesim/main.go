// Command spritesim runs the reproduced experiments of the Sprite process
// migration thesis and prints their tables.
//
// Usage:
//
//	spritesim -list
//	spritesim -experiment E5 [-seed 42] [-quick] [-metrics]
//	spritesim -experiment E15 [-crash ws1@250ms+200ms] [-snapshot RECOVERY_demo.json]
//	spritesim -experiment E16 [-hosts 10000] [-snapshot HOSTSEL_shootout.json]
//	spritesim -experiment E18 [-quick] [-snapshot FLEET_storms.json]
//	spritesim -fleet-storm 5007
//	spritesim -all [-quick]
//
// -metrics appends every cluster's metrics snapshot (RPC traffic, cache
// behaviour, migration phase timings) under the corresponding table.
//
// -crash schedules a host fault in the recovery experiment (E15):
// host@at[+dur] crashes the host at `at` and restarts it `dur` later;
// without +dur the host reboots instantly (state lost, epoch bumped).
// Repeatable.
//
// -hosts overrides the scale-aware experiments' host count: E16 runs its
// combined-churn schedule at exactly that fleet size (-hosts 10000 is the
// 10k CI tier).
//
// -snapshot writes one experiment's results as JSON: E15's final metrics,
// E16's per-selector rows, or E18's per-intensity rows. It needs
// -experiment, since under -all those experiments would overwrite one file.
package main

import (
	"flag"
	"fmt"
	"os"

	"sprite/internal/experiments"
	"sprite/internal/fault"
	"sprite/internal/recovery"
)

// crashFlags collects repeated -crash values.
type crashFlags []recovery.CrashSpec

func (c *crashFlags) String() string {
	s := ""
	for i, sp := range *c {
		if i > 0 {
			s += ","
		}
		s += sp.String()
	}
	return s
}

func (c *crashFlags) Set(v string) error {
	sp, err := recovery.ParseCrashSpec(v)
	if err != nil {
		return err
	}
	*c = append(*c, sp)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spritesim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spritesim", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list available experiments")
		expID      = fs.String("experiment", "", "experiment id to run (E1..E14)")
		all        = fs.Bool("all", false, "run every experiment")
		seed       = fs.Int64("seed", 42, "simulation seed")
		quick      = fs.Bool("quick", false, "smaller parameter sweeps")
		metrics    = fs.Bool("metrics", false, "append each cluster's metrics snapshot to the tables")
		hosts      = fs.Int("hosts", 0, "override the scale-aware experiments' host count (E16 fleet size)")
		snapshot   = fs.String("snapshot", "", "write the experiment's results JSON to this file (E15 metrics, E16 selector rows, E18 fleet rows; needs -experiment)")
		fleetStorm = fs.Int64("fleet-storm", 0, "replay one fleet eviction-storm fuzz scenario by seed and print its report")
	)
	var crashes crashFlags
	fs.Var(&crashes, "crash", "recovery-experiment fault: host@at[+dur], e.g. ws1@250ms+200ms (repeatable; no +dur = instant reboot)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapshot != "" && *expID == "" {
		return fmt.Errorf("-snapshot needs -experiment: under -all, E15, E16 and E18 would overwrite one file")
	}
	cfg := experiments.Config{
		Seed: *seed, Quick: *quick, Metrics: *metrics,
		Crashes: crashes, Hosts: *hosts, Snapshot: *snapshot,
	}
	switch {
	case *fleetStorm != 0:
		// Replay one seed of the fleet fuzzer's eviction-storm family (the
		// same scenarios TestFleetFuzz sweeps) and print its verdict — the
		// debugging entry point a failure report names.
		sc := fault.GenFleetScenario(*fleetStorm)
		res := fault.RunFleetScenario(sc)
		fmt.Print(sc.Report(res))
		if res.Failed() {
			min, minRes := fault.ShrinkFleet(sc)
			fmt.Printf("shrunk:\n%s", min.Report(minRes))
			return fmt.Errorf("fleet storm seed %d failed", *fleetStorm)
		}
		fmt.Println("ok")
		return nil
	case *list:
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return nil
	case *all:
		for _, r := range experiments.All() {
			tbl, err := r.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", r.ID, err)
			}
			fmt.Println(tbl)
		}
		return nil
	case *expID != "":
		r := experiments.Find(*expID)
		if r == nil {
			return fmt.Errorf("unknown experiment %q (try -list)", *expID)
		}
		tbl, err := r.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -experiment, -all, or -list")
	}
}
