// Command perfbench is the repository's host-time benchmark. It runs one
// workload of simulated-cluster episodes on the serial kernel for a fixed
// time and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of its output, one JSON object.
//
//	bash perfbench/run.sh --workload pmake --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and how to read
// them.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// pinsJSON records, per workload and run seed, the model-output fingerprint
// of each configuration. Regenerate with --write-pins after a change that
// is meant to alter simulated results.
//
//go:embed pins.json
var pinsJSON []byte

type pinTable map[string]map[string][]string

// outRoot is where runs leave their provenance, spans and profiles.
const outRoot = ".bench_build/perfbench"

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func mainErr() error {
	var (
		name      = flag.String("workload", "", "workload: pmake, migrate or harvest")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 20, "seconds each measured phase runs")
		traceFlag = flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
		writePins = flag.String("write-pins", "", "write the fingerprints of run seeds 0..99 to this file and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	// The benchmark measures the serial kernel only.
	for _, v := range []string{"SPRITE_SIM_PARALLEL", "SPRITE_SIM_CONFINE"} {
		if os.Getenv(v) != "" {
			return fmt.Errorf("%s is set; the benchmark runs the serial kernel only", v)
		}
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	var pins pinTable
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	if *writePins != "" {
		return writePinFile(*writePins)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", *traceFlag)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	o := options{
		workload:    w.name,
		seed:        *seed,
		budget:      time.Duration(*seconds) * time.Second,
		minEpisodes: w.configs,
		size:        1,
		trace:       *traceFlag == 1,
		pins:        pins[w.name][strconv.FormatInt(*seed, 10)],
	}
	if o.trace {
		// The untraced and traced phases share the time.
		o.budget /= 2
	}
	rep, err := run(o)
	if err != nil {
		return err
	}
	return emit(rep)
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func emit(rep *report) error {
	o := rep.opts
	traceArg := 0
	if o.trace {
		traceArg = 1
	}
	dir := filepath.Join(outRoot, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, traceArg))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	res := result{}
	phases := []*phase{rep.untraced}
	if rep.traced != nil {
		phases = append(phases, rep.traced)
	}
	for _, ph := range phases {
		res.Attempted += len(ph.results)
		res.Failed += ph.failed
	}
	res.Correct = res.Failed == 0

	u := rep.untraced
	fmt.Printf("perfbench workload=%s seed=%d pinned=%t episodes=%d configs=%d phase_wall_s=%.3f\n",
		o.workload, o.seed, o.pins != nil, len(u.results), rep.configs, u.wall.Seconds())
	fps := make([]string, rep.configs)
	for _, r := range u.results[:rep.configs] {
		fps[r.cfg] = r.fingerprint
	}
	fmt.Printf("fingerprints %s\n", strings.Join(fps, " "))
	e2e, ti := endToEnd(u, rep.configs)
	printMetrics(e2e)
	fmt.Printf("episode_cpu_tail_ms is p%g over %d episodes (%d beyond it)\n", ti.q*100, ti.n, ti.beyond)
	rate, p50, wt := runTimes(u, rep.configs, runOf)
	fmt.Printf("wall clock: sim_rate %.6g sim_s/s, episode_p50_ms %.6g ms, episode_tail_ms %.6g ms (p%g)\n", rate, p50, wt.value, wt.q*100)
	fmt.Printf("%-28s %.6f (%d of %d episodes failed)\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	printed := 0
	for _, ph := range phases {
		for i, r := range ph.results {
			if r.err != nil && printed < 10 {
				fmt.Printf("FAILED episode %d (config %d): %v\n", i, r.cfg, r.err)
				printed++
			}
		}
	}
	res.Metrics = e2e

	if rep.traced != nil {
		layers, err := perLayer(rep)
		if err != nil {
			return err
		}
		fmt.Printf("traced phase: %d episodes, %d spans; trace_overhead = traced %.3f ms / untraced %.3f ms (median Cluster.Run)\n",
			len(rep.traced.results), len(rep.traced.tracer.spans),
			quantile(sortedMs(rep.traced.results, runOf), 0.5), quantile(sortedMs(u.results, runOf), 0.5))
		printMetrics(layers)
		if err := rep.traced.tracer.write(filepath.Join(dir, "spans.json")); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), rep.traced.profile, 0o644); err != nil {
			return err
		}
		res.Metrics = layers
	}

	prov := provenance(o)
	doc := map[string]any{"provenance": prov, "result": res, "tail_percentile": ti.q, "tail_beyond": ti.beyond, "fingerprints": fps}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), b, 0o644); err != nil {
		return err
	}
	fmt.Printf("provenance nproc=%v gomaxprocs=%v go=%v commit=%v source=%v results=%s\n",
		prov["nproc"], prov["gomaxprocs"], prov["go"], prov["commit"], prov["source_sha256"], dir)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// provenance describes where and on what code the numbers were measured.
func provenance(o options) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"seed":          o.seed,
		"workload":      o.workload,
		"commit":        gitCommit(),
		"source_sha256": sourceDigest(),
	}
}

// gitCommit reads HEAD from .git when the benchmark runs in a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the simulator's Go sources, naming the code measured
// even where the checkout is not a git repository.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// pinSeeds is how many run seeds, from 0, pins.json covers per workload.
const pinSeeds = 100

// writePinFile runs one cycle of every workload for run seeds 0..pinSeeds-1
// and records the fingerprints. An episode that fails its other checks is
// pinned too, so it keeps failing until the program is fixed, and is listed
// on standard error.
func writePinFile(path string) error {
	pins := pinTable{}
	for _, w := range workloads {
		pins[w.name] = map[string][]string{}
		for seed := int64(0); seed < pinSeeds; seed++ {
			rep, err := run(options{workload: w.name, seed: seed, minEpisodes: w.configs, size: 1})
			if err != nil {
				return err
			}
			fps := make([]string, w.configs)
			for _, r := range rep.untraced.results {
				if r.err != nil {
					fmt.Fprintf(os.Stderr, "FAILED %s seed %d config %d: %v\n", w.name, seed, r.cfg, r.err)
				}
				fps[r.cfg] = r.fingerprint
			}
			pins[w.name][strconv.FormatInt(seed, 10)] = fps
			fmt.Fprintf(os.Stderr, "pinned %s seed %d\n", w.name, seed)
		}
	}
	b, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
