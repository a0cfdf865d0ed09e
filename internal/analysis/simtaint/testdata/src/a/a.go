// Fixture: each sink hit is one call hop away from its source. The
// per-function walltime/globalrand/maporder analyzers flag the source
// lines (stamp, jitter) but cannot see that the values reach trace
// emission — only the whole-tree taint summaries connect them.
package a

import (
	"math/rand"
	"sort"
	"strconv"
	"time"

	sim "sprite/internal/sim"
	"sprite/internal/trace"
)

func stamp() string { return time.Now().Format(time.RFC3339) }

func jitter() int { return rand.Intn(10) }

func report(env *sim.Env, lg *trace.Log) {
	lg.Append(env.Now(), "host.up", stamp()) // want `wall-clock-derived value reaches trace\.\(Log\)\.Append; goldens and seed replay diverge`
}

func emitJitter(env *sim.Env, lg *trace.Log) {
	lg.Append(env.Now(), "host.jitter", strconv.Itoa(jitter())) // want `global-rand-derived value reaches trace\.\(Log\)\.Append`
}

// clean: the simulation's clock and seeded random stream carry no taint.
func reportClean(env *sim.Env, lg *trace.Log) {
	lg.Append(env.Now(), "host.tick", strconv.Itoa(int(env.Now())))
	lg.Append(env.Now(), "host.pick", strconv.Itoa(env.Rand().Intn(10)))
}

func helperEmit(lg *trace.Log, k string) { lg.Append(0, "host.key", k) }

func dump(lg *trace.Log, m map[string]string) {
	for k := range m {
		helperEmit(lg, k) // want `a\.helperEmit emits order-sensitively and is called once per map iteration` `map-order-derived value reaches via a\.helperEmit`
	}
}

// dumpSorted is forgiven: the keys are sorted before the emitting loop.
func dumpSorted(lg *trace.Log, m map[string]string) {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		helperEmit(lg, k)
	}
}
