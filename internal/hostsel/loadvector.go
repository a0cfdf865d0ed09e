package hostsel

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sprite/internal/rpc"
)

// This file is the pure data-structure core of the MOSIX-style gossip
// selector: a bounded partial load vector with per-entry age. Everything
// here is deterministic and side-effect free — the protocol machinery in
// probabilistic.go layers RPC on top — so the merge/decay/hint semantics
// can be property-tested in isolation.

// VectorEntry is one host's row in a partial load vector: the load-daemon
// sample the gossip protocol spreads around, plus how stale it is.
type VectorEntry struct {
	Host rpc.HostID
	// Available mirrors the host's idle predicate (low load, no recent
	// keyboard input) at sample time.
	Available bool
	// Load is the host's recent CPU load average.
	Load float64
	// IdleSince is the virtual time of the host's last keyboard/mouse
	// input, the longest-idle selection signal.
	IdleSince time.Duration
	// FreePages is a free-memory proxy: pages not resident to any process.
	FreePages int
	// Epoch is the boot incarnation the sample was taken under. A higher
	// epoch always wins a merge: any sample from an earlier incarnation
	// describes state the reboot destroyed.
	Epoch rpc.Epoch
	// Age is how stale the sample is. A freshly taken sample has age zero;
	// age grows under Decay and travels with the entry through gossip.
	Age time.Duration
}

// fresher reports whether a carries strictly newer information than b for
// the same host: a later boot epoch beats anything, then a smaller age.
func fresher(a, b VectorEntry) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	return a.Age < b.Age
}

// EvictHint says "stop treating this host as available": it was claimed,
// its user returned, or it rebooted. Hints ride on gossip conflicts and on
// ordinary RPC replies (the reply piggyback), so negative information
// spreads faster than the periodic gossip that planted the positive entry.
type EvictHint struct {
	Host  rpc.HostID
	Epoch rpc.Epoch
	Age   time.Duration
}

// LoadVector is a bounded, age-decayed partial view of the cluster: the
// per-host state of the gossip protocol. At fleet scale the bound keeps
// each host's view (and each gossip message) O(1) in the cluster size —
// the MOSIX argument for probabilistic information dissemination.
type LoadVector struct {
	bound   int
	entries map[rpc.HostID]VectorEntry
}

// NewLoadVector returns an empty vector holding at most bound entries
// (bound <= 0 means a small default).
func NewLoadVector(bound int) *LoadVector {
	if bound <= 0 {
		bound = 32
	}
	return &LoadVector{bound: bound, entries: make(map[rpc.HostID]VectorEntry)}
}

// Len returns the number of entries.
func (v *LoadVector) Len() int { return len(v.entries) }

// Get returns the entry for host, if present.
func (v *LoadVector) Get(host rpc.HostID) (VectorEntry, bool) {
	e, ok := v.entries[host]
	return e, ok
}

// Put unconditionally installs e (the host's own self-sample path), then
// enforces the bound.
func (v *LoadVector) Put(e VectorEntry) {
	v.entries[e.Host] = e
	v.enforceBound()
}

// Update merges one gossiped entry: it is accepted only if the vector has
// no entry for the host or the incoming entry is strictly fresher (higher
// epoch, else lower age). Merging a vector into itself is therefore a
// no-op, and merging two identical batches in either order yields the same
// vector — the idempotence/commutativity the gossip protocol leans on.
func (v *LoadVector) Update(e VectorEntry) bool {
	if old, ok := v.entries[e.Host]; ok && !fresher(e, old) {
		return false
	}
	v.entries[e.Host] = e
	v.enforceBound()
	return true
}

// Merge applies a batch of entries via Update and returns how many were
// accepted.
func (v *LoadVector) Merge(batch []VectorEntry) int {
	n := 0
	for _, e := range batch {
		if v.Update(e) {
			n++
		}
	}
	return n
}

// Decay ages every entry by elapsed and evicts entries whose age exceeds
// staleAfter (if positive), returning the number evicted. Ages only ever
// grow under Decay; only a fresher sample resets them.
func (v *LoadVector) Decay(elapsed, staleAfter time.Duration) int {
	if elapsed < 0 {
		elapsed = 0
	}
	evicted := 0
	for h, e := range v.entries {
		e.Age += elapsed
		if staleAfter > 0 && e.Age > staleAfter {
			delete(v.entries, h)
			evicted++
			continue
		}
		v.entries[h] = e
	}
	return evicted
}

// ApplyHint processes an eviction hint. The hint wins — the entry is
// flipped to unavailable — unless the entry is from a strictly newer boot
// epoch. In particular a hint at the same epoch always beats a stale
// positive entry, whatever its age: negative information is cheap to act
// on (worst case a lost selection candidate) while stale positive
// information costs a misplaced claim.
func (v *LoadVector) ApplyHint(h EvictHint) bool {
	e, ok := v.entries[h.Host]
	if !ok {
		return false
	}
	if e.Epoch > h.Epoch {
		return false // entry postdates the incarnation the hint is about
	}
	if !e.Available && e.Epoch == h.Epoch {
		return false // nothing to retract
	}
	v.entries[h.Host] = VectorEntry{
		Host:      h.Host,
		Available: false,
		Epoch:     h.Epoch,
		Age:       h.Age,
	}
	return true
}

// AdvanceEpoch drops the entry for host if it predates epoch: a reboot
// invalidates every sample taken under an older incarnation.
func (v *LoadVector) AdvanceEpoch(host rpc.HostID, epoch rpc.Epoch) bool {
	if e, ok := v.entries[host]; ok && e.Epoch < epoch {
		delete(v.entries, host)
		return true
	}
	return false
}

// Remove drops the entry for host.
func (v *LoadVector) Remove(host rpc.HostID) { delete(v.entries, host) }

// Entries returns all entries ordered youngest first (ties: lower load,
// then longer idle, then lower host id) — the selection preference order.
func (v *LoadVector) Entries() []VectorEntry {
	out := make([]VectorEntry, 0, len(v.entries))
	for _, e := range v.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return entryLess(out[i], out[j]) })
	return out
}

// entryLess is the canonical entry order: youngest first, then least
// loaded, then longest idle (earlier last input), then host id.
func entryLess(a, b VectorEntry) bool {
	if a.Age != b.Age {
		return a.Age < b.Age
	}
	if a.Load != b.Load {
		return a.Load < b.Load
	}
	if a.IdleSince != b.IdleSince {
		return a.IdleSince < b.IdleSince
	}
	return a.Host < b.Host
}

// NewestHalf returns the ceil(n/2) youngest entries — the gossip payload.
// Spreading only the newest half is the MOSIX compromise: old entries have
// already made their rounds, and resending them would displace fresh
// information from peers' bounded vectors.
func (v *LoadVector) NewestHalf() []VectorEntry {
	all := v.Entries()
	n := (len(all) + 1) / 2
	return all[:n]
}

// enforceBound evicts the oldest entries (ties: higher host id) until the
// vector fits its bound.
func (v *LoadVector) enforceBound() {
	for len(v.entries) > v.bound {
		var victim rpc.HostID
		first := true
		var worst VectorEntry
		for h, e := range v.entries {
			if first || e.Age > worst.Age || (e.Age == worst.Age && h > victim) {
				victim, worst, first = h, e, false
			}
		}
		delete(v.entries, victim)
	}
}

// Snapshot renders the vector deterministically (sorted by host id) for
// the determinism regression tests and goldens.
func (v *LoadVector) Snapshot() string {
	hosts := make([]rpc.HostID, 0, len(v.entries))
	for h := range v.entries {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	var b strings.Builder
	for _, h := range hosts {
		e := v.entries[h]
		fmt.Fprintf(&b, "%v avail=%t load=%.2f idle=%v free=%d epoch=%d age=%v\n",
			e.Host, e.Available, e.Load, e.IdleSince, e.FreePages, e.Epoch, e.Age)
	}
	return b.String()
}
