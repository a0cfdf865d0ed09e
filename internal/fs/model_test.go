package fs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sprite/internal/metrics"
	"sprite/internal/netsim"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// modelFile is the reference implementation: a flat byte slice.
type modelFile struct {
	data []byte
}

func (m *modelFile) writeAt(off int64, p []byte) {
	need := int(off) + len(p)
	if need > len(m.data) {
		grown := make([]byte, need)
		copy(grown, m.data)
		m.data = grown
	}
	copy(m.data[off:], p)
}

func (m *modelFile) readAt(off int64, n int) []byte {
	if off >= int64(len(m.data)) {
		return nil
	}
	hi := int(off) + n
	if hi > len(m.data) {
		hi = len(m.data)
	}
	out := make([]byte, hi-int(off))
	copy(out, m.data[off:hi])
	return out
}

// TestModelRandomOpsSingleClient drives a random sequence of stream
// operations against one client and checks every read against the
// reference model. Runs several seeds; each run is deterministic.
func TestModelRandomOpsSingleClient(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runModelTest(t, seed, 1, 300)
		})
	}
}

// TestModelRandomOpsTwoClients alternates operations between two hosts.
// Reads go through open/close cycles so Sprite's consistency machinery
// (recall, disable, versioning) is constantly exercised; every read must
// still match the reference model.
func TestModelRandomOpsTwoClients(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runModelTest(t, seed, 2, 200)
		})
	}
}

func runModelTest(t *testing.T, seed int64, nClients, ops int) {
	t.Helper()
	s := sim.New(seed)
	net := netsim.New(s, netsim.DefaultParams())
	reg := metrics.New()
	tr := rpc.NewTransport(s, net, rpc.DefaultParams(), reg)
	params := DefaultParams()
	params.ClientCacheBlocks = 8 // small cache: force evictions
	f := New(s, tr, params, reg)
	f.AddServer(1, "/")
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i] = f.AddClient(rpc.HostID(2 + i))
	}
	rng := rand.New(rand.NewSource(seed))
	model := map[string]*modelFile{}
	paths := []string{"/a", "/b", "/c"}

	s.Spawn("driver", func(env *sim.Env) error {
		for op := 0; op < ops; op++ {
			c := clients[rng.Intn(len(clients))]
			path := paths[rng.Intn(len(paths))]
			mf, exists := model[path]
			switch rng.Intn(5) {
			case 0, 1: // write a random range
				if !exists {
					mf = &modelFile{}
					model[path] = mf
				}
				off := int64(rng.Intn(20000))
				n := 1 + rng.Intn(6000)
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Intn(256))
				}
				st, err := c.Open(env, path, ReadWriteMode, OpenOptions{Create: true})
				if err != nil {
					return fmt.Errorf("op %d open-w %s: %w", op, path, err)
				}
				if err := c.WriteAt(env, st, off, data); err != nil {
					return fmt.Errorf("op %d write %s: %w", op, path, err)
				}
				mf.writeAt(off, data)
				if err := c.Close(env, st); err != nil {
					return err
				}
			case 2, 3: // read a random range
				if !exists {
					continue
				}
				off := int64(rng.Intn(20000))
				n := 1 + rng.Intn(6000)
				st, err := c.Open(env, path, ReadMode, OpenOptions{})
				if err != nil {
					return fmt.Errorf("op %d open-r %s: %w", op, path, err)
				}
				got, err := c.ReadAt(env, st, off, n)
				if err != nil {
					return fmt.Errorf("op %d read %s: %w", op, path, err)
				}
				want := mf.readAt(off, n)
				if !bytes.Equal(got, want) {
					return fmt.Errorf("op %d: read %s@%d+%d diverged (got %d bytes, want %d; first diff at %d)",
						op, path, off, n, len(got), len(want), firstDiff(got, want))
				}
				if err := c.Close(env, st); err != nil {
					return err
				}
			case 4: // whole-file rewrite (truncate)
				n := rng.Intn(10000)
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Intn(256))
				}
				if err := c.WriteFile(env, path, data); err != nil {
					return fmt.Errorf("op %d rewrite %s: %w", op, path, err)
				}
				model[path] = &modelFile{data: append([]byte(nil), data...)}
			}
			if err := env.Sleep(time.Millisecond); err != nil {
				return err
			}
		}
		// Final audit: every file read from every client matches.
		for _, path := range paths {
			mf, ok := model[path]
			if !ok {
				continue
			}
			for i, c := range clients {
				got, err := c.ReadFile(env, path)
				if err != nil {
					return fmt.Errorf("audit %s via client %d: %w", path, i, err)
				}
				if !bytes.Equal(got, mf.data) {
					return fmt.Errorf("audit %s via client %d diverged (got %d bytes, want %d, first diff %d)",
						path, i, len(got), len(mf.data), firstDiff(got, mf.data))
				}
			}
		}
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}
