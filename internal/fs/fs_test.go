package fs

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sprite/internal/metrics"
	"sprite/internal/netsim"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// harness builds a simulation with one file server (host 1) and clients on
// hosts 2..(1+clients).
type harness struct {
	sim *sim.Simulation
	reg *metrics.Registry
	fs  *FS
	srv *Server
}

func newHarness(t *testing.T, clients int) *harness {
	t.Helper()
	s := sim.New(1)
	net := netsim.New(s, netsim.Params{Latency: 500 * time.Microsecond, BandwidthBytesPerSec: 1e6})
	reg := metrics.New()
	tr := rpc.NewTransport(s, net, rpc.Params{ClientOverhead: time.Millisecond}, reg)
	f := New(s, tr, DefaultParams(), reg)
	srv := f.AddServer(1, "/")
	for i := 0; i < clients; i++ {
		f.AddClient(rpc.HostID(2 + i))
	}
	return &harness{sim: s, reg: reg, fs: f, srv: srv}
}

func (h *harness) run(t *testing.T, fn func(env *sim.Env) error) {
	t.Helper()
	h.sim.Spawn("test", fn)
	if err := h.sim.Run(0); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestWriteReadBackSameHost(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	want := []byte("hello, sprite world")
	h.run(t, func(env *sim.Env) error {
		if err := c.WriteFile(env, "/tmp/a", want); err != nil {
			return err
		}
		got, err := c.ReadFile(env, "/tmp/a")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Errorf("got %q, want %q", got, want)
		}
		return nil
	})
}

func TestCrossHostVisibilityViaConsistency(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.fs.Client(2), h.fs.Client(3)
	want := []byte("written on A, read on B")
	h.run(t, func(env *sim.Env) error {
		if err := a.WriteFile(env, "/f", want); err != nil {
			return err
		}
		// A's dirty blocks are still in its cache (delayed write-back);
		// B's open must recall them through the server.
		if a.DirtyBlocks() == 0 {
			t.Error("expected dirty blocks in A's cache before B's open")
		}
		got, err := b.ReadFile(env, "/f")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Errorf("got %q, want %q", got, want)
		}
		return nil
	})
	if h.srv.Stats().FlushRecall == 0 {
		t.Error("expected a flush recall")
	}
}

func TestConcurrentWriteSharingDisablesCaching(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.fs.Client(2), h.fs.Client(3)
	h.run(t, func(env *sim.Env) error {
		sa, err := a.Open(env, "/f", WriteMode, OpenOptions{Create: true})
		if err != nil {
			return err
		}
		if _, err := a.Write(env, sa, []byte("aaaa")); err != nil {
			return err
		}
		sb, err := b.Open(env, "/f", ReadWriteMode, OpenOptions{})
		if err != nil {
			return err
		}
		// Caching must now be off for both; B must observe A's data.
		got, err := b.Read(env, sb, 4)
		if err != nil {
			return err
		}
		if string(got) != "aaaa" {
			t.Errorf("B read %q, want aaaa", got)
		}
		// B writes; A (seeking back) must observe it immediately since
		// neither caches.
		if err := b.Seek(env, sb, 0); err != nil {
			return err
		}
		if _, err := b.Write(env, sb, []byte("bbbb")); err != nil {
			return err
		}
		if err := a.Seek(env, sa, 0); err != nil {
			return err
		}
		sa.Mode = ReadWriteMode // allow reading for verification
		got, err = a.Read(env, sa, 4)
		if err != nil {
			return err
		}
		if string(got) != "bbbb" {
			t.Errorf("A read %q, want bbbb", got)
		}
		if err := a.Close(env, sa); err != nil {
			return err
		}
		return b.Close(env, sb)
	})
	if h.srv.Stats().Disables == 0 {
		t.Error("expected caching to be disabled")
	}
}

func TestCacheHitsOnRepeatedReads(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	if _, err := h.fs.Seed("/data", bytes.Repeat([]byte("x"), 64*1024), false); err != nil {
		t.Fatal(err)
	}
	h.run(t, func(env *sim.Env) error {
		for i := 0; i < 3; i++ {
			if _, err := c.ReadFile(env, "/data"); err != nil {
				return err
			}
		}
		return nil
	})
	hits := h.reg.Counter("fs.cache.hits").Value()
	misses := h.reg.Counter("fs.cache.misses").Value()
	if misses == 0 || hits == 0 {
		t.Fatalf("hits = %d, misses = %d, want both", hits, misses)
	}
	if hits < 2*misses {
		t.Fatalf("hits = %d, misses = %d, want hits ~2x misses for 3 reads", hits, misses)
	}
}

func TestColdReadsChargeDisk(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	if _, err := h.fs.Seed("/cold", make([]byte, 8*4096), false); err != nil {
		t.Fatal(err)
	}
	var first, second time.Duration
	h.run(t, func(env *sim.Env) error {
		t0 := env.Now()
		if _, err := c.ReadFile(env, "/cold"); err != nil {
			return err
		}
		first = env.Now() - t0
		t0 = env.Now()
		if _, err := c.ReadFile(env, "/cold"); err != nil {
			return err
		}
		second = env.Now() - t0
		return nil
	})
	if first <= second {
		t.Fatalf("cold read %v should exceed cached read %v", first, second)
	}
	if h.srv.Stats().ColdReads != 8 {
		t.Fatalf("cold reads = %d, want 8", h.srv.Stats().ColdReads)
	}
}

func TestUncacheableFileAlwaysGoesToServer(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		st, err := c.Open(env, "/swap/1", ReadWriteMode, OpenOptions{Create: true, Uncacheable: true})
		if err != nil {
			return err
		}
		if _, err := c.Write(env, st, make([]byte, 4096)); err != nil {
			return err
		}
		if err := c.Seek(env, st, 0); err != nil {
			return err
		}
		if _, err := c.Read(env, st, 4096); err != nil {
			return err
		}
		return c.Close(env, st)
	})
	if got := c.CachedBlocks(); got != 0 {
		t.Fatalf("cached blocks = %d, want 0", got)
	}
	if h.srv.Stats().BlocksWrite == 0 || h.srv.Stats().BlocksRead == 0 {
		t.Fatalf("server stats = %+v, want direct traffic", h.srv.Stats())
	}
}

func TestStreamOffsetSemantics(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		st, err := c.Open(env, "/seq", ReadWriteMode, OpenOptions{Create: true})
		if err != nil {
			return err
		}
		if _, err := c.Write(env, st, []byte("abcdef")); err != nil {
			return err
		}
		if st.Offset() != 6 {
			t.Errorf("offset = %d, want 6", st.Offset())
		}
		if err := c.Seek(env, st, 2); err != nil {
			return err
		}
		got, err := c.Read(env, st, 2)
		if err != nil {
			return err
		}
		if string(got) != "cd" {
			t.Errorf("read %q, want cd", got)
		}
		return c.Close(env, st)
	})
}

func TestDupSharesOffset(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		if err := c.WriteFile(env, "/f", []byte("0123456789")); err != nil {
			return err
		}
		st, err := c.Open(env, "/f", ReadMode, OpenOptions{})
		if err != nil {
			return err
		}
		if err := c.Dup(st); err != nil {
			return err
		}
		if st.Refs() != 2 {
			t.Errorf("refs = %d, want 2", st.Refs())
		}
		if _, err := c.Read(env, st, 4); err != nil {
			return err
		}
		got, err := c.Read(env, st, 4)
		if err != nil {
			return err
		}
		if string(got) != "4567" {
			t.Errorf("second read %q, want 4567", got)
		}
		if err := c.Close(env, st); err != nil {
			return err
		}
		if st.Closed() {
			t.Error("stream closed with one ref remaining")
		}
		if err := c.Close(env, st); err != nil {
			return err
		}
		if !st.Closed() {
			t.Error("stream not closed after last ref")
		}
		return nil
	})
}

func TestMoveStreamPreservesDataAndOffset(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.fs.Client(2), h.fs.Client(3)
	h.run(t, func(env *sim.Env) error {
		if err := a.WriteFile(env, "/f", []byte("0123456789")); err != nil {
			return err
		}
		st, err := a.Open(env, "/f", ReadMode, OpenOptions{})
		if err != nil {
			return err
		}
		if _, err := a.Read(env, st, 4); err != nil {
			return err
		}
		// Migrate the stream (whole reference) to host 3.
		if err := a.MoveStream(env, st, 3); err != nil {
			return err
		}
		if st.RefsOn(3) != 1 || st.RefsOn(2) != 0 {
			t.Errorf("refs after move: on2=%d on3=%d", st.RefsOn(2), st.RefsOn(3))
		}
		if st.Shared() {
			t.Error("single-host stream should not be shared after move")
		}
		got, err := b.Read(env, st, 4)
		if err != nil {
			return err
		}
		if string(got) != "4567" {
			t.Errorf("read on target %q, want 4567", got)
		}
		return b.Close(env, st)
	})
}

func TestMoveStreamFlushesSourceDirtyBlocks(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.fs.Client(2), h.fs.Client(3)
	h.run(t, func(env *sim.Env) error {
		st, err := a.Open(env, "/f", ReadWriteMode, OpenOptions{Create: true})
		if err != nil {
			return err
		}
		if _, err := a.Write(env, st, []byte("dirty data here")); err != nil {
			return err
		}
		if a.DirtyBlocks() == 0 {
			t.Error("expected dirty blocks before move")
		}
		if err := a.MoveStream(env, st, 3); err != nil {
			return err
		}
		if a.DirtyBlocks() != 0 {
			t.Error("source cache still dirty after move")
		}
		if err := b.Seek(env, st, 0); err != nil {
			return err
		}
		got, err := b.Read(env, st, 15)
		if err != nil {
			return err
		}
		if string(got) != "dirty data here" {
			t.Errorf("read %q", got)
		}
		return b.Close(env, st)
	})
}

func TestSharedOffsetAfterForkAndMigrate(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.fs.Client(2), h.fs.Client(3)
	h.run(t, func(env *sim.Env) error {
		if err := a.WriteFile(env, "/f", []byte("abcdefghij")); err != nil {
			return err
		}
		st, err := a.Open(env, "/f", ReadMode, OpenOptions{})
		if err != nil {
			return err
		}
		// Fork: two references on host 2, then one migrates to host 3.
		if err := a.Dup(st); err != nil {
			return err
		}
		if err := a.MoveStream(env, st, 3); err != nil {
			return err
		}
		if !st.Shared() {
			t.Fatal("stream spanning hosts must have a shadow offset")
		}
		// Reads from both hosts advance one shared position.
		g1, err := a.Read(env, st, 3)
		if err != nil {
			return err
		}
		g2, err := b.Read(env, st, 3)
		if err != nil {
			return err
		}
		if string(g1) != "abc" || string(g2) != "def" {
			t.Errorf("reads %q,%q want abc,def", g1, g2)
		}
		if err := a.Close(env, st); err != nil {
			return err
		}
		return b.Close(env, st)
	})
}

func TestPrefixTableRoutesToServers(t *testing.T) {
	s := sim.New(1)
	net := netsim.New(s, netsim.DefaultParams())
	reg := metrics.New()
	tr := rpc.NewTransport(s, net, rpc.DefaultParams(), reg)
	f := New(s, tr, DefaultParams(), reg)
	f.AddServer(1, "/")
	f.AddServer(2, "/b")
	c := f.AddClient(3)
	s.Spawn("t", func(env *sim.Env) error {
		if err := c.WriteFile(env, "/a/x", []byte("root")); err != nil {
			return err
		}
		if err := c.WriteFile(env, "/b/x", []byte("sub")); err != nil {
			return err
		}
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if f.Server(1).FileCount() != 1 || f.Server(2).FileCount() != 1 {
		t.Fatalf("files: s1=%d s2=%d, want 1 each", f.Server(1).FileCount(), f.Server(2).FileCount())
	}
}

func TestNamespaceLongestPrefixWins(t *testing.T) {
	ns := NewNamespace()
	ns.AddPrefix("/", 1)
	ns.AddPrefix("/b", 2)
	ns.AddPrefix("/b/c", 3)
	cases := []struct {
		path string
		want rpc.HostID
	}{
		{"/x", 1}, {"/b", 2}, {"/b/x", 2}, {"/b/c/d", 3}, {"/bc", 1},
	}
	for _, cse := range cases {
		got, err := ns.Lookup(cse.path)
		if err != nil {
			t.Fatalf("lookup %s: %v", cse.path, err)
		}
		if got != cse.want {
			t.Errorf("lookup %s = %v, want %v", cse.path, got, cse.want)
		}
	}
	empty := NewNamespace()
	if _, err := empty.Lookup("/x"); !errors.Is(err, ErrNoServer) {
		t.Errorf("empty namespace lookup err = %v", err)
	}
}

func TestRemoveAndNotFound(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		if err := c.WriteFile(env, "/gone", []byte("x")); err != nil {
			return err
		}
		if err := c.Remove(env, "/gone"); err != nil {
			return err
		}
		_, err := c.Open(env, "/gone", ReadMode, OpenOptions{})
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("open removed file err = %v", err)
		}
		_, _, err = c.Stat(env, "/gone")
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("stat removed file err = %v", err)
		}
		return nil
	})
}

func TestLockSerializesCriticalSections(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.fs.Client(2), h.fs.Client(3)
	var order []string
	worker := func(name string, c *Client, hold time.Duration) func(env *sim.Env) error {
		return func(env *sim.Env) error {
			if err := c.Lock(env, "/lock"); err != nil {
				return err
			}
			order = append(order, name+"+")
			if err := env.Sleep(hold); err != nil {
				return err
			}
			order = append(order, name+"-")
			return c.Unlock(env, "/lock")
		}
	}
	h.sim.Spawn("a", worker("a", a, time.Second))
	h.sim.Spawn("b", worker("b", b, time.Second))
	if err := h.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"a+", "a-", "b+", "b-"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTruncateInvalidatesOtherCaches(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.fs.Client(2), h.fs.Client(3)
	h.run(t, func(env *sim.Env) error {
		if err := a.WriteFile(env, "/f", []byte("old content")); err != nil {
			return err
		}
		if _, err := b.ReadFile(env, "/f"); err != nil { // B caches it
			return err
		}
		if err := a.WriteFile(env, "/f", []byte("new")); err != nil { // truncate+rewrite
			return err
		}
		got, err := b.ReadFile(env, "/f")
		if err != nil {
			return err
		}
		if string(got) != "new" {
			t.Errorf("B read %q, want new (stale cache?)", got)
		}
		return nil
	})
}

func TestCacheEvictionWritesBackDirty(t *testing.T) {
	s := sim.New(1)
	net := netsim.New(s, netsim.DefaultParams())
	reg := metrics.New()
	tr := rpc.NewTransport(s, net, rpc.DefaultParams(), reg)
	params := DefaultParams()
	params.ClientCacheBlocks = 4
	f := New(s, tr, params, reg)
	srv := f.AddServer(1, "/")
	c := f.AddClient(2)
	s.Spawn("t", func(env *sim.Env) error {
		// Write 8 blocks through a 4-block cache.
		return c.WriteFile(env, "/big", make([]byte, 8*4096))
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if c.CachedBlocks() > 4 {
		t.Fatalf("cache holds %d blocks, cap 4", c.CachedBlocks())
	}
	if srv.Stats().BlocksWrite == 0 {
		t.Fatal("expected eviction write-backs")
	}
}

func TestReadAtDoesNotMoveOffset(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		if err := c.WriteFile(env, "/f", []byte("0123456789")); err != nil {
			return err
		}
		st, err := c.Open(env, "/f", ReadMode, OpenOptions{})
		if err != nil {
			return err
		}
		got, err := c.ReadAt(env, st, 5, 3)
		if err != nil {
			return err
		}
		if string(got) != "567" {
			t.Errorf("ReadAt = %q", got)
		}
		if st.Offset() != 0 {
			t.Errorf("offset moved to %d", st.Offset())
		}
		return c.Close(env, st)
	})
}

func TestSeedIsFree(t *testing.T) {
	h := newHarness(t, 1)
	if _, err := h.fs.Seed("/seeded", []byte("content"), false); err != nil {
		t.Fatal(err)
	}
	if h.sim.Now() != 0 {
		t.Fatal("seeding must not advance time")
	}
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		got, err := c.ReadFile(env, "/seeded")
		if err != nil {
			return err
		}
		if string(got) != "content" {
			t.Errorf("got %q", got)
		}
		return nil
	})
}

func TestEOFReadReturnsNil(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		if err := c.WriteFile(env, "/f", []byte("ab")); err != nil {
			return err
		}
		st, err := c.Open(env, "/f", ReadMode, OpenOptions{})
		if err != nil {
			return err
		}
		if _, err := c.Read(env, st, 10); err != nil {
			return err
		}
		got, err := c.Read(env, st, 10)
		if err != nil {
			return err
		}
		if got != nil {
			t.Errorf("read past EOF = %q, want nil", got)
		}
		return c.Close(env, st)
	})
}

func TestWriteToReadOnlyStreamFails(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		if err := c.WriteFile(env, "/f", []byte("x")); err != nil {
			return err
		}
		st, err := c.Open(env, "/f", ReadMode, OpenOptions{})
		if err != nil {
			return err
		}
		if _, err := c.Write(env, st, []byte("y")); !errors.Is(err, ErrReadOnly) {
			t.Errorf("err = %v, want ErrReadOnly", err)
		}
		return c.Close(env, st)
	})
}

func TestUseAfterCloseFails(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		if err := c.WriteFile(env, "/f", []byte("x")); err != nil {
			return err
		}
		st, err := c.Open(env, "/f", ReadMode, OpenOptions{})
		if err != nil {
			return err
		}
		if err := c.Close(env, st); err != nil {
			return err
		}
		if _, err := c.Read(env, st, 1); !errors.Is(err, ErrBadStream) {
			t.Errorf("read err = %v, want ErrBadStream", err)
		}
		if err := c.Close(env, st); !errors.Is(err, ErrBadStream) {
			t.Errorf("double close err = %v, want ErrBadStream", err)
		}
		return nil
	})
}
