package vm

import (
	"errors"
	"testing"
	"time"

	"sprite/internal/fs"
	"sprite/internal/metrics"
	"sprite/internal/netsim"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

type harness struct {
	sim *sim.Simulation
	reg *metrics.Registry
	fs  *fs.FS
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	s := sim.New(1)
	net := netsim.New(s, netsim.Params{Latency: 500 * time.Microsecond, BandwidthBytesPerSec: 1e6})
	reg := metrics.New()
	tr := rpc.NewTransport(s, net, rpc.Params{ClientOverhead: time.Millisecond}, reg)
	f := fs.New(s, tr, fs.DefaultParams(), reg)
	f.AddServer(1, "/")
	f.AddClient(2)
	f.AddClient(3)
	if _, err := f.Seed("/bin/prog", make([]byte, 64*1024), false); err != nil {
		t.Fatal(err)
	}
	return &harness{sim: s, reg: reg, fs: f}
}

func (h *harness) run(t testing.TB, fn func(env *sim.Env) error) {
	t.Helper()
	h.sim.Spawn("test", fn)
	if err := h.sim.Run(0); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func newSpace(t testing.TB, env *sim.Env, h *harness, name string, heapPages int) *AddressSpace {
	t.Helper()
	as, err := New(env, h.fs.Client(2), name, Config{
		CodePages:  8,
		HeapPages:  heapPages,
		StackPages: 2,
		BinaryPath: "/bin/prog",
	}, DefaultParams())
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	return as
}

func TestTouchFaultsOnceThenResident(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(env *sim.Env) error {
		as := newSpace(t, env, h, "p1", 16)
		if err := as.Touch(env, as.Heap, 3, false); err != nil {
			return err
		}
		if !as.Heap.Resident(3) {
			t.Error("page not resident after touch")
		}
		before := as.Stats().Faults
		if err := as.Touch(env, as.Heap, 3, true); err != nil {
			return err
		}
		if as.Stats().Faults != before {
			t.Error("second touch faulted")
		}
		if !as.Heap.Dirty(3) {
			t.Error("write touch did not dirty page")
		}
		return nil
	})
}

func TestTouchOutOfRange(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(env *sim.Env) error {
		as := newSpace(t, env, h, "p1", 4)
		if err := as.Touch(env, as.Heap, 4, false); !errors.Is(err, ErrBadPage) {
			t.Errorf("err = %v, want ErrBadPage", err)
		}
		if err := as.Touch(env, as.Heap, -1, false); !errors.Is(err, ErrBadPage) {
			t.Errorf("err = %v, want ErrBadPage", err)
		}
		return nil
	})
}

func TestFlushDirtyWritesToBackingStore(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(env *sim.Env) error {
		as := newSpace(t, env, h, "p1", 16)
		for i := 0; i < 8; i++ {
			if err := as.Touch(env, as.Heap, i, true); err != nil {
				return err
			}
		}
		if as.DirtyPages() != 8 {
			t.Fatalf("dirty = %d, want 8", as.DirtyPages())
		}
		t0 := env.Now()
		n, err := as.FlushDirty(env, h.fs.Client(2))
		if err != nil {
			return err
		}
		if n != 8 {
			t.Errorf("flushed %d, want 8", n)
		}
		if as.DirtyPages() != 0 {
			t.Error("pages still dirty after flush")
		}
		if env.Now() == t0 {
			t.Error("flush of 64KB must take time")
		}
		// Backing file now holds the data: the swap file grew.
		_, size, err := h.fs.Client(2).Stat(env, "/swap/p1.heap")
		if err != nil {
			return err
		}
		if size != 8*8192 {
			t.Errorf("swap size = %d, want %d", size, 8*8192)
		}
		return nil
	})
}

func TestDemandPagingAfterInvalidate(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(env *sim.Env) error {
		as := newSpace(t, env, h, "p1", 16)
		for i := 0; i < 8; i++ {
			if err := as.Touch(env, as.Heap, i, true); err != nil {
				return err
			}
		}
		if _, err := as.FlushDirty(env, h.fs.Client(2)); err != nil {
			return err
		}
		// Simulate arrival on the target: empty resident set, pages come
		// from backing store on demand.
		as.Heap.InvalidateAll()
		as.SetPagerAll(&FilePager{Client: h.fs.Client(3)})
		t0 := env.Now()
		if err := as.Touch(env, as.Heap, 0, false); err != nil {
			return err
		}
		if env.Now() == t0 {
			t.Error("demand paging a flushed page must cost time")
		}
		if !as.Heap.Resident(0) {
			t.Error("page not resident after demand paging")
		}
		return nil
	})
}

func TestSetResidency(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(env *sim.Env) error {
		as := newSpace(t, env, h, "p1", 100)
		as.Heap.SetResidency(0.5, 0.25)
		if got := as.Heap.ResidentCount(); got != 50 {
			t.Errorf("resident = %d, want 50", got)
		}
		if got := as.Heap.DirtyCount(); got != 25 {
			t.Errorf("dirty = %d, want 25", got)
		}
		return nil
	})
}

func TestCodePagesFromBinaryAreCached(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(env *sim.Env) error {
		as := newSpace(t, env, h, "p1", 4)
		// Touch all code pages; the binary is cacheable so a second
		// process's touches on the same host would hit the client cache.
		for i := 0; i < as.Code.Pages(); i++ {
			if err := as.Touch(env, as.Code, i, false); err != nil {
				return err
			}
		}
		cacheHits := h.reg.Counter("fs.cache.hits")
		hits := cacheHits.Value()
		as2 := newSpace(t, env, h, "p2", 4)
		for i := 0; i < as2.Code.Pages(); i++ {
			if err := as2.Touch(env, as2.Code, i, false); err != nil {
				return err
			}
		}
		if cacheHits.Value() <= hits {
			t.Error("second process's code touches should hit the cache")
		}
		return nil
	})
}

func TestTouchRangeAndCounts(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(env *sim.Env) error {
		as := newSpace(t, env, h, "p1", 32)
		if err := as.TouchRange(env, as.Heap, 4, 12, true); err != nil {
			return err
		}
		if got := as.Heap.ResidentCount(); got != 8 {
			t.Errorf("resident = %d, want 8", got)
		}
		if got := len(as.Heap.DirtyList()); got != 8 {
			t.Errorf("dirty list = %d, want 8", got)
		}
		if as.TotalPages() != 8+32+2 {
			t.Errorf("total = %d", as.TotalPages())
		}
		return nil
	})
}
