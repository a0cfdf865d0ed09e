package fs

import (
	"errors"
	"testing"

	"sprite/internal/metrics"
	"sprite/internal/netsim"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// rpcFabric builds a default transport for multi-server tests, counting
// into reg.
func rpcFabric(s *sim.Simulation, reg *metrics.Registry) *rpc.Transport {
	return rpc.NewTransport(s, netsim.New(s, netsim.DefaultParams()), rpc.DefaultParams(), reg)
}

func TestRenamePreservesContentAndStreams(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		if err := c.WriteFile(env, "/a/old", []byte("payload")); err != nil {
			return err
		}
		st, err := c.Open(env, "/a/old", ReadMode, OpenOptions{})
		if err != nil {
			return err
		}
		if err := c.Rename(env, "/a/old", "/a/new"); err != nil {
			return err
		}
		// The open stream keeps working (FID preserved).
		got, err := c.Read(env, st, 7)
		if err != nil {
			return err
		}
		if string(got) != "payload" {
			t.Errorf("read through renamed stream = %q", got)
		}
		if err := c.Close(env, st); err != nil {
			return err
		}
		// Old name gone, new name present.
		if _, err := c.ReadFile(env, "/a/old"); !errors.Is(err, ErrNotFound) {
			t.Errorf("old name err = %v, want ErrNotFound", err)
		}
		got, err = c.ReadFile(env, "/a/new")
		if err != nil {
			return err
		}
		if string(got) != "payload" {
			t.Errorf("new name = %q", got)
		}
		return nil
	})
}

func TestRenameReplacesTarget(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		if err := c.WriteFile(env, "/x", []byte("new content")); err != nil {
			return err
		}
		if err := c.WriteFile(env, "/y", []byte("old content")); err != nil {
			return err
		}
		if err := c.Rename(env, "/x", "/y"); err != nil {
			return err
		}
		got, err := c.ReadFile(env, "/y")
		if err != nil {
			return err
		}
		if string(got) != "new content" {
			t.Errorf("target = %q", got)
		}
		return nil
	})
}

func TestRenameCrossDomainFails(t *testing.T) {
	s := sim.New(1)
	reg := metrics.New()
	f := New(s, rpcFabric(s, reg), DefaultParams(), reg)
	f.AddServer(1, "/")
	f.AddServer(4, "/b")
	c := f.AddClient(3)
	s.Spawn("t", func(env *sim.Env) error {
		if err := c.WriteFile(env, "/a/x", []byte("v")); err != nil {
			return err
		}
		if err := c.Rename(env, "/a/x", "/b/x"); !errors.Is(err, ErrCrossDomain) {
			t.Errorf("err = %v, want ErrCrossDomain", err)
		}
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestReadDirListsChildren(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	for _, p := range []string{"/src/a.c", "/src/b.c", "/src/sub/c.c", "/other/d"} {
		if _, err := h.fs.Seed(p, []byte("x"), false); err != nil {
			t.Fatal(err)
		}
	}
	h.run(t, func(env *sim.Env) error {
		names, err := c.ReadDir(env, "/src")
		if err != nil {
			return err
		}
		want := []string{"a.c", "b.c", "sub"}
		if len(names) != len(want) {
			t.Fatalf("names = %v, want %v", names, want)
		}
		for i := range want {
			if names[i] != want[i] {
				t.Fatalf("names = %v, want %v", names, want)
			}
		}
		empty, err := c.ReadDir(env, "/nothing")
		if err != nil {
			return err
		}
		if len(empty) != 0 {
			t.Fatalf("empty dir = %v", empty)
		}
		return nil
	})
}
