package core

import (
	"strings"
	"testing"

	"sprite/internal/fs"
	"sprite/internal/sim"
)

// TestInvariantCheckerCatchesInjectedRefLeak is the mutation test for the
// cluster invariant checker: deliberately unbalance a stream's reference
// counts the way a buggy migration path would — the client-side reference
// vanishes while the server still counts the open — and require the
// checker to flag it, both at a mid-run quiesce point and at end of run.
func TestInvariantCheckerCatchesInjectedRefLeak(t *testing.T) {
	c := newCluster(t, 1)
	ws := c.Workstation(0)
	var midRun []string
	c.Boot("boot", func(env *sim.Env) error {
		p, err := ws.StartProcess(env, "leaker", func(ctx *Ctx) error {
			fd, err := ctx.Open("/data/leak", fs.ReadWriteMode, fs.OpenOptions{Create: true})
			if err != nil {
				return err
			}
			// Mutation: scrub this host's reference from the stream without
			// telling the server, exactly the imbalance a lost migrateStream
			// or a missed close would leave behind.
			sts := ctx.Process().openStreams()
			sts[len(sts)-1].ScrubHost(ws.Host())
			midRun = c.CheckInvariants(false)
			// The leaked stream is unusable now; drop the fd regardless.
			_ = ctx.Close(fd)
			return nil
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if len(midRun) == 0 {
		t.Fatal("injected refcount leak not caught at quiesce point")
	}
	found := false
	for _, v := range midRun {
		if strings.Contains(v, "refs:") {
			found = true
		}
	}
	if !found {
		t.Errorf("quiesce violations %v lack a refs imbalance", midRun)
	}
	// The stranded server-side open must still be visible at end of run.
	end := c.CheckInvariants(true)
	if len(end) == 0 {
		t.Fatal("stranded server open not caught at end of run")
	}
}

// TestInvariantsCleanOnHealthyRun is the control for the mutation test: the
// same workload without the injected leak reports nothing.
func TestInvariantsCleanOnHealthyRun(t *testing.T) {
	c := newCluster(t, 1)
	ws := c.Workstation(0)
	var midRun []string
	c.Boot("boot", func(env *sim.Env) error {
		p, err := ws.StartProcess(env, "clean", func(ctx *Ctx) error {
			fd, err := ctx.Open("/data/clean", fs.ReadWriteMode, fs.OpenOptions{Create: true})
			if err != nil {
				return err
			}
			if _, err := ctx.Write(fd, make([]byte, 1024)); err != nil {
				return err
			}
			midRun = c.CheckInvariants(false)
			return ctx.Close(fd)
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if len(midRun) != 0 {
		t.Errorf("healthy quiesce point reported %v", midRun)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("healthy end of run reported %v", v)
	}
}

// TestStreamReunionKeepsServerRefsBalanced: a process shares an open file
// with a forked holder, migrates away, and migrates back to the host where
// the holder still has the stream open. The return hop reunites the
// stream's sharers on one host; the file server must keep counting that
// host once, so after everyone closes no open reference is left behind.
func TestStreamReunionKeepsServerRefsBalanced(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode fs.OpenMode
	}{
		{"read-write", fs.ReadWriteMode},
		{"read", fs.ReadMode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2)
			if err := c.Seed("/data/shared", []byte("reunion")); err != nil {
				t.Fatal(err)
			}
			h0, h1 := c.Workstation(0), c.Workstation(1)
			c.Boot("boot", func(env *sim.Env) error {
				p, err := h0.StartProcess(env, "parent", func(ctx *Ctx) error {
					fd, err := ctx.Open("/data/shared", tc.mode, fs.OpenOptions{})
					if err != nil {
						return err
					}
					rfd, wfd, err := ctx.Pipe()
					if err != nil {
						return err
					}
					// The holder keeps its inherited reference to the file
					// open on h0 until the parent is back home.
					if _, err := ctx.Fork("holder", func(cc *Ctx) error {
						if _, err := cc.Read(rfd, 1); err != nil {
							return err
						}
						if err := cc.Close(fd); err != nil {
							return err
						}
						if err := cc.Close(rfd); err != nil {
							return err
						}
						return cc.Close(wfd)
					}, smallProc); err != nil {
						return err
					}
					if err := ctx.Close(rfd); err != nil {
						return err
					}
					if err := ctx.Migrate(h1.Host()); err != nil {
						return err
					}
					if err := ctx.Migrate(h0.Host()); err != nil {
						return err
					}
					if _, err := ctx.Write(wfd, []byte{1}); err != nil {
						return err
					}
					if err := ctx.Close(wfd); err != nil {
						return err
					}
					if err := ctx.Close(fd); err != nil {
						return err
					}
					_, _, err = ctx.Wait()
					return err
				}, smallProc)
				if err != nil {
					return err
				}
				_, err = p.Exited().Wait(env)
				return err
			})
			runCluster(t, c)
			if v := c.CheckInvariants(true); len(v) != 0 {
				t.Errorf("end of run reported %v", v)
			}
		})
	}
}
