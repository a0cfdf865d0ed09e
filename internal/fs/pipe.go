package fs

import (
	"fmt"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// Sprite pipes are file-like kernel channels. We keep each pipe's buffer at
// the I/O server that created it, so the two ends can live on different
// hosts — and can migrate independently — without either end noticing:
// reads and writes are server round trips like any uncached file I/O.
// (Sprite kept local pipes in the kernel and promoted them on migration;
// we model the promoted form, which is the one that matters for migration.)

// pipeDefaultCapacity bounds a pipe's in-kernel buffer.
const pipeDefaultCapacity = 16 * 1024

// pipeState is the server-side representation of one pipe. Each end tracks
// the set of hosts holding references to it, so that a host crash can scrub
// exactly that host's ends and deliver EOF/EPIPE to survivors.
type pipeState struct {
	ino         int
	buf         []byte
	capacity    int
	readerHosts map[rpc.HostID]bool
	writerHosts map[rpc.HostID]bool

	readWaiters  []*sim.Future
	writeWaiters []*sim.Future
}

// wire formats for the pipe services.
type (
	pipeCreateReply struct {
		Ino int
	}
	pipeIOArgs struct {
		Ino  int
		N    int
		Data []byte
	}
	pipeCloseArgs struct {
		Ino    int
		Writer bool
		Host   rpc.HostID
	}
	pipeAdjustArgs struct {
		Ino    int
		Writer bool
		// From loses its reference to this end and To gains one; either may
		// be NoHost when migration does not change that side (the end keeps
		// or already has references there).
		From rpc.HostID
		To   rpc.HostID
	}
)

func (s *Server) pipe(ino int) (*pipeState, error) {
	p, ok := s.pipes[ino]
	if !ok {
		return nil, fmt.Errorf("%w: pipe %d", ErrNotFound, ino)
	}
	return p, nil
}

func (s *Server) handlePipeCreate(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	if err := s.chargeCPU(env, s.fs.params.NameLookupCPU); err != nil {
		return nil, 0, err
	}
	s.inoSeq++
	p := &pipeState{
		ino:         s.inoSeq,
		capacity:    pipeDefaultCapacity,
		readerHosts: map[rpc.HostID]bool{from: true},
		writerHosts: map[rpc.HostID]bool{from: true},
	}
	s.pipes[p.ino] = p
	return pipeCreateReply{Ino: p.ino}, 16, nil
}

// handlePipeRead blocks the calling (client) activity until data or EOF.
func (s *Server) handlePipeRead(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(pipeIOArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.pipeRead: bad args %T", arg)
	}
	p, err := s.pipe(a.Ino)
	if err != nil {
		return nil, 0, err
	}
	if err := s.chargeCPU(env, s.fs.params.BlockServerCPU); err != nil {
		return nil, 0, err
	}
	for len(p.buf) == 0 {
		if len(p.writerHosts) == 0 {
			return readReply{}, 16, nil // EOF
		}
		w := sim.NewFuture(s.fs.sim)
		p.readWaiters = append(p.readWaiters, w)
		if _, err := w.Wait(env); err != nil {
			return nil, 0, err
		}
	}
	n := a.N
	if n > len(p.buf) {
		n = len(p.buf)
	}
	data := make([]byte, n)
	copy(data, p.buf[:n])
	p.buf = p.buf[n:]
	wakeAll(&p.writeWaiters)
	return readReply{Data: data}, 16 + n, nil
}

// handlePipeWrite blocks while the buffer is full; fails with ErrBadStream
// when no readers remain (EPIPE).
func (s *Server) handlePipeWrite(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(pipeIOArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.pipeWrite: bad args %T", arg)
	}
	p, err := s.pipe(a.Ino)
	if err != nil {
		return nil, 0, err
	}
	if err := s.chargeCPU(env, s.fs.params.BlockServerCPU); err != nil {
		return nil, 0, err
	}
	written := 0
	data := a.Data
	for len(data) > 0 {
		if len(p.readerHosts) == 0 {
			return nil, 0, fmt.Errorf("%w: pipe %d has no readers", ErrBadStream, a.Ino)
		}
		space := p.capacity - len(p.buf)
		if space == 0 {
			w := sim.NewFuture(s.fs.sim)
			p.writeWaiters = append(p.writeWaiters, w)
			if _, err := w.Wait(env); err != nil {
				return nil, 0, err
			}
			continue
		}
		n := len(data)
		if n > space {
			n = space
		}
		p.buf = append(p.buf, data[:n]...)
		data = data[n:]
		written += n
		wakeAll(&p.readWaiters)
	}
	return writeReply{Size: written}, 16, nil
}

func (s *Server) handlePipeClose(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(pipeCloseArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.pipeClose: bad args %T", arg)
	}
	p, err := s.pipe(a.Ino)
	if err != nil {
		return nil, 0, err
	}
	if a.Writer {
		delete(p.writerHosts, a.Host)
		if len(p.writerHosts) == 0 {
			wakeAll(&p.readWaiters) // deliver EOF
		}
	} else {
		delete(p.readerHosts, a.Host)
		if len(p.readerHosts) == 0 {
			wakeAll(&p.writeWaiters) // deliver EPIPE
		}
	}
	if len(p.readerHosts) == 0 && len(p.writerHosts) == 0 {
		delete(s.pipes, a.Ino)
	}
	return nil, 8, nil
}

// handlePipeMigrate accounts a pipe stream's move between hosts; the
// buffer stays here at the I/O server, so only reference bookkeeping
// happens. The target host is added before the source is removed so the
// end never looks transiently unreferenced (which would deliver a
// spurious EOF/EPIPE to waiters mid-migration).
func (s *Server) handlePipeMigrate(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(pipeAdjustArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.pipeMigrate: bad args %T", arg)
	}
	p, err := s.pipe(a.Ino)
	if err != nil {
		return nil, 0, err
	}
	hosts := p.readerHosts
	if a.Writer {
		hosts = p.writerHosts
	}
	if a.To != rpc.NoHost {
		hosts[a.To] = true
	}
	if a.From != rpc.NoHost {
		delete(hosts, a.From)
	}
	if len(hosts) == 0 {
		if a.Writer {
			wakeAll(&p.readWaiters)
		} else {
			wakeAll(&p.writeWaiters)
		}
	}
	return nil, 8, nil
}

func wakeAll(waiters *[]*sim.Future) {
	for _, w := range *waiters {
		w.Complete(nil, nil)
	}
	*waiters = nil
}

// --- client side ---

// CreatePipe creates a pipe at this host's root I/O server and returns its
// read and write ends as streams.
func (c *Client) CreatePipe(env *sim.Env) (r, w *Stream, err error) {
	srvHost, err := c.server("/")
	if err != nil {
		return nil, nil, err
	}
	reply, err := c.ep.Call(env, srvHost, "fs.pipeCreate", nil, 16)
	if err != nil {
		return nil, nil, fmt.Errorf("create pipe: %w", err)
	}
	pr, ok := reply.(pipeCreateReply)
	if !ok {
		return nil, nil, fmt.Errorf("fs.pipeCreate: bad reply %T", reply)
	}
	fid := FileID{Server: srvHost, Ino: pr.Ino}
	r = &Stream{
		ID: c.fs.nextStreamID(), FID: fid, Path: fmt.Sprintf("<pipe %d r>", pr.Ino),
		Mode: ReadMode, pipe: true, owners: map[rpc.HostID]int{c.host: 1},
	}
	w = &Stream{
		ID: c.fs.nextStreamID(), FID: fid, Path: fmt.Sprintf("<pipe %d w>", pr.Ino),
		Mode: WriteMode, pipe: true, owners: map[rpc.HostID]int{c.host: 1},
	}
	return r, w, nil
}

// pipeRead reads up to n bytes from the pipe, blocking until data or EOF.
func (c *Client) pipeRead(env *sim.Env, st *Stream, n int) ([]byte, error) {
	reply, err := c.ep.Call(env, st.FID.Server, "fs.pipeRead", pipeIOArgs{Ino: st.FID.Ino, N: n}, 24)
	if err != nil {
		return nil, err
	}
	r, ok := reply.(readReply)
	if !ok {
		return nil, fmt.Errorf("fs.pipeRead: bad reply %T", reply)
	}
	c.fs.m.bytesRead.Add(int64(len(r.Data)))
	return r.Data, nil
}

// pipeWrite writes data into the pipe, blocking while it is full.
func (c *Client) pipeWrite(env *sim.Env, st *Stream, data []byte) (int, error) {
	reply, err := c.ep.Call(env, st.FID.Server, "fs.pipeWrite",
		pipeIOArgs{Ino: st.FID.Ino, Data: append([]byte(nil), data...)}, 24+len(data))
	if err != nil {
		return 0, err
	}
	r, ok := reply.(writeReply)
	if !ok {
		return 0, fmt.Errorf("fs.pipeWrite: bad reply %T", reply)
	}
	c.fs.m.bytesWritten.Add(int64(r.Size))
	return r.Size, nil
}

// pipeClose drops this host's reference to one pipe end.
func (c *Client) pipeClose(env *sim.Env, st *Stream) error {
	_, err := c.ep.Call(env, st.FID.Server, "fs.pipeClose",
		pipeCloseArgs{Ino: st.FID.Ino, Writer: st.Mode.canWrite(), Host: c.host}, 16)
	return err
}

// pipeMigrate informs the I/O server that one reference moved hosts. From
// and To name the hosts whose membership in the end's host set changed
// (NoHost for a side that kept or already had references).
func (c *Client) pipeMigrate(env *sim.Env, st *Stream, from, to rpc.HostID) error {
	_, err := c.ep.Call(env, st.FID.Server, "fs.pipeMigrate",
		pipeAdjustArgs{Ino: st.FID.Ino, Writer: st.Mode.canWrite(), From: from, To: to}, 24)
	return err
}
