package fs

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// Wire message types for the fs.* services. They stay unexported: only this
// package speaks the protocol.
type (
	openArgs struct {
		Path        string
		Mode        OpenMode
		Host        rpc.HostID
		Create      bool
		Truncate    bool
		Uncacheable bool
	}
	openReply struct {
		FID       FileID
		Size      int
		Version   uint64
		Cacheable bool
	}
	closeArgs struct {
		FID  FileID
		Mode OpenMode
		Host rpc.HostID
		// Dirty reports whether the closing client retains dirty blocks
		// under delayed write-back; the server must recall them before
		// another host reads the file.
		Dirty bool
	}
	readArgs struct {
		FID   FileID
		Block int
	}
	readReply struct {
		Data []byte
	}
	writeArgs struct {
		FID     FileID
		Block   int
		Data    []byte
		Offset  int // byte offset of Data within the block
		NewSize int // -1 to keep current size
	}
	writeReply struct {
		Version uint64
		Size    int
	}
	// Bulk-transfer messages: one request covers a contiguous byte range
	// spanning many blocks; the payload travels as pipelined fragments
	// (rpc.CallBulk) rather than one message per block.
	writeBulkArgs struct {
		FID     FileID
		Off     int64
		Data    []byte
		NewSize int // -1 to keep current size
	}
	readBulkArgs struct {
		FID FileID
		Off int64
		N   int
	}
	readBulkReply struct {
		Data []byte
	}
	statArgs struct {
		Path string
	}
	statReply struct {
		FID     FileID
		Size    int
		Version uint64
		MTime   time.Duration
	}
	removeArgs struct {
		Path string
	}
	offsetArgs struct {
		Stream StreamID
		FID    FileID
		// Advance the offset by Delta, or if Set >= 0 assign it.
		Delta int64
		Set   int64
	}
	offsetReply struct {
		Old  int64
		Size int
	}
	migrateStreamArgs struct {
		Stream StreamID
		FID    FileID
		Mode   OpenMode
		From   rpc.HostID
		To     rpc.HostID
		Offset int64 // current client-side offset, adopted by the server
		Share  bool  // stream now spans hosts: shadow the offset
	}
	lockArgs struct {
		Path string
	}
	// Client callback arguments (server -> client).
	cacheCallbackArgs struct {
		FID FileID
	}
	// attrReply is the client's answer to a cached-attribute fetch.
	attrReply struct {
		Size  int
		MTime time.Duration
	}
)

// openState tracks one host's open references to a file.
type openState struct {
	readers int
	writers int
}

func (o *openState) total() int { return o.readers + o.writers }

// file is the server-side state of one file.
type file struct {
	ino        int
	path       string
	data       []byte
	version    uint64
	mtime      time.Duration // virtual time of the last server-side change
	neverCache bool          // backing-store and similar files are never client-cached
	cacheable  bool
	opens      map[rpc.HostID]*openState
	lastWriter rpc.HostID // host that may hold dirty blocks in its cache
	touched    map[int]bool
	// mu serializes open/close/migrate consistency actions on this file.
	// An open that blocks mid-handler issuing cache callbacks has not yet
	// registered its reference; without the monitor lock a concurrent open
	// or stream migration would read the stale open table and re-enable
	// caching the blocked open is about to rely on being disabled.
	mu *sim.Resource
}

func (fl *file) writersOn(except rpc.HostID) int {
	n := 0
	for h, o := range fl.opens {
		if h != except {
			n += o.writers
		}
	}
	return n
}

// openHostsOther returns the hosts (other than except) with the file open,
// in host order: callers fire consistency RPCs (recalls, shoot-downs) down
// this list, so its order is part of the deterministic event schedule.
func (fl *file) openHostsOther(except rpc.HostID) []rpc.HostID {
	var out []rpc.HostID
	for h := range fl.opens {
		if h != except {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ServerStats summarizes one server's activity.
type ServerStats struct {
	Lookups     uint64
	BlocksRead  uint64
	BlocksWrite uint64
	ColdReads   uint64
	FlushRecall uint64 // consistency callbacks asking a client to flush
	Disables    uint64 // times caching was disabled for a file
	BulkWrites  uint64 // fs.writeBulk batches served
	BulkReads   uint64 // fs.readBulk batches served
}

// Server is one Sprite file server: the authority for the files in its
// domain, the consistency point for client caches, and the home of shadow
// stream offsets.
type Server struct {
	fs   *FS
	host rpc.HostID
	cpu  *sim.Resource
	disk *sim.Resource

	files   map[string]*file
	byID    map[FileID]*file
	inoSeq  int
	offsets map[StreamID]int64
	locks   map[string]*sim.Resource
	pipes   map[int]*pipeState

	stats ServerStats
}

func newServer(f *FS, host rpc.HostID) *Server {
	srv := &Server{
		fs:      f,
		host:    host,
		cpu:     sim.NewResource(f.sim, 1),
		disk:    sim.NewResource(f.sim, 1),
		files:   make(map[string]*file),
		byID:    make(map[FileID]*file),
		offsets: make(map[StreamID]int64),
		locks:   make(map[string]*sim.Resource),
		pipes:   make(map[int]*pipeState),
	}
	ep := f.transport.Register(host)
	ep.Handle("fs.open", srv.handleOpen)
	ep.Handle("fs.close", srv.handleClose)
	ep.Handle("fs.read", srv.handleRead)
	ep.Handle("fs.write", srv.handleWrite)
	ep.Handle("fs.readBulk", srv.handleReadBulk)
	ep.Handle("fs.writeBulk", srv.handleWriteBulk)
	ep.Handle("fs.stat", srv.handleStat)
	ep.Handle("fs.remove", srv.handleRemove)
	ep.Handle("fs.offset", srv.handleOffset)
	ep.Handle("fs.migrateStream", srv.handleMigrateStream)
	ep.Handle("fs.lock", srv.handleLock)
	ep.Handle("fs.unlock", srv.handleUnlock)
	ep.Handle("fs.rename", srv.handleRename)
	ep.Handle("fs.readdir", srv.handleReadDir)
	ep.Handle("fs.pipeCreate", srv.handlePipeCreate)
	ep.Handle("fs.pipeRead", srv.handlePipeRead)
	ep.Handle("fs.pipeWrite", srv.handlePipeWrite)
	ep.Handle("fs.pipeClose", srv.handlePipeClose)
	ep.Handle("fs.pipeMigrate", srv.handlePipeMigrate)
	return srv
}

// Host returns the server's host id.
func (s *Server) Host() rpc.HostID { return s.host }

// Stats returns a copy of the server's counters.
func (s *Server) Stats() ServerStats { return s.stats }

// CPUBusy returns total server CPU busy time (the pmake bottleneck metric).
func (s *Server) CPUBusy() time.Duration { return s.cpu.BusyTime() }

// FileCount returns the number of files in the server's domain.
func (s *Server) FileCount() int { return len(s.files) }

func (s *Server) chargeCPU(env *sim.Env, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	return s.cpu.Use(env, d)
}

func (s *Server) lookup(fid FileID) (*file, error) {
	fl, ok := s.byID[fid]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, fid)
	}
	return fl, nil
}

func (s *Server) create(path string, neverCache bool) *file {
	s.inoSeq++
	fl := &file{
		ino:        s.inoSeq,
		path:       path,
		version:    1,
		neverCache: neverCache,
		cacheable:  !neverCache,
		opens:      make(map[rpc.HostID]*openState),
		touched:    make(map[int]bool),
		mu:         sim.NewResource(s.fs.sim, 1),
	}
	s.files[path] = fl
	s.byID[FileID{Server: s.host, Ino: fl.ino}] = fl
	return fl
}

func (s *Server) handleOpen(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(openArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.open: bad args %T", arg)
	}
	if err := s.chargeCPU(env, s.fs.params.NameLookupCPU); err != nil {
		return nil, 0, err
	}
	s.stats.Lookups++
	fl, exists := s.files[a.Path]
	switch {
	case !exists && a.Create:
		fl = s.create(a.Path, a.Uncacheable)
	case !exists:
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, a.Path)
	}

	if err := fl.mu.Acquire(env); err != nil {
		return nil, 0, err
	}
	defer fl.mu.Release()
	// Consistency first: recall dirty blocks or disable caches as needed
	// [NWO88]. This must precede truncation — a recalled flush of the
	// previous writer's dirty blocks must not resurrect data into the
	// freshly truncated file.
	if err := s.ensureConsistentOpen(env, fl, a.Host, a.Mode); err != nil {
		return nil, 0, err
	}
	if exists && a.Create && a.Truncate {
		fl.data = nil
		fl.version++
		fl.mtime = env.Now()
	}
	if !exists && a.Create {
		fl.mtime = env.Now()
	}

	st := fl.opens[a.Host]
	if st == nil {
		st = &openState{}
		fl.opens[a.Host] = st
	}
	if a.Mode.canWrite() {
		st.writers++
	} else {
		st.readers++
	}
	reply := openReply{
		FID:       FileID{Server: s.host, Ino: fl.ino},
		Size:      len(fl.data),
		Version:   fl.version,
		Cacheable: fl.cacheable,
	}
	return reply, 64, nil
}

// ensureConsistentOpen performs Sprite's open-time consistency actions for
// an open of fl by host in the given mode.
func (s *Server) ensureConsistentOpen(env *sim.Env, fl *file, host rpc.HostID, mode OpenMode) error {
	conflict := false
	if !fl.neverCache {
		others := fl.openHostsOther(host)
		if mode.canWrite() && len(others) > 0 {
			conflict = true
		}
		if fl.writersOn(host) > 0 {
			conflict = true
		}
	}
	switch {
	case fl.neverCache:
		fl.cacheable = false
	case conflict:
		if fl.cacheable {
			s.stats.Disables++
		}
		fl.cacheable = false
		// Recall dirty data and shoot down every cache that may hold the
		// file, including the opener's own.
		targets := fl.openHostsOther(rpc.NoHost)
		if fl.lastWriter != rpc.NoHost {
			targets = appendUnique(targets, fl.lastWriter)
		}
		targets = appendUnique(targets, host)
		fid := FileID{Server: s.host, Ino: fl.ino}
		for _, t := range targets {
			if _, err := s.callback(env, t, "fsc.disable", fid); err != nil {
				// A crashed target has no cache left to disable; its open
				// state is scrubbed by the crash path.
				if errors.Is(err, rpc.ErrHostDown) {
					continue
				}
				return err
			}
		}
		fl.lastWriter = rpc.NoHost
	default:
		fl.cacheable = true
		if fl.lastWriter != rpc.NoHost && fl.lastWriter != host {
			// Another host's cache holds the current data; recall it so
			// this open observes it.
			s.stats.FlushRecall++
			fid := FileID{Server: s.host, Ino: fl.ino}
			if _, err := s.callback(env, fl.lastWriter, "fsc.flush", fid); err != nil {
				if !errors.Is(err, rpc.ErrHostDown) {
					return err
				}
			}
			fl.lastWriter = rpc.NoHost
		}
	}
	return nil
}

// callback performs a server-to-client consistency RPC.
func (s *Server) callback(env *sim.Env, to rpc.HostID, service string, fid FileID) (any, error) {
	ep := s.fs.transport.Endpoint(s.host)
	return ep.Call(env, to, service, cacheCallbackArgs{FID: fid}, 32)
}

func (s *Server) handleClose(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(closeArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.close: bad args %T", arg)
	}
	fl, err := s.lookup(a.FID)
	if err != nil {
		return nil, 0, err
	}
	if err := fl.mu.Acquire(env); err != nil {
		return nil, 0, err
	}
	defer fl.mu.Release()
	st := fl.opens[a.Host]
	if st != nil {
		if a.Mode.canWrite() {
			st.writers--
			// The closing writer's cache may retain dirty blocks under
			// delayed write-back.
			if !fl.neverCache && a.Dirty {
				fl.lastWriter = a.Host
			}
		} else {
			st.readers--
		}
		if st.total() <= 0 {
			delete(fl.opens, a.Host)
		}
	}
	return nil, 16, nil
}

func (s *Server) handleRead(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(readArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.read: bad args %T", arg)
	}
	fl, err := s.lookup(a.FID)
	if err != nil {
		return nil, 0, err
	}
	if err := s.chargeCPU(env, s.fs.params.BlockServerCPU); err != nil {
		return nil, 0, err
	}
	if !fl.touched[a.Block] {
		// Cold block: charge a disk transfer.
		s.stats.ColdReads++
		fl.touched[a.Block] = true
		if s.fs.params.DiskPerBlock > 0 {
			if err := s.disk.Use(env, s.fs.params.DiskPerBlock); err != nil {
				return nil, 0, err
			}
		}
	}
	s.stats.BlocksRead++
	bs := s.fs.params.BlockSize
	lo := a.Block * bs
	if lo >= len(fl.data) {
		return readReply{}, 16, nil
	}
	hi := lo + bs
	if hi > len(fl.data) {
		hi = len(fl.data)
	}
	data := make([]byte, hi-lo)
	copy(data, fl.data[lo:hi])
	return readReply{Data: data}, 16 + len(data), nil
}

func (s *Server) handleWrite(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(writeArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.write: bad args %T", arg)
	}
	fl, err := s.lookup(a.FID)
	if err != nil {
		return nil, 0, err
	}
	if err := s.chargeCPU(env, s.fs.params.BlockServerCPU); err != nil {
		return nil, 0, err
	}
	s.stats.BlocksWrite++
	fl.touched[a.Block] = true
	bs := s.fs.params.BlockSize
	lo := a.Block*bs + a.Offset
	need := lo + len(a.Data)
	if a.NewSize >= 0 && a.NewSize > need {
		need = a.NewSize
	}
	if need > len(fl.data) {
		grown := make([]byte, need)
		copy(grown, fl.data)
		fl.data = grown
	}
	copy(fl.data[lo:], a.Data)
	if a.NewSize >= 0 && a.NewSize < len(fl.data) {
		fl.data = fl.data[:a.NewSize]
	}
	fl.version++
	fl.mtime = env.Now()
	return writeReply{Version: fl.version, Size: len(fl.data)}, 32, nil
}

// bulkCPU charges the per-batch server cost for a bulk transfer covering
// `blocks` blocks: one BlockServerCPU for the request as a whole, plus the
// (much cheaper) BulkPerBlockCPU marginal cost per block.
func (s *Server) bulkCPU(env *sim.Env, blocks int) error {
	if err := s.chargeCPU(env, s.fs.params.BlockServerCPU); err != nil {
		return err
	}
	if blocks > 1 {
		return s.chargeCPU(env, time.Duration(blocks-1)*s.fs.params.BulkPerBlockCPU)
	}
	return nil
}

// handleWriteBulk applies one contiguous multi-block write delivered through
// the bulk-transfer path.
func (s *Server) handleWriteBulk(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(writeBulkArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.writeBulk: bad args %T", arg)
	}
	fl, err := s.lookup(a.FID)
	if err != nil {
		return nil, 0, err
	}
	bs := s.fs.params.BlockSize
	lo := int(a.Off)
	hi := lo + len(a.Data)
	first := lo / bs
	last := (hi - 1) / bs
	if len(a.Data) == 0 {
		last = first
	}
	if err := s.bulkCPU(env, last-first+1); err != nil {
		return nil, 0, err
	}
	s.stats.BulkWrites++
	for b := first; b <= last; b++ {
		fl.touched[b] = true
	}
	s.stats.BlocksWrite += uint64(last - first + 1)
	need := hi
	if a.NewSize >= 0 && a.NewSize > need {
		need = a.NewSize
	}
	if need > len(fl.data) {
		grown := make([]byte, need)
		copy(grown, fl.data)
		fl.data = grown
	}
	copy(fl.data[lo:], a.Data)
	if a.NewSize >= 0 && a.NewSize < len(fl.data) {
		fl.data = fl.data[:a.NewSize]
	}
	fl.version++
	fl.mtime = env.Now()
	return writeReply{Version: fl.version, Size: len(fl.data)}, 32, nil
}

// handleReadBulk serves one contiguous multi-block read; the reply payload
// streams back to the caller as pipelined fragments.
func (s *Server) handleReadBulk(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(readBulkArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.readBulk: bad args %T", arg)
	}
	fl, err := s.lookup(a.FID)
	if err != nil {
		return nil, 0, err
	}
	bs := s.fs.params.BlockSize
	lo := int(a.Off)
	hi := lo + a.N
	if hi > len(fl.data) {
		hi = len(fl.data)
	}
	if hi < lo {
		hi = lo
	}
	first := lo / bs
	last := first
	if hi > lo {
		last = (hi - 1) / bs
	}
	if err := s.bulkCPU(env, last-first+1); err != nil {
		return nil, 0, err
	}
	s.stats.BulkReads++
	// Cold blocks still pay their disk transfers, back to back: a bulk read
	// of untouched data is one long sequential disk run.
	var cold int
	for b := first; b <= last; b++ {
		if !fl.touched[b] {
			cold++
			fl.touched[b] = true
		}
	}
	if cold > 0 {
		s.stats.ColdReads += uint64(cold)
		if s.fs.params.DiskPerBlock > 0 {
			if err := s.disk.Use(env, time.Duration(cold)*s.fs.params.DiskPerBlock); err != nil {
				return nil, 0, err
			}
		}
	}
	s.stats.BlocksRead += uint64(last - first + 1)
	data := make([]byte, hi-lo)
	copy(data, fl.data[lo:hi])
	return readBulkReply{Data: data}, 16 + len(data), nil
}

func (s *Server) handleStat(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(statArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.stat: bad args %T", arg)
	}
	if err := s.chargeCPU(env, s.fs.params.NameLookupCPU); err != nil {
		return nil, 0, err
	}
	s.stats.Lookups++
	fl, ok := s.files[a.Path]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, a.Path)
	}
	size := len(fl.data)
	mtime := fl.mtime
	// Under delayed write-back the last writer's cache may hold newer
	// attributes than the server; Sprite servers fetch cached attributes
	// from that client on stat.
	if fl.lastWriter != rpc.NoHost && fl.lastWriter != from {
		fid := FileID{Server: s.host, Ino: fl.ino}
		if reply, err := s.callback(env, fl.lastWriter, "fsc.attr", fid); err == nil {
			if ar, ok := reply.(attrReply); ok {
				if ar.Size > size {
					size = ar.Size
				}
				if ar.MTime > mtime {
					mtime = ar.MTime
				}
			}
		}
	}
	return statReply{
		FID:     FileID{Server: s.host, Ino: fl.ino},
		Size:    size,
		Version: fl.version,
		MTime:   mtime,
	}, 48, nil
}

func (s *Server) handleRemove(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(removeArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.remove: bad args %T", arg)
	}
	if err := s.chargeCPU(env, s.fs.params.NameLookupCPU); err != nil {
		return nil, 0, err
	}
	s.stats.Lookups++
	fl, ok := s.files[a.Path]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, a.Path)
	}
	delete(s.files, a.Path)
	delete(s.byID, FileID{Server: s.host, Ino: fl.ino})
	return nil, 16, nil
}

func (s *Server) handleOffset(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(offsetArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.offset: bad args %T", arg)
	}
	fl, err := s.lookup(a.FID)
	if err != nil {
		return nil, 0, err
	}
	old := s.offsets[a.Stream]
	if a.Set >= 0 {
		s.offsets[a.Stream] = a.Set
	} else {
		s.offsets[a.Stream] = old + a.Delta
	}
	return offsetReply{Old: old, Size: len(fl.data)}, 32, nil
}

func (s *Server) handleMigrateStream(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(migrateStreamArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.migrateStream: bad args %T", arg)
	}
	fl, err := s.lookup(a.FID)
	if err != nil {
		return nil, 0, err
	}
	if err := fl.mu.Acquire(env); err != nil {
		return nil, 0, err
	}
	defer fl.mu.Release()
	// Move one open reference from the source to the target host.
	if st := fl.opens[a.From]; st != nil {
		if a.Mode.canWrite() {
			st.writers--
		} else {
			st.readers--
		}
		if st.total() <= 0 {
			delete(fl.opens, a.From)
		}
	}
	// ...to the target host, unless it already holds one (To is NoHost).
	if a.To != rpc.NoHost {
		if err := s.ensureConsistentOpen(env, fl, a.To, a.Mode); err != nil {
			return nil, 0, err
		}
		st := fl.opens[a.To]
		if st == nil {
			st = &openState{}
			fl.opens[a.To] = st
		}
		if a.Mode.canWrite() {
			st.writers++
		} else {
			st.readers++
		}
	}
	if a.Share {
		// The access position is now shared across hosts: the server
		// becomes its home (a shadow stream) [Wel90].
		if _, exists := s.offsets[a.Stream]; !exists {
			s.offsets[a.Stream] = a.Offset
		}
	}
	return openReply{
		FID:       a.FID,
		Size:      len(fl.data),
		Version:   fl.version,
		Cacheable: fl.cacheable,
	}, 64, nil
}

func (s *Server) handleLock(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(lockArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.lock: bad args %T", arg)
	}
	res, ok := s.locks[a.Path]
	if !ok {
		res = sim.NewResource(s.fs.sim, 1)
		s.locks[a.Path] = res
	}
	if err := res.Acquire(env); err != nil {
		return nil, 0, err
	}
	return nil, 8, nil
}

func (s *Server) handleUnlock(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(lockArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fs.unlock: bad args %T", arg)
	}
	if res, ok := s.locks[a.Path]; ok {
		res.Release()
	}
	return nil, 8, nil
}

func appendUnique(hosts []rpc.HostID, h rpc.HostID) []rpc.HostID {
	for _, x := range hosts {
		if x == h {
			return hosts
		}
	}
	return append(hosts, h)
}
