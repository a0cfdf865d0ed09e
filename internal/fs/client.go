package fs

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"time"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

type cacheKey struct {
	fid   FileID
	block int
}

type cacheBlock struct {
	key   cacheKey
	data  []byte // always BlockSize long
	dirty bool
	elem  *list.Element
}

// Client is one host's window onto the shared file system: it resolves
// paths through the prefix table, talks RPC to the owning server, and runs
// the host's block cache.
type Client struct {
	fs   *FS
	host rpc.HostID
	ep   *rpc.Endpoint

	blocks    map[cacheKey]*cacheBlock
	lru       *list.List // front = most recently used
	fileVer   map[FileID]uint64
	fileSize  map[FileID]int
	fileMTime map[FileID]time.Duration // last local cached write per file
	noCache   map[FileID]bool

	// prefixCache is the client's own prefix table, filled by broadcast on
	// the first lookup of each domain (Sprite's prefix-table protocol).
	prefixCache *Namespace

	// pendingCloses holds close RPCs that failed in transit (server
	// unreachable: crash window, partition) for retry at the next Open.
	// Without the retry the server's open entry leaks until an epoch
	// scrub, and a host that never reboots never gets scrubbed.
	pendingCloses []pendingClose
}

// pendingClose is one queued close retry, tagged with the client's boot
// epoch at failure time: a reboot voids the retry (the server scrubs the
// dead epoch's entries itself, and a late close must not debit a fresh
// post-reboot open).
type pendingClose struct {
	args  closeArgs
	epoch rpc.Epoch
}

func newClient(f *FS, host rpc.HostID) *Client {
	c := &Client{
		fs:        f,
		host:      host,
		ep:        f.transport.Register(host),
		blocks:    make(map[cacheKey]*cacheBlock),
		lru:       list.New(),
		fileVer:   make(map[FileID]uint64),
		fileSize:  make(map[FileID]int),
		fileMTime: make(map[FileID]time.Duration),
		noCache:   make(map[FileID]bool),
	}
	c.ep.Handle("fsc.flush", c.handleFlushCallback)
	c.ep.Handle("fsc.disable", c.handleDisableCallback)
	c.ep.Handle("fsc.attr", c.handleAttrCallback)
	return c
}

// Host returns the client's host id.
func (c *Client) Host() rpc.HostID { return c.host }

// DirtyBlocks returns the number of dirty blocks held in the cache.
func (c *Client) DirtyBlocks() int {
	n := 0
	for _, b := range c.blocks {
		if b.dirty {
			n++
		}
	}
	return n
}

// CachedBlocks returns the number of blocks held in the cache.
func (c *Client) CachedBlocks() int { return len(c.blocks) }

// server resolves a path to its file server through the client's cached
// prefix table; outside the simulation's zero-cost setup phase, a miss is
// resolved by broadcasting a prefix query to which the owning server
// responds (Sprite's prefix-table protocol). The authoritative table is
// consulted only to decide who answers; the client pays the broadcast.
func (c *Client) server(path string) (rpc.HostID, error) {
	return c.fs.ns.Lookup(path)
}

// lookupServer is the charged variant used from activities: a prefix-cache
// miss costs one broadcast plus the owner's reply before being cached.
func (c *Client) lookupServer(env *sim.Env, path string) (rpc.HostID, error) {
	if c.prefixCache == nil {
		c.prefixCache = NewNamespace()
	}
	host, err := c.fs.ns.Lookup(path)
	if err != nil {
		return rpc.NoHost, err
	}
	// A cached prefix that agrees with the authority is a free hit. A
	// cached shorter prefix shadowing an undiscovered longer one is
	// detected by the server redirecting the request (charged below as a
	// fresh broadcast), exactly like an outright miss.
	if cached, cerr := c.prefixCache.Lookup(path); cerr == nil && cached == host {
		return host, nil
	}
	// One broadcast query + one reply from the owning server.
	if err := c.fs.transport.Network().Send(env, 32+len(path)); err != nil {
		return rpc.NoHost, err
	}
	if err := c.fs.transport.Network().Send(env, 32); err != nil {
		return rpc.NoHost, err
	}
	c.fs.m.prefixQueries.Inc()
	prefix := c.fs.ns.prefixFor(path)
	c.prefixCache.AddPrefix(prefix, host)
	return host, nil
}

// OpenOptions modify Open behaviour.
type OpenOptions struct {
	// Create the file if it does not exist.
	Create bool
	// Truncate an existing file to zero length (with Create).
	Truncate bool
	// Uncacheable marks the file never-client-cached (backing store).
	Uncacheable bool
}

// transportFailed reports whether an RPC error means the server never
// processed the call (as opposed to processing it and returning an error).
func transportFailed(err error) bool {
	return errors.Is(err, rpc.ErrHostDown) || errors.Is(err, rpc.ErrTimeout) || errors.Is(err, rpc.ErrNoService)
}

// drainCloses retries queued close RPCs. A server response — success or
// error — settles an entry; another transport failure keeps it for later.
// Entries from a previous boot epoch are dropped: the epoch scrub already
// reclaimed them on the server.
func (c *Client) drainCloses(env *sim.Env) {
	if len(c.pendingCloses) == 0 {
		return
	}
	keep := c.pendingCloses[:0]
	for _, p := range c.pendingCloses {
		if p.epoch != c.ep.Epoch() {
			continue
		}
		p.args.Dirty = c.hasDirty(p.args.FID)
		if _, err := c.ep.Call(env, p.args.FID.Server, "fs.close", p.args, 32); err != nil && transportFailed(err) {
			keep = append(keep, p)
		}
	}
	c.pendingCloses = keep
}

// Settle retries close RPCs that failed in transit, for callers that know
// the network healed but will not Open again (a daemon's shutdown path).
// Best-effort: entries whose server is still unreachable stay queued.
func (c *Client) Settle(env *sim.Env) { c.drainCloses(env) }

// Open opens path in the given mode and returns a new stream.
func (c *Client) Open(env *sim.Env, path string, mode OpenMode, opts OpenOptions) (*Stream, error) {
	c.drainCloses(env)
	srvHost, err := c.lookupServer(env, path)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	reply, err := c.ep.Call(env, srvHost, "fs.open", openArgs{
		Path:        path,
		Mode:        mode,
		Host:        c.host,
		Create:      opts.Create,
		Truncate:    opts.Truncate,
		Uncacheable: opts.Uncacheable,
	}, 64+len(path))
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	r, ok := reply.(openReply)
	if !ok {
		return nil, fmt.Errorf("open %s: bad reply %T", path, reply)
	}
	sameVersion := c.fileVer[r.FID] == r.Version
	c.noteVersion(r.FID, r.Version, r.Cacheable)
	// Under delayed write-back this client may hold dirty blocks that
	// extend the file beyond the server's idea of its size; keep the larger
	// size in that case. Any version change already dropped the cache, so
	// the server is then authoritative.
	if sameVersion && c.hasDirty(r.FID) {
		if r.Size > c.fileSize[r.FID] {
			c.fileSize[r.FID] = r.Size
		}
	} else {
		c.fileSize[r.FID] = r.Size
	}
	st := &Stream{
		ID:        c.fs.nextStreamID(),
		FID:       r.FID,
		Path:      path,
		Mode:      mode,
		size:      c.fileSize[r.FID],
		cacheable: r.Cacheable,
		owners:    map[rpc.HostID]int{c.host: 1},
	}
	return st, nil
}

// noteVersion reconciles the client's cache with the server's version: a
// version change invalidates all cached blocks for the file.
func (c *Client) noteVersion(fid FileID, version uint64, cacheable bool) {
	if old, ok := c.fileVer[fid]; ok && old != version {
		c.dropFile(fid)
	}
	c.fileVer[fid] = version
	if cacheable {
		delete(c.noCache, fid)
	} else {
		c.noCache[fid] = true
	}
}

// Close drops one reference held by this host. The last reference on the
// host notifies the server; the last reference anywhere closes the stream.
func (c *Client) Close(env *sim.Env, st *Stream) error {
	if st.closed || st.owners[c.host] <= 0 {
		return ErrBadStream
	}
	st.owners[c.host]--
	if st.owners[c.host] == 0 {
		delete(st.owners, c.host)
		if st.pipe {
			if err := c.pipeClose(env, st); err != nil {
				return fmt.Errorf("close %s: %w", st.Path, err)
			}
		} else if _, err := c.ep.Call(env, st.FID.Server, "fs.close", closeArgs{
			FID: st.FID, Mode: st.Mode, Host: c.host, Dirty: c.hasDirty(st.FID),
		}, 32); err != nil {
			if transportFailed(err) {
				// The server never saw the close; queue it so the open
				// entry doesn't leak server-side (retried at next Open).
				c.pendingCloses = append(c.pendingCloses, pendingClose{
					args:  closeArgs{FID: st.FID, Mode: st.Mode, Host: c.host},
					epoch: c.ep.Epoch(),
				})
			}
			return fmt.Errorf("close %s: %w", st.Path, err)
		}
	}
	if st.Refs() == 0 {
		st.closed = true
	}
	return nil
}

// Dup adds a reference on this host (used by fork: parent and child share
// the stream and its access position in place).
func (c *Client) Dup(st *Stream) error {
	if st.closed {
		return ErrBadStream
	}
	st.owners[c.host]++
	return nil
}

// cacheEnabled reports whether reads/writes of the file may use the cache.
func (c *Client) cacheEnabled(st *Stream) bool {
	return st.cacheable && !c.noCache[st.FID]
}

// Read reads up to n bytes at the stream's access position, advancing it.
func (c *Client) Read(env *sim.Env, st *Stream, n int) ([]byte, error) {
	if st.closed || st.owners[c.host] <= 0 {
		return nil, ErrBadStream
	}
	if !st.Mode.canRead() {
		return nil, fmt.Errorf("read %s: %w", st.Path, ErrBadStream)
	}
	if st.pipe {
		return c.pipeRead(env, st, n)
	}
	off, size, err := c.advanceOffset(env, st, int64(n))
	if err != nil {
		return nil, err
	}
	avail := int64(size) - off
	if avail <= 0 {
		return nil, nil // EOF
	}
	if int64(n) < avail {
		avail = int64(n)
	}
	data, err := c.readRange(env, st, off, int(avail))
	if err != nil {
		return nil, err
	}
	c.fs.m.bytesRead.Add(int64(len(data)))
	return data, nil
}

// ReadAt reads n bytes at an explicit offset without moving the access
// position (used by the VM system for paging).
func (c *Client) ReadAt(env *sim.Env, st *Stream, off int64, n int) ([]byte, error) {
	if st.closed {
		return nil, ErrBadStream
	}
	size := c.knownSize(st)
	avail := int64(size) - off
	if avail <= 0 {
		return nil, nil
	}
	if int64(n) < avail {
		avail = int64(n)
	}
	data, err := c.readRange(env, st, off, int(avail))
	if err != nil {
		return nil, err
	}
	c.fs.m.bytesRead.Add(int64(len(data)))
	return data, nil
}

// Write writes data at the stream's access position, advancing it.
func (c *Client) Write(env *sim.Env, st *Stream, data []byte) (int, error) {
	if st.closed || st.owners[c.host] <= 0 {
		return 0, ErrBadStream
	}
	if !st.Mode.canWrite() {
		return 0, fmt.Errorf("write %s: %w", st.Path, ErrReadOnly)
	}
	if st.pipe {
		return c.pipeWrite(env, st, data)
	}
	off, _, err := c.advanceOffset(env, st, int64(len(data)))
	if err != nil {
		return 0, err
	}
	if err := c.writeRange(env, st, off, data); err != nil {
		return 0, err
	}
	c.fs.m.bytesWritten.Add(int64(len(data)))
	return len(data), nil
}

// WriteAt writes data at an explicit offset without moving the access
// position.
func (c *Client) WriteAt(env *sim.Env, st *Stream, off int64, data []byte) error {
	if st.closed {
		return ErrBadStream
	}
	if err := c.writeRange(env, st, off, data); err != nil {
		return err
	}
	c.fs.m.bytesWritten.Add(int64(len(data)))
	return nil
}

// Seek sets the access position.
func (c *Client) Seek(env *sim.Env, st *Stream, off int64) error {
	if st.closed {
		return ErrBadStream
	}
	if st.pipe {
		return fmt.Errorf("seek %s: %w", st.Path, ErrBadStream)
	}
	if st.shared {
		_, err := c.ep.Call(env, st.FID.Server, "fs.offset", offsetArgs{
			Stream: st.ID, FID: st.FID, Set: off, Delta: 0,
		}, 40)
		return err
	}
	st.offset = off
	return nil
}

// advanceOffset reserves [old, old+delta) of the access position, going to
// the I/O server when the stream is shared, and returns the old position
// and the current file size.
func (c *Client) advanceOffset(env *sim.Env, st *Stream, delta int64) (int64, int, error) {
	if !st.shared {
		old := st.offset
		st.offset += delta
		return old, c.knownSize(st), nil
	}
	reply, err := c.ep.Call(env, st.FID.Server, "fs.offset", offsetArgs{
		Stream: st.ID, FID: st.FID, Delta: delta, Set: -1,
	}, 40)
	if err != nil {
		return 0, 0, err
	}
	r, ok := reply.(offsetReply)
	if !ok {
		return 0, 0, fmt.Errorf("fs.offset: bad reply %T", reply)
	}
	st.offset = r.Old + delta
	// The server's size is authoritative for shared streams, but local
	// dirty writes may have extended the file beyond it.
	size := r.Size
	if local := c.knownSize(st); local > size {
		size = local
	}
	return r.Old, size, nil
}

func (c *Client) knownSize(st *Stream) int {
	if s, ok := c.fileSize[st.FID]; ok {
		if s > st.size {
			return s
		}
	}
	return st.size
}

func (c *Client) bumpSize(st *Stream, size int) {
	if size > st.size {
		st.size = size
	}
	if size > c.fileSize[st.FID] {
		c.fileSize[st.FID] = size
	}
}

// readRange returns file bytes [off, off+n), via the cache when permitted.
func (c *Client) readRange(env *sim.Env, st *Stream, off int64, n int) ([]byte, error) {
	bs := c.fs.params.BlockSize
	out := make([]byte, 0, n)
	for n > 0 {
		block := int(off) / bs
		inOff := int(off) % bs
		want := bs - inOff
		if want > n {
			want = n
		}
		data, err := c.readBlock(env, st, block)
		if err != nil {
			return nil, err
		}
		chunk := make([]byte, want)
		if inOff < len(data) {
			copy(chunk, data[inOff:])
		}
		out = append(out, chunk...)
		off += int64(want)
		n -= want
	}
	return out, nil
}

// readBlock returns one block's data (len <= BlockSize).
func (c *Client) readBlock(env *sim.Env, st *Stream, block int) ([]byte, error) {
	key := cacheKey{fid: st.FID, block: block}
	if c.cacheEnabled(st) {
		if b, ok := c.blocks[key]; ok {
			c.fs.m.hits.Inc()
			c.lru.MoveToFront(b.elem)
			return b.data, nil
		}
		c.fs.m.misses.Inc()
	}
	reply, err := c.ep.Call(env, st.FID.Server, "fs.read", readArgs{FID: st.FID, Block: block}, 32)
	if err != nil {
		return nil, fmt.Errorf("read %s block %d: %w", st.Path, block, err)
	}
	r, ok := reply.(readReply)
	if !ok {
		return nil, fmt.Errorf("fs.read: bad reply %T", reply)
	}
	data := make([]byte, c.fs.params.BlockSize)
	copy(data, r.Data)
	if c.cacheEnabled(st) {
		c.insertBlock(env, key, data, false)
	}
	return data, nil
}

// writeRange writes data at [off, off+len(data)).
func (c *Client) writeRange(env *sim.Env, st *Stream, off int64, data []byte) error {
	bs := c.fs.params.BlockSize
	newSize := int(off) + len(data)
	// Record the new size first so that any eviction write-back triggered
	// mid-loop flushes with the correct size.
	defer c.bumpSize(st, newSize)
	if newSize > c.fileSize[st.FID] {
		c.fileSize[st.FID] = newSize
	}
	pos := 0
	anyCached := false
	for pos < len(data) {
		block := (int(off) + pos) / bs
		inOff := (int(off) + pos) % bs
		want := bs - inOff
		if want > len(data)-pos {
			want = len(data) - pos
		}
		chunk := data[pos : pos+want]
		// Re-decide per block: a consistency callback can disable caching
		// for this file while an earlier iteration blocked on the network.
		cached := false
		if c.cacheEnabled(st) {
			ok, err := c.writeBlockCached(env, st, block, inOff, chunk)
			if err != nil {
				return err
			}
			cached = ok
			if cached && c.fs.params.WriteThrough {
				if b, ok := c.blocks[cacheKey{fid: st.FID, block: block}]; ok && b.dirty {
					if err := c.flushBlock(env, b); err != nil {
						return err
					}
				}
			}
		}
		if !cached {
			reply, err := c.ep.Call(env, st.FID.Server, "fs.write", writeArgs{
				FID: st.FID, Block: block, Data: chunk, Offset: inOff, NewSize: -1,
			}, 48+len(chunk))
			if err != nil {
				return fmt.Errorf("write %s block %d: %w", st.Path, block, err)
			}
			if r, ok := reply.(writeReply); ok {
				c.fileVer[st.FID] = r.Version
				c.bumpSize(st, r.Size)
			}
		} else {
			anyCached = true
		}
		pos += want
	}
	if anyCached {
		c.fileMTime[st.FID] = env.Now()
	}
	return nil
}

// hasDirty reports whether the cache holds dirty blocks for fid.
func (c *Client) hasDirty(fid FileID) bool {
	for _, b := range c.blocks {
		if b.key.fid == fid && b.dirty {
			return true
		}
	}
	return false
}

// writeBlockCached applies a write to the cache (delayed write-back),
// fetching the block first for a partial overwrite of existing data. It
// reports false, leaving the cache untouched, if caching was disabled while
// the fetch blocked — the caller must then write through to the server;
// dirtying the cache after the disable callback would strand blocks that no
// flush recall knows about.
func (c *Client) writeBlockCached(env *sim.Env, st *Stream, block, inOff int, chunk []byte) (bool, error) {
	bs := c.fs.params.BlockSize
	key := cacheKey{fid: st.FID, block: block}
	b, ok := c.blocks[key]
	if !ok {
		data := make([]byte, bs)
		partial := inOff > 0 || len(chunk) < bs
		existsOnServer := block*bs < c.knownSize(st)
		if partial && existsOnServer {
			fetched, err := c.readBlock(env, st, block)
			if err != nil {
				return false, err
			}
			if !c.cacheEnabled(st) {
				return false, nil
			}
			copy(data, fetched)
			// readBlock may have inserted the block already.
			if cached, ok2 := c.blocks[key]; ok2 {
				b = cached
			}
		}
		if b == nil {
			b = c.insertBlock(env, key, data, true)
		}
	}
	copy(b.data[inOff:], chunk)
	b.dirty = true
	c.lru.MoveToFront(b.elem)
	return true, nil
}

// insertBlock adds a block to the cache, evicting as needed.
func (c *Client) insertBlock(env *sim.Env, key cacheKey, data []byte, dirty bool) *cacheBlock {
	b := &cacheBlock{key: key, data: data, dirty: dirty}
	b.elem = c.lru.PushFront(b)
	c.blocks[key] = b
	for len(c.blocks) > c.fs.params.ClientCacheBlocks {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		victim, ok := tail.Value.(*cacheBlock)
		if !ok {
			break
		}
		if victim.dirty {
			// Ignore eviction write-back failures: the block is still
			// dropped, matching a best-effort cache.
			_ = c.flushBlock(env, victim)
		}
		c.lru.Remove(tail)
		delete(c.blocks, victim.key)
	}
	return b
}

// flushBlock writes one dirty block through to the server.
func (c *Client) flushBlock(env *sim.Env, b *cacheBlock) error {
	size := c.fileSize[b.key.fid]
	bs := c.fs.params.BlockSize
	lo := b.key.block * bs
	hi := lo + bs
	if hi > size {
		hi = size
	}
	if hi <= lo {
		b.dirty = false
		return nil
	}
	reply, err := c.ep.Call(env, b.key.fid.Server, "fs.write", writeArgs{
		FID: b.key.fid, Block: b.key.block, Data: b.data[:hi-lo], Offset: 0, NewSize: size,
	}, 48+(hi-lo))
	if err != nil {
		return fmt.Errorf("flush block: %w", err)
	}
	b.dirty = false
	c.fs.m.flushes.Inc()
	if r, ok := reply.(writeReply); ok {
		c.fileVer[b.key.fid] = r.Version
	}
	return nil
}

// FlushFile writes back all dirty blocks of one file.
func (c *Client) FlushFile(env *sim.Env, fid FileID) error {
	var dirty []*cacheBlock
	for _, b := range c.blocks {
		if b.key.fid == fid && b.dirty {
			dirty = append(dirty, b)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].key.block < dirty[j].key.block })
	for _, b := range dirty {
		if err := c.flushBlock(env, b); err != nil {
			return err
		}
	}
	return nil
}

// DropCaches discards every clean cached block (dirty blocks are kept so
// no data is lost). Useful for tests and benchmarks that want cold-cache
// behaviour.
func (c *Client) DropCaches() {
	for key, b := range c.blocks {
		if b.dirty {
			continue
		}
		c.lru.Remove(b.elem)
		delete(c.blocks, key)
	}
}

// dropFile discards cached blocks of fid, dirty ones included — callers
// flush first when the dirty data matters.
func (c *Client) dropFile(fid FileID) {
	for key, b := range c.blocks {
		if key.fid == fid {
			c.lru.Remove(b.elem)
			delete(c.blocks, key)
		}
	}
}

// handleFlushCallback serves the server's "write back your dirty blocks"
// consistency recall.
func (c *Client) handleFlushCallback(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(cacheCallbackArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fsc.flush: bad args %T", arg)
	}
	c.fs.m.recalls.Inc()
	if err := c.FlushFile(env, a.FID); err != nil {
		return nil, 0, err
	}
	return nil, 8, nil
}

// handleDisableCallback serves the server's "stop caching this file"
// consistency action: flush dirty blocks, then drop the file from the cache.
func (c *Client) handleDisableCallback(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(cacheCallbackArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fsc.disable: bad args %T", arg)
	}
	c.fs.m.recalls.Inc()
	if err := c.FlushFile(env, a.FID); err != nil {
		return nil, 0, err
	}
	c.dropFile(a.FID)
	c.noCache[a.FID] = true
	return nil, 8, nil
}

// handleAttrCallback serves the server's cached-attribute fetch: the size
// and modification time this client's cache implies for the file.
func (c *Client) handleAttrCallback(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(cacheCallbackArgs)
	if !ok {
		return nil, 0, fmt.Errorf("fsc.attr: bad args %T", arg)
	}
	return attrReply{Size: c.fileSize[a.FID], MTime: c.fileMTime[a.FID]}, 24, nil
}

// StatInfo is the attribute record returned by StatFull.
type StatInfo struct {
	FID   FileID
	Size  int
	MTime time.Duration
}

// StatFull returns a file's id, size and modification time.
func (c *Client) StatFull(env *sim.Env, path string) (StatInfo, error) {
	srvHost, err := c.server(path)
	if err != nil {
		return StatInfo{}, err
	}
	reply, err := c.ep.Call(env, srvHost, "fs.stat", statArgs{Path: path}, 16+len(path))
	if err != nil {
		return StatInfo{}, err
	}
	r, ok := reply.(statReply)
	if !ok {
		return StatInfo{}, fmt.Errorf("fs.stat: bad reply %T", reply)
	}
	size := r.Size
	mtime := r.MTime
	if c.hasDirty(r.FID) {
		if local, ok := c.fileSize[r.FID]; ok && local > size {
			size = local
		}
		if lm := c.fileMTime[r.FID]; lm > mtime {
			mtime = lm
		}
	}
	return StatInfo{FID: r.FID, Size: size, MTime: mtime}, nil
}

// Stat returns a file's id, size and version.
func (c *Client) Stat(env *sim.Env, path string) (FileID, int, error) {
	srvHost, err := c.server(path)
	if err != nil {
		return FileID{}, 0, err
	}
	reply, err := c.ep.Call(env, srvHost, "fs.stat", statArgs{Path: path}, 16+len(path))
	if err != nil {
		return FileID{}, 0, err
	}
	r, ok := reply.(statReply)
	if !ok {
		return FileID{}, 0, fmt.Errorf("fs.stat: bad reply %T", reply)
	}
	size := r.Size
	// Reconcile with this host's own cached attributes: our dirty blocks
	// may extend the file beyond what the server has seen.
	if local, ok := c.fileSize[r.FID]; ok && c.hasDirty(r.FID) && local > size {
		size = local
	}
	return r.FID, size, nil
}

// Remove deletes a file.
func (c *Client) Remove(env *sim.Env, path string) error {
	srvHost, err := c.server(path)
	if err != nil {
		return err
	}
	_, err = c.ep.Call(env, srvHost, "fs.remove", removeArgs{Path: path}, 16+len(path))
	return err
}

// Lock acquires the advisory cluster-wide lock named by path, blocking until
// it is free.
func (c *Client) Lock(env *sim.Env, path string) error {
	srvHost, err := c.server(path)
	if err != nil {
		return err
	}
	_, err = c.ep.Call(env, srvHost, "fs.lock", lockArgs{Path: path}, 16+len(path))
	return err
}

// Unlock releases the advisory lock named by path.
func (c *Client) Unlock(env *sim.Env, path string) error {
	srvHost, err := c.server(path)
	if err != nil {
		return err
	}
	_, err = c.ep.Call(env, srvHost, "fs.unlock", lockArgs{Path: path}, 16+len(path))
	return err
}

// WriteFile creates (or truncates) path and writes data through a temporary
// stream.
func (c *Client) WriteFile(env *sim.Env, path string, data []byte) error {
	st, err := c.Open(env, path, WriteMode, OpenOptions{Create: true, Truncate: true})
	if err != nil {
		return err
	}
	if _, err := c.Write(env, st, data); err != nil {
		return err
	}
	return c.Close(env, st)
}

// ReadFile reads the whole of path.
func (c *Client) ReadFile(env *sim.Env, path string) ([]byte, error) {
	st, err := c.Open(env, path, ReadMode, OpenOptions{})
	if err != nil {
		return nil, err
	}
	data, err := c.Read(env, st, c.knownSize(st))
	if err != nil {
		return nil, err
	}
	if cerr := c.Close(env, st); cerr != nil {
		return nil, cerr
	}
	return data, nil
}

// MoveStream transfers one of this host's references on st to host `to`,
// performing the I/O-server coordination Sprite does during migration:
// dirty blocks for the file are flushed from the source cache, the server
// moves the open reference, and if the stream now spans hosts its access
// position is shadowed at the server.
func (c *Client) MoveStream(env *sim.Env, st *Stream, to rpc.HostID) error {
	if st.closed || st.owners[c.host] <= 0 {
		return ErrBadStream
	}
	if to == c.host {
		return nil
	}
	if st.pipe {
		// A pipe's buffer lives at its I/O server; moving an end is pure
		// bookkeeping there. The server tracks which hosts hold each end,
		// so report which hosts joined or left the set.
		migFrom, migTo := rpc.NoHost, rpc.NoHost
		st.owners[to]++
		if st.owners[to] == 1 {
			migTo = to
		}
		st.owners[c.host]--
		if st.owners[c.host] == 0 {
			delete(st.owners, c.host)
			migFrom = c.host
		}
		if err := c.pipeMigrate(env, st, migFrom, migTo); err != nil {
			// Undo the local move so abort recovery sees counts that still
			// match the server's end sets.
			st.owners[to]--
			if st.owners[to] == 0 {
				delete(st.owners, to)
			}
			st.owners[c.host]++
			return err
		}
		c.fs.m.pipeMoves.Inc()
		return nil
	}
	if err := c.FlushFile(env, st.FID); err != nil {
		return err
	}
	keepSource := st.owners[c.host] > 1
	addTarget := st.owners[to] == 0
	st.owners[c.host]--
	if st.owners[c.host] == 0 {
		delete(st.owners, c.host)
	}
	st.owners[to]++
	share := st.shared || st.hostsWithRefs() > 1
	if !keepSource || addTarget {
		reply, err := c.ep.Call(env, st.FID.Server, "fs.migrateStream", migrateStreamArgs{
			Stream: st.ID,
			FID:    st.FID,
			Mode:   st.Mode,
			From:   sourceForMove(c.host, keepSource),
			To:     targetForMove(to, addTarget),
			Offset: st.offset,
			Share:  share,
		}, 72)
		if err != nil {
			// Undo the local move: abort recovery repairs state from the
			// stream's reference counts, so they must still say the
			// reference sits where the server believes it does.
			st.owners[to]--
			if st.owners[to] == 0 {
				delete(st.owners, to)
			}
			st.owners[c.host]++
			return fmt.Errorf("migrate stream %s: %w", st.Path, err)
		}
		if r, ok := reply.(openReply); ok {
			st.cacheable = r.Cacheable
			// Let the destination host reconcile its cache.
			if dst := c.fs.Client(to); dst != nil {
				dst.noteVersion(st.FID, r.Version, r.Cacheable)
				dst.fileSize[st.FID] = r.Size
			}
			st.size = r.Size
		}
	}
	if share {
		st.shared = true
	}
	c.fs.m.streamMoves.Inc()
	return nil
}

// sourceForMove returns the host whose open reference the server should
// drop, or NoHost when the source keeps other references.
func sourceForMove(host rpc.HostID, keepSource bool) rpc.HostID {
	if keepSource {
		return rpc.NoHost
	}
	return host
}

// targetForMove returns the host the server should add an open reference
// for, or NoHost when the target already holds one: the stream's sharers
// reuniting on a host must not count that host twice.
func targetForMove(host rpc.HostID, addTarget bool) rpc.HostID {
	if addTarget {
		return host
	}
	return rpc.NoHost
}
