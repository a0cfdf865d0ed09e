package fs

import (
	"fmt"
	"sort"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// PageRun is one contiguous byte extent of a scatter-gather write.
type PageRun struct {
	Off  int64
	Data []byte
}

// WriteAtBatch performs a vectored write: the runs are sorted, contiguous
// runs are coalesced, and each coalesced extent is shipped to the I/O server
// as one fs.writeBulk bulk transfer (a single handshake plus pipelined
// fragments) instead of one fs.write RPC per block. This is the migration
// flush hot path: a dirty 8 MB heap becomes a handful of bulk calls rather
// than two thousand round trips.
//
// Cacheable files fall back to the ordinary per-block write path, which
// keeps the delayed-write-back and consistency machinery authoritative;
// bulk transfer is for uncacheable data (VM backing store) where every byte
// goes to the server anyway.
//
// maxRunBytes bounds a single bulk transfer: coalesced extents longer than
// that are split, so one call never monopolizes the server or the wire for
// arbitrarily long (0 = unlimited).
func (c *Client) WriteAtBatch(env *sim.Env, st *Stream, runs []PageRun, maxRunBytes int) (rpc.BulkStats, error) {
	var bs rpc.BulkStats
	if st.closed {
		return bs, ErrBadStream
	}
	if st.pipe {
		return bs, fmt.Errorf("bulk write %s: %w", st.Path, ErrBadStream)
	}
	for _, ext := range splitRuns(coalesceRuns(runs), maxRunBytes) {
		if c.cacheEnabled(st) {
			if err := c.writeRange(env, st, ext.Off, ext.Data); err != nil {
				return bs, err
			}
		} else {
			one, err := c.writeBulk(env, st, ext.Off, ext.Data)
			if err != nil {
				return bs, err
			}
			bs.Add(one)
		}
		c.fs.m.bytesWritten.Add(int64(len(ext.Data)))
	}
	return bs, nil
}

// writeBulk ships one contiguous extent through the bulk-transfer path.
func (c *Client) writeBulk(env *sim.Env, st *Stream, off int64, data []byte) (rpc.BulkStats, error) {
	newSize := int(off) + len(data)
	defer c.bumpSize(st, newSize)
	if newSize > c.fileSize[st.FID] {
		c.fileSize[st.FID] = newSize
	}
	reply, bs, err := c.ep.CallBulk(env, st.FID.Server, "fs.writeBulk", writeBulkArgs{
		FID: st.FID, Off: off, Data: data, NewSize: -1,
	}, 48, len(data), rpc.BulkOut)
	if err != nil {
		return bs, fmt.Errorf("bulk write %s at %d: %w", st.Path, off, err)
	}
	if r, ok := reply.(writeReply); ok {
		c.fileVer[st.FID] = r.Version
		c.bumpSize(st, r.Size)
	}
	// Any cached blocks overlapping the extent predate this write and are
	// now stale; drop them rather than patching.
	c.dropRange(st.FID, off, len(data))
	return bs, nil
}

// ReadAtBulk reads [off, off+n) as one fs.readBulk bulk transfer, without
// moving the access position. It is the readahead pager's fill path: a page
// fault pulls a whole run of pages in one handshake instead of one RPC per
// block. Cacheable files fall back to the per-block cached path.
func (c *Client) ReadAtBulk(env *sim.Env, st *Stream, off int64, n int) ([]byte, rpc.BulkStats, error) {
	var bs rpc.BulkStats
	if st.closed {
		return nil, bs, ErrBadStream
	}
	size := c.knownSize(st)
	avail := int64(size) - off
	if avail <= 0 {
		return nil, bs, nil
	}
	if int64(n) < avail {
		avail = int64(n)
	}
	if c.cacheEnabled(st) {
		data, err := c.readRange(env, st, off, int(avail))
		if err != nil {
			return nil, bs, err
		}
		c.fs.m.bytesRead.Add(int64(len(data)))
		return data, bs, nil
	}
	reply, bs, err := c.ep.CallBulk(env, st.FID.Server, "fs.readBulk", readBulkArgs{
		FID: st.FID, Off: off, N: int(avail),
	}, 40, 0, rpc.BulkIn)
	if err != nil {
		return nil, bs, fmt.Errorf("bulk read %s at %d: %w", st.Path, off, err)
	}
	r, ok := reply.(readBulkReply)
	if !ok {
		return nil, bs, fmt.Errorf("fs.readBulk: bad reply %T", reply)
	}
	out := make([]byte, avail)
	copy(out, r.Data)
	c.fs.m.bytesRead.Add(int64(len(out)))
	return out, bs, nil
}

// dropRange evicts cached blocks of fid overlapping [off, off+n).
func (c *Client) dropRange(fid FileID, off int64, n int) {
	if n <= 0 {
		return
	}
	bs := c.fs.params.BlockSize
	first := int(off) / bs
	last := (int(off) + n - 1) / bs
	for b := first; b <= last; b++ {
		if cb, ok := c.blocks[cacheKey{fid: fid, block: b}]; ok {
			c.lru.Remove(cb.elem)
			delete(c.blocks, cb.key)
		}
	}
}

// coalesceRuns sorts runs by offset and merges extents that touch, so the
// bulk path sees the longest possible contiguous transfers.
func coalesceRuns(runs []PageRun) []PageRun {
	if len(runs) <= 1 {
		return runs
	}
	sorted := make([]PageRun, len(runs))
	copy(sorted, runs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	var out []PageRun
	for i := 0; i < len(sorted); {
		j := i + 1
		total := len(sorted[i].Data)
		for j < len(sorted) && sorted[j-1].Off+int64(len(sorted[j-1].Data)) == sorted[j].Off {
			total += len(sorted[j].Data)
			j++
		}
		if j == i+1 {
			out = append(out, sorted[i])
		} else {
			buf := make([]byte, 0, total)
			for k := i; k < j; k++ {
				buf = append(buf, sorted[k].Data...)
			}
			out = append(out, PageRun{Off: sorted[i].Off, Data: buf})
		}
		i = j
	}
	return out
}

// splitRuns cuts extents longer than maxBytes into maxBytes-sized pieces.
func splitRuns(runs []PageRun, maxBytes int) []PageRun {
	if maxBytes <= 0 {
		return runs
	}
	var out []PageRun
	for _, r := range runs {
		for len(r.Data) > maxBytes {
			out = append(out, PageRun{Off: r.Off, Data: r.Data[:maxBytes]})
			r = PageRun{Off: r.Off + int64(maxBytes), Data: r.Data[maxBytes:]}
		}
		out = append(out, r)
	}
	return out
}
