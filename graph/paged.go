package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// PartitionedCSR pages a partitioned container (csrpart.go) in one vertex
// interval at a time instead of loading the whole graph: Acquire decodes
// and CRC-verifies a single partition's row and edge slabs on demand and
// pins it resident; Release unpins it; an LRU drops the least recently
// used unpinned partition once more than MaxResident are resident. On
// platforms with mmap the slabs decode straight out of the kernel mapping
// (the page cache is the read path); elsewhere they stream through
// explicit chunked ReadAt calls — never a whole-file read.
//
// This is the host-side half of the out-of-core tier: it bounds the
// process's resident graph memory, while the simulated I/O cost of the
// same access pattern lives in the engines (internal/mem's SSD tier and
// internal/extmem). Paging is invisible to simulation results by
// construction — Materialize returns a graph bit-identical to
// ReadCSRFile's at every MaxResident setting; only the PagedStats differ.
//
// The type is safe for concurrent use; loads hold the lock, trading
// parallel page-ins for simplicity (the design point is bounding memory,
// not disk throughput).
type PartitionedCSR struct {
	f     *os.File
	data  []byte // live mapping when non-nil; otherwise the ReadAt path
	unmap func([]byte) error
	info  CSRFileInfo
	parts []csrPartition
	name  string

	mu          sync.Mutex
	resident    map[int]*GraphPart
	maxResident int
	seq         uint64
	stats       PagedStats
	closed      bool
}

// PagedStats count the pager's traffic. They are host-side observability
// (run-to-run timing-dependent in concurrent use), not simulation state.
type PagedStats struct {
	// Loads counts partitions decoded from the container; Hits counts
	// Acquire calls satisfied by an already-resident partition.
	Loads uint64
	Hits  uint64
	// Evictions counts resident partitions dropped to respect MaxResident.
	Evictions uint64
	// BytesPaged totals the container bytes read and verified by Loads.
	BytesPaged uint64
}

// GraphPart is one resident partition: the vertex interval
// [VFirst, VFirst+VCount) with its row pointers and edges. RowPtr holds
// absolute (global) edge indices, so OutEdges indexes Dst/Weight after
// subtracting EdgeBase. The slices are owned by the pager and valid until
// the partition is released and evicted.
type GraphPart struct {
	VFirst   int
	VCount   int
	EdgeBase int64
	RowPtr   []int64 // VCount+1 absolute row pointers
	Dst      []VertexID
	Weight   []uint32

	pins int
	seq  uint64
}

// OutEdges returns v's destination and weight slices. v must lie inside
// the partition's interval.
func (p *GraphPart) OutEdges(v VertexID) ([]VertexID, []uint32) {
	i := int(v) - p.VFirst
	lo := p.RowPtr[i] - p.EdgeBase
	hi := p.RowPtr[i+1] - p.EdgeBase
	return p.Dst[lo:hi], p.Weight[lo:hi]
}

// OpenPartitionedCSR opens the partitioned container at path for
// on-demand paging. maxResident bounds the unpinned+pinned partitions
// kept in memory (0 means unlimited — every partition stays resident once
// touched). Flat containers are rejected: ReadCSRFile and
// OpenCSRFileMapped already serve them.
func OpenPartitionedCSR(path string, maxResident int) (pc *PartitionedCSR, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	hdr := make([]byte, csrFileHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("%w: header short read: %w", ErrCorrupt, err)
	}
	info, secs, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	if !info.Partitioned {
		return nil, fmt.Errorf("graph: %s is a flat container; paging needs the partitioned layout (graphgen -partition-edges)", path)
	}
	table := make([]byte, secs[0].length)
	if _, err := f.ReadAt(table, int64(secs[0].off)); err != nil {
		return nil, fmt.Errorf("%w: partition table truncated: %w", ErrCorrupt, err)
	}
	if got := crc32.Checksum(table, crcTable); got != secs[0].crc {
		return nil, fmt.Errorf("%w: partition table checksum mismatch", ErrCorrupt)
	}
	parts, err := parsePartitionTable(table, info, secs[1].off)
	if err != nil {
		return nil, err
	}
	pc = &PartitionedCSR{
		f:           f,
		info:        info,
		parts:       parts,
		name:        path,
		resident:    make(map[int]*GraphPart),
		maxResident: maxResident,
	}
	// Reuse the mmap machinery when it yields a real mapping; the
	// non-unix fallback reads the whole file, which is exactly what a
	// pager must not hold on to, so it is released and ReadAt takes over.
	if data, unmap, backed, merr := mapFile(path); merr == nil {
		if backed && uint64(len(data)) >= secs[1].off+secs[1].length {
			pc.data = data
			pc.unmap = unmap
		} else {
			unmap(data)
		}
	}
	return pc, nil
}

// Info describes the underlying container.
func (pc *PartitionedCSR) Info() CSRFileInfo { return pc.info }

// NumPartitions returns the partition count.
func (pc *PartitionedCSR) NumPartitions() int { return len(pc.parts) }

// Mapped reports whether partition loads decode from a live memory
// mapping rather than explicit reads.
func (pc *PartitionedCSR) Mapped() bool { return pc.data != nil }

// PartitionSpan returns partition i's vertex interval and edge count.
func (pc *PartitionedCSR) PartitionSpan(i int) (vFirst, vCount int, edges int64) {
	pt := pc.parts[i]
	return pt.vFirst, pt.vCount, pt.edges
}

// PartitionFor returns the index of the partition containing v.
func (pc *PartitionedCSR) PartitionFor(v VertexID) int {
	lo, hi := 0, len(pc.parts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(v) >= pc.parts[mid].vFirst {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Stats returns a snapshot of the pager counters.
func (pc *PartitionedCSR) Stats() PagedStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.stats
}

// ResidentPartitions returns how many partitions are currently in memory.
func (pc *PartitionedCSR) ResidentPartitions() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.resident)
}

// Acquire pins partition i resident and returns it, loading and verifying
// it from the container if needed. Every Acquire must be paired with a
// Release; pinned partitions are never evicted, so over-subscribing pins
// beyond MaxResident is allowed and simply holds more memory.
func (pc *PartitionedCSR) Acquire(i int) (*GraphPart, error) {
	if i < 0 || i >= len(pc.parts) {
		return nil, fmt.Errorf("graph: partition %d out of range [0,%d)", i, len(pc.parts))
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return nil, fmt.Errorf("graph: %s: pager closed", pc.name)
	}
	pc.seq++
	if p, ok := pc.resident[i]; ok {
		pc.stats.Hits++
		p.pins++
		p.seq = pc.seq
		return p, nil
	}
	p, err := pc.loadLocked(i)
	if err != nil {
		return nil, err
	}
	p.pins = 1
	p.seq = pc.seq
	pc.resident[i] = p
	pc.evictLocked()
	return p, nil
}

// Release unpins a partition returned by Acquire.
func (pc *PartitionedCSR) Release(p *GraphPart) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if p.pins > 0 {
		p.pins--
	}
}

// evictLocked drops least-recently-used unpinned partitions until the
// resident set fits MaxResident (pinned partitions cannot be dropped, so
// the set may stay over budget while pins are outstanding).
func (pc *PartitionedCSR) evictLocked() {
	for pc.maxResident > 0 && len(pc.resident) > pc.maxResident {
		victim, vseq := -1, uint64(0)
		for i, p := range pc.resident {
			if p.pins == 0 && (victim < 0 || p.seq < vseq) {
				victim, vseq = i, p.seq
			}
		}
		if victim < 0 {
			return
		}
		delete(pc.resident, victim)
		pc.stats.Evictions++
	}
}

// loadLocked decodes and verifies partition i from the container.
func (pc *PartitionedCSR) loadLocked(i int) (*GraphPart, error) {
	pt := pc.parts[i]
	edgeBase := pc.edgeBase(i)
	p := &GraphPart{
		VFirst:   pt.vFirst,
		VCount:   pt.vCount,
		EdgeBase: edgeBase,
		RowPtr:   make([]int64, pt.vCount+1),
		Dst:      make([]VertexID, pt.edges),
		Weight:   make([]uint32, pt.edges),
	}
	var row, edge []byte
	if pc.data != nil {
		row = pc.data[pt.rowOff : pt.rowOff+pt.rowLen()]
		edge = pc.data[pt.edgeOff : pt.edgeOff+pt.edgeLen()]
		if got := crc32.Checksum(row, crcTable); got != pt.rowCRC {
			return nil, fmt.Errorf("%w: partition %d row slab checksum mismatch", ErrCorrupt, i)
		}
		if got := crc32.Checksum(edge, crcTable); got != pt.edgeCRC {
			return nil, fmt.Errorf("%w: partition %d edge slab checksum mismatch", ErrCorrupt, i)
		}
	} else {
		var err error
		if row, err = pc.readSlab(pt.rowOff, pt.rowLen(), pt.rowCRC, i, "row"); err != nil {
			return nil, err
		}
		if edge, err = pc.readSlab(pt.edgeOff, pt.edgeLen(), pt.edgeCRC, i, "edge"); err != nil {
			return nil, err
		}
	}
	if err := decodePartSlabs(p, pt, i, edgeBase, int64(pc.info.NumVertices), pc.info.NumEdges, row, edge); err != nil {
		return nil, err
	}
	pc.stats.Loads++
	pc.stats.BytesPaged += pt.rowLen() + pt.edgeLen()
	return p, nil
}

// readSlab reads [off, off+length) in bounded chunks, verifying the CRC.
func (pc *PartitionedCSR) readSlab(off, length uint64, wantCRC uint32, pi int, what string) ([]byte, error) {
	slab := make([]byte, length)
	const chunk = 1 << 20
	for done := uint64(0); done < length; {
		n := min(int64(length-done), chunk)
		if _, err := pc.f.ReadAt(slab[done:done+uint64(n)], int64(off+done)); err != nil {
			return nil, fmt.Errorf("%w: partition %d %s slab truncated: %w", ErrCorrupt, pi, what, err)
		}
		done += uint64(n)
	}
	if got := crc32.Checksum(slab, crcTable); got != wantCRC {
		return nil, fmt.Errorf("%w: partition %d %s slab checksum mismatch", ErrCorrupt, pi, what)
	}
	return slab, nil
}

// decodePartSlabs decodes verified slabs into a GraphPart with the same
// structural validation the full readers apply.
func decodePartSlabs(p *GraphPart, pt csrPartition, pi int, edgeBase, n, m int64, row, edge []byte) error {
	prev := edgeBase
	for i := 0; i <= pt.vCount; i++ {
		v := int64(binary.LittleEndian.Uint64(row[i*8:]))
		if i == 0 && v != edgeBase {
			return fmt.Errorf("%w: partition %d starts at edge %d, want %d", ErrCorrupt, pi, v, edgeBase)
		}
		if v < prev || v > m {
			return fmt.Errorf("%w: row pointer %d out of order (%d after %d)", ErrCorrupt, pt.vFirst+i, v, prev)
		}
		p.RowPtr[i] = v
		prev = v
	}
	if prev != edgeBase+pt.edges {
		return fmt.Errorf("%w: partition %d rows end at edge %d, table says %d", ErrCorrupt, pi, prev, edgeBase+pt.edges)
	}
	for i := int64(0); i < pt.edges; i++ {
		d := binary.LittleEndian.Uint32(edge[i*csrEdgeRecBytes:])
		if d >= uint32(n) {
			return fmt.Errorf("%w: edge %d: destination %d out of range", ErrCorrupt, edgeBase+i, d)
		}
		p.Dst[i] = VertexID(d)
		p.Weight[i] = binary.LittleEndian.Uint32(edge[i*csrEdgeRecBytes+4:])
	}
	return nil
}

// edgeBase returns the global index of partition i's first edge.
func (pc *PartitionedCSR) edgeBase(i int) int64 {
	var base int64
	for k := 0; k < i; k++ {
		base += pc.parts[k].edges
	}
	return base
}

// Materialize assembles the whole graph by paging every partition through
// the cache in order. The result is bit-identical to ReadCSRFile on the
// same container at every MaxResident setting — paging affects PagedStats,
// never graph content.
func (pc *PartitionedCSR) Materialize() (*CSR, error) {
	g := &CSR{
		RowPtr: make([]int64, pc.info.NumVertices+1),
		Dst:    make([]VertexID, pc.info.NumEdges),
		Weight: make([]uint32, pc.info.NumEdges),
		Name:   pc.name,
	}
	for i := range pc.parts {
		p, err := pc.Acquire(i)
		if err != nil {
			return nil, err
		}
		copy(g.RowPtr[p.VFirst:], p.RowPtr)
		copy(g.Dst[p.EdgeBase:], p.Dst)
		copy(g.Weight[p.EdgeBase:], p.Weight)
		pc.Release(p)
	}
	return g, nil
}

// Close releases the mapping and file. The caller must have released all
// acquired partitions; resident data is dropped. Close is idempotent.
func (pc *PartitionedCSR) Close() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return nil
	}
	pc.closed = true
	pc.resident = nil
	var err error
	if pc.data != nil {
		err = pc.unmap(pc.data)
		pc.data = nil
	}
	if cerr := pc.f.Close(); err == nil {
		err = cerr
	}
	return err
}
