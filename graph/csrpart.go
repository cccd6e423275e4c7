package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Partitioned container layout (header flag bit 0) — the on-disk format of
// the out-of-core tier. A flat container checksums its two sections as
// wholes, so verifying any byte means reading everything; graphs larger
// than RAM need the opposite: load one vertex interval's rows and edges,
// verify just those bytes, and touch nothing else. The partitioned layout
// restructures the same payload for that access pattern:
//
//	header   as csrfile.go, with the partitioned flag set;
//	         section 0 = partition table, section 1 = payload
//	table    partition count u64, then per partition
//	         {vFirst u64, vCount u64, edges u64, rowOff u64, edgeOff u64,
//	          rowCRC u32, edgeCRC u32}
//	payload  per partition, contiguous and in order:
//	         rowptr slab  (vCount+1) × u64   absolute row pointers
//	         edge slab    edges × {dst u32, weight u32}
//
// Row pointers stay absolute (global edge indices) and interval boundaries
// are duplicated — partition k's last row pointer is partition k+1's first
// — so a slab decodes without any context beyond the table entry, at the
// cost of (P-1)×8 bytes. Section 0's CRC covers the table, section 1's the
// whole payload; each slab pair additionally carries its own CRC32C, which
// is what lets PartitionedCSR page in one interval and verify it in
// isolation. Every field of the table is cross-validated against the
// header and against its neighbors before it drives an allocation or a
// read offset.

const csrPartEntryBytes = 48

// csrPartition is one decoded partition-table entry. Readers see every
// container as a list of them: a flat container is the one partition
// covering [0, |V|), whose two slabs are its two sections.
type csrPartition struct {
	vFirst int
	vCount int
	edges  int64
	// edgeBase is the global index of the partition's first edge, the sum
	// of the edges of the partitions before it (not stored on disk).
	edgeBase int64
	// rowOff / edgeOff are absolute file offsets of the two slabs.
	rowOff  uint64
	edgeOff uint64
	rowCRC  uint32
	edgeCRC uint32
}

func (p csrPartition) rowLen() uint64  { return uint64(p.vCount+1) * 8 }
func (p csrPartition) edgeLen() uint64 { return uint64(p.edges) * csrEdgeRecBytes }

// partitionBoundaries splits [0, len(rowPtr)-1) into contiguous vertex
// intervals of at most targetEdges edges each (always at least one vertex,
// so a hub denser than the budget still gets a partition). The returned
// slice holds P+1 boundaries with bounds[0] == 0.
func partitionBoundaries(rowPtr []int64, targetEdges int64) []int {
	n := len(rowPtr) - 1
	bounds := []int{0}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && rowPtr[hi+1]-rowPtr[lo] <= targetEdges {
			hi++
		}
		bounds = append(bounds, hi)
		lo = hi
	}
	return bounds
}

// partitionTableBytes serializes the partition table section.
func partitionTableBytes(parts []csrPartition) []byte {
	buf := make([]byte, 8+len(parts)*csrPartEntryBytes)
	binary.LittleEndian.PutUint64(buf, uint64(len(parts)))
	p := 8
	for _, pt := range parts {
		binary.LittleEndian.PutUint64(buf[p:], uint64(pt.vFirst))
		binary.LittleEndian.PutUint64(buf[p+8:], uint64(pt.vCount))
		binary.LittleEndian.PutUint64(buf[p+16:], uint64(pt.edges))
		binary.LittleEndian.PutUint64(buf[p+24:], pt.rowOff)
		binary.LittleEndian.PutUint64(buf[p+32:], pt.edgeOff)
		binary.LittleEndian.PutUint32(buf[p+40:], pt.rowCRC)
		binary.LittleEndian.PutUint32(buf[p+44:], pt.edgeCRC)
		p += csrPartEntryBytes
	}
	return buf
}

// parsePartitionTable validates the raw table section against the header
// geometry: full coverage of [0, V) by non-empty intervals in order, edge
// counts summing to E with no prefix sum above it, and slab offsets
// exactly tiling the payload section. The caller has already verified the
// section CRC; this guards against a crafted table whose CRC is
// self-consistent.
func parsePartitionTable(buf []byte, info CSRFileInfo, payloadOff uint64) ([]csrPartition, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("%w: partition table truncated", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint64(buf)
	if count != uint64(info.NumPartitions) || len(buf) != 8+int(count)*csrPartEntryBytes {
		return nil, fmt.Errorf("%w: partition count %d inconsistent with header (%d)", ErrCorrupt, count, info.NumPartitions)
	}
	parts := make([]csrPartition, count)
	nextV, nextEdge, nextOff := uint64(0), uint64(0), payloadOff
	for i := range parts {
		p := 8 + i*csrPartEntryBytes
		pt := csrPartition{
			vFirst:  int(binary.LittleEndian.Uint64(buf[p:])),
			vCount:  int(binary.LittleEndian.Uint64(buf[p+8:])),
			edges:   int64(binary.LittleEndian.Uint64(buf[p+16:])),
			rowOff:  binary.LittleEndian.Uint64(buf[p+24:]),
			edgeOff: binary.LittleEndian.Uint64(buf[p+32:]),
			rowCRC:  binary.LittleEndian.Uint32(buf[p+40:]),
			edgeCRC: binary.LittleEndian.Uint32(buf[p+44:]),
		}
		if uint64(pt.vFirst) != nextV || pt.vCount < 1 || pt.edges < 0 ||
			uint64(pt.vFirst)+uint64(pt.vCount) > uint64(info.NumVertices) {
			return nil, fmt.Errorf("%w: partition %d interval [%d,+%d) out of order", ErrCorrupt, i, pt.vFirst, pt.vCount)
		}
		// Bounding each count by what is left of |E| keeps the running
		// sums (edges and slab offsets) from wrapping back into range.
		if uint64(pt.edges) > uint64(info.NumEdges)-nextEdge {
			return nil, fmt.Errorf("%w: partition %d claims %d edges, %d left", ErrCorrupt, i, pt.edges, uint64(info.NumEdges)-nextEdge)
		}
		if pt.rowOff != nextOff || pt.edgeOff != pt.rowOff+pt.rowLen() {
			return nil, fmt.Errorf("%w: partition %d slab offsets inconsistent", ErrCorrupt, i)
		}
		pt.edgeBase = int64(nextEdge)
		nextV += uint64(pt.vCount)
		nextEdge += uint64(pt.edges)
		nextOff = pt.edgeOff + pt.edgeLen()
		parts[i] = pt
	}
	if nextV != uint64(info.NumVertices) || nextEdge != uint64(info.NumEdges) {
		return nil, fmt.Errorf("%w: partitions cover V=%d E=%d, header says V=%d E=%d",
			ErrCorrupt, nextV, nextEdge, info.NumVertices, info.NumEdges)
	}
	return parts, nil
}

// readPartitions returns the partition list of the container whose header
// parsed to info and secs. A flat container is one partition built from
// its section table; a partitioned one's table is read through readTable,
// which must fill its argument with section 0, then checked against the
// section CRC and parsed.
func readPartitions(info CSRFileInfo, secs [csrFileSections]csrSection, readTable func([]byte) error) ([]csrPartition, error) {
	if !info.Partitioned {
		return []csrPartition{{
			vCount:  info.NumVertices,
			edges:   info.NumEdges,
			rowOff:  secs[0].off,
			edgeOff: secs[1].off,
			rowCRC:  secs[0].crc,
			edgeCRC: secs[1].crc,
		}}, nil
	}
	table := make([]byte, secs[0].length)
	if err := readTable(table); err != nil {
		return nil, fmt.Errorf("%w: partition table truncated: %w", ErrCorrupt, err)
	}
	if got := crc32.Checksum(table, crcTable); got != secs[0].crc {
		return nil, fmt.Errorf("%w: partition table checksum mismatch", ErrCorrupt)
	}
	return parsePartitionTable(table, info, secs[1].off)
}

// checkSlab reports a slab of partition pi whose CRC32C is not want.
func checkSlab(pi int, what string, got, want uint32) error {
	if got != want {
		return fmt.Errorf("%w: partition %d %s slab checksum mismatch", ErrCorrupt, pi, what)
	}
	return nil
}

// decodeSlabs verifies partition pi's whole row and edge slabs against
// their CRCs and decodes them into rows (nil to validate only), dst and wt.
func (pt csrPartition) decodeSlabs(pi, numVertices int, row, edge []byte, rows []int64, dst []VertexID, wt []uint32) error {
	if err := checkSlab(pi, "row", crc32.Checksum(row, crcTable), pt.rowCRC); err != nil {
		return err
	}
	if err := checkSlab(pi, "edge", crc32.Checksum(edge, crcTable), pt.edgeCRC); err != nil {
		return err
	}
	d := newSlabDecoder(pt, pi, numVertices)
	if err := d.rows(rows, row); err != nil {
		return err
	}
	return d.edges(dst, wt, edge)
}

// slabDecoder decodes one partition's row-pointer and edge records and does
// all their structural validation: the CRCs prove the bytes are the
// writer's, not that a crafted file is well-formed. Rows must start at the
// partition's edge base, never decrease, and end exactly at its last edge
// (so none exceeds |E|); destinations must be below |V|. Both methods take
// any whole number of records, in order, and write them at the decoder's
// cursor into a destination sliced to the partition, so a reader can feed
// a whole slab or a bounded chunk of one.
type slabDecoder struct {
	pt   csrPartition
	pi   int
	n    int64 // |V|
	row  int   // row records decoded so far
	edge int64 // edge records decoded so far
	prev int64 // last row pointer decoded
}

func newSlabDecoder(pt csrPartition, pi, numVertices int) *slabDecoder {
	return &slabDecoder{pt: pt, pi: pi, n: int64(numVertices), prev: pt.edgeBase}
}

// rows decodes u64 row-pointer records from src into dst, the partition's
// vCount+1 rows; a nil dst validates without storing (a read-only mapping
// that already is the row array).
func (d *slabDecoder) rows(dst []int64, src []byte) error {
	end := d.pt.edgeBase + d.pt.edges
	for ; len(src) >= 8; src = src[8:] {
		v := int64(binary.LittleEndian.Uint64(src))
		switch {
		case d.row == 0 && v != d.pt.edgeBase:
			return fmt.Errorf("%w: partition %d starts at edge %d, want %d", ErrCorrupt, d.pi, v, d.pt.edgeBase)
		case v < d.prev || v > end:
			return fmt.Errorf("%w: row pointer %d out of order (%d after %d, partition ends at %d)", ErrCorrupt, d.pt.vFirst+d.row, v, d.prev, end)
		case d.row == d.pt.vCount && v != end:
			return fmt.Errorf("%w: partition %d rows end at edge %d, want %d", ErrCorrupt, d.pi, v, end)
		}
		if dst != nil {
			dst[d.row] = v
		}
		d.prev = v
		d.row++
	}
	return nil
}

// edges decodes {dst u32, weight u32} records from src into dst and wt,
// the partition's edges.
func (d *slabDecoder) edges(dst []VertexID, wt []uint32, src []byte) error {
	for ; len(src) >= csrEdgeRecBytes; src = src[csrEdgeRecBytes:] {
		v := binary.LittleEndian.Uint32(src)
		if int64(v) >= d.n {
			return fmt.Errorf("%w: edge %d: destination %d out of range", ErrCorrupt, d.pt.edgeBase+d.edge, v)
		}
		dst[d.edge] = VertexID(v)
		wt[d.edge] = binary.LittleEndian.Uint32(src[4:])
		d.edge++
	}
	return nil
}

// DefaultPartitionEdges is the partition granularity used when a
// partitioned write is requested without an explicit target: 1Mi edges
// (8 MiB of edge records) per partition.
const DefaultPartitionEdges = 1 << 20

// WritePartitionedCSRFile serializes g into the partitioned container at
// path, with at most targetEdges edges per partition (DefaultPartitionEdges
// when <= 0). The payload bytes are the same row pointers and edge records
// a flat write produces, restructured into independently checksummed
// vertex-interval slabs.
func WritePartitionedCSRFile(path string, g *CSR, targetEdges int64) (CSRFileInfo, error) {
	if targetEdges <= 0 {
		targetEdges = DefaultPartitionEdges
	}
	return writeContainer(path, g.RowPtr, targetEdges, g.encodeEdges)
}

// partWriter lays out the payload section of a partitioned container from
// one in-order run of edge records: each partition's row slab, then its
// edge slab, with both slab checksums. It splits the record blocks it is
// handed at partition boundaries, so the edge source knows nothing of the
// partitioning — a streaming build replays its generator no more often
// for the partitioned layout than for the flat one.
type partWriter struct {
	sw     *sectionWriter
	rowPtr []int64
	bounds []int
	parts  []csrPartition
	off    uint64 // file offset of the payload section
	cur    int    // partition receiving edge records
	next   int64  // global index of the next edge record
}

// newPartWriter cuts rowPtr into partitions of at most partEdges edges;
// the partition table follows the header at tableOff.
func newPartWriter(rowPtr []int64, partEdges int64, tableOff uint64) *partWriter {
	bounds := partitionBoundaries(rowPtr, partEdges)
	nParts := len(bounds) - 1
	return &partWriter{
		rowPtr: rowPtr,
		bounds: bounds,
		parts:  make([]csrPartition, nParts),
		off:    tableOff + uint64(8+nParts*csrPartEntryBytes),
	}
}

// payload writes the whole payload section through sw, with the edge
// records edges emits.
func (pw *partWriter) payload(sw *sectionWriter, edges func(emit func([]byte) error) error) error {
	pw.sw = sw
	if err := pw.open(0); err != nil {
		return err
	}
	if err := pw.advance(); err != nil {
		return err
	}
	return edges(pw.edges)
}

// open writes partition i's row slab and makes it the one receiving edge
// records.
func (pw *partWriter) open(i int) error {
	lo, hi := pw.bounds[i], pw.bounds[i+1]
	pt := &pw.parts[i]
	*pt = csrPartition{
		vFirst:   lo,
		vCount:   hi - lo,
		edges:    pw.rowPtr[hi] - pw.rowPtr[lo],
		edgeBase: pw.rowPtr[lo],
		rowOff:   pw.off + pw.sw.n,
	}
	if err := encodeRowPtrs(pw.rowPtr[lo:hi+1], func(p []byte) error {
		pt.rowCRC = crc32.Update(pt.rowCRC, crcTable, p)
		return pw.sw.write(p)
	}); err != nil {
		return err
	}
	pt.edgeOff = pw.off + pw.sw.n
	pw.cur = i
	return nil
}

// advance opens the next partition while the current one holds all its
// edges, so an edge-less partition gets its row slab in order too.
func (pw *partWriter) advance() error {
	for pw.cur+1 < len(pw.parts) && pw.next == pw.rowPtr[pw.bounds[pw.cur+1]] {
		if err := pw.open(pw.cur + 1); err != nil {
			return err
		}
	}
	return nil
}

// edges writes a block of edge records, closing each partition as its
// last record passes.
func (pw *partWriter) edges(p []byte) error {
	for len(p) > 0 {
		pt := &pw.parts[pw.cur]
		room := (pw.rowPtr[pw.bounds[pw.cur+1]] - pw.next) * csrEdgeRecBytes
		if room <= 0 {
			return fmt.Errorf("graph: %d bytes of edge records past the last row pointer", len(p))
		}
		k := min(int64(len(p)), room)
		pt.edgeCRC = crc32.Update(pt.edgeCRC, crcTable, p[:k])
		if err := pw.sw.write(p[:k]); err != nil {
			return err
		}
		pw.next += k / csrEdgeRecBytes
		p = p[k:]
		if err := pw.advance(); err != nil {
			return err
		}
	}
	return nil
}
