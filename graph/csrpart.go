package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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

// csrPartition is one decoded partition-table entry.
type csrPartition struct {
	vFirst int
	vCount int
	edges  int64
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
// counts summing to E, and slab offsets exactly tiling the payload
// section. The caller has already verified the section CRC; this guards
// against a crafted table whose CRC is self-consistent.
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
		if pt.rowOff != nextOff || pt.edgeOff != pt.rowOff+pt.rowLen() {
			return nil, fmt.Errorf("%w: partition %d slab offsets inconsistent", ErrCorrupt, i)
		}
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
		vFirst: lo,
		vCount: hi - lo,
		edges:  pw.rowPtr[hi] - pw.rowPtr[lo],
		rowOff: pw.off + pw.sw.n,
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

// readPartitionedCSR is the partitioned arm of ReadCSR: it streams the
// table and every partition slab in file order, verifying the table CRC,
// each partition's row and edge CRCs, and the whole-payload CRC, while
// reassembling the flat CSR arrays. The result is byte-for-byte the graph
// a flat container of the same payload yields.
func readPartitionedCSR(name string, r io.Reader, info CSRFileInfo, secs [csrFileSections]csrSection) (*CSR, error) {
	table := make([]byte, secs[0].length)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, fmt.Errorf("%w: partition table truncated: %w", ErrCorrupt, err)
	}
	if got := crc32.Checksum(table, crcTable); got != secs[0].crc {
		return nil, fmt.Errorf("%w: partition table checksum mismatch", ErrCorrupt)
	}
	parts, err := parsePartitionTable(table, info, secs[1].off)
	if err != nil {
		return nil, err
	}

	n, m := info.NumVertices, info.NumEdges
	g := &CSR{
		RowPtr: make([]int64, n+1),
		Dst:    make([]VertexID, m),
		Weight: make([]uint32, m),
		Name:   name,
	}
	buf := make([]byte, 1<<20)
	payloadCRC := uint32(0)
	edgeBase := int64(0)
	for pi, pt := range parts {
		rowCRC := uint32(0)
		prev, idx := edgeBase, pt.vFirst
		first := true
		if err := readSection(r, buf, int64(pt.rowLen()), &rowCRC, func(p []byte) error {
			payloadCRC = crc32.Update(payloadCRC, crcTable, p)
			for len(p) >= 8 {
				v := int64(binary.LittleEndian.Uint64(p))
				// The interval's first row pointer must resume exactly
				// where the previous partition's edges ended — the
				// duplicated boundary is validated, not trusted.
				if first && v != edgeBase {
					return fmt.Errorf("%w: partition %d starts at edge %d, want %d", ErrCorrupt, pi, v, edgeBase)
				}
				first = false
				if v < prev || v > m {
					return fmt.Errorf("%w: row pointer %d out of order (%d after %d)", ErrCorrupt, idx, v, prev)
				}
				g.RowPtr[idx] = v
				prev = v
				idx++
				p = p[8:]
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if rowCRC != pt.rowCRC {
			return nil, fmt.Errorf("%w: partition %d row slab checksum mismatch", ErrCorrupt, pi)
		}
		if prev != edgeBase+pt.edges {
			return nil, fmt.Errorf("%w: partition %d rows end at edge %d, table says %d", ErrCorrupt, pi, prev, edgeBase+pt.edges)
		}

		edgeCRC := uint32(0)
		ei := edgeBase
		if err := readSection(r, buf, int64(pt.edgeLen()), &edgeCRC, func(p []byte) error {
			payloadCRC = crc32.Update(payloadCRC, crcTable, p)
			for len(p) >= csrEdgeRecBytes {
				d := binary.LittleEndian.Uint32(p)
				if int64(d) >= int64(n) {
					return fmt.Errorf("%w: edge %d: destination %d out of range", ErrCorrupt, ei, d)
				}
				g.Dst[ei] = VertexID(d)
				g.Weight[ei] = binary.LittleEndian.Uint32(p[4:])
				ei++
				p = p[csrEdgeRecBytes:]
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if edgeCRC != pt.edgeCRC {
			return nil, fmt.Errorf("%w: partition %d edge slab checksum mismatch", ErrCorrupt, pi)
		}
		edgeBase += pt.edges
	}
	if payloadCRC != secs[1].crc {
		return nil, fmt.Errorf("%w: payload section checksum mismatch", ErrCorrupt)
	}
	return g, nil
}

// decodePartitionedPayload validates and decodes a fully in-memory
// partitioned container image (the mmap open path). Identical checks to
// readPartitionedCSR, against slices instead of a stream.
func decodePartitionedPayload(name string, data []byte, info CSRFileInfo, secs [csrFileSections]csrSection) (*CSR, error) {
	end := secs[1].off + secs[1].length
	if uint64(len(data)) < end {
		return nil, fmt.Errorf("%w: file truncated at %d bytes, sections end at %d", ErrCorrupt, len(data), end)
	}
	table := data[secs[0].off : secs[0].off+secs[0].length]
	if got := crc32.Checksum(table, crcTable); got != secs[0].crc {
		return nil, fmt.Errorf("%w: partition table checksum mismatch", ErrCorrupt)
	}
	if got := crc32.Checksum(data[secs[1].off:end], crcTable); got != secs[1].crc {
		return nil, fmt.Errorf("%w: payload section checksum mismatch", ErrCorrupt)
	}
	parts, err := parsePartitionTable(table, info, secs[1].off)
	if err != nil {
		return nil, err
	}
	n, m := info.NumVertices, info.NumEdges
	g := &CSR{
		RowPtr: make([]int64, n+1),
		Dst:    make([]VertexID, m),
		Weight: make([]uint32, m),
		Name:   name,
	}
	edgeBase := int64(0)
	for pi, pt := range parts {
		row := data[pt.rowOff : pt.rowOff+pt.rowLen()]
		edge := data[pt.edgeOff : pt.edgeOff+pt.edgeLen()]
		if got := crc32.Checksum(row, crcTable); got != pt.rowCRC {
			return nil, fmt.Errorf("%w: partition %d row slab checksum mismatch", ErrCorrupt, pi)
		}
		if got := crc32.Checksum(edge, crcTable); got != pt.edgeCRC {
			return nil, fmt.Errorf("%w: partition %d edge slab checksum mismatch", ErrCorrupt, pi)
		}
		if err := decodePartitionSlabs(g, pt, pi, edgeBase, row, edge); err != nil {
			return nil, err
		}
		edgeBase += pt.edges
	}
	return g, nil
}

// decodePartitionSlabs decodes one partition's verified row and edge slabs
// into the flat arrays at their global positions, revalidating the row
// pointers (monotone, resuming at edgeBase, ending at edgeBase+edges) and
// edge destinations — the CRCs prove the bytes are the writer's, not that
// a crafted file is well-formed.
func decodePartitionSlabs(g *CSR, pt csrPartition, pi int, edgeBase int64, row, edge []byte) error {
	n := int64(g.NumVertices())
	m := int64(len(g.Dst))
	prev := edgeBase
	for i := 0; i <= pt.vCount; i++ {
		v := int64(binary.LittleEndian.Uint64(row[i*8:]))
		if i == 0 && v != edgeBase {
			return fmt.Errorf("%w: partition %d starts at edge %d, want %d", ErrCorrupt, pi, v, edgeBase)
		}
		if v < prev || v > m {
			return fmt.Errorf("%w: row pointer %d out of order (%d after %d)", ErrCorrupt, pt.vFirst+i, v, prev)
		}
		g.RowPtr[pt.vFirst+i] = v
		prev = v
	}
	if prev != edgeBase+pt.edges {
		return fmt.Errorf("%w: partition %d rows end at edge %d, table says %d", ErrCorrupt, pi, prev, edgeBase+pt.edges)
	}
	for i := int64(0); i < pt.edges; i++ {
		d := binary.LittleEndian.Uint32(edge[i*csrEdgeRecBytes:])
		if int64(d) >= n {
			return fmt.Errorf("%w: edge %d: destination %d out of range", ErrCorrupt, edgeBase+i, d)
		}
		g.Dst[edgeBase+i] = VertexID(d)
		g.Weight[edgeBase+i] = binary.LittleEndian.Uint32(edge[i*csrEdgeRecBytes+4:])
	}
	return nil
}
