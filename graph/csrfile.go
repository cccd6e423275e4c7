package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrCorrupt is the sentinel wrapped by every corruption and truncation
// error the container reader reports — a damaged or tampered file is
// errors.Is(err, ErrCorrupt); I/O failures (missing path, permissions)
// are not. Readers never panic on corrupt input: every section is bounds-
// and checksum-validated before its payload drives allocation or indexing.
var ErrCorrupt = errors.New("graph: corrupt csr container")

// Versioned binary CSR container — the on-disk format of the large-graph
// scale tier. It is versioned, checksummed and split into sections so
// multi-million-edge graphs can be generated once (cmd/graphgen) and
// loaded repeatedly with integrity guarantees, in constant memory beyond
// the CSR arrays themselves.
//
// Layout (all little-endian, sections contiguous and in order):
//
//	header  magic "NVC1" | version u16 | flags u16 | |V| u64 | |E| u64
//	        per section {offset u64, length u64, crc32c u32, pad u32}
//	        header crc32c u32
//	rowptr  (|V|+1) × u64
//	edges   |E| × {dst u32, weight u32}
//
// Interleaving destination and weight per edge keeps the build single-pass
// per chunk: a streaming builder scatters 8-byte records into one section
// instead of revisiting the stream once per array.

// CSRFileVersion is the current container version.
const CSRFileVersion = 1

var csrFileMagic = [4]byte{'N', 'V', 'C', '1'}

const (
	csrFileSections   = 2 // rowptr, edges (flat) or table, payload (partitioned)
	csrFileHeaderSize = 4 + 2 + 2 + 8 + 8 + csrFileSections*(8+8+4+4) + 4
	csrEdgeRecBytes   = 8
	// csrMaxVertices / csrMaxEdges bound header plausibility checks so a
	// corrupt size field cannot drive allocation.
	csrMaxVertices = 1 << 32
	csrMaxEdges    = 1 << 40
)

// Header flag bits. Readers reject unknown bits so a future layout cannot
// be misparsed as one of today's; flat containers written before the flag
// existed carry 0 and parse unchanged.
const (
	// csrFlagPartitioned marks the partitioned layout (csrpart.go):
	// section 0 is a partition table instead of the row pointers, and
	// section 1 interleaves per-partition row-pointer and edge slabs, each
	// pair carrying its own CRC32C so one vertex interval can be paged in
	// and verified without touching the rest of the file.
	csrFlagPartitioned = 1 << 0

	csrKnownFlags = csrFlagPartitioned
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CSRFileInfo describes a container without loading its payload.
type CSRFileInfo struct {
	Version     int
	NumVertices int
	NumEdges    int64
	// RowPtrBytes and EdgeBytes are the section payload sizes.
	RowPtrBytes int64
	EdgeBytes   int64
	// Partitioned reports the partitioned layout (csrpart.go): the payload
	// is split into contiguous vertex-interval partitions, each carrying
	// its own row-pointer and edge CRC32C so it can be paged in and
	// verified independently. NumPartitions is zero for flat containers.
	Partitioned   bool
	NumPartitions int
	// ContentHash is a CRC32C-derived fingerprint of the container's
	// content: the header checksum, which covers the graph dimensions and
	// both section checksums, so it changes whenever any row pointer or
	// edge record differs and is equal for byte-identical payloads. It is
	// O(1) to obtain (StatCSRFile reads only the header), which is what
	// lets a result cache key on graph content without rehashing
	// gigabytes per request.
	ContentHash uint32
}

type csrSection struct {
	off, length uint64
	crc         uint32
}

// headerBytes serializes the fixed-size header for the given sections.
func headerBytes(numVertices int, numEdges int64, flags uint16, secs [csrFileSections]csrSection) []byte {
	buf := make([]byte, csrFileHeaderSize)
	copy(buf[0:4], csrFileMagic[:])
	binary.LittleEndian.PutUint16(buf[4:6], CSRFileVersion)
	binary.LittleEndian.PutUint16(buf[6:8], flags)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(numVertices))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(numEdges))
	p := 24
	for _, s := range secs {
		binary.LittleEndian.PutUint64(buf[p:], s.off)
		binary.LittleEndian.PutUint64(buf[p+8:], s.length)
		binary.LittleEndian.PutUint32(buf[p+16:], s.crc)
		binary.LittleEndian.PutUint32(buf[p+20:], 0)
		p += 24
	}
	binary.LittleEndian.PutUint32(buf[p:], crc32.Checksum(buf[:p], crcTable))
	return buf
}

// parseHeader validates the fixed-size header and returns its fields.
func parseHeader(buf []byte) (info CSRFileInfo, secs [csrFileSections]csrSection, err error) {
	if len(buf) < csrFileHeaderSize {
		return info, secs, fmt.Errorf("%w: header truncated at %d bytes", ErrCorrupt, len(buf))
	}
	if [4]byte(buf[0:4]) != csrFileMagic {
		return info, secs, fmt.Errorf("%w: not a csr file (magic %q)", ErrCorrupt, buf[0:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != CSRFileVersion {
		return info, secs, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, v, CSRFileVersion)
	}
	crcOff := csrFileHeaderSize - 4
	headerCRC := crc32.Checksum(buf[:crcOff], crcTable)
	if want := binary.LittleEndian.Uint32(buf[crcOff:]); headerCRC != want {
		return info, secs, fmt.Errorf("%w: header checksum mismatch (%#x != %#x)", ErrCorrupt, headerCRC, want)
	}
	flags := binary.LittleEndian.Uint16(buf[6:8])
	if flags&^uint16(csrKnownFlags) != 0 {
		return info, secs, fmt.Errorf("%w: unsupported header flags %#x", ErrCorrupt, flags)
	}
	n := binary.LittleEndian.Uint64(buf[8:16])
	m := binary.LittleEndian.Uint64(buf[16:24])
	if n == 0 || n > csrMaxVertices || m > csrMaxEdges {
		return info, secs, fmt.Errorf("%w: implausible sizes V=%d E=%d", ErrCorrupt, n, m)
	}
	p := 24
	for i := range secs {
		secs[i].off = binary.LittleEndian.Uint64(buf[p:])
		secs[i].length = binary.LittleEndian.Uint64(buf[p+8:])
		secs[i].crc = binary.LittleEndian.Uint32(buf[p+16:])
		p += 24
	}
	// Sections must sit exactly where the writer puts them: contiguous,
	// in order, directly after the header. The offsets are stored for
	// tools and forward evolution, and validated here against a crafted
	// or bit-flipped section table.
	if flags&csrFlagPartitioned != 0 {
		// Partitioned layout: section 0 is the partition table (partition
		// count + fixed-size entries), section 1 the payload. The table
		// length pins the partition count, and the payload length is fully
		// determined by V, E, and that count — each partition stores its
		// vCount+1 row pointers (interval boundaries are duplicated), so
		// the payload holds (V+P)×u64 row pointers plus E edge records.
		tl := secs[0].length
		if secs[0].off != csrFileHeaderSize || tl < 8+csrPartEntryBytes || (tl-8)%csrPartEntryBytes != 0 {
			return info, secs, fmt.Errorf("%w: partition table geometry inconsistent (len %d)", ErrCorrupt, tl)
		}
		nParts := (tl - 8) / csrPartEntryBytes
		if nParts > n {
			return info, secs, fmt.Errorf("%w: %d partitions for %d vertices", ErrCorrupt, nParts, n)
		}
		wantRow := (n + nParts) * 8
		wantPayload := wantRow + m*csrEdgeRecBytes
		if secs[1].off != secs[0].off+tl || secs[1].length != wantPayload {
			return info, secs, fmt.Errorf("%w: section table inconsistent with V=%d E=%d P=%d", ErrCorrupt, n, m, nParts)
		}
		info = CSRFileInfo{
			Version:       CSRFileVersion,
			NumVertices:   int(n),
			NumEdges:      int64(m),
			RowPtrBytes:   int64(wantRow),
			EdgeBytes:     int64(m * csrEdgeRecBytes),
			Partitioned:   true,
			NumPartitions: int(nParts),
			ContentHash:   headerCRC,
		}
		return info, secs, nil
	}
	wantRow := uint64(n+1) * 8
	wantEdge := m * csrEdgeRecBytes
	if secs[0].off != csrFileHeaderSize || secs[0].length != wantRow ||
		secs[1].off != secs[0].off+secs[0].length || secs[1].length != wantEdge {
		return info, secs, fmt.Errorf("%w: section table inconsistent with V=%d E=%d", ErrCorrupt, n, m)
	}
	info = CSRFileInfo{
		Version:     CSRFileVersion,
		NumVertices: int(n),
		NumEdges:    int64(m),
		RowPtrBytes: int64(wantRow),
		EdgeBytes:   int64(wantEdge),
		ContentHash: headerCRC,
	}
	return info, secs, nil
}

// sectionWriter accumulates a section's CRC while writing through to w.
type sectionWriter struct {
	w   *bufio.Writer
	crc uint32
	n   uint64
}

func (s *sectionWriter) write(p []byte) error {
	s.crc = crc32.Update(s.crc, crcTable, p)
	s.n += uint64(len(p))
	_, err := s.w.Write(p)
	return err
}

// WriteCSRFile serializes g into the versioned container at path.
func WriteCSRFile(path string, g *CSR) error {
	_, err := writeContainer(path, g.RowPtr, 0, g.encodeEdges)
	return err
}

// defaultChunkEdges is BuildOptions.ChunkEdges' default: 4Mi edges, a
// 32 MiB scatter buffer.
const defaultChunkEdges = 4 << 20

// BuildOptions tune the streaming container build.
type BuildOptions struct {
	// ChunkEdges bounds the scatter buffer (default 4Mi edges, a 32 MiB
	// buffer). The build replays the stream once to count degrees and
	// once per chunk of at most this many edges, so 1 + ⌈|E|/ChunkEdges⌉
	// passes in all (more only when a hub alone exceeds the budget),
	// whatever the layout or partition count. Smaller values trade
	// generator replays for memory.
	ChunkEdges int64
	// PartitionEdges, when positive, emits the partitioned layout
	// (csrpart.go) instead of the flat one: contiguous vertex intervals
	// holding at most this many edges each (always at least one vertex),
	// independently checksummed so the out-of-core tier can page one in
	// without validating the whole file.
	PartitionEdges int64
}

// BuildCSRFile generates st directly into the versioned container at path
// without ever materializing the graph: pass one counts degrees into the
// row pointers (O(|V|) memory), then the edge records are scattered chunk
// by chunk — each chunk covers a contiguous source-vertex range holding at
// most opt.ChunkEdges edges, filled by replaying the stream and keeping
// only that range. Peak memory is O(|V|) + O(ChunkEdges) regardless of
// |E|.
func BuildCSRFile(path string, st EdgeStream, opt BuildOptions) (CSRFileInfo, error) {
	chunk := opt.ChunkEdges
	if chunk <= 0 {
		chunk = defaultChunkEdges
	}
	n := st.NumVertices()
	rowPtr := make([]int64, n+1)
	st.Reset()
	for e, ok := st.Next(); ok; e, ok = st.Next() {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return CSRFileInfo{}, fmt.Errorf("graph: stream edge %d->%d out of range %d", e.Src, e.Dst, n)
		}
		rowPtr[e.Src+1]++
	}
	for i := 1; i <= n; i++ {
		rowPtr[i] += rowPtr[i-1]
	}
	return writeContainer(path, rowPtr, opt.PartitionEdges, func(emit func([]byte) error) error {
		return scatterEdges(st, rowPtr, chunk, emit)
	})
}

// writeContainer writes the container of the graph with row pointers
// rowPtr to path: the flat layout, or the partitioned one (csrpart.go)
// with at most partEdges edges per partition when partEdges > 0. edges
// must hand every encoded edge record to emit, in row-pointer order, in
// blocks of any size. The header and partition table are written last,
// once their checksums are known.
func writeContainer(path string, rowPtr []int64, partEdges int64, edges func(emit func([]byte) error) error) (info CSRFileInfo, err error) {
	if len(rowPtr) < 2 {
		return info, errors.New("graph: a csr container needs at least one vertex")
	}
	var pw *partWriter
	bodyOff := uint64(csrFileHeaderSize)
	if partEdges > 0 {
		pw = newPartWriter(rowPtr, partEdges, bodyOff)
		bodyOff = pw.off
	}

	f, err := os.Create(path)
	if err != nil {
		return info, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := bw.Write(make([]byte, bodyOff)); err != nil {
		return info, err
	}
	var secs [csrFileSections]csrSection
	var flags uint16
	var table []byte
	sw := &sectionWriter{w: bw}
	if pw != nil {
		if err := pw.payload(sw, edges); err != nil {
			return info, err
		}
		table = partitionTableBytes(pw.parts)
		secs[0] = csrSection{off: csrFileHeaderSize, length: uint64(len(table)), crc: crc32.Checksum(table, crcTable)}
		secs[1] = csrSection{off: bodyOff, length: sw.n, crc: sw.crc}
		flags = csrFlagPartitioned
	} else {
		if err := encodeRowPtrs(rowPtr, sw.write); err != nil {
			return info, err
		}
		secs[0] = csrSection{off: bodyOff, length: sw.n, crc: sw.crc}
		sw = &sectionWriter{w: bw}
		if err := edges(sw.write); err != nil {
			return info, err
		}
		secs[1] = csrSection{off: secs[0].off + secs[0].length, length: sw.n, crc: sw.crc}
	}
	if err := bw.Flush(); err != nil {
		return info, err
	}
	if table != nil {
		if _, err := f.WriteAt(table, csrFileHeaderSize); err != nil {
			return info, err
		}
	}
	hdr := headerBytes(len(rowPtr)-1, rowPtr[len(rowPtr)-1], flags, secs)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return info, err
	}
	// The reader's own header check doubles as the writer's: it fails if
	// edges emitted a different number of records than rowPtr promises.
	info, _, err = parseHeader(hdr)
	return info, err
}

// emitBlocks encodes records [0, n) of size bytes each through put and
// hands them to emit a bounded block at a time.
func emitBlocks(n, size int, put func(rec []byte, i int), emit func([]byte) error) error {
	const block = 64 << 10
	buf := make([]byte, min(n, block)*size)
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
		b := buf[:(hi-lo)*size]
		for i := lo; i < hi; i++ {
			put(b[(i-lo)*size:], i)
		}
		if err := emit(b); err != nil {
			return err
		}
	}
	return nil
}

// encodeRowPtrs hands rows to emit as u64 records.
func encodeRowPtrs(rows []int64, emit func([]byte) error) error {
	return emitBlocks(len(rows), 8, func(rec []byte, i int) {
		binary.LittleEndian.PutUint64(rec, uint64(rows[i]))
	}, emit)
}

// encodeEdges hands g's edge records to emit in row-pointer order.
func (g *CSR) encodeEdges(emit func([]byte) error) error {
	return emitBlocks(len(g.Dst), csrEdgeRecBytes, func(rec []byte, i int) {
		binary.LittleEndian.PutUint32(rec, uint32(g.Dst[i]))
		binary.LittleEndian.PutUint32(rec[4:], g.Weight[i])
	}, emit)
}

// scatterEdges replays st once per chunk and hands the encoded edge
// records to emit in row-pointer order. The chunks are the contiguous
// source ranges partitionBoundaries cuts at chunk edges (always at least
// one vertex, so a hub denser than the budget still builds — with a
// proportionally larger buffer). Zero stream weights are stored as 1.
func scatterEdges(st EdgeStream, rowPtr []int64, chunk int64, emit func([]byte) error) error {
	bounds := partitionBoundaries(rowPtr, chunk)
	buf := make([]byte, 0, min(chunk, rowPtr[len(rowPtr)-1])*csrEdgeRecBytes)
	var cursor []int64
	for i := 0; i+1 < len(bounds); i++ {
		vLo, vHi := bounds[i], bounds[i+1]
		base := rowPtr[vLo]
		need := (rowPtr[vHi] - base) * csrEdgeRecBytes
		if int64(cap(buf)) < need {
			buf = make([]byte, need)
		}
		buf = buf[:need]
		// cursor[v-vLo] is the next free edge slot of source v.
		cursor = append(cursor[:0], rowPtr[vLo:vHi]...)
		st.Reset()
		for e, ok := st.Next(); ok; e, ok = st.Next() {
			v := int(e.Src)
			if v < vLo || v >= vHi {
				continue
			}
			slot := (cursor[v-vLo] - base) * csrEdgeRecBytes
			cursor[v-vLo]++
			w := e.Weight
			if w == 0 {
				w = 1
			}
			binary.LittleEndian.PutUint32(buf[slot:], uint32(e.Dst))
			binary.LittleEndian.PutUint32(buf[slot+4:], w)
		}
		if err := emit(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadCSR deserializes a versioned container from r, verifying the header,
// the partition table and every slab and section checksum. The payload
// streams through a fixed-size buffer straight into the CSR arrays — no
// extra copy of the file and no edge list, so peak memory is the returned
// graph plus O(1).
func ReadCSR(name string, r io.Reader) (*CSR, error) {
	hdr := make([]byte, csrFileHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: header short read: %w", ErrCorrupt, err)
	}
	info, secs, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	parts, err := readPartitions(info, secs, func(table []byte) error {
		_, err := io.ReadFull(r, table)
		return err
	})
	if err != nil {
		return nil, err
	}
	g := newCSR(name, info)
	// Section lengths are whole records, so every buffer fill is too.
	buf := make([]byte, min(1<<20, secs[0].length+secs[1].length))
	// The slabs follow in file order. A partitioned payload also carries
	// a CRC of its own, over all of them.
	payloadCRC := uint32(0)
	read := func(length uint64, decode func([]byte) error) (uint32, error) {
		crc := uint32(0)
		err := readSection(r, buf, int64(length), &crc, func(p []byte) error {
			if info.Partitioned {
				payloadCRC = crc32.Update(payloadCRC, crcTable, p)
			}
			return decode(p)
		})
		return crc, err
	}
	for pi, pt := range parts {
		d := newSlabDecoder(pt, pi, info.NumVertices)
		rows := g.RowPtr[pt.vFirst : pt.vFirst+pt.vCount+1]
		crc, err := read(pt.rowLen(), func(p []byte) error { return d.rows(rows, p) })
		if err == nil {
			err = checkSlab(pi, "row", crc, pt.rowCRC)
		}
		if err != nil {
			return nil, err
		}
		dst := g.Dst[pt.edgeBase : pt.edgeBase+pt.edges]
		wt := g.Weight[pt.edgeBase : pt.edgeBase+pt.edges]
		crc, err = read(pt.edgeLen(), func(p []byte) error { return d.edges(dst, wt, p) })
		if err == nil {
			err = checkSlab(pi, "edge", crc, pt.edgeCRC)
		}
		if err != nil {
			return nil, err
		}
	}
	if info.Partitioned && payloadCRC != secs[1].crc {
		return nil, fmt.Errorf("%w: payload section checksum mismatch", ErrCorrupt)
	}
	return g, nil
}

// newCSR allocates the arrays of the graph info describes.
func newCSR(name string, info CSRFileInfo) *CSR {
	return &CSR{
		RowPtr: make([]int64, info.NumVertices+1),
		Dst:    make([]VertexID, info.NumEdges),
		Weight: make([]uint32, info.NumEdges),
		Name:   name,
	}
}

// readSection streams length bytes from r through buf in multiples of the
// record size, updating crc and handing each full slab to decode.
func readSection(r io.Reader, buf []byte, length int64, crc *uint32, decode func([]byte) error) error {
	for length > 0 {
		want := int64(len(buf))
		if length < want {
			want = length
		}
		slab := buf[:want]
		if _, err := io.ReadFull(r, slab); err != nil {
			return fmt.Errorf("%w: section truncated: %w", ErrCorrupt, err)
		}
		*crc = crc32.Update(*crc, crcTable, slab)
		if err := decode(slab); err != nil {
			return err
		}
		length -= want
	}
	return nil
}

// ReadCSRFile loads the versioned container at path.
func ReadCSRFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSR(path, bufio.NewReaderSize(f, 1<<20))
}

// StatCSRFile reads and validates only the header of the container at
// path — O(1) work regardless of graph size.
func StatCSRFile(path string) (CSRFileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return CSRFileInfo{}, err
	}
	defer f.Close()
	hdr := make([]byte, csrFileHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return CSRFileInfo{}, fmt.Errorf("%w: header short read: %w", ErrCorrupt, err)
	}
	info, _, err := parseHeader(hdr)
	return info, err
}
