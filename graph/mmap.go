package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"unsafe"
)

// MappedCSR is a CSR container opened through the operating system's page
// cache: the file is mapped read-only and validated in place, and the
// graph's row-pointer array aliases the mapping directly on little-endian
// hosts (the on-disk u64 records are exactly the in-memory []int64
// layout). The interleaved edge section cannot be aliased — Dst and
// Weight are separate arrays in memory — so edges are decoded once into
// private slices.
//
// The design point is a long-running service: one MappedCSR is opened per
// registered graph and the *CSR it exposes is shared read-only by every
// concurrent simulation job, so N in-flight requests cost one copy of the
// graph, not N. Nothing in the engines mutates a CSR (the type is
// documented immutable), which is what makes the sharing — and the
// aliased mapping — safe.
//
// Close unmaps the file; the caller must guarantee no simulation still
// holds the CSR (the service registry refcounts entries for exactly this
// reason). After Close, touching an aliased RowPtr faults.
type MappedCSR struct {
	// G is the shared read-only graph view.
	G *CSR
	// Info describes the container (including its ContentHash).
	Info CSRFileInfo
	// data is the mapping (or the whole-file read on platforms without
	// mmap); aliased holds whether G.RowPtr points into data, and backed
	// whether data is a live kernel mapping rather than a heap copy.
	data    []byte
	aliased bool
	backed  bool
	unmap   func([]byte) error
}

// hostIsLittleEndian reports whether native byte order matches the
// container's on-disk order, which is what permits aliasing the mapped
// row-pointer section as []int64 without a decode pass.
func hostIsLittleEndian() bool {
	var probe [2]byte
	binary.NativeEndian.PutUint16(probe[:], 1)
	return probe[0] == 1
}

// OpenCSRFileMapped opens the versioned container at path via mmap (where
// the platform supports it; otherwise a whole-file read), verifies every
// checksum exactly as ReadCSRFile does, and returns the shared graph
// view. Corruption reports wrap ErrCorrupt; the mapping is released on
// every error path.
func OpenCSRFileMapped(path string) (m *MappedCSR, err error) {
	data, unmap, backed, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			unmap(data)
		}
	}()
	if len(data) < csrFileHeaderSize {
		return nil, fmt.Errorf("%w: file shorter than header (%d bytes)", ErrCorrupt, len(data))
	}
	info, secs, err := parseHeader(data[:csrFileHeaderSize])
	if err != nil {
		return nil, err
	}
	end := secs[1].off + secs[1].length
	if uint64(len(data)) < end {
		return nil, fmt.Errorf("%w: file truncated at %d bytes, sections end at %d", ErrCorrupt, len(data), end)
	}
	if info.Partitioned {
		if got := crc32.Checksum(data[secs[1].off:end], crcTable); got != secs[1].crc {
			return nil, fmt.Errorf("%w: payload section checksum mismatch", ErrCorrupt)
		}
	}
	parts, err := readPartitions(info, secs, func(table []byte) error {
		copy(table, data[secs[0].off:])
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A flat container's row section is exactly the in-memory []int64 on
	// little-endian hosts, so RowPtr aliases the mapping and its records
	// are only validated. Partitioned row slabs duplicate their interval
	// boundaries, so they cannot be aliased.
	aliased := !info.Partitioned && hostIsLittleEndian()
	g := &CSR{Name: path}
	if aliased {
		g.RowPtr = unsafe.Slice((*int64)(unsafe.Pointer(&data[secs[0].off])), info.NumVertices+1)
		g.Dst = make([]VertexID, info.NumEdges)
		g.Weight = make([]uint32, info.NumEdges)
	} else {
		g = newCSR(path, info)
	}
	for pi, pt := range parts {
		var rows []int64
		if !aliased {
			rows = g.RowPtr[pt.vFirst : pt.vFirst+pt.vCount+1]
		}
		e0, e1 := pt.edgeBase, pt.edgeBase+pt.edges
		if err := pt.decodeSlabs(pi, info.NumVertices, data[pt.rowOff:pt.rowOff+pt.rowLen()],
			data[pt.edgeOff:pt.edgeOff+pt.edgeLen()], rows, g.Dst[e0:e1], g.Weight[e0:e1]); err != nil {
			return nil, err
		}
	}
	if info.Partitioned {
		// The graph is a heap copy, so the mapping goes now. The result
		// reports Mapped() == false, exactly like the non-unix fallback,
		// and operators can tell (service /graphs).
		if err := unmap(data); err != nil {
			return nil, err
		}
		return &MappedCSR{G: g, Info: info}, nil
	}
	return &MappedCSR{G: g, Info: info, data: data, aliased: aliased, backed: backed, unmap: unmap}, nil
}

// Close releases the mapping. The caller must not touch G (or any slice
// derived from it) afterwards when the row pointers alias the mapping.
// Close is idempotent.
func (m *MappedCSR) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	if m.aliased {
		// Detach the aliased view so a use-after-Close on the Go side
		// fails as an out-of-bounds panic rather than a page fault when
		// it can (the slice header outlives the mapping either way).
		m.G.RowPtr = nil
	}
	return m.unmap(data)
}

// Mapped reports whether the container is backed by a live memory mapping
// (false on platforms without mmap support, where the file was read).
func (m *MappedCSR) Mapped() bool { return m.data != nil && m.backed }
