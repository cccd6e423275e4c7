package graph

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

func TestOpenCSRFileMappedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(80)
		g := FromEdges("t", n, randEdges(rng, n, rng.Intn(400)))
		path := filepath.Join(dir, "g.csr")
		if err := WriteCSRFile(path, g); err != nil {
			t.Fatal(err)
		}
		m, err := OpenCSRFileMapped(path)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameCSR(t, m.G, g)
		if m.Info.NumVertices != g.NumVertices() || m.Info.NumEdges != g.NumEdges() {
			t.Fatalf("info: V=%d E=%d, want V=%d E=%d",
				m.Info.NumVertices, m.Info.NumEdges, g.NumVertices(), g.NumEdges())
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

func TestContentHashStableAndContentSensitive(t *testing.T) {
	dir := t.TempDir()
	g := GenUniform("h", 200, 4, 8, 11)
	pa := filepath.Join(dir, "a.csr")
	pb := filepath.Join(dir, "b.csr")
	if err := WriteCSRFile(pa, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSRFile(pb, g); err != nil {
		t.Fatal(err)
	}
	ia, err := StatCSRFile(pa)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := StatCSRFile(pb)
	if err != nil {
		t.Fatal(err)
	}
	if ia.ContentHash == 0 {
		t.Fatal("ContentHash not populated")
	}
	if ia.ContentHash != ib.ContentHash {
		t.Fatalf("identical payloads hash differently: %#x vs %#x", ia.ContentHash, ib.ContentHash)
	}
	m, err := OpenCSRFileMapped(pa)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Info.ContentHash != ia.ContentHash {
		t.Fatalf("mapped open hashes %#x, Stat hashes %#x", m.Info.ContentHash, ia.ContentHash)
	}

	// A different graph must produce a different hash (the hash covers
	// the section checksums, so any payload change propagates into it).
	g2 := GenUniform("h", 200, 4, 8, 12)
	pc := filepath.Join(dir, "c.csr")
	if err := WriteCSRFile(pc, g2); err != nil {
		t.Fatal(err)
	}
	ic, err := StatCSRFile(pc)
	if err != nil {
		t.Fatal(err)
	}
	if ic.ContentHash == ia.ContentHash {
		t.Fatalf("different payloads share hash %#x", ia.ContentHash)
	}

	// BuildCSRFile reports the same hash StatCSRFile later reads back.
	st := NewUniformStream("d", 150, 3, 8, 5)
	pd := filepath.Join(dir, "d.csr")
	built, err := BuildCSRFile(pd, st, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := StatCSRFile(pd)
	if err != nil {
		t.Fatal(err)
	}
	if built.ContentHash != id.ContentHash {
		t.Fatalf("BuildCSRFile hash %#x != Stat hash %#x", built.ContentHash, id.ContentHash)
	}
}

func TestOpenCSRFileMappedRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	g := GenUniform("c", 120, 4, 8, 3)
	path := filepath.Join(dir, "g.csr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in each region: header, row pointers, edges.
	for _, off := range []int{8, csrFileHeaderSize + 9, len(raw) - 3} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x10
		badPath := filepath.Join(dir, "bad.csr")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenCSRFileMapped(badPath)
		if err == nil {
			m.Close()
			t.Fatalf("flip at %d: corruption accepted", off)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: error %v not typed ErrCorrupt", off, err)
		}
	}
	// Truncation must be rejected, not fault.
	if err := os.WriteFile(filepath.Join(dir, "short.csr"), raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := OpenCSRFileMapped(filepath.Join(dir, "short.csr")); err == nil {
		m.Close()
		t.Fatal("truncated file accepted")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation error %v not typed ErrCorrupt", err)
	}
}

// TestOpenCSRFileMappedAliasesFlatRows pins the property only the mapped
// reader has: on a little-endian host a flat container's RowPtr is the
// mapping itself, not a decoded copy.
func TestOpenCSRFileMappedAliasesFlatRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := WriteCSRFile(path, GenUniform("a", 200, 4, 8, 2)); err != nil {
		t.Fatal(err)
	}
	m, err := OpenCSRFileMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Mapped() {
		t.Skip("no live mapping on this platform")
	}
	if !hostIsLittleEndian() {
		t.Skip("row pointers are decoded on big-endian hosts")
	}
	if !m.aliased || &m.G.RowPtr[0] != (*int64)(unsafe.Pointer(&m.data[csrFileHeaderSize])) {
		t.Fatal("flat RowPtr is a copy, not the mapped row section")
	}
}
