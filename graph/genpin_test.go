package graph

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// edgeSeqHash is the FNV-1a hash of an edge sequence, each edge encoded as
// src, dst, weight (u32 little-endian).
func edgeSeqHash(next func() (Edge, bool)) uint64 {
	h := fnv.New64a()
	var rec [12]byte
	for e, ok := next(); ok; e, ok = next() {
		binary.LittleEndian.PutUint32(rec[0:], uint32(e.Src))
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.Dst))
		binary.LittleEndian.PutUint32(rec[8:], e.Weight)
		h.Write(rec[:])
	}
	return h.Sum64()
}

// csrSeqHash hashes a CSR's edges in row-pointer order.
func csrSeqHash(g *CSR) uint64 {
	edges, i := g.Edges(), 0
	return edgeSeqHash(func() (Edge, bool) {
		if i == len(edges) {
			return Edge{}, false
		}
		i++
		return edges[i-1], true
	})
}

// TestRMATSequencesPinned fixes the exact output of the three R-MAT
// generators. Every graph the experiments, goldens and benchmark build
// derives from these sequences, so a change to the quadrant walk or to
// the order it draws random numbers in must show up here first.
func TestRMATSequencesPinned(t *testing.T) {
	cases := []struct {
		name string
		hash func() uint64
		want uint64
	}{
		{"RMATStream/3000/s12", func() uint64 {
			return edgeSeqHash(NewRMATStream("r", 3000, 16, DefaultRMAT, 64, 12).Next)
		}, 0xec8773757e2a3a80},
		{"RMATStream/20000/s7", func() uint64 {
			return edgeSeqHash(NewRMATStream("r", 20000, 16, DefaultRMAT, 64, 7).Next)
		}, 0x70f07887293a0214},
		{"GenRMAT/10/s3", func() uint64 {
			return csrSeqHash(GenRMAT("r", 10, 16, DefaultRMAT, 64, 3))
		}, 0xd5fc9ffee3e8c22d},
		{"GenRMAT/14/s21", func() uint64 {
			return csrSeqHash(GenRMAT("r", 14, 8, DefaultRMAT, 64, 21))
		}, 0x7f8c64add5431b18},
		{"GenRMATN/3000/s12", func() uint64 {
			return csrSeqHash(GenRMATN("r", 3000, 16, DefaultRMAT, 64, 12))
		}, 0xe5da6b24c421a006},
		{"GenRMATN/20000/s13", func() uint64 {
			return csrSeqHash(GenRMATN("r", 20000, 8, RMATParams{A: 0.45, B: 0.15, C: 0.15}, 64, 13))
		}, 0x558b76a1a80f8e80},
	}
	for _, c := range cases {
		if got := c.hash(); got != c.want {
			t.Errorf("%s: sequence hash %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestRMATStreamNextAllocationFree guards the generator's inner loop: a
// container build calls Next once per edge per replay.
func TestRMATStreamNextAllocationFree(t *testing.T) {
	st := NewRMATStream("r", 1<<12, 1<<10, DefaultRMAT, 64, 1)
	if allocs := testing.AllocsPerRun(1000, func() { st.Next() }); allocs != 0 {
		t.Fatalf("RMATStream.Next allocates %.1f times per call, want 0", allocs)
	}
}
