package graph

import (
	"path/filepath"
	"testing"
)

// BenchmarkGenRMAT measures Kronecker generation (dataset-build cost).
func BenchmarkGenRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		GenRMAT("bench", 14, 16, DefaultRMAT, 64, int64(i))
	}
}

// BenchmarkTranspose measures CSR reversal (needed for BC and pull mode).
func BenchmarkTranspose(b *testing.B) {
	g := GenRMAT("bench", 15, 16, DefaultRMAT, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Transpose()
	}
}

// BenchmarkSymmetrize measures the sort-based dedup used for CC inputs.
func BenchmarkSymmetrize(b *testing.B) {
	g := GenRMAT("bench", 14, 16, DefaultRMAT, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Symmetrize()
	}
}

// BenchmarkPartitionLocality measures the RABBIT-like clustering cost the
// paper's preprocessing-cost discussion worries about.
func BenchmarkPartitionLocality(b *testing.B) {
	g := GenRMAT("bench", 15, 16, DefaultRMAT, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PartitionLocality(g, 8)
	}
}

// BenchmarkRMATStream measures one full generator pass over the
// benchmark's out-of-core graph (20k vertices, degree 16): the unit a
// streaming container build pays once per replay.
func BenchmarkRMATStream(b *testing.B) {
	st := NewRMATStream("bench", 20000, 16, DefaultRMAT, 64, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Reset()
		for _, ok := st.Next(); ok; _, ok = st.Next() {
		}
	}
}

// BenchmarkBuildCSRFilePartitioned measures the streaming build of the
// benchmark's partitioned container (20k-vertex RMAT, degree 16, 64Ki-edge
// partitions, default chunk budget).
func BenchmarkBuildCSRFilePartitioned(b *testing.B) {
	st := NewRMATStream("bench", 20000, 16, DefaultRMAT, 64, 12)
	path := filepath.Join(b.TempDir(), "g.csr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCSRFile(path, st, BuildOptions{PartitionEdges: 64 << 10}); err != nil {
			b.Fatal(err)
		}
	}
}
