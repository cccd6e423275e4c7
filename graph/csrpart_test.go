package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// validPartitionedContainer builds one well-formed partitioned container
// in memory (several partitions, so the table has interior entries).
func validPartitionedContainer(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	g := GenUniform("t", 60, 4, 8, 1)
	path := filepath.Join(dir, "g.csr")
	if _, err := WritePartitionedCSRFile(path, g, 40); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// wrappingPartitionTable crafts a partitioned container whose table edge
// counts sum to |E| only modulo 2^64: the first two partitions claim
// 2^63-1 edges each, the third the rest plus 2. Slab offsets tile the
// payload under the same wrap, the first row slab ends at edge 2^63-1,
// and every CRC is resealed, so only the edge-count bound rejects it.
func wrappingPartitionTable(t testing.TB) []byte {
	t.Helper()
	b := validPartitionedContainer(t)
	info, secs, err := parseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumPartitions < 3 {
		t.Fatalf("need 3 partitions, have %d", info.NumPartitions)
	}
	table := b[secs[0].off : secs[0].off+secs[0].length]
	entry := func(i int) []byte { return table[8+i*csrPartEntryBytes:] }
	const huge = 1<<63 - 1
	carry := uint64(2)
	for i := 0; i < 2; i++ {
		carry += binary.LittleEndian.Uint64(entry(i)[16:])
		binary.LittleEndian.PutUint64(entry(i)[16:], huge)
	}
	binary.LittleEndian.PutUint64(entry(2)[16:], binary.LittleEndian.Uint64(entry(2)[16:])+carry)
	off := secs[1].off
	for i := 0; i < info.NumPartitions; i++ {
		e := entry(i)
		rowLen := (binary.LittleEndian.Uint64(e[8:]) + 1) * 8
		binary.LittleEndian.PutUint64(e[24:], off)
		binary.LittleEndian.PutUint64(e[32:], off+rowLen)
		off += rowLen + binary.LittleEndian.Uint64(e[16:])*csrEdgeRecBytes
	}
	row0 := entry(0)
	rowLen0 := (binary.LittleEndian.Uint64(row0[8:]) + 1) * 8
	slab := b[secs[1].off : secs[1].off+rowLen0]
	binary.LittleEndian.PutUint64(slab[len(slab)-8:], huge)
	binary.LittleEndian.PutUint32(row0[40:], crc32Checksum(slab))
	binary.LittleEndian.PutUint32(b[24+16:], crc32Checksum(table))
	resealHeader(b)
	return b
}

// TestPartitionEdgeCountsCannotWrap pins every reader to ErrCorrupt on a
// table whose edge counts overflow their sum back to |E|.
func TestPartitionEdgeCountsCannotWrap(t *testing.T) {
	data := wrappingPartitionTable(t)
	path := filepath.Join(t.TempDir(), "wrap.csr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCSR("t", bytes.NewReader(data))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadCSR: want ErrCorrupt, got %v", err)
	}
	if mc, err := OpenCSRFileMapped(path); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			mc.Close()
		}
		t.Errorf("OpenCSRFileMapped: want ErrCorrupt, got %v", err)
	}
	if pc, err := OpenPartitionedCSR(path, 1); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			pc.Close()
		}
		t.Errorf("OpenPartitionedCSR: want ErrCorrupt, got %v", err)
	}
}

func TestPartitionedCSRFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(80)
		g := FromEdges("t", n, randEdges(rng, n, rng.Intn(400)))
		path := filepath.Join(dir, "g.csr")
		target := int64(1 + rng.Intn(64))
		info, err := WritePartitionedCSRFile(path, g, target)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Partitioned || info.NumPartitions < 1 {
			t.Fatalf("trial %d: info not partitioned: %+v", trial, info)
		}
		// The generic file reader must reassemble the identical graph.
		back, err := ReadCSRFile(path)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameCSR(t, back, g)
		// So must the mmap open path.
		m, err := OpenCSRFileMapped(path)
		if err != nil {
			t.Fatalf("trial %d: mapped: %v", trial, err)
		}
		sameCSR(t, m.G, g)
		if m.Mapped() {
			t.Fatal("partitioned container must decode to a heap copy, not a live mapping")
		}
		m.Close()
		// Stat sees the partition count without loading the payload.
		st, err := StatCSRFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Partitioned || st.NumPartitions != info.NumPartitions || st.ContentHash != info.ContentHash {
			t.Fatalf("trial %d: stat %+v, want %+v", trial, st, info)
		}
	}
}

func TestBuildPartitionedCSRFileMatchesWrite(t *testing.T) {
	dir := t.TempDir()
	st := NewRMATStream("rmat", 500, 8, DefaultRMAT, 64, 11)
	want := FromStream(st)
	wantPath := filepath.Join(dir, "want.csr")
	if _, err := WritePartitionedCSRFile(wantPath, want, 256); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	// The streaming build must emit byte-identical containers at every
	// chunk budget, exactly like the flat build.
	for _, chunk := range []int64{0, 1, 7, 64, 1 << 30} {
		path := filepath.Join(dir, "got.csr")
		info, err := BuildCSRFile(path, st, BuildOptions{ChunkEdges: chunk, PartitionEdges: 256})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if !info.Partitioned || info.NumPartitions < 2 {
			t.Fatalf("chunk %d: want a multi-partition build, got %d", chunk, info.NumPartitions)
		}
		gotBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("chunk %d: container bytes differ from WritePartitionedCSRFile", chunk)
		}
	}

	// Edge-less vertex runs ending at hubs denser than the partition
	// budget make edge-less partitions, first, interior and last.
	var es []Edge
	for _, hub := range []struct{ v, deg int }{{5, 6}, {10, 2}, {11, 2}, {16, 5}, {35, 9}} {
		for i := 0; i < hub.deg; i++ {
			es = append(es, Edge{Src: VertexID(hub.v), Dst: VertexID((hub.v*7 + i*3) % 40), Weight: uint32(1 + i)})
		}
	}
	rand.New(rand.NewSource(3)).Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	sparse := &edgeListStream{n: 40, edges: es}
	rowPtr := FromStream(sparse).RowPtr
	bounds := partitionBoundaries(rowPtr, 4)
	empty := 0
	for i := 0; i+1 < len(bounds); i++ {
		if rowPtr[bounds[i]] == rowPtr[bounds[i+1]] {
			empty++
		}
	}
	if empty < 3 || rowPtr[bounds[1]] != 0 || rowPtr[bounds[len(bounds)-2]] != rowPtr[40] {
		t.Fatalf("partitions %v of row pointers %v lack edge-less first, interior and last partitions", bounds, rowPtr)
	}
	buildMatchesWrite(t, sparse, 4, []int64{0, 1, 3, 4, 5, 1 << 30})

	// Chunk budgets whose chunks end exactly on partition boundaries: the
	// partition budget itself (chunks and partitions coincide), and the
	// first partition's edge count (only the first chunk ends on one).
	bounds = partitionBoundaries(want.RowPtr, 256)
	first := want.RowPtr[bounds[1]]
	if chunkEnd := partitionBoundaries(want.RowPtr, first)[1]; chunkEnd != bounds[1] {
		t.Fatalf("a %d-edge chunk ends at vertex %d, the first partition at %d", first, chunkEnd, bounds[1])
	}
	buildMatchesWrite(t, st, 256, []int64{256, first})
}

// buildMatchesWrite checks that streaming st into a partitioned container
// gives the bytes WritePartitionedCSRFile writes for the materialized graph,
// at every chunk budget.
func buildMatchesWrite(t *testing.T, st EdgeStream, partEdges int64, chunks []int64) {
	t.Helper()
	dir := t.TempDir()
	wantPath := filepath.Join(dir, "want.csr")
	if _, err := WritePartitionedCSRFile(wantPath, FromStream(st), partEdges); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range chunks {
		path := filepath.Join(dir, "got.csr")
		if _, err := BuildCSRFile(path, st, BuildOptions{ChunkEdges: chunk, PartitionEdges: partEdges}); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		gotBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("chunk %d: container bytes differ from WritePartitionedCSRFile", chunk)
		}
		if _, err := ReadCSRFile(path); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
	}
}

// edgeListStream replays a fixed edge list.
type edgeListStream struct {
	n     int
	edges []Edge
	next  int
}

func (s *edgeListStream) Name() string     { return "edges" }
func (s *edgeListStream) NumVertices() int { return s.n }
func (s *edgeListStream) NumEdges() int64  { return int64(len(s.edges)) }
func (s *edgeListStream) Reset()           { s.next = 0 }
func (s *edgeListStream) Next() (Edge, bool) {
	if s.next == len(s.edges) {
		return Edge{}, false
	}
	s.next++
	return s.edges[s.next-1], true
}

// replayCounter counts the replays of the stream it wraps.
type replayCounter struct {
	EdgeStream
	resets int
}

func (r *replayCounter) Reset() {
	r.resets++
	r.EdgeStream.Reset()
}

// TestBuildCSRFileReplayCount pins the cost model of a streaming build:
// one replay to count degrees and one per scatter chunk, the same for the
// flat and partitioned layouts whatever the partition count.
func TestBuildCSRFileReplayCount(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name  string
		st    EdgeStream
		chunk int64
	}{
		// The benchmark's out-of-core graph: both layouts take two passes.
		{"rmat20k", NewRMATStream("rmat", 20000, 16, DefaultRMAT, 64, 12), 0},
		{"rmat500/chunk64", NewRMATStream("rmat", 500, 8, DefaultRMAT, 64, 11), 64},
		{"urand500/chunk100", NewUniformStream("urand", 500, 8, 64, 11), 100},
	}
	for _, c := range cases {
		budget := c.chunk
		if budget <= 0 {
			budget = defaultChunkEdges
		}
		g := FromStream(c.st)
		chunks := len(partitionBoundaries(g.RowPtr, budget)) - 1
		if minChunks := int((g.NumEdges() + budget - 1) / budget); chunks < minChunks {
			t.Fatalf("%s: %d chunks, fewer than ⌈|E|/chunk⌉ = %d", c.name, chunks, minChunks)
		}
		if c.chunk == 0 && chunks != 1 {
			t.Fatalf("%s: %d chunks at the default budget, want 1", c.name, chunks)
		}
		for _, partEdges := range []int64{0, 64 << 10, 256} {
			rc := &replayCounter{EdgeStream: c.st}
			path := filepath.Join(dir, "g.csr")
			info, err := BuildCSRFile(path, rc, BuildOptions{ChunkEdges: c.chunk, PartitionEdges: partEdges})
			if err != nil {
				t.Fatal(err)
			}
			if rc.resets != 1+chunks {
				t.Errorf("%s, %d partitions: %d replays, want 1 + %d chunks",
					c.name, info.NumPartitions, rc.resets, chunks)
			}
		}
	}
}

// TestPartitionedCSRPagedBitIdentity is the tentpole invariant: a paged
// open must materialize a graph bit-identical to the full reader's at
// every partition-cache size, with only the pager stats varying.
func TestPartitionedCSRPagedBitIdentity(t *testing.T) {
	dir := t.TempDir()
	g := FromStream(NewRMATStream("rmat", 300, 6, DefaultRMAT, 32, 5))
	path := filepath.Join(dir, "g.csr")
	info, err := WritePartitionedCSRFile(path, g, 128)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumPartitions < 3 {
		t.Fatalf("want >=3 partitions, got %d", info.NumPartitions)
	}
	want, err := ReadCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []int{1, 2, 3, info.NumPartitions, 0} {
		pc, err := OpenPartitionedCSR(path, cache)
		if err != nil {
			t.Fatalf("cache %d: %v", cache, err)
		}
		got, err := pc.Materialize()
		if err != nil {
			t.Fatalf("cache %d: %v", cache, err)
		}
		sameCSR(t, got, want)
		st := pc.Stats()
		if st.Loads < uint64(info.NumPartitions) || st.BytesPaged == 0 {
			t.Fatalf("cache %d: no paging recorded: %+v", cache, st)
		}
		if cache > 0 && pc.ResidentPartitions() > cache {
			t.Fatalf("cache %d: %d partitions resident", cache, pc.ResidentPartitions())
		}
		pc.Close()
	}
}

func TestPartitionedCSRLRUAndPins(t *testing.T) {
	dir := t.TempDir()
	g := FromStream(NewRMATStream("rmat", 300, 6, DefaultRMAT, 32, 5))
	path := filepath.Join(dir, "g.csr")
	info, err := WritePartitionedCSRFile(path, g, 128)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := OpenPartitionedCSR(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	p0, err := pc.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	// A pinned partition survives pressure: loading others over a cap of 1
	// must evict them, never partition 0.
	for i := 1; i < info.NumPartitions; i++ {
		p, err := pc.Acquire(i)
		if err != nil {
			t.Fatal(err)
		}
		pc.Release(p)
	}
	if _, err := pc.Acquire(0); err != nil {
		t.Fatal(err)
	}
	st := pc.Stats()
	if st.Hits == 0 {
		t.Fatalf("pinned partition reload missed the cache: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("cap 1 with %d partitions never evicted: %+v", info.NumPartitions, st)
	}
	pc.Release(p0)
	pc.Release(p0)

	// Partition lookup and per-partition adjacency agree with the graph.
	for _, v := range []VertexID{0, VertexID(g.NumVertices() / 2), VertexID(g.NumVertices() - 1)} {
		pi := pc.PartitionFor(v)
		vFirst, vCount, _ := pc.PartitionSpan(pi)
		if int(v) < vFirst || int(v) >= vFirst+vCount {
			t.Fatalf("PartitionFor(%d)=%d spans [%d,+%d)", v, pi, vFirst, vCount)
		}
		p, err := pc.Acquire(pi)
		if err != nil {
			t.Fatal(err)
		}
		dst, wgt := p.OutEdges(v)
		wantDst, wantWgt := g.Neighbors(v), g.EdgeWeights(v)
		if len(dst) != len(wantDst) {
			t.Fatalf("v%d: %d edges, want %d", v, len(dst), len(wantDst))
		}
		for i := range dst {
			if dst[i] != wantDst[i] || wgt[i] != wantWgt[i] {
				t.Fatalf("v%d edge %d: got (%d,%d) want (%d,%d)", v, i, dst[i], wgt[i], wantDst[i], wantWgt[i])
			}
		}
		pc.Release(p)
	}
}

func TestOpenPartitionedCSRRejectsFlat(t *testing.T) {
	dir := t.TempDir()
	g := GenUniform("t", 60, 4, 8, 1)
	path := filepath.Join(dir, "flat.csr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPartitionedCSR(path, 2); err == nil {
		t.Fatal("flat container accepted by the pager")
	}
}

// TestPartitionedCorruptSlabCaughtOnAcquire flips a byte deep in one
// partition's edge slab: open and table validation succeed (the damage is
// behind the per-partition CRC), and only acquiring that partition fails.
func TestPartitionedCorruptSlabCaughtOnAcquire(t *testing.T) {
	good := validPartitionedContainer(t)
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x01 // last edge record byte of the last partition
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.csr")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	pc, err := OpenPartitionedCSR(path, 0)
	if err != nil {
		t.Fatalf("open must defer payload validation to page-in: %v", err)
	}
	defer pc.Close()
	if _, err := pc.Acquire(0); err != nil {
		t.Fatalf("undamaged partition rejected: %v", err)
	}
	last := pc.NumPartitions() - 1
	if _, err := pc.Acquire(last); err == nil {
		t.Fatal("damaged partition accepted")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error not typed ErrCorrupt: %v", err)
	}
}

// TestReadCSRPartitionedCorruption extends the corruption tables to the
// partitioned layout: single-byte flips anywhere in the file (header,
// partition table, any slab) and truncation at the new region boundaries
// must all surface as typed ErrCorrupt from the full reader.
func TestReadCSRPartitionedCorruption(t *testing.T) {
	good := validPartitionedContainer(t)
	for off := range good {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x01
		_, err := ReadCSR("t", bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flip at offset %d accepted", off)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at offset %d: error not typed ErrCorrupt: %v", off, err)
		}
	}

	tableLen := int(binary.LittleEndian.Uint64(good[24+8:]))
	for _, cut := range []int{
		csrFileHeaderSize,                           // before the partition table
		csrFileHeaderSize + 4,                       // mid partition count
		csrFileHeaderSize + 8 + csrPartEntryBytes/2, // mid table entry
		csrFileHeaderSize + tableLen,                // table/payload boundary
		csrFileHeaderSize + tableLen + 5,            // mid first row slab
		len(good) - 3,                               // mid last edge record
	} {
		_, err := ReadCSR("t", bytes.NewReader(good[:cut]))
		if err == nil {
			t.Errorf("truncation at %d accepted", cut)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: error not typed ErrCorrupt: %v", cut, err)
		}
	}

	// Crafted tables behind resealed CRCs: every cross-field consistency
	// rule must hold even when the checksums do.
	resealTable := func(b []byte) {
		tl := binary.LittleEndian.Uint64(b[24+8:])
		tab := b[csrFileHeaderSize : csrFileHeaderSize+int(tl)]
		binary.LittleEndian.PutUint32(b[24+16:], crc32Checksum(tab))
		resealHeader(b)
	}
	mutate := func(name string, f func(b []byte)) {
		bad := append([]byte(nil), good...)
		f(bad)
		resealTable(bad)
		_, err := ReadCSR("t", bytes.NewReader(bad))
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error not typed ErrCorrupt: %v", name, err)
		}
	}
	entry := csrFileHeaderSize + 8 // first table entry
	mutate("partition count mismatch", func(b []byte) {
		c := binary.LittleEndian.Uint64(b[csrFileHeaderSize:])
		binary.LittleEndian.PutUint64(b[csrFileHeaderSize:], c+1)
	})
	mutate("interval gap", func(b []byte) {
		v := binary.LittleEndian.Uint64(b[entry+8:])
		binary.LittleEndian.PutUint64(b[entry+8:], v-1)
	})
	mutate("edge count shifted", func(b []byte) {
		e := binary.LittleEndian.Uint64(b[entry+16:])
		binary.LittleEndian.PutUint64(b[entry+16:], e+1)
	})
	mutate("slab offset shifted", func(b []byte) {
		o := binary.LittleEndian.Uint64(b[entry+24:])
		binary.LittleEndian.PutUint64(b[entry+24:], o+8)
	})
	mutate("row crc zeroed", func(b []byte) {
		binary.LittleEndian.PutUint32(b[entry+40:], 0)
	})
}
