package graph

import (
	"fmt"
	"math/rand"
)

// Generators for the synthetic stand-ins of the paper's inputs (Table III).
// All generators are deterministic for a given seed.

// GenUniform generates an Erdős–Rényi-style uniform random digraph with the
// given average out-degree — the stand-in for the paper's Urand input.
// Weights are uniform in [1, maxWeight].
func GenUniform(name string, numVertices int, avgDegree float64, maxWeight uint32, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	m := int(float64(numVertices) * avgDegree)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{
			Src:    VertexID(rng.Intn(numVertices)),
			Dst:    VertexID(rng.Intn(numVertices)),
			Weight: weight(rng, maxWeight),
		})
	}
	return FromEdges(name, numVertices, edges)
}

// RMATParams are the Kronecker recursion probabilities. The GAP/Graph500
// defaults (a=0.57, b=c=0.19) produce the heavy-tailed degree distribution
// of social graphs like Twitter and Friendster.
type RMATParams struct {
	A, B, C float64
}

// DefaultRMAT is the Graph500 parameterization.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19}

// rmatWalk is the recursive quadrant walk shared by every R-MAT
// generator, with the cumulative quadrant thresholds computed once.
type rmatWalk struct {
	a, ab, abc float64
	scale      int
}

func (p RMATParams) walk(scale int) rmatWalk {
	return rmatWalk{a: p.A, ab: p.A + p.B, abc: p.A + p.B + p.C, scale: scale}
}

// draw picks one endpoint pair over [0, 2^scale), one rng.Float64 per
// bit, low bit first. A draw below a lands in the top-left quadrant (no
// bit), below ab in top-right (dst), below abc in bottom-left (src), and
// otherwise bottom-right (both). The bits are set from comparisons rather
// than a switch, which mispredicts on random draws: src past ab, dst when
// the draw passes an odd number of the three thresholds.
func (w rmatWalk) draw(rng *rand.Rand) (src, dst int) {
	for bit := 0; bit < w.scale; bit++ {
		r := rng.Float64()
		s := b2i(r >= w.ab)
		d := b2i(r >= w.a) ^ s ^ b2i(r >= w.abc)
		src |= s << bit
		dst |= d << bit
	}
	return src, dst
}

// b2i compiles to a flag-setting instruction, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// GenRMAT generates a Kronecker (R-MAT) graph with 2^scale vertices and
// approximately avgDegree out-edges per vertex. Vertex IDs are randomly
// permuted so that the natural ordering carries no community structure —
// matching how the paper's inputs are distributed "randomly" across PEs.
func GenRMAT(name string, scale int, avgDegree float64, p RMATParams, maxWeight uint32, seed int64) *CSR {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("graph: GenRMAT scale %d out of range", scale))
	}
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := int(float64(n) * avgDegree)
	perm := rng.Perm(n)
	walk := p.walk(scale)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		src, dst := walk.draw(rng)
		edges = append(edges, Edge{
			Src:    VertexID(perm[src]),
			Dst:    VertexID(perm[dst]),
			Weight: weight(rng, maxWeight),
		})
	}
	return FromEdges(name, n, edges)
}

// GenGrid generates a rows×cols 2D lattice with bidirectional edges between
// orthogonal neighbours, dropping each edge pair with probability dropProb
// to break the regularity — the stand-in for road networks (high diameter,
// average degree ≈ 4·(1-dropProb), like the paper's RoadUSA at ~2.4 with
// dropProb ≈ 0.39).
func GenGrid(name string, rows, cols int, dropProb float64, maxWeight uint32, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	edges := make([]Edge, 0, 4*n)
	addBoth := func(a, b VertexID) {
		if rng.Float64() < dropProb {
			return
		}
		w := weight(rng, maxWeight)
		edges = append(edges, Edge{Src: a, Dst: b, Weight: w}, Edge{Src: b, Dst: a, Weight: w})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				addBoth(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				addBoth(id(r, c), id(r+1, c))
			}
		}
	}
	return FromEdges(name, n, edges)
}

// GenRMATN is GenRMAT for an arbitrary vertex count: endpoints are drawn
// by the Kronecker recursion over the next power of two and rejected when
// they land past numVertices. The heavy-tailed shape is preserved; exact
// quadrant probabilities shift slightly, which is irrelevant for the
// scaled stand-ins.
func GenRMATN(name string, numVertices int, avgDegree float64, p RMATParams, maxWeight uint32, seed int64) *CSR {
	if numVertices < 2 {
		panic(fmt.Sprintf("graph: GenRMATN needs ≥2 vertices, got %d", numVertices))
	}
	scale := 1
	for 1<<scale < numVertices {
		scale++
	}
	rng := rand.New(rand.NewSource(seed))
	m := int(float64(numVertices) * avgDegree)
	perm := rng.Perm(numVertices)
	walk := p.walk(scale)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		src, dst := walk.draw(rng)
		if src >= numVertices || dst >= numVertices {
			continue
		}
		edges = append(edges, Edge{
			Src:    VertexID(perm[src]),
			Dst:    VertexID(perm[dst]),
			Weight: weight(rng, maxWeight),
		})
	}
	return FromEdges(name, numVertices, edges)
}

func weight(rng *rand.Rand, maxWeight uint32) uint32 {
	if maxWeight <= 1 {
		return 1
	}
	return 1 + uint32(rng.Intn(int(maxWeight)))
}
