// Command graphgen generates the synthetic graphs used by the
// reproduction and prints their statistics, optionally dumping the edge
// list as tab-separated "src dst weight" lines or writing the versioned
// binary CSR container.
//
// Usage:
//
//	graphgen -kind rmat -vertices 65536 -degree 16 -seed 7
//	graphgen -kind grid -rows 128 -cols 128 -drop 0.39
//	graphgen -kind uniform -vertices 100000 -degree 31 -dump
//
// With -stream and -o the graph is generated edge-by-edge and scattered
// into the container in bounded chunks, so multi-million-edge graphs
// build in constant memory (never holding the edge list or the CSR):
//
//	graphgen -kind rmat -vertices 4194304 -degree 16 -stream -o big.csr
//	graphgen -info big.csr
//	novasim -engine nova -workload prdelta -graph-file big.csr
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"nova/graph"
)

func main() {
	kind := flag.String("kind", "rmat", "rmat|uniform|grid")
	vertices := flag.Int("vertices", 65536, "vertex count (rmat, uniform)")
	degree := flag.Float64("degree", 16, "average out-degree")
	rows := flag.Int("rows", 256, "grid rows")
	cols := flag.Int("cols", 256, "grid cols")
	drop := flag.Float64("drop", 0.39, "grid edge drop probability")
	maxWeight := flag.Int("max-weight", 64, "maximum edge weight")
	seed := flag.Int64("seed", 1, "generator seed")
	dump := flag.Bool("dump", false, "write edge list to stdout")
	parts := flag.Int("parts", 0, "if >0, report partitioner statistics for this many parts")
	stream := flag.Bool("stream", false, "generate via the constant-memory streaming generators")
	out := flag.String("o", "", "write the binary CSR container to FILE")
	chunkEdges := flag.Int64("chunk-edges", 0, "scatter-buffer budget in edges for the streaming container build (needs -stream -o; 0 = default)")
	partitionEdges := flag.Int64("partition-edges", 0, "if >0, write the partitioned container layout with at most this many edges per vertex interval (pageable via novasim -partition-cache)")
	info := flag.String("info", "", "print the header of a binary CSR container and exit")
	flag.Parse()

	if *info != "" {
		fi, err := graph.StatCSRFile(*info)
		check(err)
		layout := "flat"
		if fi.Partitioned {
			layout = fmt.Sprintf("partitioned x%d", fi.NumPartitions)
		}
		fmt.Printf("%s: format v%d (%s), V=%d E=%d, rowptr %d bytes, edges %d bytes\n",
			*info, fi.Version, layout, fi.NumVertices, fi.NumEdges, fi.RowPtrBytes, fi.EdgeBytes)
		return
	}
	if *partitionEdges > 0 && *out == "" {
		fmt.Fprintln(os.Stderr, "graphgen: -partition-edges shapes the container layout; add -o FILE")
		os.Exit(1)
	}
	if *chunkEdges != 0 && !(*stream && *out != "") {
		fmt.Fprintln(os.Stderr, "graphgen: -chunk-edges bounds the streaming container build; add -stream -o FILE")
		os.Exit(1)
	}

	var st graph.EdgeStream
	if *stream || *out != "" {
		switch *kind {
		case "rmat":
			st = graph.NewRMATStream("rmat", *vertices, *degree, graph.DefaultRMAT, uint32(*maxWeight), *seed)
		case "uniform":
			st = graph.NewUniformStream("uniform", *vertices, *degree, uint32(*maxWeight), *seed)
		case "grid":
			st = graph.NewGridStream("grid", *rows, *cols, *drop, uint32(*maxWeight), *seed)
		default:
			fmt.Fprintf(os.Stderr, "graphgen: unknown kind %q\n", *kind)
			os.Exit(1)
		}
	}

	// Streaming container build: the edge stream scatters straight into
	// the file in bounded chunks — the only path that never materializes
	// the graph, so it is what the large tier uses.
	if *out != "" && *stream {
		fi, err := graph.BuildCSRFile(*out, st, graph.BuildOptions{ChunkEdges: *chunkEdges, PartitionEdges: *partitionEdges})
		check(err)
		layout := ""
		if fi.Partitioned {
			layout = fmt.Sprintf(", %d partitions", fi.NumPartitions)
		}
		fmt.Fprintf(os.Stderr, "%s: V=%d E=%d written to %s (constant-memory build%s)\n",
			st.Name(), fi.NumVertices, fi.NumEdges, *out, layout)
		return
	}

	var g *graph.CSR
	switch {
	case st != nil:
		g = graph.FromStream(st)
	default:
		switch *kind {
		case "rmat":
			g = graph.GenRMATN("rmat", *vertices, *degree, graph.DefaultRMAT, uint32(*maxWeight), *seed)
		case "uniform":
			g = graph.GenUniform("uniform", *vertices, *degree, uint32(*maxWeight), *seed)
		case "grid":
			g = graph.GenGrid("grid", *rows, *cols, *drop, uint32(*maxWeight), *seed)
		default:
			fmt.Fprintf(os.Stderr, "graphgen: unknown kind %q\n", *kind)
			os.Exit(1)
		}
	}

	if *out != "" {
		if *partitionEdges > 0 {
			fi, err := graph.WritePartitionedCSRFile(*out, g, *partitionEdges)
			check(err)
			fmt.Fprintf(os.Stderr, "partitioned container written to %s (%d partitions)\n", *out, fi.NumPartitions)
		} else {
			check(graph.WriteCSRFile(*out, g))
			fmt.Fprintf(os.Stderr, "container written to %s\n", *out)
		}
	}

	fmt.Fprintf(os.Stderr, "%s: V=%d E=%d avg-deg=%.2f max-deg=%d footprint=%d bytes\n",
		g.Name, g.NumVertices(), g.NumEdges(), g.AvgDegree(), g.MaxDegree(), g.FootprintBytes())
	fmt.Fprintf(os.Stderr, "hub vertex: %d (out-degree %d)\n",
		g.LargestOutDegreeVertex(), g.OutDegree(g.LargestOutDegreeVertex()))

	if *parts > 0 {
		for _, p := range []*graph.Partition{
			graph.PartitionInterleave(g.NumVertices(), *parts),
			graph.PartitionRandom(g.NumVertices(), *parts, *seed),
			graph.PartitionLoadBalanced(g, *parts),
			graph.PartitionLocality(g, *parts),
		} {
			fmt.Fprintf(os.Stderr, "partition %-14s cut=%.3f imbalance=%.3f\n",
				p.Method, p.CutFraction(g), p.Imbalance(g))
		}
	}

	if *dump {
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		for _, e := range g.Edges() {
			fmt.Fprintf(w, "%d\t%d\t%d\n", e.Src, e.Dst, e.Weight)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}
