package network

import (
	"testing"

	"nova/internal/sim"
	"nova/program"
)

// benchGPNs is the fabric size for the routed paths: 8 GPNs gives every
// routed topology multi-hop routes (2x4 mesh, 8-ring). The destination
// benchGPNs/2 is diametrically opposite on the ring and interior on the
// mesh, so routed topologies pay their full hop count.
const benchGPNs = 8

func benchFabric(kind TopoKind, engines []*sim.Engine, coalesce CoalesceConfig, vertices int) *Hierarchical {
	return NewFabric(engines, 1, FabricConfig{
		P2P:      DefaultP2PConfig(),
		Crossbar: DefaultCrossbarConfig(),
		Link:     DefaultLinkConfig(),
		Topology: kind,
		Coalesce: coalesce,
		Vertices: vertices,
	})
}

// hotPath is one fabric path that must stay allocation-free in steady
// state. setup builds the fabric once and returns one step; messages is
// how many messages a step sends.
type hotPath struct {
	name     string
	messages int
	setup    func() func() error
}

// hotPaths lists every fabric hot path. BenchmarkHotPaths times them and
// TestHotPathsAllocationFree asserts their steps allocate nothing. Every
// step drains its engines, so the event pools recycle.
func hotPaths() []hotPath {
	paths := []hotPath{
		// Intra-GPN send over the point-to-point mesh.
		{name: "p2p_local", messages: 1, setup: func() func() error {
			eng := sim.NewEngine()
			f := NewHierarchical(SharedEngines(eng, 2), 4, DefaultP2PConfig(), DefaultCrossbarConfig())
			h := sim.HandlerFunc(func() {})
			return func() error {
				f.Send(0, 1, 64, h)
				return eng.RunUntilQuiet(0)
			}
		}},
		// The absorb path: the second batch of every step merges into the
		// buffered head via the vertex index, then the window timer
		// flushes the pair as one fabric message.
		{name: "coalesce_absorb", messages: 2, setup: func() func() error {
			eng := sim.NewEngine()
			f := benchFabric(TopoCrossbar, SharedEngines(eng, 2), CoalesceConfig{Window: 8}, 8)
			f.SetMerge(minMerge)
			b1 := &testBatch{msgs: make([]program.Message, 1, 4)}
			b2 := &testBatch{msgs: make([]program.Message, 1, 4)}
			return func() error {
				b1.msgs = append(b1.msgs[:0], program.Message{Dst: 1, Delta: 5})
				b2.msgs = append(b2.msgs[:0], program.Message{Dst: 1, Delta: 3})
				f.Send(0, 1, 8, b1)
				f.Send(0, 1, 8, b2)
				return eng.RunUntilQuiet(0)
			}
		}},
	}
	for kind := TopoCrossbar; kind <= TopoTorus; kind++ {
		// The shared-engine path: route lookup, per-hop link
		// reservation, delivery event.
		paths = append(paths, hotPath{name: "send_" + kind.String(), messages: 1, setup: func() func() error {
			eng := sim.NewEngine()
			f := benchFabric(kind, SharedEngines(eng, benchGPNs), CoalesceConfig{}, 0)
			h := sim.HandlerFunc(func() {})
			return func() error {
				f.Send(0, benchGPNs/2, 8, h)
				return eng.RunUntilQuiet(0)
			}
		}})
		// The sharded path: Send parks the message in the source
		// shard's outbox, Exchange recomputes the route and schedules
		// the delivery on the destination shard.
		paths = append(paths, hotPath{name: "exchange_" + kind.String(), messages: 1, setup: func() func() error {
			engines := make([]*sim.Engine, benchGPNs)
			for i := range engines {
				engines[i] = sim.NewEngine()
			}
			f := benchFabric(kind, engines, CoalesceConfig{}, 0)
			h := sim.HandlerFunc(func() {})
			return func() error {
				f.Send(0, benchGPNs/2, 8, h)
				if _, err := f.Exchange(); err != nil {
					return err
				}
				return engines[benchGPNs/2].RunUntilQuiet(0)
			}
		}})
	}
	return paths
}

// BenchmarkHotPaths reports ns per message on each fabric hot path.
func BenchmarkHotPaths(b *testing.B) {
	for _, p := range hotPaths() {
		b.Run(p.name, func(b *testing.B) {
			step := p.setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p.messages), "ns/msg")
		})
	}
}

// TestHotPathsAllocationFree is the fabric's allocation gate: after one
// warm-up step fills the event pools, no hot path may allocate.
func TestHotPathsAllocationFree(t *testing.T) {
	for _, p := range hotPaths() {
		t.Run(p.name, func(t *testing.T) {
			step := p.setup()
			var err error
			if allocs := testing.AllocsPerRun(100, func() { err = step() }); allocs != 0 {
				t.Errorf("%.0f allocs per step, want 0", allocs)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
