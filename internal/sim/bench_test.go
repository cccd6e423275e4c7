package sim

import (
	"fmt"
	"testing"
)

// ticker is the pre-allocated recurring-event pattern every converted
// component uses: one Handler struct, one Event, Reschedule per cycle.
type ticker struct {
	e   *Engine
	ev  *Event
	n   int
	max int
}

func (t *ticker) Fire() {
	t.n++
	if t.n < t.max {
		t.e.Reschedule(t.ev, t.e.Now()+1)
	}
}

// newTickers builds n idle tickers on e, each firing max times once armed.
func newTickers(e *Engine, n, max int) []*ticker {
	ts := make([]*ticker, n)
	for j := range ts {
		ts[j] = &ticker{e: e, max: max}
		ts[j].ev = NewEvent(ts[j])
	}
	return ts
}

// arm (re)starts the tickers, ticker j first firing j ticks from its
// engine's current time.
func arm(ts []*ticker) {
	for j, t := range ts {
		t.n = 0
		t.e.ScheduleEvent(t.ev, Ticks(j))
	}
}

func noExchange() (int, error) { return 0, nil }

// hotPath is one kernel path that must stay allocation-free in steady
// state. setup builds the fixture once and returns one step; events is
// how many events a step executes.
type hotPath struct {
	name   string
	events int
	setup  func(tb testing.TB) func() error
}

// hotPaths lists every kernel hot path. BenchmarkHotPaths times them and
// TestHotPathsAllocationFree asserts their steps allocate nothing.
func hotPaths() []hotPath {
	return []hotPath{
		{name: "event_reschedule", events: 64, setup: func(testing.TB) func() error {
			e := NewEngine()
			ts := newTickers(e, 1, 64)
			return func() error {
				arm(ts)
				return e.RunUntilQuiet(0)
			}
		}},
		{name: "schedule_deschedule", events: 1, setup: func(testing.TB) func() error {
			e := NewEngine()
			h := HandlerFunc(func() {})
			return func() error {
				e.Deschedule(e.Schedule(1000, h))
				return nil
			}
		}},
		{name: "reschedule_pending", events: 1, setup: func(testing.TB) func() error {
			e := NewEngine()
			ev := NewEvent(HandlerFunc(func() {}))
			e.ScheduleEvent(ev, 1000)
			var i Ticks
			return func() error {
				i ^= 1
				e.Reschedule(ev, 1000+i)
				return nil
			}
		}},
		{name: "fan_out_64", events: 64, setup: func(testing.TB) func() error {
			e := NewEngine()
			h := HandlerFunc(func() {})
			return func() error {
				for j := 0; j < 64; j++ {
					e.Schedule(Ticks(j%8), h)
				}
				return e.RunUntilQuiet(0)
			}
		}},
		clusterPath(1, 1, 1, 256),
		clusterPath(4, 1, 64, 256),
		clusterPath(4, 4, 64, 256),
	}
}

// clusterPath runs gpns engines of tickersPer tickers each, every ticker
// firing firings times per step, under one Cluster with the
// crossbar-default lookahead of 120 ticks. One engine isolates the
// single-engine fast path against the raw kernel; 64 tickers per engine
// approximate a loaded GPN (7680 events per window), so the multi-worker
// steps amortize the barrier the way a real window does.
func clusterPath(gpns, workers, tickersPer, firings int) hotPath {
	return hotPath{
		name:   fmt.Sprintf("cluster_%dengines_%dworkers", gpns, workers),
		events: gpns * tickersPer * firings,
		setup: func(tb testing.TB) func() error {
			engines := make([]*Engine, gpns)
			var ts []*ticker
			for i := range engines {
				engines[i] = NewEngine()
				ts = append(ts, newTickers(engines[i], tickersPer, firings)...)
			}
			cl, err := NewCluster(engines, 120, workers)
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(cl.Close)
			return func() error {
				arm(ts)
				return cl.Run(0, noExchange)
			}
		},
	}
}

// BenchmarkHotPaths reports ns per simulated event on each kernel hot
// path — the figure that bounds how large a graph the cycle-level model
// can simulate per second.
func BenchmarkHotPaths(b *testing.B) {
	for _, p := range hotPaths() {
		b.Run(p.name, func(b *testing.B) {
			step := p.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p.events), "ns/event")
		})
	}
}

// TestHotPathsAllocationFree is the kernel's allocation gate: after one
// warm-up step fills the event pool and sizes the heap, no hot path may
// allocate.
func TestHotPathsAllocationFree(t *testing.T) {
	for _, p := range hotPaths() {
		t.Run(p.name, func(t *testing.T) {
			step := p.setup(t)
			var err error
			if allocs := testing.AllocsPerRun(20, func() { err = step() }); allocs != 0 {
				t.Errorf("%.0f allocs per step, want 0", allocs)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
