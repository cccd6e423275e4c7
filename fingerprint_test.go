package nova_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"nova"
	"nova/internal/harness"
	"nova/internal/sim"
	"nova/internal/stats"
)

// knob is one option-struct field under test: needs sets the fields it
// depends on (applied to both sides), set gives it a valid non-default
// value.
type knob[T any] struct {
	needs func(*T)
	set   func(*T)
}

// checkFingerprintCoversKnobs asserts that every field of T is either in
// knobs — and then setting it changes the fingerprint — or in hostOnly.
// A field added to T without a case fails the test.
func checkFingerprintCoversKnobs[T any](t *testing.T, fp func(T) string, knobs map[string]knob[T], hostOnly ...string) {
	t.Helper()
	typ := reflect.TypeOf(*new(T))
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		k, ok := knobs[name]
		if !ok {
			if !contains(hostOnly, name) {
				t.Errorf("%s.%s: no fingerprint case; add one, or list it as host-only if it cannot change a result", typ.Name(), name)
			}
			continue
		}
		var base T
		if k.needs != nil {
			k.needs(&base)
		}
		changed := base
		k.set(&changed)
		if fp(base) == fp(changed) {
			t.Errorf("%s.%s: fingerprint unchanged by a non-default value: %s", typ.Name(), name, fp(base))
		}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func novaFingerprint(t *testing.T) func(nova.Config) string {
	return func(c nova.Config) string {
		t.Helper()
		acc, err := nova.New(c)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		return acc.Engine().Fingerprint()
	}
}

func TestFingerprintCoversEveryKnob(t *testing.T) {
	ooc := func(c *nova.Config) { c.OutOfCore = true }
	checkFingerprintCoversKnobs(t, novaFingerprint(t), map[string]knob[nova.Config]{
		"GPNs":                {set: func(c *nova.Config) { c.GPNs = 2 }},
		"PEsPerGPN":           {set: func(c *nova.Config) { c.PEsPerGPN = 4 }},
		"CacheBytesPerPE":     {set: func(c *nova.Config) { c.CacheBytesPerPE = 4 << 10 }},
		"SuperblockDim":       {set: func(c *nova.Config) { c.SuperblockDim = 64 }},
		"ActiveBufferEntries": {set: func(c *nova.Config) { c.ActiveBufferEntries = 16 }},
		"Spill":               {set: func(c *nova.Config) { c.Spill = "fifo" }},
		"Fabric":              {set: func(c *nova.Config) { c.Fabric = "ideal" }},
		"Topology":            {needs: func(c *nova.Config) { c.GPNs = 4 }, set: func(c *nova.Config) { c.Topology = "ring" }},
		"CoalesceWindow":      {set: func(c *nova.Config) { c.CoalesceWindow = 16 }},
		"CoalesceCapacity":    {needs: func(c *nova.Config) { c.CoalesceWindow = 16 }, set: func(c *nova.Config) { c.CoalesceCapacity = 8 }},
		"OutOfCore":           {set: ooc},
		"SSDPreset":           {needs: ooc, set: func(c *nova.Config) { c.SSDPreset = "sata" }},
		"SSDResidentPages":    {needs: ooc, set: func(c *nova.Config) { c.SSDResidentPages = 64 }},
		"Mapping":             {set: func(c *nova.Config) { c.Mapping = "interleave" }},
		"Seed":                {set: func(c *nova.Config) { c.Seed = 7 }},
		"MaxEvents":           {set: func(c *nova.Config) { c.MaxEvents = 1000 }},
	}, "StallTimeout", "Shards", "Observer")

	checkFingerprintCoversKnobs(t, func(b nova.PolyGraphBaseline) string { return b.Engine().Fingerprint() },
		map[string]knob[nova.PolyGraphBaseline]{
			"OnChipBytes":  {set: func(b *nova.PolyGraphBaseline) { b.OnChipBytes = 1 << 12 }},
			"MemBandwidth": {set: func(b *nova.PolyGraphBaseline) { b.MemBandwidth = 100e9 }},
			"ForceSlices":  {set: func(b *nova.PolyGraphBaseline) { b.ForceSlices = 3 }},
		})
	checkFingerprintCoversKnobs(t, func(s nova.Software) string { return s.Engine().Fingerprint() },
		map[string]knob[nova.Software]{
			"Threads": {set: func(s *nova.Software) { s.Threads = 2 }},
		})
	checkFingerprintCoversKnobs(t, func(b nova.ExternalMemory) string { return b.Engine().Fingerprint() },
		map[string]knob[nova.ExternalMemory]{
			"RAMBytes":       {set: func(b *nova.ExternalMemory) { b.RAMBytes = 4 << 10 }},
			"PartitionEdges": {set: func(b *nova.ExternalMemory) { b.PartitionEdges = 64 }},
			"SSDPreset":      {set: func(b *nova.ExternalMemory) { b.SSDPreset = "sata" }},
			"MaxRounds":      {set: func(b *nova.ExternalMemory) { b.MaxRounds = 5 }},
		})
}

// TestFingerprintResolvesDefaults: configurations that resolve to the
// same machine share a fingerprint, so they share novad's cache entries.
func TestFingerprintResolvesDefaults(t *testing.T) {
	fp := novaFingerprint(t)
	want := fp(nova.Config{})
	for name, c := range map[string]nova.Config{
		"DefaultConfig": nova.DefaultConfig(),
		"PEsPerGPN 8":   {PEsPerGPN: 8},
		"Seed 1":        {Seed: 1},
		"GPNs 1":        {GPNs: 1},
	} {
		if got := fp(c); got != want {
			t.Errorf("%s: fingerprint %s, want the zero config's %s", name, got, want)
		}
	}
	if a, b := fp(nova.Config{OutOfCore: true}), fp(nova.Config{OutOfCore: true, SSDResidentPages: 1024, SSDPreset: "nvme"}); a != b {
		t.Errorf("out-of-core defaults spelled out: fingerprint %s, want %s", b, a)
	}
}

// TestFingerprintStableAcrossBuilds: equal configurations built
// separately render equal fingerprints, so no pointer or other
// per-instance value leaks into the rendering.
func TestFingerprintStableAcrossBuilds(t *testing.T) {
	build := func() []harness.Engine {
		cfg := smallConfig()
		cfg.OutOfCore = true
		cfg.Observer = sim.NewInterrupt()
		acc, err := nova.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return []harness.Engine{
			acc.Engine(),
			(&nova.PolyGraphBaseline{OnChipBytes: 1 << 12}).Engine(),
			(&nova.Software{Threads: 2}).Engine(),
			(&nova.ExternalMemory{RAMBytes: 4 << 10, SSDPreset: "sata"}).Engine(),
		}
	}
	a, b := build(), build()
	for i := range a {
		if a[i].Fingerprint() != b[i].Fingerprint() {
			t.Errorf("%s: fingerprints differ across builds:\n%s\n%s", a[i].Name(), a[i].Fingerprint(), b[i].Fingerprint())
		}
		if strings.Contains(a[i].Fingerprint(), "0x") {
			t.Errorf("%s: fingerprint renders a pointer: %s", a[i].Name(), a[i].Fingerprint())
		}
	}
}

// TestHostOnlyKnobsLeaveResultsAlone: Shards, StallTimeout and Observer
// change neither the fingerprint nor a single deterministic stat.
func TestHostOnlyKnobsLeaveResultsAlone(t *testing.T) {
	g := testGraph()
	w := harness.Workload{Name: "sssp", G: g, Root: g.LargestOutDegreeVertex()}
	run := func(cfg nova.Config) (string, string) {
		t.Helper()
		acc, err := nova.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := acc.Engine()
		rep, err := eng.RunWorkload(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Fingerprint(), deterministic(rep.Dump)
	}
	base := smallConfig()
	wantFP, wantDump := run(base)
	for name, edit := range map[string]func(*nova.Config){
		"Shards":       func(c *nova.Config) { c.Shards = 2 },
		"StallTimeout": func(c *nova.Config) { c.StallTimeout = time.Hour },
		"Observer":     func(c *nova.Config) { c.Observer = sim.NewInterrupt() },
	} {
		cfg := base
		edit(&cfg)
		fp, dump := run(cfg)
		if fp != wantFP {
			t.Errorf("%s changed the fingerprint:\n%s\n%s", name, fp, wantFP)
		}
		if dump != wantDump {
			t.Errorf("%s changed the deterministic dump", name)
		}
	}
}

// deterministic renders the dump's non-volatile records.
func deterministic(d *stats.Dump) string {
	var b strings.Builder
	for _, r := range d.Records {
		if !r.Volatile {
			fmt.Fprintf(&b, "%s=%v\n", r.Path, r.Value)
		}
	}
	return b.String()
}

// TestNegativeKnobsRejected: a negative size or count is an error naming
// the field, not a silent fall-back to the default.
func TestNegativeKnobsRejected(t *testing.T) {
	ooc := nova.Config{OutOfCore: true}
	for _, c := range []struct {
		field string
		cfg   nova.Config
	}{
		{"GPNs", nova.Config{GPNs: -1}},
		{"PEsPerGPN", nova.Config{PEsPerGPN: -1}},
		{"CacheBytesPerPE", nova.Config{CacheBytesPerPE: -4096}},
		{"SuperblockDim", nova.Config{SuperblockDim: -7}},
		{"ActiveBufferEntries", nova.Config{ActiveBufferEntries: -3}},
		{"CoalesceWindow", nova.Config{CoalesceWindow: -1}},
		{"CoalesceCapacity", nova.Config{CoalesceWindow: 16, CoalesceCapacity: -2}},
		{"SSDResidentPages", func() nova.Config { c := ooc; c.SSDResidentPages = -5; return c }()},
		{"Shards", nova.Config{Shards: -1}},
	} {
		_, err := nova.New(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("nova.Config.%s negative: err = %v, want an error naming the field", c.field, err)
		}
	}

	g := testGraph()
	w := harness.Workload{Name: "bfs", G: g, Root: g.LargestOutDegreeVertex()}
	for _, c := range []struct {
		field string
		v     interface {
			Validate() error
			Engine() harness.Engine
		}
	}{
		{"OnChipBytes", &nova.PolyGraphBaseline{OnChipBytes: -1}},
		{"MemBandwidth", &nova.PolyGraphBaseline{MemBandwidth: -1}},
		{"ForceSlices", &nova.PolyGraphBaseline{ForceSlices: -1}},
		{"Threads", &nova.Software{Threads: -1}},
		{"RAMBytes", &nova.ExternalMemory{RAMBytes: -1}},
		{"PartitionEdges", &nova.ExternalMemory{PartitionEdges: -1}},
		{"MaxRounds", &nova.ExternalMemory{MaxRounds: -1}},
	} {
		if err := c.v.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%T.%s negative: Validate() = %v, want an error naming the field", c.v, c.field, err)
		}
		if _, err := c.v.Engine().RunWorkload(context.Background(), w); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%T.%s negative: RunWorkload error = %v, want an error naming the field", c.v, c.field, err)
		}
	}
}
