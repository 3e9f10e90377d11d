package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"

	"ibis/internal/sim"
)

// pb builds protobuf messages for hand-made profiles.
type pb []byte

func (b pb) uint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|wireVarint)
	return binary.AppendUvarint(b, v)
}

func (b pb) msg(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|wireBytes)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestAttributeHandBuiltProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc", "ibis/internal/iosched.(*SFQ).Submit",
		"ibis/internal/sim.(*Fabric).RunUntil", "/src/ibis/internal/sim/fabric.go",
		"runtime.gcBgMarkWorker", "main.main"}
	var p pb
	p = p.msg(profSampleType, pb(nil).uint(valueTypeType, 1).uint(2, 2))
	p = p.msg(profSampleType, pb(nil).uint(valueTypeType, 3).uint(2, 4))
	for id, name := range map[uint64]uint64{1: 5, 2: 6, 4: 9, 5: 10} {
		p = p.msg(profFunction, pb(nil).uint(functionID, id).uint(functionName, name))
	}
	p = p.msg(profFunction, pb(nil).uint(functionID, 3).uint(functionName, 7).uint(functionFilename, 8))
	line := func(fn uint64) []byte { return pb(nil).uint(lineFunction, fn) }
	p = p.msg(profLocation, pb(nil).uint(locationID, 1).msg(locationLine, line(1)))
	// Location 2 is SFQ.Submit inlined into Fabric.RunUntil: the inlined
	// callee comes first and owns the sample.
	p = p.msg(profLocation, pb(nil).uint(locationID, 2).msg(locationLine, line(2)).msg(locationLine, line(3)))
	p = p.msg(profLocation, pb(nil).uint(locationID, 3).msg(locationLine, line(4)))
	p = p.msg(profLocation, pb(nil).uint(locationID, 4).msg(locationLine, line(5)))
	p = p.msg(profLocation, pb(nil).uint(locationID, 5).msg(locationLine, line(3)))
	// malloc under the scheduler: the scheduler's self time.
	p = p.msg(profSample, pb(nil).msg(sampleLocationID, packed(1, 2, 4)).msg(sampleValue, packed(3, 30e6)))
	// A GC worker with no repository frame.
	p = p.msg(profSample, pb(nil).msg(sampleLocationID, packed(3)).msg(sampleValue, packed(1, 10e6)))
	// The fabric, with ids and values written unpacked.
	p = p.msg(profSample, pb(nil).uint(sampleLocationID, 5).uint(sampleLocationID, 4).
		uint(sampleValue, 2).uint(sampleValue, 20e6))
	for _, s := range strs {
		p = p.msg(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	got, err := attribute(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"iosched": 30e6, goRuntime: 10e6, "sim.fabric": 20e6}
	if len(got) != len(want) {
		t.Fatalf("attribution %v, want %v", got, want)
	}
	for m, ns := range want {
		if got[m] != ns {
			t.Errorf("%s: %d ns, want %d (all: %v)", m, got[m], ns, got)
		}
	}
}

func TestAttributeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		eng := sim.NewEngine()
		for i := 0; i < 10000; i++ {
			eng.Schedule(float64(i%97), func() {})
		}
		eng.Run()
	}
	pprof.StopCPUProfile()
	got, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got["sim.engine"] <= 0 {
		t.Fatalf("no CPU time on the event core of a loop that only runs it: %v", got)
	}
}

func TestModule(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"ibis/internal/sim.(*Engine).Run", "/r/internal/sim/engine.go", "sim.engine"},
		{"ibis/internal/sim.(*wheel).advance", "/r/internal/sim/wheel.go", "sim.engine"},
		{"ibis/internal/sim.(*Shard).post", "/r/internal/sim/fabric.go", "sim.fabric"},
		{"ibis/internal/sim.(*PSResource).Submit.func1", "/r/internal/sim/psresource.go", "sim.ps"},
		{"ibis/internal/audit.(*Deferred).Finish", "", "audit"},
		{"ibis/internal/trace", "", "trace"},
		{"runtime.mallocgc", "", ""},
		{"main.main", "", ""},
	} {
		if got := module(c.fn, c.file); got != c.want {
			t.Errorf("module(%q, %q) = %q, want %q", c.fn, c.file, got, c.want)
		}
	}
}
