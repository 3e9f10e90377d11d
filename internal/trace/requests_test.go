package trace_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/trace"
)

// runMixedTraced drives one shard's SFQ(D=2) scheduler (labeled node =
// shard) on its own engine with reads and writes from two apps, one
// submission every 11 ms (about one service time) from offset on.
func runMixedTraced(t testing.TB, tr *trace.Tracer, tree *shares.Tree, shard, nReqs int, offset float64) {
	eng := sim.NewEngine()
	s := sfqd2(t, eng, tree)
	s.SetProbe(tr.Probe(shard, shard, trace.DevLocal))
	apps := []iosched.AppID{"alpha", "beta"}
	classes := []iosched.Class{iosched.IntermediateRead, iosched.IntermediateWrite, iosched.PersistentRead}
	for i := 0; i < nReqs; i++ {
		eng.Schedule(offset+float64(i)*0.011, func() {
			s.Submit(&iosched.Request{
				AppIdx: tree.Index(apps[i%2]), Class: classes[i%3], Size: 1e6,
			})
		})
	}
	eng.Run()
}

// TestRequestsGoldenWrapped pins Requests and the Chrome trace over
// three 16-record rings that wrapped: some lifecycles start after their
// arrival was overwritten, and shards 0 and 2 tie in time.
func TestRequestsGoldenWrapped(t *testing.T) {
	tree := alphaBeta(t)
	tr := trace.New(16, tree)
	runMixedTraced(t, tr, tree, 2, 24, 0)
	runMixedTraced(t, tr, tree, 0, 24, 0)
	runMixedTraced(t, tr, tree, 1, 24, 0.0005)
	h := sha256.New()
	reqs := tr.Requests()
	unarrived := 0
	for _, r := range reqs {
		fmt.Fprintf(h, "%+v\n", r)
		if r.Arrive < 0 {
			unarrived++
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("requests=%d unarrived=%d %x\nchrome %x", len(reqs), unarrived, h.Sum(nil), sha256.Sum256(buf.Bytes()))
	if want := `requests=18 unarrived=3 4d7825a377a6c8c1b6eeb38763fd6fb31e19c1d5e202351d3c8fde8f3b8848db
chrome aab596387047d9bf69e46e96ff85c1e0e14d16d53044fe356e8771bbed36f63b`; got != want {
		t.Errorf("lifecycles:\n%s\nwant:\n%s", got, want)
	}
}
