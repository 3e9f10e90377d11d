package trace

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/shares"
)

// put writes one lifecycle record as Observe would, with the fields a
// scheduler owns (sequence, cost, tags) given directly.
func (w Writer) put(ev iosched.ProbeEvent, t float64, app iosched.AppIdx, class iosched.Class, seq uint64, cost, stag, ftag, lat float64) {
	r := w.b.slot()
	*r = rec{
		time: t, node: w.node, dev: w.dev, event: ev, app: app, class: uint8(class),
		seq: seq, size: float64(1+seq%3) * 1e6, weight: float64(1 + app%2), cost: cost,
		startTag: stag, finishTag: ftag, vtime: stag, latency: lat,
	}
}

// bound returns a share tree that numbers apps in order.
func bound(apps ...iosched.AppID) *shares.Tree {
	tree := shares.NewTree()
	for _, app := range apps {
		tree.Index(app, iosched.NoApp)
	}
	return tree
}

// referenceRequests is the map-keyed assembly Requests is checked
// against: it groups the merged Records by (node, dev, class, app, seq)
// in first-sight order, then stable-sorts by first observed phase time,
// node, device and sequence.
func referenceRequests(t *Tracer) []RequestTrace {
	type key struct {
		node  int32
		dev   DeviceKind
		class iosched.Class
		app   iosched.AppID
		seq   uint64
	}
	idx := make(map[key]int)
	var out []RequestTrace
	for _, r := range t.Records() {
		k := key{r.Node, r.Dev, r.Class, r.App, r.Seq}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, RequestTrace{
				Node: r.Node, Dev: r.Dev, App: r.App, Class: r.Class,
				Seq: r.Seq, Size: r.Size, Weight: r.Weight,
				Arrive: -1, Dispatch: -1, Complete: -1, Latency: -1,
			})
		}
		rt := &out[i]
		if r.Cost != 0 {
			rt.Cost = r.Cost
		}
		if r.StartTag != 0 {
			rt.StartTag = r.StartTag
		}
		if r.FinishTag != 0 {
			rt.FinishTag = r.FinishTag
		}
		switch r.Event {
		case iosched.ProbeArrive:
			rt.Arrive = r.Time
		case iosched.ProbeDispatch:
			rt.Dispatch = r.Time
		case iosched.ProbeComplete:
			rt.Complete = r.Time
			rt.Latency = r.Latency
		}
	}
	first := func(r RequestTrace) float64 {
		for _, t := range []float64{r.Arrive, r.Dispatch, r.Complete} {
			if t >= 0 {
				return t
			}
		}
		return -1
	}
	slices.SortStableFunc(out, func(x, y RequestTrace) int {
		return cmp.Or(cmp.Compare(first(x), first(y)), cmp.Compare(x.Node, y.Node), cmp.Compare(x.Dev, y.Dev), cmp.Compare(x.Seq, y.Seq))
	})
	return out
}

// FuzzTraceRequests drives random record streams into one to three
// shard rings and checks Requests against referenceRequests. Each op
// is four bytes: shard and event (degrade and recover notes included);
// node, device and app; class and sequence; time step and the cost and
// tag values. Small sequence and node ranges make lifecycles recur and
// collide across nodes, apps, classes and shards; quarter-second steps
// on per-shard clocks make cross-shard time ties; rings of 1 to 32
// records wrap.
func FuzzTraceRequests(f *testing.F) {
	f.Add(uint8(2), uint8(3), []byte("\x00\x00\x00\x01\x04\x00\x00\x01\x08\x00\x00\x01\x01\x00\x00\x00\x05\x00\x00\x00"))
	f.Add(uint8(3), uint8(1), []byte("\x00\x11\x09\x04\x01\x22\x0a\x00\x0e\x11\x09\x06\x09\x12\x11\x00\x10\x11\x09\x03\x02\x00\x00\x00"))
	f.Add(uint8(1), uint8(5), []byte("\x00\x05\x18\x02\x04\x05\x18\x05\x08\x05\x18\x09\x00\x15\x19\x02\x04\x15\x19\x01\x08\x15\x19\x0e"))
	f.Fuzz(func(t *testing.T, shards, capLog uint8, ops []byte) {
		nShards := 1 + int(shards)%3
		tr := New(1<<(capLog%6), bound("alpha", "beta", "gamma"))
		clock := make([]float64, nShards)
		for i := 0; i+4 <= len(ops); i += 4 {
			b0, b1, b2, b3 := ops[i], ops[i+1], ops[i+2], ops[i+3]
			shard := int(b0) % nShards
			w := tr.Probe(shard, int(b1)%3, DeviceKind(b1>>2)%3).(Writer)
			clock[shard] += 0.25 * float64(b3%4)
			now := clock[shard]
			switch ev := iosched.ProbeEvent(b0>>2) % 5; ev {
			case EventDegrade, EventRecover:
				w.Note(ev, now)
			default:
				v := float64(b3 >> 2)
				w.put(ev, now, iosched.AppIdx(b1>>4)%3, iosched.Class(b2%5), uint64(b2>>3)%8, v, v/2, v*1.5, 0.1*v)
			}
		}
		got, want := tr.Requests(), referenceRequests(tr)
		if !slices.Equal(got, want) {
			t.Fatalf("Requests() differs from the reference:\n got %s\nwant %s", fmt.Sprint(got), fmt.Sprint(want))
		}
	})
}
