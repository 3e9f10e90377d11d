package iosched

// Native fuzz target for the Submit/Dispatch tag arithmetic. The fuzzer
// drives an SFQ scheduler — plain SFQ(D) or SFQ(D2), optionally under a
// monotone fake coordinator exercising the DSFQ delay rule — with an
// arbitrary byte-stream-decoded workload, and checks the invariants the
// property tests pin on curated inputs:
//
//   - F = S + cost/w for every tagged request (within float slack);
//   - per-flow start tags never regress;
//   - the scheduler's virtual time never regresses;
//   - every submitted request completes exactly once and the queue
//     fully drains;
//   - accounting totals equal the submitted totals.
//
// Seeds mirror the existing property-test corpora: random weights,
// random sizes, random classes, bursts and trickles.

import (
	"math"
	"testing"

	"ibis/internal/sim"
	"ibis/internal/storage"
)

// rampCoord is a deterministic monotone Coordinator: other-node service
// grows with each query, exercising the DSFQ delay path without a
// broker.
type rampCoord struct {
	step  float64
	total map[AppID]float64
}

func (f *rampCoord) OtherService(app AppID, _ AppIdx) float64 {
	if f.total == nil {
		f.total = make(map[AppID]float64)
	}
	f.total[app] += f.step
	return f.total[app]
}

// tagChecker validates tag arithmetic from the probe stream.
type tagChecker struct {
	t         *testing.T
	lastStart map[AppIdx]float64
	lastVTime float64
	completed int
}

func (tc *tagChecker) Observe(req *Request, st ProbeState) {
	switch st.Event {
	case ProbeArrive:
		s, fin := req.StartTag(), req.FinishTag()
		w := req.Weight()
		if w <= 0 {
			tc.t.Fatalf("non-positive weight %v", w)
		}
		wantF := s + req.Cost()/w
		if math.Abs(fin-wantF) > 1e-6*math.Max(1, math.Abs(wantF)) {
			tc.t.Fatalf("finish tag %v != start %v + cost/w %v", fin, s, wantF)
		}
		if last, ok := tc.lastStart[req.AppIdx]; ok && s < last-1e-9 {
			tc.t.Fatalf("flow %d start tag regressed: %v after %v", req.AppIdx, s, last)
		}
		tc.lastStart[req.AppIdx] = s
	case ProbeDispatch:
		if st.VTime < tc.lastVTime-1e-9 {
			tc.t.Fatalf("virtual time regressed: %v after %v", st.VTime, tc.lastVTime)
		}
		tc.lastVTime = st.VTime
	case ProbeComplete:
		tc.completed++
	}
}

func FuzzSFQTags(f *testing.F) {
	// Seeds shaped like the property-test corpora.
	f.Add(uint8(4), false, false, []byte{0x01, 0x40, 0x10, 0x82, 0x33, 0x05})
	f.Add(uint8(1), true, false, []byte{0xff, 0x00, 0x7f, 0x80, 0x01, 0x02, 0x03})
	f.Add(uint8(8), false, true, []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80})
	f.Add(uint8(2), true, true, []byte{0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe})
	f.Fuzz(func(t *testing.T, depthRaw uint8, adaptive, coordinated bool, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		eng := sim.NewEngine()
		dev := storage.NewDevice(eng, "d", storage.Spec{
			Name: "flat", ReadBW: 100e6, WriteBW: 100e6,
			Curve: []float64{1}, CurveDecay: 1, MinCurve: 1,
		})
		var s *SFQ
		if adaptive {
			s = mustSFQD2(t, eng, dev, ControllerConfig{ReadLref: 0.02})
		} else {
			s = mustSFQD(t, eng, dev, 1+int(depthRaw%16))
		}
		if coordinated {
			s.SetCoordinator(&rampCoord{step: 1e5})
		}
		tc := &tagChecker{t: t, lastStart: make(map[AppIdx]float64)}
		s.SetProbe(tc)

		apps := []AppID{"A", "B", "C", "D"}
		weights := []float64{1, 2, 4, 7.5}
		submitted := 0
		totalBytes := 0.0
		done := 0
		// Decode the byte stream: each op byte picks app/class/size/gap.
		at := 0.0
		for i := 0; i < len(ops); i++ {
			b := ops[i]
			app := apps[int(b)%len(apps)]
			w := weights[int(b>>2)%len(weights)]
			class := Class(int(b>>4) % 4)
			size := float64(1+int(b>>3)) * 1e5
			if b&0x80 != 0 {
				at += float64(b&0x7f) / 100
			}
			req := &Request{
				Class: class,
				Size:  size,
				Done:  DoneFunc(func(*Request, float64) { done++ }),
			}
			eng.Schedule(at, func() {
				req.AppIdx = weigh(app, w)
				if err := s.Submit(req); err != nil {
					t.Fatalf("submit rejected: %v", err)
				}
			})
			submitted++
			totalBytes += size
		}
		eng.Run()
		if done != submitted {
			t.Fatalf("completed %d of %d", done, submitted)
		}
		if tc.completed != submitted {
			t.Fatalf("probe saw %d completions of %d", tc.completed, submitted)
		}
		if s.Queued() != 0 || s.InFlight() != 0 {
			t.Fatalf("scheduler not drained: queued=%d inflight=%d", s.Queued(), s.InFlight())
		}
		var acctBytes float64
		acct := s.Accounting()
		for _, a := range acct.Apps() {
			acctBytes += acct.Service(a).Bytes
		}
		if math.Abs(acctBytes-totalBytes) > 1e-6 {
			t.Fatalf("accounting bytes %v != submitted %v", acctBytes, totalBytes)
		}
	})
}
