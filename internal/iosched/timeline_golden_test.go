package iosched_test

// Timeline golden for the baseline schedulers: the native FIFO, the
// two cgroups blkio modes and the non-work-conserving reservation run
// the conformance workload on a flat device and on the HDD and SSD
// curves. A sha256 over every probe event (kind, virtual time, app,
// sequence number, queue depth, in-flight count, latency, weight) and
// over the final per-app Accounting pins their observable behaviour,
// so a refactor of their shared code paths has to keep every event
// bit-identical.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/sim"
	"ibis/internal/storage"
)

// timelineProbe folds every probe event into a sha256.
type timelineProbe struct {
	h   hash.Hash
	buf [8]byte
}

func (p *timelineProbe) u64(v uint64) {
	binary.LittleEndian.PutUint64(p.buf[:], v)
	p.h.Write(p.buf[:])
}

func (p *timelineProbe) f64(v float64) { p.u64(math.Float64bits(v)) }

func (p *timelineProbe) str(s string) {
	p.u64(uint64(len(s)))
	p.h.Write([]byte(s))
}

func (p *timelineProbe) Observe(req *iosched.Request, st iosched.ProbeState) {
	p.u64(uint64(st.Event))
	p.f64(st.Time)
	p.str(string(req.App))
	p.u64(req.Seq())
	p.u64(uint64(st.Queued))
	p.u64(uint64(st.InFlight))
	p.f64(st.Latency)
	p.f64(req.Weight())
}

// account folds the final per-app service counters and the clock.
func (p *timelineProbe) account(acct *iosched.Accounting, now float64) {
	for _, app := range acct.Apps() {
		svc := acct.Service(app)
		p.str(string(app))
		p.f64(svc.Bytes)
		p.f64(svc.Cost)
		p.u64(svc.Requests)
		for _, b := range svc.ByClass {
			p.f64(b)
		}
	}
	p.f64(now)
}

func TestConformanceTimelineGolden(t *testing.T) {
	specs := []storage.Spec{conformSpec(), storage.HDDSpec(), storage.SSDSpec()}
	want := map[string]string{
		"fifo/flat":             "17f7cc74829b78c8c8018ececbae528b2fb9fe2c9b99658f78c26c6e0d2c1681",
		"fifo/hdd":              "a14d5689a91f46b5351dc8be39a4e2a32f6a34aed2134fed41a0d9470c249dfe",
		"fifo/ssd":              "bf88bbeb1f99e50eec80d0b5f0be67c8841cf1baefb1fabbcfb8f2d3cbfa20d1",
		"cgroups-weight/flat":   "104f2cf60da306fd02715c79153682f6ed29a2cec16179349fc726f697da2f92",
		"cgroups-weight/hdd":    "9b1b9be246b78df7bb68f8d6d9c93e3b55afc05dbdbc5dbe26d99c5e72106069",
		"cgroups-weight/ssd":    "3d15bd47f1a88e168806f5633e4fca027463174f6ab669159d4cfdc7ff640fdc",
		"cgroups-throttle/flat": "f10d0634cc072c4b7c9d8d09ff4278df38b9e8df86301e6bfbd98143efb4c1c2",
		"cgroups-throttle/hdd":  "0937a8e6b350dce341fe25ff1d214073eb62fac149c33767eec2211bf57f3c85",
		"cgroups-throttle/ssd":  "5b6ab4b18efed6d04cb1f0578ef1d8ae0690c8fe880703d5d5e59a9283c3d068",
		"reservation/flat":      "43f53ccf2ebf1b664c7b0a1d32d104d431580b2431dd2f2d82e86eda3ebf3512",
		"reservation/hdd":       "5a5fddb47e649a91480c25febce1e26e92571135e5bb34bcc5a309c49f75786b",
		"reservation/ssd":       "15c2e9950b6f6e5f596dff86a7dca8ec16cedd8e01346430a8b68d47afe732dc",
	}
	for _, tc := range conformCases() {
		for _, spec := range specs {
			key := tc.name + "/" + spec.Name
			exp, ok := want[key]
			if !ok {
				continue
			}
			delete(want, key)
			t.Run(key, func(t *testing.T) {
				eng := sim.NewEngine()
				dev := storage.NewDevice(eng, "d", spec)
				s, err := tc.build(eng, dev)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				p := &timelineProbe{h: sha256.New()}
				s.SetProbe(p)
				conformanceWorkload(t, eng, s, tc.name)
				eng.Run()
				p.account(s.Accounting(), eng.Now())
				if got := fmt.Sprintf("%x", p.h.Sum(nil)); got != exp {
					t.Errorf("timeline digest %s, want %s", got, exp)
				}
			})
		}
	}
	for key := range want {
		t.Errorf("%s: no such scheduler or device", key)
	}
}
