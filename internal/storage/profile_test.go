package storage

import (
	"testing"
)

func TestProfileHDD(t *testing.T) {
	prof, err := ProfileDevice(HDDSpec(), ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.ReadLref <= 0 || prof.WriteLref <= 0 {
		t.Fatalf("references not positive: read=%v write=%v", prof.ReadLref, prof.WriteLref)
	}
	if len(prof.Read) != 16 || len(prof.Write) != 16 {
		t.Fatalf("profile points = %d/%d, want 16/16", len(prof.Read), len(prof.Write))
	}
	// Throughput should be nondecreasing up to the knee of the HDD curve.
	if prof.Read[3].Throughput <= prof.Read[0].Throughput {
		t.Fatal("read throughput did not improve with concurrency")
	}
	// Latency should grow monotonically with concurrency in a closed loop.
	for i := 1; i < len(prof.Read); i++ {
		if prof.Read[i].MeanLatency < prof.Read[i-1].MeanLatency-1e-9 {
			t.Fatalf("read latency not monotone at n=%d: %v < %v",
				i+1, prof.Read[i].MeanLatency, prof.Read[i-1].MeanLatency)
		}
	}
}

func TestProfileSSDAsymmetry(t *testing.T) {
	prof, err := ProfileDevice(SSDSpec(), ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.WriteLref <= prof.ReadLref {
		t.Fatalf("SSD WriteLref %v <= ReadLref %v; want writes slower", prof.WriteLref, prof.ReadLref)
	}
}

func TestProfileLrefBelowDeepQueueLatency(t *testing.T) {
	prof, err := ProfileDevice(HDDSpec(), ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deepest := prof.Read[len(prof.Read)-1].MeanLatency
	if prof.ReadLref >= deepest {
		t.Fatalf("ReadLref %v not below deepest-queue latency %v; the knee must come before full saturation", prof.ReadLref, deepest)
	}
}

func TestProfileMixWeighting(t *testing.T) {
	p := Profile{ReadLref: 0.010, WriteLref: 0.030}
	cases := []struct {
		frac float64
		want float64
	}{
		{1, 0.010},
		{0, 0.030},
		{0.5, 0.020},
		{-1, 0.030}, // clamped
		{2, 0.010},  // clamped
	}
	for _, c := range cases {
		if got := p.Lref(c.frac); got != c.want {
			t.Errorf("Lref(%v) = %v, want %v", c.frac, got, c.want)
		}
	}
}

func TestProfileInvalidSpec(t *testing.T) {
	if _, err := ProfileDevice(Spec{}, ProfileOptions{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestProfileOptionsDefaults(t *testing.T) {
	var o ProfileOptions
	o.defaults()
	if o.RequestSize <= 0 || o.MaxConcurrency <= 0 || o.Duration <= 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

func TestPickReferenceEmptyThroughput(t *testing.T) {
	if _, err := pickReference([]ProfilePoint{{Concurrency: 1}}, 0.9); err == nil {
		t.Fatal("pickReference accepted all-zero throughput")
	}
}
