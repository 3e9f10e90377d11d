package mapreduce

import (
	"testing"

	"ibis/internal/cluster"
)

func TestPreemptionRebalances(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	long := JobSpec{
		Name: "hog", Weight: 1,
		NumMaps: 64, DirectOutputBytes: 0, MapCPUSecPerMB: 0,
	}
	// Give each generator map a long CPU body so the hog holds slots.
	long.DirectOutputBytes = 64 * 1e6
	long.MapCPUSecPerMB = 1 // 1 s per MB → 1 s per map
	hog, _ := h.rt.Submit(long, 0)

	late := long
	late.Name = "late"
	victim, _ := h.rt.Submit(late, 2)

	h.eng.Run()
	if !hog.Done() || !victim.Done() {
		t.Fatal("jobs did not finish")
	}
	if h.rt.fair.Preempted() == 0 {
		t.Skip("no preemption was necessary (tasks drained fast enough)")
	}
}

func TestPreemptedMapRestartsCleanly(t *testing.T) {
	h := newHarness(t, cluster.Native, 2)
	// A job whose maps take long enough that a forced preemption mid-
	// flight exercises the attempt-token guards.
	spec := JobSpec{
		Name: "p", Weight: 1,
		InputBytes:     64e6,
		MapOutputBytes: 64e6,
		NumReduces:     1,
		OutputBytes:    1e6,
		MapCPUSecPerMB: 0.05,
	}
	job, _ := h.rt.Submit(spec, 0)
	// Forcefully preempt the first running map shortly after start.
	h.eng.Schedule(0.5, func() {
		for _, m := range job.maps {
			if m.state == taskRunning {
				m.preempt()
				h.rt.fair.pump()
				break
			}
		}
	})
	h.eng.Run()
	if !job.Done() {
		t.Fatal("job did not recover from preemption")
	}
	for _, m := range job.maps {
		if m.state != taskDone {
			t.Fatal("map left unfinished")
		}
	}
}

func TestFairShareComputation(t *testing.T) {
	h := newHarness(t, cluster.Native, 4) // 16 cores
	a := JobSpec{Name: "a", Weight: 1, CPUWeight: 3, NumMaps: 100, DirectOutputBytes: 100e6, MapCPUSecPerMB: 10}
	b := JobSpec{Name: "b", Weight: 1, CPUWeight: 1, NumMaps: 100, DirectOutputBytes: 100e6, MapCPUSecPerMB: 10}
	ja, _ := h.rt.Submit(a, 0)
	jb, _ := h.rt.Submit(b, 0)
	h.eng.Schedule(0.1, func() {
		shares := h.rt.fair.fairShare()
		if shares[ja] != 12 || shares[jb] != 4 {
			t.Errorf("shares = %d/%d, want 12/4 for 3:1 weights on 16 cores", shares[ja], shares[jb])
		}
		h.eng.Halt()
	})
	h.eng.Run()
}

func TestFairShareQuotaCap(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	a := JobSpec{Name: "a", Weight: 1, CPUQuota: 2, NumMaps: 50, DirectOutputBytes: 50e6, MapCPUSecPerMB: 10}
	ja, _ := h.rt.Submit(a, 0)
	h.eng.Schedule(0.1, func() {
		shares := h.rt.fair.fairShare()
		if shares[ja] != 2 {
			t.Errorf("share = %d, want quota cap 2", shares[ja])
		}
		h.eng.Halt()
	})
	h.eng.Run()
}

func TestFairShareDemandCap(t *testing.T) {
	h := newHarness(t, cluster.Native, 4)
	a := JobSpec{Name: "a", Weight: 1, NumMaps: 3, DirectOutputBytes: 3e6, MapCPUSecPerMB: 10}
	ja, _ := h.rt.Submit(a, 0)
	h.eng.Schedule(0.1, func() {
		shares := h.rt.fair.fairShare()
		if shares[ja] != 3 {
			t.Errorf("share = %d, want demand cap 3", shares[ja])
		}
		h.eng.Halt()
	})
	h.eng.Run()
}
