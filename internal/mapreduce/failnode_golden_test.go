package mapreduce

import (
	"fmt"
	"strings"
	"testing"

	"ibis/internal/cluster"
)

// failNodeScenario is one scripted node-failure run on the 4-node test
// harness: setup submits the jobs and arms the failures.
type failNodeScenario struct {
	name   string
	policy cluster.Policy
	setup  func(h *testHarness)
	// want is the pinned outcome: one line per job, then the runtime's
	// failure and preemption counters.
	want string
}

// failAt fails node idx at virtual time t.
func failAt(h *testHarness, t float64, idx int) {
	h.eng.Schedule(t, func() { h.rt.FailNode(idx) })
}

// failWhen polls every 0.1 s and fails the node pick returns (≥ 0).
func failWhen(h *testHarness, pick func() int) {
	var arm func()
	arm = func() {
		if idx := pick(); idx >= 0 {
			h.rt.FailNode(idx)
			return
		}
		h.eng.Schedule(0.1, arm)
	}
	h.eng.Schedule(0.1, arm)
}

func mustSubmit(t *testing.T, h *testHarness, spec JobSpec, delay float64) *Job {
	t.Helper()
	j, err := h.rt.Submit(spec, delay)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// failNodeOutcome renders a finished run: every job's state and phase
// timestamps (shortest round-trip float formatting, so any drift shows)
// and the runtime counters.
func failNodeOutcome(h *testHarness) string {
	var b strings.Builder
	for _, j := range h.rt.Jobs() {
		fmt.Fprintf(&b, "%s %s mapdone=%v end=%v\n", j.Spec.Name, j.State(), j.MapDoneTime, j.EndTime)
	}
	fmt.Fprintf(&b, "failed=%d rerun=%d preempted=%d", h.rt.FailedTasks(), h.rt.RerunMaps(), h.rt.fair.Preempted())
	return b.String()
}

// TestFailNodeGolden pins the job timings and failure counters of node
// failures hitting each recovery path: the map phase, a mid-shuffle
// loss of completed map outputs, a reduce-hosting node, a failure
// during fair-share preemption of a replicated writer, the shuffle
// headroom reclaim, and two successive failures. Any change to task
// execution, cancellation or recovery semantics moves these numbers.
func TestFailNodeGolden(t *testing.T) {
	scenarios := []failNodeScenario{
		{
			name: "map-phase", policy: cluster.Native,
			want: "victim done mapdone=2.2841125913989293 end=6.045024360862601\n" +
				"failed=1 rerun=0 preempted=0",
			setup: func(h *testHarness) {
				mustSubmit(t, h, failureSpec(), 0)
				failAt(h, 1, 2)
			},
		},
		{
			name: "mid-shuffle", policy: cluster.Native,
			want: "victim done mapdone=5.213734596667471 end=11.985586025311974\n" +
				"failed=0 rerun=4 preempted=0",
			setup: func(h *testHarness) {
				spec := failureSpec()
				spec.InputBytes = 512e6
				spec.MapOutputBytes = 512e6
				job := mustSubmit(t, h, spec, 0)
				failWhen(h, func() int {
					if job.MapsDone() >= job.NumMaps()/2 {
						return 1
					}
					return -1
				})
			},
		},
		{
			name: "reduce-host", policy: cluster.SFQD,
			want: "victim done mapdone=2.1040000000000005 end=5.1820213675213695\n" +
				"failed=4 rerun=1 preempted=0",
			setup: func(h *testHarness) {
				job := mustSubmit(t, h, failureSpec(), 0)
				failWhen(h, func() int {
					for _, r := range job.reduces {
						if r.state == taskRunning {
							return r.node.Index
						}
					}
					return -1
				})
			},
		},
		{
			name: "preemption", policy: cluster.SFQD2,
			want: "gen done mapdone=31.78354593367795 end=31.78354593367795\n" +
				"victim done mapdone=20.981923043851623 end=25.71831812362935\n" +
				"failed=4 rerun=1 preempted=8",
			setup: func(h *testHarness) {
				mustSubmit(t, h, JobSpec{
					Name: "gen", Weight: 1,
					NumMaps: 16, DirectOutputBytes: 4e9, MapCPUSecPerMB: 0.002,
				}, 0)
				spec := failureSpec()
				spec.InputBytes = 512e6
				spec.MapOutputBytes = 512e6
				mustSubmit(t, h, spec, 2)
				failAt(h, 9, 3)
			},
		},
		{
			name: "headroom", policy: cluster.Native,
			want: "victim done mapdone=10.19297165286203 end=13.702990012023983\n" +
				"failed=3 rerun=4 preempted=0",
			setup: func(h *testHarness) {
				spec := failureSpec()
				spec.InputBytes = 1e9
				spec.MapOutputBytes = 1e9
				spec.NumReduces = 8
				spec.MapCPUSecPerMB = 0.05
				job := mustSubmit(t, h, spec, 0)
				failWhen(h, func() int {
					running := 0
					for _, r := range job.reduces {
						if r.state == taskRunning {
							running++
						}
					}
					if running >= 5 {
						return 0
					}
					return -1
				})
			},
		},
		{
			name: "two-failures", policy: cluster.Native,
			want: "victim failed mapdone=1.9523443147385438 end=4\n" +
				"failed=2 rerun=10 preempted=0",
			setup: func(h *testHarness) {
				spec := failureSpec()
				spec.InputBytes = 512e6
				spec.MapOutputBytes = 512e6
				mustSubmit(t, h, spec, 0)
				failAt(h, 2, 0)
				failAt(h, 4, 1)
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			h := newHarness(t, sc.policy, 4)
			sc.setup(h)
			h.eng.Run()
			if got := failNodeOutcome(h); got != sc.want {
				t.Errorf("outcome drifted:\ngot:\n%s\nwant:\n%s", got, sc.want)
			}
		})
	}
}
