package audit_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ibis/internal/audit"
	"ibis/internal/broker"
	"ibis/internal/iosched"
	"ibis/internal/shares"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/trace"
)

// Property tests: for randomized weight mixes (3–8 apps, weights 1–64)
// of continuously backlogged flows on HDD and SSD device models, the
// audit layer's proportional-share invariants must hold under SFQ(D),
// SFQ(D2), and coordinated SFQ(D) — and must actually be evaluated,
// not skipped for eligibility reasons. Every failure message carries
// the trial seed for deterministic replay.

type propPolicy int

const (
	propSFQD propPolicy = iota
	propSFQD2
	propCoordinate
)

func (p propPolicy) String() string {
	switch p {
	case propSFQD:
		return "sfqd"
	case propSFQD2:
		return "sfqd2"
	default:
		return "coordinate"
	}
}

// profileCache memoizes device profiling (it runs a calibration sim).
var (
	profileMu    sync.Mutex
	profileCache = map[string]storage.Profile{}
)

func profileFor(t *testing.T, spec storage.Spec) storage.Profile {
	t.Helper()
	profileMu.Lock()
	defer profileMu.Unlock()
	if p, ok := profileCache[spec.Name]; ok {
		return p
	}
	p, err := storage.ProfileDevice(spec, storage.ProfileOptions{})
	if err != nil {
		t.Fatalf("profiling %s: %v", spec.Name, err)
	}
	profileCache[spec.Name] = p
	return p
}

// runShareTrial builds one randomized backlogged-flows scenario and
// returns the auditor after the run.
func runShareTrial(t *testing.T, seed int64, pol propPolicy, spec storage.Spec) *audit.Auditor {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nApps := 3 + rng.Intn(6) // 3..8 apps
	type flow struct {
		app    iosched.AppID
		weight float64
		size   float64
	}
	flows := make([]flow, nApps)
	for i := range flows {
		flows[i] = flow{
			app:    iosched.AppID(fmt.Sprintf("app%02d", i)),
			weight: float64(1 + rng.Intn(64)),
			size:   (0.25 + rng.Float64()*0.75) * 1e6,
		}
	}

	const (
		horizon     = 24.0 // virtual seconds
		window      = 4.0  // audit window
		brokPeriod  = 0.5
		staticDepth = 4
	)
	tree := shares.NewTree()
	for _, f := range flows {
		if err := tree.Bind(f.app, "", f.weight); err != nil {
			t.Fatal(err)
		}
	}
	eng := sim.NewEngine()
	au := audit.New(audit.Options{Window: window, CoordinationPeriod: brokPeriod}, tree)

	newSched := func(name string) *iosched.SFQ {
		dev := storage.NewDevice(eng, name, spec)
		if pol == propSFQD2 {
			prof := profileFor(t, spec)
			s, err := iosched.NewSFQD2(eng, dev, iosched.ControllerConfig{
				ReadLref:  prof.ReadLref,
				WriteLref: prof.WriteLref,
				MaxDepth:  8,
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s, err := iosched.NewSFQD(eng, dev, staticDepth)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	var scheds []*iosched.SFQ
	if pol == propCoordinate {
		s1, s2 := newSched("d1"), newSched("d2")
		b := broker.New()
		s1.SetCoordinator(broker.NewClient(eng, "n1", s1.Accounting(), broker.ClientOptions{Transport: broker.NewDirectTransport(b), Period: brokPeriod}))
		s2.SetCoordinator(broker.NewClient(eng, "n2", s2.Accounting(), broker.ClientOptions{Transport: broker.NewDirectTransport(b), Period: brokPeriod}))
		au.AttachBroker(0, b)
		scheds = []*iosched.SFQ{s1, s2}
	} else {
		scheds = []*iosched.SFQ{newSched("d1")}
	}
	// Coordination is detected at probe-attach time, so probes go on
	// after any SetCoordinator call.
	for i, s := range scheds {
		s.SetProbe(au.Probe(0, i, trace.DevHDFS, s))
	}

	// Keep every flow continuously backlogged at every scheduler:
	// outstanding strictly above the (maximum) dispatch depth so the
	// wait queue never empties while the trial runs.
	outstanding := 2 * staticDepth
	if pol == propSFQD2 {
		outstanding = 16 // above the controller's MaxDepth of 8
	}
	for _, s := range scheds {
		s := s
		for _, f := range flows {
			f := f
			var issue func()
			issue = func() {
				s.Submit(&iosched.Request{
					App: f.app, Shares: tree, Class: iosched.PersistentRead, Size: f.size,
					Done: func(any, float64) {
						if eng.Now() < horizon {
							issue()
						}
					},
				})
			}
			for i := 0; i < outstanding; i++ {
				issue()
			}
		}
	}

	eng.RunUntil(horizon)
	au.Finish()
	return au
}

func assertCleanAndExercised(t *testing.T, au *audit.Auditor, seed int64, shareInv string) {
	t.Helper()
	if err := au.Err(); err != nil {
		for _, v := range au.Violations() {
			t.Logf("violation: %s", v)
		}
		t.Fatalf("audit failed (replay with seed %d): %v", seed, err)
	}
	checks := au.Checks()
	if checks[shareInv] == 0 {
		t.Fatalf("%s never evaluated (replay with seed %d): checks=%v", shareInv, seed, checks)
	}
}

func TestPropertyProportionalShare(t *testing.T) {
	devices := []struct {
		name string
		spec storage.Spec
	}{
		{"hdd", storage.HDDSpec()},
		{"ssd", storage.SSDSpec()},
	}
	for _, pol := range []propPolicy{propSFQD, propSFQD2, propCoordinate} {
		pol := pol
		for _, dev := range devices {
			dev := dev
			for trial := 0; trial < 3; trial++ {
				seed := int64(1000*int(pol) + 100*trial + len(dev.name))
				t.Run(fmt.Sprintf("%s/%s/seed%d", pol, dev.name, seed), func(t *testing.T) {
					t.Parallel()
					au := runShareTrial(t, seed, pol, dev.spec)
					inv := "proportional-share"
					if pol == propCoordinate {
						inv = "total-proportional-share"
					}
					assertCleanAndExercised(t, au, seed, inv)
					if pol == propCoordinate && au.Checks()["broker-conservation"] == 0 {
						t.Fatalf("broker-conservation never evaluated (replay with seed %d)", seed)
					}
				})
			}
		}
	}
}
