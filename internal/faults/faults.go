// Package faults provides deterministic, seed-driven fault injection
// for the IBIS coordination plane. A Spec describes what can go wrong —
// broker outages (full and per-client partitions), message loss, delay
// and reordering on exchange round trips, scheduler restarts that wipe
// a client's in-memory vector, and device degradation windows that
// stress the SFQ(D2) controller — and an Injector compiles it into a
// concrete schedule.
//
// Every fault is a deterministic function of (seed, sim time): windows
// and restart times are pre-generated from a seeded source at
// construction, and per-message faults are pure hashes of (seed, leg,
// client id, message sequence). Identical (seed, schedule) therefore
// produce byte-identical traces, keeping chaos tests and benches
// reproducible.
package faults

import (
	"math/rand"
	"sort"

	"ibis/internal/broker"
	"ibis/internal/iosched"
	"ibis/internal/sim"
)

// Window is a half-open virtual-time interval [Start, End).
type Window struct {
	Start, End float64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool { return t >= w.Start && t < w.End }

// Duration returns End − Start.
func (w Window) Duration() float64 { return w.End - w.Start }

// Spec describes a fault schedule. Explicit windows/times are used
// verbatim; the *Count fields additionally generate that many random
// entries from the seed. The zero value injects nothing.
type Spec struct {
	// Seed drives all schedule generation and per-message fault rolls.
	Seed int64
	// Horizon bounds generated fault start times (default 120 s).
	Horizon float64

	// Outages are full broker blackouts: every exchange fails with
	// ErrUnavailable while one is open.
	Outages       []Window
	OutageCount   int
	OutageMeanDur float64 // default 5 s

	// Partitions cut individual clients off the broker while the rest
	// of the cluster coordinates normally, keyed by client id.
	Partitions       map[string][]Window
	PartitionCount   int      // generated entries, spread over PartitionTargets
	PartitionMeanDur float64  // default 5 s
	PartitionTargets []string // required when PartitionCount > 0

	// Restarts schedule scheduler-process restarts, keyed by client id.
	Restarts       map[string][]float64
	RestartCount   int
	RestartTargets []string // required when RestartCount > 0

	// Per-message faults on exchange round trips. DropProb loses the
	// request before it reaches the broker; RespDropProb loses the
	// response after the broker applied the report; DelayProb delays a
	// response by a uniform draw from [DelayMin, DelayMax], which also
	// reorders responses across attempts.
	DropProb     float64
	RespDropProb float64
	DelayProb    float64
	DelayMin     float64
	DelayMax     float64 // default 0.5 s when DelayProb > 0

	// DeviceDegrade inflates device latency (capacity × DegradeFactor)
	// during windows, keyed by device name ("node3-hdfs").
	DeviceDegrade  map[string][]Window
	DegradeCount   int
	DegradeMeanDur float64  // default 5 s
	DegradeTargets []string // required when DegradeCount > 0
	DegradeFactor  float64  // default 0.25

	// LeaderOutages kill individual partition-broker leaders, keyed by
	// partition index (0 is the lone broker of a one-partition plane):
	// while a window is open that partition's client exchanges fail
	// with ErrUnavailable and its root syncs stop; recovery is a crash
	// recovery (a snapshot resync where there is a root).
	LeaderOutages       map[int][]Window
	LeaderOutageCount   int
	LeaderOutageMeanDur float64 // default 5 s
	LeaderTargets       []int   // required when LeaderOutageCount > 0
}

// RestartEvent is one scheduled scheduler restart.
type RestartEvent struct {
	ID string // client id
	At float64
}

// DegradeWindow is one device-degradation interval.
type DegradeWindow struct {
	Device string
	Window Window
	Factor float64
}

// Injector is a compiled fault schedule. Construction draws every
// random decision; all query methods are pure.
type Injector struct {
	seed       uint64
	outages    []Window
	partitions map[string][]Window
	restarts   []RestartEvent
	degrades   []DegradeWindow
	leaders    map[int][]Window

	dropProb, respDropProb, delayProb float64
	delayMin, delayMax                float64
}

// New compiles a spec into a concrete schedule.
func New(spec Spec) *Injector {
	horizon := spec.Horizon
	if horizon <= 0 {
		horizon = 120
	}
	meanOr := func(v, def float64) float64 {
		if v <= 0 {
			return def
		}
		return v
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	genWindows := func(explicit []Window, count int, meanDur float64) []Window {
		ws := append([]Window(nil), explicit...)
		for i := 0; i < count; i++ {
			start := rng.Float64() * horizon
			dur := meanDur * (0.5 + rng.Float64())
			ws = append(ws, Window{Start: start, End: start + dur})
		}
		return normalize(ws)
	}

	inj := &Injector{
		seed:         uint64(spec.Seed),
		partitions:   make(map[string][]Window),
		dropProb:     spec.DropProb,
		respDropProb: spec.RespDropProb,
		delayProb:    spec.DelayProb,
		delayMin:     spec.DelayMin,
		delayMax:     spec.DelayMax,
	}
	if inj.delayProb > 0 && inj.delayMax <= 0 {
		inj.delayMax = 0.5
	}
	if inj.delayMin < 0 {
		inj.delayMin = 0
	}
	if inj.delayMin > inj.delayMax {
		inj.delayMin = inj.delayMax
	}

	inj.outages = genWindows(spec.Outages, spec.OutageCount, meanOr(spec.OutageMeanDur, 5))

	// Generation iterates explicit maps in sorted-key order and spreads
	// generated entries round-robin over sorted targets, so the draw
	// sequence — and with it the whole schedule — is deterministic.
	for _, id := range sortedKeys(spec.Partitions) {
		inj.partitions[id] = normalize(append([]Window(nil), spec.Partitions[id]...))
	}
	if spec.PartitionCount > 0 && len(spec.PartitionTargets) > 0 {
		targets := append([]string(nil), spec.PartitionTargets...)
		sort.Strings(targets)
		meanDur := meanOr(spec.PartitionMeanDur, 5)
		for i := 0; i < spec.PartitionCount; i++ {
			id := targets[i%len(targets)]
			start := rng.Float64() * horizon
			dur := meanDur * (0.5 + rng.Float64())
			inj.partitions[id] = append(inj.partitions[id], Window{Start: start, End: start + dur})
		}
		for id := range inj.partitions {
			inj.partitions[id] = normalize(inj.partitions[id])
		}
	}

	for _, id := range sortedKeys(spec.Restarts) {
		for _, at := range spec.Restarts[id] {
			inj.restarts = append(inj.restarts, RestartEvent{ID: id, At: at})
		}
	}
	if spec.RestartCount > 0 && len(spec.RestartTargets) > 0 {
		targets := append([]string(nil), spec.RestartTargets...)
		sort.Strings(targets)
		for i := 0; i < spec.RestartCount; i++ {
			inj.restarts = append(inj.restarts, RestartEvent{
				ID: targets[i%len(targets)],
				At: rng.Float64() * horizon,
			})
		}
	}
	sort.Slice(inj.restarts, func(i, j int) bool {
		if inj.restarts[i].At != inj.restarts[j].At {
			return inj.restarts[i].At < inj.restarts[j].At
		}
		return inj.restarts[i].ID < inj.restarts[j].ID
	})

	factor := spec.DegradeFactor
	if factor <= 0 || factor > 1 {
		factor = 0.25
	}
	degmap := make(map[string][]Window)
	for dev, ws := range spec.DeviceDegrade {
		degmap[dev] = append(degmap[dev], ws...)
	}
	if spec.DegradeCount > 0 && len(spec.DegradeTargets) > 0 {
		targets := append([]string(nil), spec.DegradeTargets...)
		sort.Strings(targets)
		meanDur := meanOr(spec.DegradeMeanDur, 5)
		for i := 0; i < spec.DegradeCount; i++ {
			start := rng.Float64() * horizon
			dur := meanDur * (0.5 + rng.Float64())
			degmap[targets[i%len(targets)]] = append(degmap[targets[i%len(targets)]], Window{Start: start, End: start + dur})
		}
	}
	// Merge per device so arming set/reset pairs can't interleave.
	for _, dev := range sortedKeys(degmap) {
		for _, w := range normalize(degmap[dev]) {
			inj.degrades = append(inj.degrades, DegradeWindow{Device: dev, Window: w, Factor: factor})
		}
	}
	sort.Slice(inj.degrades, func(i, j int) bool {
		if inj.degrades[i].Window.Start != inj.degrades[j].Window.Start {
			return inj.degrades[i].Window.Start < inj.degrades[j].Window.Start
		}
		return inj.degrades[i].Device < inj.degrades[j].Device
	})

	inj.leaders = make(map[int][]Window)
	leaderIdxs := make([]int, 0, len(spec.LeaderOutages))
	for p := range spec.LeaderOutages {
		leaderIdxs = append(leaderIdxs, p)
	}
	sort.Ints(leaderIdxs)
	for _, p := range leaderIdxs {
		inj.leaders[p] = normalize(append([]Window(nil), spec.LeaderOutages[p]...))
	}
	if spec.LeaderOutageCount > 0 && len(spec.LeaderTargets) > 0 {
		targets := append([]int(nil), spec.LeaderTargets...)
		sort.Ints(targets)
		meanDur := meanOr(spec.LeaderOutageMeanDur, 5)
		for i := 0; i < spec.LeaderOutageCount; i++ {
			p := targets[i%len(targets)]
			start := rng.Float64() * horizon
			dur := meanDur * (0.5 + rng.Float64())
			inj.leaders[p] = append(inj.leaders[p], Window{Start: start, End: start + dur})
		}
		for p := range inj.leaders {
			inj.leaders[p] = normalize(inj.leaders[p])
		}
	}
	return inj
}

// normalize sorts windows and merges overlaps.
func normalize(ws []Window) []Window {
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	out := ws[:0]
	for _, w := range ws {
		if w.End <= w.Start {
			continue
		}
		if n := len(out); n > 0 && w.Start <= out[n-1].End {
			if w.End > out[n-1].End {
				out[n-1].End = w.End
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// BrokerDown reports whether a full outage is open at time t.
func (inj *Injector) BrokerDown(t float64) bool { return inWindows(inj.outages, t) }

// Partitioned reports whether the named client is cut off at time t
// (by a partition or a full outage).
func (inj *Injector) Partitioned(id string, t float64) bool {
	return inWindows(inj.partitions[id], t)
}

func inWindows(ws []Window, t float64) bool {
	// Windows are sorted and disjoint; schedules are short, scan.
	for _, w := range ws {
		if t < w.Start {
			return false
		}
		if t < w.End {
			return true
		}
	}
	return false
}

// LeaderDown reports whether partition p's broker leader is dead at
// time t (a full broker outage takes every leader down too).
func (inj *Injector) LeaderDown(p int, t float64) bool {
	return inj.BrokerDown(t) || inWindows(inj.leaders[p], t)
}

// Outages returns the compiled broker outage windows (sorted, merged).
func (inj *Injector) Outages() []Window { return append([]Window(nil), inj.outages...) }

// PartitionsFor returns the compiled partition windows of one client.
func (inj *Injector) PartitionsFor(id string) []Window {
	return append([]Window(nil), inj.partitions[id]...)
}

// RestartSchedule returns every scheduled restart, sorted by (time,
// id) so arming them preserves determinism.
func (inj *Injector) RestartSchedule() []RestartEvent {
	return append([]RestartEvent(nil), inj.restarts...)
}

// DegradeSchedule returns every device-degradation window, sorted by
// (start, device).
func (inj *Injector) DegradeSchedule() []DegradeWindow {
	return append([]DegradeWindow(nil), inj.degrades...)
}

// Message-fault legs, salted so the rolls are independent streams.
const (
	saltReqDrop uint64 = iota + 1
	saltRespDrop
	saltDelay
	saltDelayAmt
)

// roll maps (seed, salt, id, seq) to [0,1) via FNV-1a into a
// splitmix64 finalizer — pure, so replaying a schedule replays every
// message fault.
func (inj *Injector) roll(salt uint64, id string, seq uint64) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h ^= inj.seed * 0x9e3779b97f4a7c15
	h ^= salt * 0xff51afd7ed558ccd
	return float64(splitmix64(h^seq)>>11) / float64(1<<53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MsgFate is the fate of one coordination round trip under the
// injected fault model, pre-evaluated by Fate.
type MsgFate struct {
	// Unavailable: the broker is down or the client partitioned — the
	// exchange fails with an explicit error.
	Unavailable bool
	// ReqDrop / RespDrop: the request (resp. response) is lost in
	// flight. A dropped request never reaches the broker; a dropped
	// response leaves the report applied but the client unanswered.
	ReqDrop, RespDrop bool
	// Delay is extra response latency in seconds (0 = none rolled).
	Delay float64
}

// Fate evaluates the fate of message seq from client id at virtual
// time now. It is a pure function of (seed, id, seq, now), so callers
// that keep their own per-client sequence counters — the sharded
// transport, whose messages from different clients have no global
// order — get fates independent of cross-client interleaving.
func (inj *Injector) Fate(id string, seq uint64, now float64) MsgFate {
	var f MsgFate
	if inj.BrokerDown(now) || inj.Partitioned(id, now) {
		f.Unavailable = true
		return f
	}
	f.ReqDrop = inj.dropProb > 0 && inj.roll(saltReqDrop, id, seq) < inj.dropProb
	f.RespDrop = inj.respDropProb > 0 && inj.roll(saltRespDrop, id, seq) < inj.respDropProb
	if inj.delayProb > 0 && inj.roll(saltDelay, id, seq) < inj.delayProb {
		f.Delay = inj.delayMin + (inj.delayMax-inj.delayMin)*inj.roll(saltDelayAmt, id, seq)
	}
	return f
}

// ClientIDs returns the coordination client ids of an n-node cluster
// ("node<i>-hdfs", "node<i>-local") — the names fault schedules and
// device-degradation targets use.
func ClientIDs(nodes int) []string {
	ids := make([]string, 0, 2*nodes)
	for i := 0; i < nodes; i++ {
		ids = append(ids, nodeDev(i, "hdfs"), nodeDev(i, "local"))
	}
	return ids
}

func nodeDev(i int, dev string) string {
	// Matches cluster's device naming without importing it.
	return "node" + itoa(i) + "-" + dev
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// Transport is the message protocol to a partition broker on the
// client's own engine, with the injector's faults applied to every
// round trip. The uplink is instantaneous (the partition applies a
// surviving report at send time), so a failure is known at once and
// reported to the client inside the call; a delayed response arrives
// through a daemon event, which is where staleness, timeouts and
// reordering matter.
type Transport struct {
	eng *sim.Engine
	inj *Injector
	p   *broker.Partition
	seq uint64
}

var _ broker.Transport = (*Transport)(nil)

// NewTransport wires an injector in front of a partition broker.
func NewTransport(eng *sim.Engine, inj *Injector, p *broker.Partition) *Transport {
	return &Transport{eng: eng, inj: inj, p: p}
}

// roundTrip rolls the next message's fate; unless the request is lost
// it runs apply against the partition, and unless the response is lost
// it delivers reply — the partition's refusal at once, success after
// the rolled delay. The sequence counter is shared by every client on
// this transport: single-engine runs have one global message order.
func (t *Transport) roundTrip(id string, apply func(now float64) error, reply func(error)) {
	now := t.eng.Now()
	f := t.inj.Fate(id, t.seq, now)
	t.seq++
	switch {
	case f.Unavailable:
		reply(broker.ErrUnavailable)
		return
	case f.ReqDrop:
		reply(broker.ErrLost)
		return
	}
	if err := apply(now); err != nil {
		reply(err)
		return
	}
	switch {
	case f.RespDrop:
		reply(broker.ErrLost)
	case f.Delay > 0:
		t.eng.ScheduleDaemon(f.Delay, func() { reply(nil) })
	default:
		reply(nil)
	}
}

// Exchange implements broker.Transport.
func (t *Transport) Exchange(id string, vec []iosched.AppCost, done func(broker.Response, error)) {
	var resp broker.Response
	t.roundTrip(id, func(now float64) (err error) {
		resp, err = t.p.Exchange(id, vec, now)
		return err
	}, func(err error) { done(resp, err) })
}

// Register implements broker.Transport: the handshake rides the same
// faulty channel as exchanges.
func (t *Transport) Register(id string, done func(error)) {
	t.roundTrip(id, func(now float64) error { return t.p.Register(id, now) }, done)
}

// Unregister implements broker.Transport. Node death is detected out
// of band (the resource manager's liveness tracking), so it is not
// subject to message faults.
func (t *Transport) Unregister(id string) { t.p.Unregister(id) }
