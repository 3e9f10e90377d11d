// Package trace provides request-level lifecycle tracing for the IBIS
// simulator: every I/O request's arrival, dispatch, and completion on
// every interposed scheduler is recorded into a fixed-capacity ring
// buffer, annotated with the application, I/O class, node, device, SFQ
// tags, virtual time, queue depth, and dispatch depth in force.
//
// The tracer is built for production-style overhead discipline:
//
//   - recording a lifecycle event is a handful of stores into a
//     pre-allocated ring slot — no allocation per event;
//   - a disabled tracer costs one branch per event;
//   - with no probe installed at all, schedulers pay a single nil check.
//
// Two export formats are supported: JSONL (one record per line, fixed
// field order, deterministic formatting — byte-identical across runs
// with the same Config.Seed) and the Chrome trace-event format
// (chrome://tracing, Perfetto), where each request renders as a "queue"
// slice (arrival → dispatch) followed by a "device" slice (dispatch →
// completion).
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ibis/internal/iosched"
)

// DeviceKind identifies which interposed scheduler of a node produced a
// record.
type DeviceKind uint8

const (
	// DevHDFS is the persistent-data device's scheduler.
	DevHDFS DeviceKind = iota
	// DevLocal is the intermediate-data device's scheduler.
	DevLocal
	// DevNIC is the egress NIC scheduler (OpenFlow-style extension).
	DevNIC
)

// String names the device.
func (d DeviceKind) String() string {
	switch d {
	case DevHDFS:
		return "hdfs"
	case DevLocal:
		return "local"
	case DevNIC:
		return "nic"
	default:
		return "dev(?)"
	}
}

// DeviceKindOf maps the cluster package's device labels ("hdfs",
// "local", "nic") to a DeviceKind.
func DeviceKindOf(label string) DeviceKind {
	switch label {
	case "local":
		return DevLocal
	case "nic":
		return DevNIC
	default:
		return DevHDFS
	}
}

// Record is one traced lifecycle event. Records are fixed-size and live
// in the ring buffer; all fields are plain values so a record write
// never allocates.
type Record struct {
	// Time is the virtual time of the event (seconds).
	Time float64
	// Node is the datanode index.
	Node int32
	// Dev is the scheduler the event occurred on.
	Dev DeviceKind
	// Event is the lifecycle point.
	Event iosched.ProbeEvent
	// App, Class, Seq, Size, Weight describe the request; Seq is unique
	// per (Node, Dev, Class direction) stream. Weight is the effective
	// weight resolved at tag time, and Epoch the share-tree version it
	// was resolved against (0 for fixed weight sources).
	App    iosched.AppID
	Class  iosched.Class
	Seq    uint64
	Size   float64
	Weight float64
	Epoch  uint64
	// Cost is the normalized device cost assigned at submission.
	Cost float64
	// StartTag, FinishTag, VTime are the SFQ tags and scheduler virtual
	// time (zero for untagged schedulers).
	StartTag  float64
	FinishTag float64
	VTime     float64
	// Queued, InFlight, Depth snapshot the scheduler after the event
	// (Depth 0 = unbounded).
	Queued   int32
	InFlight int32
	Depth    int32
	// Latency is the request's total latency (ProbeComplete only).
	Latency float64
}

// DefaultCapacity is the ring size used when New is given a
// non-positive capacity (64Ki records ≈ a few MB).
const DefaultCapacity = 1 << 16

// rec is the in-ring record layout: Record with the app string replaced
// by an intern-table index. No field carries a pointer, so a ring write
// is barrier-free and the garbage collector never scans the buffer —
// the two costs that dominated tracing overhead with the exported
// layout in the ring.
type rec struct {
	time      float64
	seq       uint64
	size      float64
	weight    float64
	epoch     uint64
	cost      float64
	startTag  float64
	finishTag float64
	vtime     float64
	latency   float64
	node      int32
	queued    int32
	inFlight  int32
	depth     int32
	app       uint32
	dev       DeviceKind
	event     iosched.ProbeEvent
	class     iosched.Class
}

// Tracer is a ring-buffered lifecycle recorder with one ring per
// simulation shard that carries a probe. Each ring is written only by
// its shard's engine, so shards record with no synchronization, and
// Records assembles one stream after the run. A one-shard model has a
// single ring and reads it directly.
//
// The merged order is (event time, shard, ring order). A ring is
// already in nondecreasing time order (each shard's engine clock is
// monotonic), so the order — and any digest taken over the exported
// trace — is a pure function of the simulated system, independent of
// how many worker goroutines executed it.
type Tracer struct {
	capacity int
	rings    []*ring // in shard order
	epochs   []EpochMark
	enabled  bool

	// merged caches Records until a record is written or Reset runs;
	// mergedAt is Total() when it was built.
	merged   []Record
	mergedAt uint64
}

// ring is one shard's record buffer.
type ring struct {
	shard   int
	buf     []rec
	mask    uint64 // len(buf)-1; the capacity is a power of two
	next    uint64 // total records ever written
	enabled bool

	// App-string interning: apps holds each distinct AppID once, ring
	// records store the index. A one-entry cache catches the common
	// case (runs of records from the same app) without a map lookup.
	apps     []iosched.AppID
	appIdx   map[iosched.AppID]uint32
	lastApp  iosched.AppID
	lastIdx  uint32
	haveLast bool
}

// New creates a tracer whose rings hold capacity records each
// (non-positive = DefaultCapacity; other values round up to the next
// power of two so the ring index is a mask, not a division). A shard's
// ring is allocated when its first probe is built, so recording never
// allocates; the tracer starts enabled.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{capacity: ceilPow2(capacity), enabled: true}
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ringFor returns shard's ring, allocating it on first use.
func (t *Tracer) ringFor(shard int) *ring {
	i, ok := slices.BinarySearchFunc(t.rings, shard, func(r *ring, s int) int { return cmp.Compare(r.shard, s) })
	if ok {
		return t.rings[i]
	}
	r := &ring{
		shard:   shard,
		buf:     make([]rec, t.capacity),
		mask:    uint64(t.capacity - 1),
		enabled: t.enabled,
		appIdx:  make(map[iosched.AppID]uint32),
	}
	t.rings = slices.Insert(t.rings, i, r)
	return r
}

// intern returns the stable index of app in the ring's app table.
func (r *ring) intern(app iosched.AppID) uint32 {
	if r.haveLast && app == r.lastApp {
		return r.lastIdx
	}
	idx, ok := r.appIdx[app]
	if !ok {
		idx = uint32(len(r.apps))
		r.apps = append(r.apps, app)
		r.appIdx[app] = idx
	}
	r.lastApp, r.lastIdx, r.haveLast = app, idx, true
	return idx
}

// len returns how many records the ring holds.
func (r *ring) len() int {
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// at returns the i-th held record, oldest first.
func (r *ring) at(i int) *rec {
	if r.next <= uint64(len(r.buf)) {
		return &r.buf[i]
	}
	return &r.buf[(r.next+uint64(i))&r.mask]
}

// export materializes one ring record in the public layout.
func (r *ring) export(x *rec) Record {
	return Record{
		Time: x.time, Node: x.node, Dev: x.dev, Event: x.event,
		App: r.apps[x.app], Class: x.class, Seq: x.seq, Size: x.size,
		Weight: x.weight, Epoch: x.epoch, Cost: x.cost,
		StartTag: x.startTag, FinishTag: x.finishTag, VTime: x.vtime,
		Queued: x.queued, InFlight: x.inFlight, Depth: x.depth,
		Latency: x.latency,
	}
}

// SetEnabled switches recording on or off on every ring; records
// already captured are kept.
func (t *Tracer) SetEnabled(on bool) {
	t.enabled = on
	for _, r := range t.rings {
		r.enabled = on
	}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t.enabled }

// Capacity returns the size of each shard's ring.
func (t *Tracer) Capacity() int { return t.capacity }

// Total returns how many records were ever written across the rings
// (including ones a ring has since overwritten).
func (t *Tracer) Total() uint64 {
	var n uint64
	for _, r := range t.rings {
		n += r.next
	}
	return n
}

// Len returns how many records are currently held.
func (t *Tracer) Len() int {
	n := 0
	for _, r := range t.rings {
		n += r.len()
	}
	return n
}

// Dropped returns how many records were overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 { return t.Total() - uint64(t.Len()) }

// Reset discards all records and epoch marks (the rings and their app
// intern tables are kept).
func (t *Tracer) Reset() {
	for _, r := range t.rings {
		r.next = 0
	}
	t.epochs = nil
	t.merged = nil
}

// Records returns the held records, merged across shards in (time,
// shard, ring order) order; a single ring is read in capture order.
// The slice is built once and shared by later calls until another
// record is written; do not modify it.
func (t *Tracer) Records() []Record {
	total := t.Total()
	if t.merged != nil && t.mergedAt == total {
		return t.merged
	}
	type key struct {
		time      float64
		ring, idx int32
	}
	keys := make([]key, 0, t.Len())
	for ri, r := range t.rings {
		for i, n := 0, r.len(); i < n; i++ {
			keys = append(keys, key{r.at(i).time, int32(ri), int32(i)})
		}
	}
	if len(t.rings) > 1 {
		slices.SortFunc(keys, func(a, b key) int {
			return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.ring, b.ring), cmp.Compare(a.idx, b.idx))
		})
	}
	out := make([]Record, len(keys))
	for i, k := range keys {
		r := t.rings[k.ring]
		out[i] = r.export(r.at(int(k.idx)))
	}
	t.merged, t.mergedAt = out, total
	return out
}

// Probe returns an iosched.Probe that records one scheduler's events
// into shard's ring, labeled with the node index and device kind. The
// probe must only be driven by that shard's engine.
func (t *Tracer) Probe(shard, node int, dev DeviceKind) iosched.Probe {
	return probe{r: t.ringFor(shard), node: int32(node), dev: dev}
}

type probe struct {
	r    *ring
	node int32
	dev  DeviceKind
}

// Observe implements iosched.Probe: one barrier-free ring write, no
// allocation, no division (the ring index is a mask).
func (p probe) Observe(req *iosched.Request, st iosched.ProbeState) {
	g := p.r
	if !g.enabled {
		return
	}
	r := &g.buf[g.next&g.mask]
	g.next++
	r.time = st.Time
	r.node = p.node
	r.dev = p.dev
	r.event = st.Event
	r.app = g.intern(req.App)
	r.class = req.Class
	r.seq = req.Seq()
	r.size = req.Size
	r.weight = req.Weight()
	r.epoch = req.ShareEpoch()
	r.cost = req.Cost()
	r.startTag = req.StartTag()
	r.finishTag = req.FinishTag()
	r.vtime = st.VTime
	r.queued = int32(st.Queued)
	r.inFlight = int32(st.InFlight)
	r.depth = int32(st.Depth)
	r.latency = st.Latency
}

// EpochMark records one share-tree transition observed while tracing,
// so an exported trace can be aligned with the control-plane timeline.
type EpochMark struct {
	// Time is the virtual time of the transition.
	Time float64
	// Epoch is the tree version after the transition.
	Epoch uint64
	// Detail describes the mutation ("app-weight app=a 2→6", ...).
	Detail string
}

// NoteEpoch records a share-tree transition mark (wire it to
// shares.Tree.OnChange). Marks are unbounded but transitions are
// control-plane events — a handful per run, not per request.
func (t *Tracer) NoteEpoch(time float64, epoch uint64, detail string) {
	if !t.enabled {
		return
	}
	t.epochs = append(t.epochs, EpochMark{Time: time, Epoch: epoch, Detail: detail})
}

// Epochs returns the recorded share-tree transition marks, in order.
func (t *Tracer) Epochs() []EpochMark {
	out := make([]EpochMark, len(t.epochs))
	copy(out, t.epochs)
	return out
}

// ftoa formats a float compactly and deterministically.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteJSONL writes every held record as one JSON object per line, in
// capture order with a fixed field order, so equal traces produce
// byte-identical output.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	var b strings.Builder
	for _, r := range t.Records() {
		b.Reset()
		b.WriteString(`{"t":`)
		b.WriteString(ftoa(r.Time))
		b.WriteString(`,"node":`)
		b.WriteString(strconv.Itoa(int(r.Node)))
		b.WriteString(`,"dev":"`)
		b.WriteString(r.Dev.String())
		b.WriteString(`","ev":"`)
		b.WriteString(r.Event.String())
		b.WriteString(`","app":`)
		b.WriteString(strconv.Quote(string(r.App)))
		b.WriteString(`,"class":"`)
		b.WriteString(r.Class.String())
		b.WriteString(`","seq":`)
		b.WriteString(strconv.FormatUint(r.Seq, 10))
		b.WriteString(`,"size":`)
		b.WriteString(ftoa(r.Size))
		b.WriteString(`,"cost":`)
		b.WriteString(ftoa(r.Cost))
		b.WriteString(`,"w":`)
		b.WriteString(ftoa(r.Weight))
		b.WriteString(`,"epoch":`)
		b.WriteString(strconv.FormatUint(r.Epoch, 10))
		b.WriteString(`,"stag":`)
		b.WriteString(ftoa(r.StartTag))
		b.WriteString(`,"ftag":`)
		b.WriteString(ftoa(r.FinishTag))
		b.WriteString(`,"vt":`)
		b.WriteString(ftoa(r.VTime))
		b.WriteString(`,"q":`)
		b.WriteString(strconv.Itoa(int(r.Queued)))
		b.WriteString(`,"inflight":`)
		b.WriteString(strconv.Itoa(int(r.InFlight)))
		b.WriteString(`,"depth":`)
		b.WriteString(strconv.Itoa(int(r.Depth)))
		b.WriteString(`,"lat":`)
		b.WriteString(ftoa(r.Latency))
		b.WriteString("}\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// RequestTrace is one request's assembled lifecycle. Phase times are -1
// when the corresponding event fell outside the ring (overwritten or
// not yet occurred).
type RequestTrace struct {
	Node   int32
	Dev    DeviceKind
	App    iosched.AppID
	Class  iosched.Class
	Seq    uint64
	Size   float64
	Weight float64
	Cost   float64
	// StartTag/FinishTag are the SFQ tags (zero for untagged paths).
	StartTag  float64
	FinishTag float64
	// Arrive, Dispatch, Complete are the phase times (-1 = unobserved).
	Arrive   float64
	Dispatch float64
	Complete float64
	// Latency is the total latency reported at completion.
	Latency float64
}

// QueueDelay returns dispatch − arrival, or -1 if either is unobserved.
func (r RequestTrace) QueueDelay() float64 {
	if r.Arrive < 0 || r.Dispatch < 0 {
		return -1
	}
	return r.Dispatch - r.Arrive
}

// ServiceTime returns complete − dispatch, or -1 if either is
// unobserved.
func (r RequestTrace) ServiceTime() float64 {
	if r.Dispatch < 0 || r.Complete < 0 {
		return -1
	}
	return r.Complete - r.Dispatch
}

type reqKey struct {
	node  int32
	dev   DeviceKind
	class iosched.Class
	app   iosched.AppID
	seq   uint64
}

// Requests groups the held records into per-request lifecycles, ordered
// by first-observed event time (ties broken by node, device, sequence).
func (t *Tracer) Requests() []RequestTrace {
	idx := make(map[reqKey]int)
	var out []RequestTrace
	for _, r := range t.Records() {
		k := reqKey{r.Node, r.Dev, r.Class, r.App, r.Seq}
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
	sort.SliceStable(out, func(i, j int) bool {
		ti, tj := firstTime(out[i]), firstTime(out[j])
		if ti != tj {
			return ti < tj
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		if out[i].Dev != out[j].Dev {
			return out[i].Dev < out[j].Dev
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

func firstTime(r RequestTrace) float64 {
	for _, t := range []float64{r.Arrive, r.Dispatch, r.Complete} {
		if t >= 0 {
			return t
		}
	}
	return -1
}

// WriteChromeTrace writes the held records in the Chrome trace-event
// JSON format (load in chrome://tracing or Perfetto): pid = node,
// tid = application (assigned in first-appearance order), one "queue"
// slice from arrival to dispatch and one "device" slice from dispatch
// to completion per request. Virtual seconds map to microseconds.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	reqs := t.Requests()
	tids := make(map[iosched.AppID]int)
	var meta []string
	tidOf := func(app iosched.AppID) int {
		if id, ok := tids[app]; ok {
			return id
		}
		id := len(tids) + 1
		tids[app] = id
		meta = append(meta, fmt.Sprintf(
			`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":%s}}`,
			id, strconv.Quote(string(app))))
		return id
	}
	var events []string
	emit := func(name string, r RequestTrace, from, to float64) {
		if from < 0 || to < 0 {
			return
		}
		events = append(events, fmt.Sprintf(
			`{"name":%s,"cat":"%s","ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{"app":%s,"class":"%s","seq":%d,"size":%s,"weight":%s,"stag":%s,"ftag":%s}}`,
			strconv.Quote(name), r.Dev.String(),
			ftoa(from*1e6), ftoa((to-from)*1e6),
			r.Node, tidOf(r.App), strconv.Quote(string(r.App)), r.Class.String(), r.Seq,
			ftoa(r.Size), ftoa(r.Weight), ftoa(r.StartTag), ftoa(r.FinishTag)))
	}
	for _, r := range reqs {
		emit("queue", r, r.Arrive, r.Dispatch)
		emit("device", r, r.Dispatch, r.Complete)
	}
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	all := append(meta, events...)
	for i, e := range all {
		sep := ","
		if i == len(all)-1 {
			sep = ""
		}
		if _, err := io.WriteString(w, "\n"+e+sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}
