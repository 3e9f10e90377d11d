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
//   - with no probe installed at all, schedulers pay a single nil check.
//
// The same record, capture and merge serve the invariant auditor: a Log
// keeps one append-only buffer per shard instead of a ring, so it never
// drops a record.
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
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"ibis/internal/cluster"
	"ibis/internal/iosched"
	"ibis/internal/shares"
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

// Record is one traced lifecycle event, in the exported layout; the
// buffers store the pointer-free rec, and the app's name is resolved
// from its share-tree index on export.
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
	// was resolved against.
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

// rec is the stored record layout: Record with the app string replaced
// by the request's share-tree index and the class narrowed to a byte.
// No field carries a pointer, so a write is barrier-free and the
// garbage collector never scans a buffer — the two costs that dominated
// tracing overhead with the exported layout stored.
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
	app       iosched.AppIdx
	dev       DeviceKind
	event     iosched.ProbeEvent
	class     uint8
}

// EventDegrade and EventRecover are the events of an audit log's note
// records: a scheduler suspended or resumed DSFQ coordination. A note
// carries only Time, Node, Dev and its Event, and the tracer never
// writes one.
const (
	EventDegrade = iosched.ProbeComplete + 1 + iota
	EventRecover
)

// buffer is one shard's records, written only by that shard's engine:
// a tracer ring, which keeps the newest len(buf) records, or a log,
// which keeps them all. Either is in nondecreasing time order, since
// the shard's engine clock is monotonic.
type buffer struct {
	shard int
	buf   []rec
	ring  bool
	mask  uint64 // ring: len(buf)-1, a power of two minus one
	next  uint64 // records written since the last reset
}

// buffers holds one buffer per shard that has a writer, in shard order.
type buffers []*buffer

// get returns shard's buffer, creating it on first use: a ring of
// capacity records, or a log when capacity is 0.
func (bs *buffers) get(shard, capacity int) *buffer {
	i, ok := slices.BinarySearchFunc(*bs, shard, func(b *buffer, s int) int { return cmp.Compare(b.shard, s) })
	if !ok {
		b := &buffer{shard: shard}
		if capacity > 0 {
			b.buf, b.ring, b.mask = make([]rec, capacity), true, uint64(capacity-1)
		}
		*bs = slices.Insert(*bs, i, b)
	}
	return (*bs)[i]
}

// merge is a k-way merge over per-buffer cursors that yields every held
// record in (time, shard, buffer order). Each buffer is already in time
// order, so this is the order a stable sort on (time, shard) would
// give, and any digest over it is a pure function of the simulated
// system, independent of how many worker goroutines executed it. The
// cursors and their heap are reused from one merge to the next.
type merge struct {
	cur []cursor
	h   []head // a min-heap of the cursors' next records
}

// cursor walks one buffer's held records: seg, then rest (a wrapped
// ring's records before its wrap point).
type cursor struct{ seg, rest []rec }

// head is a cursor's place in the heap: its next record's time as an
// order key, its buffer's shard, and its index in cur.
type head struct {
	time, shard uint64
	c           int
}

// timeKey maps a time to an integer of the same order: the IEEE 754
// bits with the sign folded in (−0 orders just before +0).
func timeKey(t float64) uint64 {
	b := math.Float64bits(t)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// before is 1 if x's record comes first, else 0: the (time, shard)
// compare is one 128-bit subtraction's borrow, so the heap chooses a
// child without a branch to mispredict.
func (x *head) before(y *head) uint64 {
	_, borrow := bits.Sub64(x.shard, y.shard, 0)
	_, borrow = bits.Sub64(x.time, y.time, borrow)
	return borrow
}

// start positions the merge at the oldest record of bs.
func (m *merge) start(bs buffers) {
	m.cur, m.h = slices.Grow(m.cur[:0], len(bs)), slices.Grow(m.h[:0], len(bs))
	for _, b := range bs {
		if seg, rest := b.held(); len(seg) > 0 {
			m.h = append(m.h, head{time: timeKey(seg[0].time), shard: uint64(b.shard), c: len(m.cur)})
			m.cur = append(m.cur, cursor{seg: seg, rest: rest})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i, m.h[i])
	}
}

// next returns the next record, or nil once every record was yielded.
func (m *merge) next() *rec {
	if len(m.h) == 0 {
		return nil
	}
	top := m.h[0]
	c := &m.cur[top.c]
	x := &c.seg[0]
	if c.seg = c.seg[1:]; len(c.seg) == 0 {
		c.seg, c.rest = c.rest, nil
	}
	if len(c.seg) > 0 {
		top.time = timeKey(c.seg[0].time)
	} else {
		top = m.h[len(m.h)-1]
		if m.h = m.h[:len(m.h)-1]; len(m.h) == 0 {
			return x
		}
	}
	m.down(0, top)
	return x
}

// down places x at i, then moves it down the heap below i; it stops at
// once while x still holds the oldest record, as in a run of one
// buffer's.
func (m *merge) down(i int, x head) {
	h := m.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) {
			c += int(h[r].before(&h[c]))
		}
		if h[c].before(&x) == 0 {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// slot returns the record the next write fills: the oldest slot of a
// full ring, or a new slot at the end of a log.
func (b *buffer) slot() *rec {
	b.next++
	if b.ring {
		return &b.buf[(b.next-1)&b.mask]
	}
	b.buf = append(b.buf, rec{})
	return &b.buf[len(b.buf)-1]
}

// reset empties the buffer (a log keeps its capacity).
func (b *buffer) reset() {
	b.next = 0
	if !b.ring {
		b.buf = b.buf[:0]
	}
}

// len returns how many records the buffer holds.
func (b *buffer) len() int {
	if b.next < uint64(len(b.buf)) {
		return int(b.next)
	}
	return len(b.buf)
}

// held returns the held records, oldest first, as two runs: a full
// ring that wrapped holds them from its write position on, then from
// its start.
func (b *buffer) held() (seg, rest []rec) {
	if b.next <= uint64(len(b.buf)) {
		return b.buf[:b.len()], nil
	}
	w := b.next & b.mask
	return b.buf[w:], b.buf[:w]
}

// export materializes one record in the public layout but for its app,
// which the caller resolves, field by field: a composite literal would
// be built aside and copied in.
func (x *rec) export(r *Record) {
	r.Time, r.Node, r.Dev, r.Event = x.time, x.node, x.dev, x.event
	r.Class, r.Seq, r.Size = iosched.Class(x.class), x.seq, x.size
	r.Weight, r.Epoch, r.Cost = x.weight, x.epoch, x.cost
	r.StartTag, r.FinishTag, r.VTime = x.startTag, x.finishTag, x.vtime
	r.Queued, r.InFlight, r.Depth = x.queued, x.inFlight, x.depth
	r.Latency = x.latency
}

// appName resolves the record's app index through names; a note has
// no app.
func (x *rec) appName(names *shares.Tree) iosched.AppID {
	if x.event > iosched.ProbeComplete {
		return ""
	}
	return names.AppName(x.app)
}

// Tracer is a ring-buffered lifecycle recorder with one ring per
// simulation shard that carries a probe. Each ring is written only by
// its shard's engine, so shards record with no synchronization, and
// Records assembles one stream after the run, merged in (event time,
// shard, ring order). Records carry their app's share-tree index, and
// names is read for the name only on export.
type Tracer struct {
	capacity int
	names    *shares.Tree
	rings    buffers
	epochs   []EpochMark

	// merged caches Records until a record is written or Reset runs;
	// mergedAt is Total() when it was built.
	merged   []Record
	mergedAt uint64
}

// New creates a tracer whose rings hold capacity records each
// (non-positive = DefaultCapacity; other values round up to the next
// power of two so the ring index is a mask, not a division). names is
// the share tree that numbers the traced requests' apps (a cluster's
// Shares()); its numbering is append-only, so an index names one app
// for the tracer's lifetime. A shard's ring is allocated when its first
// probe is built, so recording never allocates.
func New(capacity int, names *shares.Tree) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{capacity: ceilPow2(capacity), names: names}
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

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

// Reset discards all records and epoch marks (the rings are kept).
func (t *Tracer) Reset() {
	for _, r := range t.rings {
		r.reset()
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
	out := make([]Record, t.Len())
	var m merge
	m.start(t.rings)
	for i := range out {
		x := m.next()
		x.export(&out[i])
		out[i].App = x.appName(t.names)
	}
	t.merged, t.mergedAt = out, total
	return out
}

// Attach traces cl, whose share tree must be the tracer's names: it
// adds a probe to every scheduler of every node (cluster.Instrument)
// and records the tree's transitions as epoch marks. Attach before the
// simulation runs.
func (t *Tracer) Attach(cl *cluster.Cluster) {
	cl.Instrument(func(shard, node int, dev string, _ iosched.Scheduler) iosched.Probe {
		return t.Probe(shard, node, DeviceKindOf(dev))
	})
	cl.Shares().OnChange(func(tr shares.Transition) {
		t.NoteEpoch(tr.Time, tr.Epoch, fmt.Sprintf("%s %s/%s %g->%g", tr.Kind, tr.Tenant, tr.App, tr.Old, tr.New))
	})
}

// Probe returns an iosched.Probe that records one scheduler's events
// into shard's ring, labeled with the node index and device kind. The
// probe must only be driven by that shard's engine.
func (t *Tracer) Probe(shard, node int, dev DeviceKind) iosched.Probe {
	return Writer{b: t.rings.get(shard, t.capacity), node: int32(node), dev: dev}
}

// Log is a set of per-shard append-only record logs: the tracer's
// record, capture and merge, but a log never drops a record. The
// auditor writes every lifecycle event and degrade/recover note it
// receives into the log of the scheduler's shard, and judges the
// records in merged order. The zero Log is empty and ready to use.
type Log struct {
	shards buffers
	m      merge
	r      Record // the record Drain hands out
}

// Writer returns the writer of one scheduler's records into shard's
// log, labeled with the node index and device kind. It must only be
// driven by that shard's engine.
func (l *Log) Writer(shard, node int, dev DeviceKind) Writer {
	return Writer{b: l.shards.get(shard, 0), node: int32(node), dev: dev}
}

// Drain calls fn on every logged record in (time, shard, log order),
// then empties the logs. fn gets the record in one Record reused for
// every call, with its app named through names, and the app's index in
// names (a note's app is empty, and its index means nothing). fn must
// not keep r, nor write to the log.
func (l *Log) Drain(names *shares.Tree, fn func(r *Record, app iosched.AppIdx)) {
	l.m.start(l.shards)
	for x := l.m.next(); x != nil; x = l.m.next() {
		x.export(&l.r)
		l.r.App = x.appName(names)
		fn(&l.r, x.app)
	}
	for _, b := range l.shards {
		b.reset()
	}
}

// Writer captures one scheduler's lifecycle events into its shard's
// buffer: a tracer ring or a log. It is the tracer's probe.
type Writer struct {
	b    *buffer
	node int32
	dev  DeviceKind
}

// Observe implements iosched.Probe: one barrier-free record write, with
// no allocation once a log has grown (a ring never allocates; its index
// is a mask, not a division).
func (w Writer) Observe(req *iosched.Request, st iosched.ProbeState) {
	w.fill(w.b.slot(), req, st)
}

// Fill sets r to the record Observe would log for (req, st), without
// logging it. It is for a Log's writer: the auditor judges this way, at
// once, when every writer sits on one shard.
func (w Writer) Fill(req *iosched.Request, st iosched.ProbeState, r *Record) {
	var x rec
	w.fill(&x, req, st)
	x.export(r)
	r.App = req.App
}

// fill writes the record of (req, st) into r.
func (w Writer) fill(r *rec, req *iosched.Request, st iosched.ProbeState) {
	r.time = st.Time
	r.node = w.node
	r.dev = w.dev
	r.event = st.Event
	r.app = req.AppIdx
	r.class = uint8(req.Class)
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

// Note writes a note record (EventDegrade or EventRecover) at time t.
func (w Writer) Note(ev iosched.ProbeEvent, t float64) {
	*w.b.slot() = rec{time: t, node: w.node, dev: w.dev, event: ev}
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

// NoteEpoch records a share-tree transition mark (Attach wires it to
// the cluster's shares.Tree.OnChange). Marks are unbounded but
// transitions are control-plane events — a handful per run, not per
// request.
func (t *Tracer) NoteEpoch(time float64, epoch uint64, detail string) {
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

// Requests groups the held records into per-request lifecycles, ordered
// by first-observed event time (ties broken by node, device, sequence,
// then the order the merge first saw them in).
//
// One pass of the record merge assembles them: a lifecycle is found by
// its integer key (node, device, class, the app's share-tree index,
// sequence) in an open-addressing table of int32 slots sized for every
// record to start its own lifecycle, so it never fills. The merge yields
// records in time order, so lifecycles are created in first-observed-time
// order already, and only runs of equal first time need the tie-break.
func (t *Tracer) Requests() []RequestTrace {
	n := t.Len()
	if n == 0 {
		return nil
	}
	// Most lifecycles hold an arrival, a dispatch and a completion; the
	// slack covers the ones a ring cut short.
	out := make([]RequestTrace, 0, n/3+n/32+1)
	lg := bits.Len(uint(n-1)) + 1
	slots := make([]int32, 1<<lg) // a lifecycle's index in out plus one, 0 = empty
	var m merge
	m.start(t.rings)
	for x := m.next(); x != nil; x = m.next() {
		app := x.appName(t.names)
		h := (x.seq ^ uint64(uint32(x.node))<<40 ^ uint64(x.app)<<16 ^ uint64(x.dev)<<8 ^ uint64(x.class)) * 0x9e3779b97f4a7c15
		var rt *RequestTrace
		for j := h >> (64 - lg); ; j = (j + 1) & (1<<lg - 1) {
			k := slots[j] - 1
			if k < 0 {
				slots[j] = int32(len(out)) + 1
				// Set field by field: a composite literal would be built
				// aside and copied in.
				out = slices.Grow(out, 1)[:len(out)+1]
				rt = &out[len(out)-1]
				rt.Node, rt.Dev, rt.App, rt.Class = x.node, x.dev, app, iosched.Class(x.class)
				rt.Seq, rt.Size, rt.Weight = x.seq, x.size, x.weight
				rt.Cost, rt.StartTag, rt.FinishTag = 0, 0, 0
				rt.Arrive, rt.Dispatch, rt.Complete, rt.Latency = -1, -1, -1, -1
				break
			}
			if rt = &out[k]; rt.Seq == x.seq && rt.Node == x.node && rt.Dev == x.dev && rt.Class == iosched.Class(x.class) && rt.App == app {
				break
			}
		}
		if x.cost != 0 {
			rt.Cost = x.cost
		}
		if x.startTag != 0 {
			rt.StartTag = x.startTag
		}
		if x.finishTag != 0 {
			rt.FinishTag = x.finishTag
		}
		switch x.event {
		case iosched.ProbeArrive:
			rt.Arrive = x.time
		case iosched.ProbeDispatch:
			rt.Dispatch = x.time
		case iosched.ProbeComplete:
			rt.Complete = x.time
			rt.Latency = x.latency
		}
	}
	if !tieBreak(out) {
		// Phases observed out of time order, which no scheduler does.
		slices.SortStableFunc(out, func(x, y RequestTrace) int { return x.compare(&y) })
	}
	return out
}

// firstTime returns the first observed phase time: arrival, else
// dispatch, else completion (-1 when none was observed).
func (r *RequestTrace) firstTime() float64 {
	switch {
	case r.Arrive >= 0:
		return r.Arrive
	case r.Dispatch >= 0:
		return r.Dispatch
	default:
		return r.Complete
	}
}

// compare orders lifecycles by first time, node, device and sequence.
func (r *RequestTrace) compare(y *RequestTrace) int {
	return cmp.Or(cmp.Compare(r.firstTime(), y.firstTime()), cmp.Compare(r.Node, y.Node), cmp.Compare(r.Dev, y.Dev), cmp.Compare(r.Seq, y.Seq))
}

// tieBreak sorts lifecycles, created in first-record order,
// by compare, keeping creation order among equals: a stable sort of
// each run of equal first time. It reports false, sorting nothing
// more, if a first time decreases.
func tieBreak(rs []RequestTrace) bool {
	if len(rs) == 0 {
		return true
	}
	i, first := 0, rs[0].firstTime() // the run rs[i:j] starts at first
	for j := 1; j <= len(rs); j++ {
		var t float64
		if j < len(rs) {
			if t = rs[j].firstTime(); t == first {
				continue
			} else if t < first {
				return false
			}
		}
		if j-i > 1 {
			slices.SortStableFunc(rs[i:j], func(x, y RequestTrace) int { return x.compare(&y) })
		}
		i, first = j, t
	}
	return true
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
