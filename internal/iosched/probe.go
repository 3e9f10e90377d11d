package iosched

// ProbeEvent identifies a point in a request's lifecycle as it passes
// through a scheduler: arrival (tagged and queued), dispatch (handed to
// the device), and completion (device finished, scheduler settled).
type ProbeEvent uint8

const (
	// ProbeArrive fires once per request when the scheduler has tagged
	// and enqueued it (or is about to dispatch it immediately).
	ProbeArrive ProbeEvent = iota
	// ProbeDispatch fires when the request is handed to the device.
	ProbeDispatch
	// ProbeComplete fires when the device completes the request and the
	// scheduler has refilled its dispatch window, before the request's
	// own Done runs.
	ProbeComplete
)

// String names the event.
func (e ProbeEvent) String() string {
	switch e {
	case ProbeArrive:
		return "arrive"
	case ProbeDispatch:
		return "dispatch"
	case ProbeComplete:
		return "complete"
	default:
		return "probe(?)"
	}
}

// ProbeState is a snapshot of scheduler state at a probe event. It is
// passed by value so instrumentation costs nothing beyond a few stores
// and never allocates; with no probe installed the only cost is a nil
// check.
type ProbeState struct {
	// Event is the lifecycle point.
	Event ProbeEvent
	// Time is the virtual time of the event.
	Time float64
	// Queued and InFlight are the scheduler's queue depth and
	// outstanding dispatch count after the event took effect.
	Queued   int
	InFlight int
	// Depth is the dispatch bound in force (0 = unbounded).
	Depth int
	// VTime is the scheduler's SFQ virtual time (0 for untagged
	// schedulers).
	VTime float64
	// Latency is the request's total latency (arrival to completion);
	// only set for ProbeComplete.
	Latency float64
}

// Probe observes request lifecycle events on one scheduler. The tracing
// and auditing layers implement it; schedulers invoke it synchronously,
// so implementations must not submit new I/O from inside Observe. The
// *Request is valid only during the call: pooled records (every cluster
// node's requests) are recycled right after completion.
type Probe interface {
	Observe(req *Request, st ProbeState)
}

// ProbeFunc adapts an ordinary function to the Probe interface.
type ProbeFunc func(req *Request, st ProbeState)

// Observe implements Probe.
func (f ProbeFunc) Observe(req *Request, st ProbeState) { f(req, st) }

// multiProbe fans one event stream out to several probes.
type multiProbe []Probe

// Observe implements Probe.
func (m multiProbe) Observe(req *Request, st ProbeState) {
	for _, p := range m {
		p.Observe(req, st)
	}
}

// MultiProbe combines probes into one, in argument order; nil entries
// are dropped and combined probes are flattened, so composing step by
// step fans out in one loop. It returns nil when nothing remains, so
// callers can install the result unconditionally.
func MultiProbe(ps ...Probe) Probe {
	out := make(multiProbe, 0, len(ps))
	for _, p := range ps {
		switch p := p.(type) {
		case nil:
		case multiProbe:
			out = append(out, p...)
		default:
			out = append(out, p)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
