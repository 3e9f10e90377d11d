// Delta-compressed state sync for the federated coordination plane.
//
// A DeltaEnc/DeltaDec pair keeps mirrored views of one key→int64 table
// across a link (partition→root service quanta per app, root→partition
// global quanta per tenant). Each Encode call takes the sender's
// complete current state and emits only what changed since the last
// message: newly seen keys are interned into a shared append-only
// dictionary (string sent once, ever), and changed values are encoded
// as zigzag varints of the difference from the mirror — for cumulative
// service counters that difference is one period's worth of quanta,
// a byte or two, against the 24-byte (id, float64) wire entries of the
// centralized full-vector exchange. Keys absent from the current state
// are part of the contract too: a known key missing from cur is an
// explicit transition to zero (retired apps, pruned totals), so the
// mirror never wedges a stale value.
//
// Messages are sequence-numbered; the decoder rejects gaps, which the
// sender repairs with a snapshot: a message from a fresh encoder
// (flagged, full dictionary and state re-sent) that makes the decoder
// zero and reset its mirror before applying. Leader crash recovery
// rides the same path — the recovering partition's sync state is gone,
// so it simply starts a fresh encoder and flags the first message.
//
// Values travel in integer quanta (DefaultQuantum cost units) rather
// than floats: int64 arithmetic is exact, so the root's conservation
// invariant — per-partition mirrors summing to the global totals — is
// an equality, not a tolerance.
package broker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// DefaultQuantum is the service quantization unit in cost units
// (bytes): fine enough that the delay rule's view is off by at most one
// quantum per tenant per link, coarse enough that one period's delta
// fits a short varint.
const DefaultQuantum = 4096.0

// Codec errors. ErrSeqGap means messages were lost between encoder and
// decoder; the decoder's state is untouched and the sender must resync
// with a snapshot.
var (
	ErrSeqGap     = errors.New("broker: delta message sequence gap")
	errDeltaShort = errors.New("broker: truncated delta message")
)

const (
	deltaFlagSnapshot = 1 << 0

	// maxDeltaName bounds interned key lengths so a corrupt length
	// prefix cannot demand a huge allocation.
	maxDeltaName = 4096
)

// DeltaEnc is the sending half of one link. The zero value is ready to
// use (fresh dictionary, empty mirror, sequence 0). Like the decoder,
// it works on the sender's dense keys; names exist only on the wire.
type DeltaEnc struct {
	pos  []int32 // key → dictionary position + 1 (0: not interned)
	keys []int32 // dictionary position → key
	prev []int64
	seq  uint64
}

// Encode emits one message carrying the difference between cur — the
// sender's complete current state, indexed by its keys, 0 for a key it
// does not hold — and the mirror, then advances the mirror. name(key)
// is the key's name on the wire, sent once: when the key is first
// nonzero. A known key whose value is now 0 encodes as a transition to
// zero. When snapshot is set the encoder resets itself first, so the
// message is self-contained: full dictionary, every nonzero value, and
// a flag telling the decoder to reset before applying. entries is the
// number of (key, value) changes carried.
func (e *DeltaEnc) Encode(cur []int64, name func(key int32) string, snapshot bool) (msg []byte, entries int) {
	if snapshot {
		*e = DeltaEnc{}
	}
	// Intern unseen keys in name order so dictionary growth — and the
	// encoded bytes — are a pure function of the named state, not of
	// the sender's numbering.
	var fresh []int32
	for k, v := range cur {
		if v != 0 && at(e.pos, k) == 0 {
			fresh = append(fresh, int32(k))
		}
	}
	slices.SortFunc(fresh, func(x, y int32) int { return strings.Compare(name(x), name(y)) })
	for _, k := range fresh {
		*slot(&e.pos, int(k)) = int32(len(e.keys)) + 1
		e.keys = append(e.keys, k)
		e.prev = append(e.prev, 0)
	}
	// Changed entries: every dict index whose current value differs
	// from the mirror.
	changed := make([]int, 0, len(fresh))
	for i, k := range e.keys {
		if at(cur, int(k)) != e.prev[i] {
			changed = append(changed, i)
		}
	}

	e.seq++
	var flags byte
	if snapshot {
		flags |= deltaFlagSnapshot
	}
	buf := make([]byte, 0, 16+len(changed)*4)
	buf = binary.AppendUvarint(buf, e.seq)
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(fresh)))
	for _, k := range fresh {
		n := name(k)
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(changed)))
	last := -1
	for _, i := range changed {
		v := at(cur, int(e.keys[i]))
		buf = binary.AppendUvarint(buf, uint64(i-last))
		buf = binary.AppendVarint(buf, v-e.prev[i])
		e.prev[i] = v
		last = i
	}
	return buf, len(changed)
}

// Seq returns the sequence number of the last encoded message.
func (e *DeltaEnc) Seq() uint64 { return e.seq }

// DeltaDec is the receiving half of one link. The zero value mirrors a
// zero-value DeltaEnc. Next to the link's name table it keeps a key
// column: each name's index in the receiver's own numbering, resolved
// once, when the name arrives, so the receiver's books are slices and
// the wire still carries names.
type DeltaDec struct {
	names []string
	keys  []int32
	prev  []int64
	seq   uint64
}

// Decode applies one message to the mirror, invoking apply(key, old,
// new) for every value change — including the implicit zeroing of every
// nonzero entry when a snapshot resets the mirror — so the caller can
// fold deltas into derived aggregates incrementally. resolve maps each
// name new to the link to its key. On any error (sequence gap,
// truncation, corruption) the mirror is left unchanged and neither
// callback has been called.
func (d *DeltaDec) Decode(msg []byte, resolve func(name string) int32, apply func(key int32, old, new int64)) (snapshot bool, entries int, err error) {
	seq, n := binary.Uvarint(msg)
	if n <= 0 {
		return false, 0, errDeltaShort
	}
	msg = msg[n:]
	if len(msg) < 1 {
		return false, 0, errDeltaShort
	}
	flags := msg[0]
	msg = msg[1:]
	snapshot = flags&deltaFlagSnapshot != 0
	if !snapshot && seq != d.seq+1 {
		return snapshot, 0, fmt.Errorf("%w: got %d want %d", ErrSeqGap, seq, d.seq+1)
	}

	// Parse fully before mutating, so errors cannot leave the mirror
	// half-applied.
	nFresh, n := binary.Uvarint(msg)
	if n <= 0 || nFresh > uint64(len(msg)) {
		return snapshot, 0, errDeltaShort
	}
	msg = msg[n:]
	fresh := make([]string, 0, nFresh)
	for i := uint64(0); i < nFresh; i++ {
		l, n := binary.Uvarint(msg)
		if n <= 0 || l > maxDeltaName || uint64(len(msg[n:])) < l {
			return snapshot, 0, errDeltaShort
		}
		fresh = append(fresh, string(msg[n:n+int(l)]))
		msg = msg[n+int(l):]
	}
	nEnt, n := binary.Uvarint(msg)
	if n <= 0 || nEnt > uint64(len(msg)) {
		return snapshot, 0, errDeltaShort
	}
	msg = msg[n:]
	type change struct {
		idx int
		d   int64
	}
	changes := make([]change, 0, nEnt)
	base := len(d.names)
	if snapshot {
		base = 0
	}
	last := -1
	for i := uint64(0); i < nEnt; i++ {
		gap, n := binary.Uvarint(msg)
		if n <= 0 {
			return snapshot, 0, errDeltaShort
		}
		msg = msg[n:]
		v, n := binary.Varint(msg)
		if n <= 0 {
			return snapshot, 0, errDeltaShort
		}
		msg = msg[n:]
		idx := last + int(gap)
		if gap == 0 || gap > uint64(base+len(fresh)) || idx >= base+len(fresh) {
			return snapshot, 0, fmt.Errorf("broker: delta entry index %d out of range", idx)
		}
		changes = append(changes, change{idx: idx, d: v})
		last = idx
	}

	// Commit: reset on snapshot (zeroing the old mirror through apply),
	// grow the dictionary, fold the changes.
	if snapshot {
		for i, v := range d.prev {
			if v != 0 {
				apply(d.keys[i], v, 0)
			}
		}
		d.names, d.keys, d.prev = nil, nil, nil
	}
	d.seq = seq
	for _, name := range fresh {
		d.names = append(d.names, name)
		d.keys = append(d.keys, resolve(name))
		d.prev = append(d.prev, 0)
	}
	for _, c := range changes {
		old := d.prev[c.idx]
		d.prev[c.idx] += c.d
		apply(d.keys[c.idx], old, d.prev[c.idx])
	}
	return snapshot, len(changes), nil
}

// Entries returns the mirror as parallel key and value columns, zero
// values included. The slices are the decoder's own: read them before
// the next Decode, and do not write them.
func (d *DeltaDec) Entries() (keys []int32, vals []int64) { return d.keys, d.prev }

// Seq returns the sequence number of the last applied message.
func (d *DeltaDec) Seq() uint64 { return d.seq }
