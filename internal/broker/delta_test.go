package broker

import (
	"bytes"
	"testing"
)

// decodeNames decodes msg into d, keying each name by its position in
// d's name table, and reports every change to apply by name.
func decodeNames(d *DeltaDec, msg []byte, apply func(name string, old, new int64)) (bool, int, error) {
	return d.Decode(msg, func(string) int32 { return int32(len(d.keys)) }, func(k int32, old, new int64) {
		apply(d.names[k], old, new)
	})
}

// testNames numbers the names the codec tests use, as a sender's
// share tree would.
var testNames = map[string]int32{}

// encodeNames encodes a name-keyed state through e.
func encodeNames(e *DeltaEnc, cur map[string]int64, snapshot bool) ([]byte, int) {
	var dense []int64
	byKey := make([]string, len(testNames))
	for name := range testNames {
		byKey[testNames[name]] = name
	}
	for name, v := range cur {
		k, ok := testNames[name]
		if !ok {
			k = int32(len(testNames))
			testNames[name] = k
			byKey = append(byKey, name)
		}
		*slot(&dense, int(k)) = v
	}
	return e.Encode(dense, func(k int32) string { return byKey[k] }, snapshot)
}

// stateOf returns the mirror's nonzero entries by name.
func stateOf(d *DeltaDec) map[string]int64 {
	out := make(map[string]int64)
	for i, v := range d.prev {
		if v != 0 {
			out[d.names[i]] = v
		}
	}
	return out
}

func decodeInto(t *testing.T, d *DeltaDec, msg []byte) (bool, map[string]int64) {
	t.Helper()
	applied := map[string]int64{}
	snap, _, err := decodeNames(d, msg, func(name string, old, new int64) {
		applied[name] = new
	})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return snap, applied
}

func TestDeltaRoundTrip(t *testing.T) {
	var enc DeltaEnc
	var dec DeltaDec
	cur := map[string]int64{"app-a": 10, "app-b": 3}
	msg, entries := encodeNames(&enc, cur, true)
	if entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	snap, _ := decodeInto(t, &dec, msg)
	if !snap {
		t.Fatal("first message not flagged snapshot")
	}
	if st := stateOf(&dec); st["app-a"] != 10 || st["app-b"] != 3 || len(st) != 2 {
		t.Fatalf("decoder state = %v", st)
	}

	// Second message: only the changed key travels, and the dict name
	// is not re-sent.
	cur["app-a"] = 15
	msg2, entries2 := encodeNames(&enc, cur, false)
	if entries2 != 1 {
		t.Fatalf("delta entries = %d, want 1", entries2)
	}
	if bytes.Contains(msg2, []byte("app-a")) {
		t.Fatal("interned name re-sent on delta")
	}
	if len(msg2) >= len(msg) {
		t.Fatalf("delta (%dB) not smaller than snapshot (%dB)", len(msg2), len(msg))
	}
	if _, applied := decodeInto(t, &dec, msg2); applied["app-a"] != 15 || len(applied) != 1 {
		t.Fatalf("applied = %v", applied)
	}
}

func TestDeltaAbsentKnownKeyEncodesZero(t *testing.T) {
	var enc DeltaEnc
	var dec DeltaDec
	msg, _ := encodeNames(&enc, map[string]int64{"a": 7, "b": 2}, true)
	decodeInto(t, &dec, msg)
	// "a" vanishes from the current state (retired app): the codec must
	// ship an explicit transition to zero.
	msg2, entries := encodeNames(&enc, map[string]int64{"b": 2}, false)
	if entries != 1 {
		t.Fatalf("entries = %d, want 1 (the zeroing of a)", entries)
	}
	_, applied := decodeInto(t, &dec, msg2)
	if v, ok := applied["a"]; !ok || v != 0 {
		t.Fatalf("applied = %v, want a -> 0", applied)
	}
	if st := stateOf(&dec); len(st) != 1 || st["b"] != 2 {
		t.Fatalf("decoder state = %v, want only b=2", st)
	}
}

func TestDeltaNoChangeIsEmptyish(t *testing.T) {
	var enc DeltaEnc
	cur := map[string]int64{"a": 1, "b": 2, "c": 3}
	encodeNames(&enc, cur, true)
	msg, entries := encodeNames(&enc, cur, false)
	if entries != 0 {
		t.Fatalf("idle entries = %d, want 0", entries)
	}
	// Idle sync cost is O(1) bytes — the heart of the O(delta) claim.
	if len(msg) > 4 {
		t.Fatalf("idle message %d bytes, want <= 4", len(msg))
	}
}

func TestDeltaSeqGapRejected(t *testing.T) {
	var enc DeltaEnc
	var dec DeltaDec
	m1, _ := encodeNames(&enc, map[string]int64{"a": 1}, true)
	m2, _ := encodeNames(&enc, map[string]int64{"a": 2}, false)
	m3, _ := encodeNames(&enc, map[string]int64{"a": 3}, false)
	decodeInto(t, &dec, m1)
	_ = m2 // lost on the wire
	if _, _, err := decodeNames(&dec, m3, func(string, int64, int64) {}); err == nil {
		t.Fatal("decoder accepted a sequence gap")
	}
	// A snapshot heals the gap.
	m4, _ := encodeNames(&enc, map[string]int64{"a": 4}, true)
	snap, applied := decodeInto(t, &dec, m4)
	if !snap || applied["a"] != 4 {
		t.Fatalf("snapshot resync failed: snap=%v applied=%v", snap, applied)
	}
}

func TestDeltaSnapshotZeroesStaleDecoderState(t *testing.T) {
	var enc DeltaEnc
	var dec DeltaDec
	m1, _ := encodeNames(&enc, map[string]int64{"a": 5, "b": 9}, true)
	decodeInto(t, &dec, m1)
	// Encoder restarts from scratch (leader crash) with different
	// content; the decoder must zero what disappeared.
	enc = DeltaEnc{}
	m2, _ := encodeNames(&enc, map[string]int64{"b": 4}, true)
	total := map[string]int64{"a": 5, "b": 9}
	if _, _, err := decodeNames(&dec, m2, func(name string, old, new int64) {
		total[name] += new - old
	}); err != nil {
		t.Fatal(err)
	}
	if total["a"] != 0 || total["b"] != 4 {
		t.Fatalf("merged totals after snapshot = %v", total)
	}
	if st := stateOf(&dec); len(st) != 1 || st["b"] != 4 {
		t.Fatalf("decoder state after snapshot = %v", st)
	}
}

func TestDeltaDecodeGarbageNeverPanics(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0xff},
		{0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff},
		bytes.Repeat([]byte{0x80}, 64),
		{0x01, 0x00, 0x01, 0xff}, // name length far beyond payload
		// An entry gap past MaxInt64 wraps the index negative.
		[]byte("01\x00\x01Ď\xef\xc8\xc8\xe2\xc8\xc8\xc8\x010"),
	}
	for _, in := range inputs {
		var dec DeltaDec
		_, _, _ = decodeNames(&dec, in, func(string, int64, int64) {})
	}
}

func TestDeltaTruncationsRejectedAtomically(t *testing.T) {
	var enc DeltaEnc
	full, _ := encodeNames(&enc, map[string]int64{"alpha": 100, "beta": 7}, true)
	for cut := 0; cut < len(full); cut++ {
		var dec DeltaDec
		mutated := 0
		_, _, err := decodeNames(&dec, full[:cut], func(string, int64, int64) { mutated++ })
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
		if mutated != 0 {
			t.Fatalf("truncation at %d applied %d entries before failing", cut, mutated)
		}
		if len(stateOf(&dec)) != 0 {
			t.Fatalf("truncation at %d left decoder state %v", cut, stateOf(&dec))
		}
	}
}
