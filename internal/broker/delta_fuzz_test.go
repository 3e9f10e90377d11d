package broker

import (
	"testing"
)

// FuzzDeltaCodec drives the delta codec two ways from the same input:
// raw bytes straight into a decoder (must never panic, never partially
// apply), and as a script of monotone state updates through a real
// encoder→decoder→merge pipeline, asserting exact state round-trip and
// never-negative merged totals — the two properties the federation
// plane's correctness rests on.
func FuzzDeltaCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00})
	f.Add([]byte{3, 2, 0, 10, 1, 50, 2, 1, 7, 200, 30})
	f.Add([]byte{0xff, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw robustness: arbitrary bytes must decode to an error or a
		// consistent state, never panic, and a failed decode must leave
		// the decoder untouched.
		var raw DeltaDec
		applied := 0
		if _, _, err := decodeNames(&raw, data, func(string, int64, int64) { applied++ }); err != nil {
			if applied != 0 {
				t.Fatalf("failed decode applied %d entries", applied)
			}
			if len(stateOf(&raw)) != 0 || raw.Seq() != 0 {
				t.Fatalf("failed decode mutated decoder: state=%v seq=%d", stateOf(&raw), raw.Seq())
			}
		}

		// Structured pipeline: interpret data as update rounds over a
		// small key space with non-decreasing values (service quanta are
		// cumulative), with occasional snapshots and encoder crashes.
		keys := []string{"t0", "t1", "t2", "t3", "tenant-with-longer-name", "t5", "t6", "t7"}
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}
		var enc DeltaEnc
		var dec DeltaDec
		cur := map[string]int64{}
		merged := map[string]int64{} // decoder-side running totals
		rounds := int(next())%12 + 1
		for r := 0; r < rounds; r++ {
			n := int(next()) % 10
			for k := 0; k < n; k++ {
				cur[keys[int(next())%len(keys)]] += int64(next())
			}
			snap := next()%5 == 0
			if next()%17 == 0 {
				// Encoder crash: state rebuilt from scratch; the next
				// message must be a snapshot to stay decodable.
				enc = DeltaEnc{}
				snap = true
			}
			msg, _ := encodeNames(&enc, cur, snap)
			gotSnap, _, err := decodeNames(&dec, msg, func(name string, old, new int64) {
				merged[name] += new - old
			})
			if err != nil {
				t.Fatalf("round %d: decode of own encoding failed: %v", r, err)
			}
			if gotSnap != snap {
				t.Fatalf("round %d: snapshot flag %v != %v", r, gotSnap, snap)
			}
			// Exact state round-trip: the decoder mirror must equal the
			// nonzero subset of the encoded state.
			st := stateOf(&dec)
			for k, v := range cur {
				if v != 0 && st[k] != v {
					t.Fatalf("round %d: key %q decoded %d, want %d", r, k, st[k], v)
				}
			}
			for k, v := range st {
				if cur[k] != v {
					t.Fatalf("round %d: decoder has stale key %q=%d (want %d)", r, k, v, cur[k])
				}
			}
			// Never-negative merged totals: with monotone inputs the
			// delta-merged view can never dip below zero, snapshots and
			// crashes included.
			for k, v := range merged {
				if v < 0 {
					t.Fatalf("round %d: merged total %q = %d < 0", r, k, v)
				}
				if v != cur[k] {
					t.Fatalf("round %d: merged total %q = %d, want %d", r, k, v, cur[k])
				}
			}
		}
	})
}
