package ndn

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// FuzzTLVRoundTrip feeds arbitrary bytes to both packet decoders. The
// invariants: malformed input never panics, and any wire that decodes
// successfully must re-encode to a form that decodes to the same packet
// (decode∘encode is a fixed point). Since the decode-once refactor this
// holds trivially for the first re-encode — a decoded packet caches the
// frame it was parsed from, so Encode returns those bytes verbatim (unknown
// TLVs and non-canonical number forms included) — and the fuzz still guards
// the property end-to-end: the re-decode must accept the cached wire and
// reproduce the identical packet. Every packet that decodes must also
// re-serialize from its fields (wire cache dropped) to the nested-append
// oracle's bytes (encode_oracle_test.go), and so must every seed packet
// built here. Run with `go test -fuzz=FuzzTLVRoundTrip`
// to explore; the seed corpus runs on every plain `go test`.
func FuzzTLVRoundTrip(f *testing.F) {
	it := &Interest{
		Name:        ParseName("/dapes/discovery/field-report"),
		CanBePrefix: true,
		MustBeFresh: true,
		Nonce:       0xDEADBEEF,
		Lifetime:    4 * time.Second,
		HopLimit:    3,
		AppParams:   []byte{1, 2, 3},
	}
	f.Add(it.Encode())
	d := &Data{
		Name:      ParseName("/field-report/image-000/7"),
		Freshness: time.Second,
		Content:   []byte("payload"),
	}
	d.SignDigest()
	f.Add(d.Encode())
	stale := &Data{Name: ParseName("/field-report/no-freshness/0"), Content: []byte("p")}
	stale.SignDigest() // no FreshnessPeriod: MetaInfo stays empty on the wire
	f.Add(stale.Encode())
	subMs := &Data{Name: ParseName("/f/0"), Freshness: 500 * time.Microsecond}
	subMs.SignDigest() // sub-millisecond freshness must round up, not vanish
	f.Add(subMs.Encode())
	mbf := &Interest{Name: ParseName("/f"), MustBeFresh: true, Nonce: 1}
	f.Add(mbf.Encode())
	f.Add([]byte{})
	f.Add([]byte{0x05})
	f.Add([]byte{0x05, 0xFF})                                                  // truncated length
	f.Add([]byte{0x06, 0x02, 0x07, 0x00})                                      // data with empty name
	f.Add([]byte{253, 0, 1, 0})                                                // multi-byte type number
	f.Add([]byte{0x05, 0x09, 0x07, 0x00, 0x0C, 0x08, 255, 255, 255, 255, 255}) // truncated lifetime
	// Data whose MetaInfo carries a 9-octet FreshnessPeriod of 2^64−1 ms:
	// exercises the clamp on the freshness path like the lifetime seed above.
	var hugeMeta []byte
	hugeMeta = encodeName(hugeMeta, ParseName("/x"))
	hugeMeta = appendTLV(hugeMeta, tlvMetaInfo, appendNonNegTLV(nil, tlvFreshnessPeriod, math.MaxUint64))
	f.Add(appendTLV(nil, tlvData, hugeMeta))
	for _, p := range []*Interest{it, mbf} {
		checkAgainstOracle(f, p, nil)
	}
	for _, p := range []*Data{d, stale, subMs} {
		checkAgainstOracle(f, nil, p)
	}

	f.Fuzz(func(t *testing.T, wire []byte) {
		if it, err := DecodeInterest(wire); err == nil {
			checkAgainstOracle(t, it, nil)
			re := it.Encode()
			it2, err := DecodeInterest(re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded interest failed: %v\nwire: %x\nre:   %x", err, wire, re)
			}
			if !reflect.DeepEqual(it, it2) {
				t.Fatalf("interest round trip not a fixed point:\nfirst:  %+v\nsecond: %+v", it, it2)
			}
		}
		if d, err := DecodeData(wire); err == nil {
			checkAgainstOracle(t, nil, d)
			re := d.Encode()
			d2, err := DecodeData(re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded data failed: %v\nwire: %x\nre:   %x", err, wire, re)
			}
			if !reflect.DeepEqual(d, d2) {
				t.Fatalf("data round trip not a fixed point:\nfirst:  %+v\nsecond: %+v", d, d2)
			}
		}
	})
}

// TestFreshnessPeriodRoundTrip pins the FreshnessPeriod wire semantics:
// whole milliseconds survive exactly, fractional values floor to the
// millisecond (matching the TLV's granularity), sub-millisecond values
// round *up* to 1 ms rather than silently losing freshness, and zero means
// the field is absent from the wire entirely.
func TestFreshnessPeriodRoundTrip(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in   time.Duration
		want time.Duration
	}{
		{0, 0},
		{time.Nanosecond, time.Millisecond},
		{500 * time.Microsecond, time.Millisecond},
		{time.Millisecond, time.Millisecond},
		{1500 * time.Microsecond, time.Millisecond},
		{time.Second, time.Second},
		{10 * time.Second, 10 * time.Second},
	}
	for _, tc := range cases {
		d := &Data{Name: ParseName("/f/0"), Freshness: tc.in}
		d.SignDigest()
		out, err := DecodeData(d.Encode())
		if err != nil {
			t.Fatalf("Freshness %v: %v", tc.in, err)
		}
		if out.Freshness != tc.want {
			t.Errorf("Freshness %v round-tripped to %v, want %v", tc.in, out.Freshness, tc.want)
		}
		// Decoded packets must be a fixed point.
		out2, err := DecodeData(out.Encode())
		if err != nil || out2.Freshness != out.Freshness {
			t.Errorf("Freshness %v not a fixed point: %v, %v", tc.in, out2.Freshness, err)
		}
	}
	// MustBeFresh survives the Interest round trip alone (without
	// CanBePrefix, unlike the seed corpus packet that sets both).
	it := &Interest{Name: ParseName("/f"), MustBeFresh: true, Nonce: 7}
	out, err := DecodeInterest(it.Encode())
	if err != nil || !out.MustBeFresh || out.CanBePrefix {
		t.Fatalf("MustBeFresh round trip: %+v, %v", out, err)
	}
}

// TestAppendVarNumBoundaries pins the encoder's form-selection exactly at
// the 1/3/5/9-octet boundaries the NDN spec defines.
func TestAppendVarNumBoundaries(t *testing.T) {
	t.Parallel()
	cases := []struct {
		v       uint64
		wantLen int
	}{
		{0, 1},
		{1, 1},
		{252, 1},            // largest 1-octet form
		{253, 3},            // smallest 3-octet form
		{65535, 3},          // largest 3-octet form
		{65536, 5},          // smallest 5-octet form
		{0xFFFFFFFF, 5},     // largest 5-octet form
		{0x100000000, 9},    // smallest 9-octet form
		{math.MaxUint64, 9}, // largest representable
	}
	for _, tc := range cases {
		b := appendVarNum(nil, tc.v)
		if len(b) != tc.wantLen {
			t.Errorf("appendVarNum(%d) produced %d bytes, want %d", tc.v, len(b), tc.wantLen)
		}
		got, n, err := readVarNum(b)
		if err != nil || n != len(b) || got != tc.v {
			t.Errorf("readVarNum(appendVarNum(%d)) = (%d, %d, %v)", tc.v, got, n, err)
		}
		// Appending after a prefix must not disturb the prefix.
		pre := appendVarNum([]byte{0xAA}, tc.v)
		if pre[0] != 0xAA || len(pre) != tc.wantLen+1 {
			t.Errorf("appendVarNum(%d) with prefix corrupted output: %x", tc.v, pre)
		}
	}
}

// TestVarNumShortestFormProperty checks, for arbitrary values, that the
// encoder always picks the shortest legal form and that decoding consumes
// exactly what encoding produced.
func TestVarNumShortestFormProperty(t *testing.T) {
	t.Parallel()
	prop := func(v uint64) bool {
		b := appendVarNum(nil, v)
		wantLen := 9
		switch {
		case v < 253:
			wantLen = 1
		case v <= 0xFFFF:
			wantLen = 3
		case v <= 0xFFFFFFFF:
			wantLen = 5
		}
		if len(b) != wantLen {
			return false
		}
		got, n, err := readVarNum(append(b, 0x55)) // trailing byte must be ignored
		return err == nil && n == wantLen && got == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeClampsHugeDurations covers the saturation path: a lifetime or
// freshness of 2^64−1 ms must clamp to MaxInt64 nanoseconds, not wrap
// negative (which would also break the round-trip fixed point).
func TestDecodeClampsHugeDurations(t *testing.T) {
	t.Parallel()
	var inner []byte
	inner = encodeName(inner, ParseName("/x"))
	inner = appendTLV(inner, tlvNonce, []byte{0, 0, 0, 1})
	inner = appendNonNegTLV(inner, tlvInterestLifetime, math.MaxUint64)
	wire := appendTLV(nil, tlvInterest, inner)

	it, err := DecodeInterest(wire)
	if err != nil {
		t.Fatal(err)
	}
	if it.Lifetime <= 0 {
		t.Fatalf("Lifetime = %v, want positive clamped value", it.Lifetime)
	}
	it2, err := DecodeInterest(it.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if it.Lifetime != it2.Lifetime {
		t.Fatalf("clamped lifetime not stable: %v vs %v", it.Lifetime, it2.Lifetime)
	}
}
