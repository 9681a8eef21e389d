package core

import (
	"bytes"
	"testing"

	"dapes/internal/bitmap"
	"dapes/internal/ndn"
)

// The /dapes signaling codecs parse bytes overheard on a lossy broadcast
// medium — any node can put arbitrary AppParams or Data content on the air,
// so the decoders are attack surface exactly like the TLV layer. These
// fuzzers mirror FuzzTLVRoundTrip's seeding and invariants: malformed input
// never panics, and a successfully decoded payload must round-trip through
// encode∘decode to an identical payload (fixed point).

// FuzzDiscoveryPayload explores readOffers, the in-place reader of the
// metadata-name lists carried in discovery replies. Besides the fixed
// point, each offered collection taken from the URI bytes
// (offeredCollection) must have the key of the parsed metadata name minus
// its last two components, and be refused exactly when that name has
// fewer than three.
func FuzzDiscoveryPayload(f *testing.F) {
	f.Add(discoveryPayload{}.encode())
	f.Add(discoveryPayload{MetadataNames: []ndn.Name{
		ndn.ParseName("/field-report/metadata-file/1"),
		ndn.ParseName("/maps/metadata-file/3"),
	}}.encode())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})                    // claims 65535 names, has none
	f.Add([]byte{0, 1, 0xFF, 0xFF})              // one name of 65535 bytes, truncated
	f.Add([]byte{0, 2, 0, 1, '/', 0, 0})         // second name empty
	f.Add(append([]byte{0, 1, 0, 4}, "/a/b"...)) // minimal valid single name

	f.Add(append([]byte{0, 1, 0, 22}, "//c//metadata-file/7//"...)) // empty components
	f.Add(append([]byte{0, 1, 0, 17}, "/metadata-file/7/"...))      // too short for a collection

	f.Fuzz(func(t *testing.T, buf []byte) {
		names, err := decodeOffers(buf)
		if err != nil {
			return
		}
		r, _ := readOffers(buf)
		for _, n := range names {
			uri, _ := r.next()
			coll, ok := offeredCollection(uri)
			if n.Len() < 3 {
				if ok {
					t.Fatalf("offer %q of %d components yielded collection %q", uri, n.Len(), coll)
				}
			} else if want := n.Prefix(n.Len() - 2).AppendKey(nil); !ok || string(ndn.AppendURIKey(nil, coll)) != string(want) {
				t.Fatalf("offer %q: collection %q (ok %v), want the key of %s", uri, coll, ok, n.Prefix(n.Len()-2))
			}
		}
		re := discoveryPayload{MetadataNames: names}.encode()
		names2, err := decodeOffers(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v\nbuf: %x\nre:  %x", err, buf, re)
		}
		if len(names) != len(names2) {
			t.Fatalf("name count changed: %d -> %d", len(names), len(names2))
		}
		for i := range names {
			if !names[i].Equal(names2[i]) {
				t.Fatalf("name %d not a fixed point: %s -> %s", i, names[i], names2[i])
			}
		}
	})
}

// FuzzBitmapPayload explores advert.decode, the codec for the
// advertisement bitmaps riding in bitmap Interests (AppParams) and bitmap
// Data (content). A malformed overheard frame must never panic the handlers
// that feed availability state from it. Handlers decode into a peer's
// reused scratch, so the fuzzer also holds an in-place decode over a
// previously loaded advert to a fresh one, requires a failed decode to
// leave the scratch alone, and requires the key taken from the URI bytes
// to be the parsed collection's AppendKey.
func FuzzBitmapPayload(f *testing.F) {
	full := bitmap.New(64)
	full.SetAll()
	sparse := bitmap.New(17)
	sparse.Set(0)
	sparse.Set(16)
	for _, p := range []bitmapPayload{
		{Collection: "/field-report", Owner: 3, Bitmap: full},
		{Collection: "/x", Owner: 0, Bitmap: sparse},
		{Collection: "/", Owner: 1 << 20, Bitmap: bitmap.New(0)},
	} {
		f.Add(p.encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})                                          // no owner, no bitmap
	f.Add([]byte{0xFF, 0xFF, '/', 'a'})                          // huge URI length claim
	f.Add([]byte{0, 1, '/', 0, 0, 0, 7})                         // bitmap header truncated
	f.Add([]byte{0, 1, '/', 0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xFF}) // bitmap claims 2^32-1 bits
	// Doubled slashes in the URI, and stray bits past n in the bitmap.
	f.Add([]byte{0, 6, '/', 'a', '/', '/', 'b', '/', 0, 0, 0, 1, 0, 0, 0, 9, 0xFF, 0xFF})

	prevBits := bitmap.New(300)
	prevBits.SetAll()
	prev := bitmapPayload{Collection: "/previous/advert", Owner: 77, Bitmap: prevBits}.encode()

	f.Fuzz(func(t *testing.T, buf []byte) {
		var fresh, scratch advert
		if err := scratch.decode(prev); err != nil {
			t.Fatal(err)
		}
		err := fresh.decode(buf)
		if scratchErr := scratch.decode(buf); (err == nil) != (scratchErr == nil) {
			t.Fatalf("fresh decode error %v, in-place decode error %v", err, scratchErr)
		}
		if err != nil {
			if scratch.owner != 77 || !scratch.bitmap.Equal(prevBits) || string(scratch.uri) != "/previous/advert" {
				t.Fatalf("failed decode changed the scratch: %+v", scratch)
			}
			return
		}
		if fresh.bitmap == nil {
			t.Fatal("decode succeeded with nil bitmap")
		}
		if string(scratch.uri) != string(fresh.uri) || scratch.owner != fresh.owner ||
			!scratch.bitmap.Equal(fresh.bitmap) || string(scratch.key) != string(fresh.key) {
			t.Fatalf("in-place decode differs from fresh:\nfresh:    %+v\nin place: %+v", fresh, scratch)
		}
		coll := fresh.collection()
		if want := coll.AppendKey(nil); string(fresh.key) != string(want) {
			t.Fatalf("key %x, want ParseName(%q).AppendKey = %x", fresh.key, fresh.uri, want)
		}
		re := bitmapPayload{Collection: coll.String(), Owner: fresh.owner, Bitmap: fresh.bitmap}.encode()
		var again advert
		if err := again.decode(re); err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v\nbuf: %x\nre:  %x", err, buf, re)
		}
		if !coll.Equal(again.collection()) || fresh.owner != again.owner || !fresh.bitmap.Equal(again.bitmap) {
			t.Fatalf("payload not a fixed point:\nfirst:  %+v\nsecond: %+v", fresh, again)
		}
		// The re-encoding itself must be stable byte-for-byte, since bitmap
		// payloads are compared and unioned by content across peers.
		re2 := bitmapPayload{Collection: again.collection().String(), Owner: again.owner, Bitmap: again.bitmap}.encode()
		if !bytes.Equal(re, re2) {
			t.Fatalf("encode not stable: %x vs %x", re, re2)
		}
	})
}
