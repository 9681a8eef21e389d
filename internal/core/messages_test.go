package core

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"dapes/internal/bitmap"
	"dapes/internal/ndn"
)

func TestDiscoveryInterestRecognition(t *testing.T) {
	t.Parallel()
	in := &ndn.Interest{
		Name:        discoveryInterestName(),
		CanBePrefix: true,
		AppParams:   binary.BigEndian.AppendUint32(nil, 42),
	}
	id, ok := isDiscoveryInterest(in)
	if !ok || id != 42 {
		t.Fatalf("isDiscoveryInterest = %d, %v", id, ok)
	}
	// Wrong name.
	bad := &ndn.Interest{Name: ndn.ParseName("/dapes/other"), AppParams: in.AppParams}
	if _, ok := isDiscoveryInterest(bad); ok {
		t.Fatal("wrong name recognized")
	}
	// Missing params.
	if _, ok := isDiscoveryInterest(&ndn.Interest{Name: discoveryInterestName()}); ok {
		t.Fatal("missing params recognized")
	}
}

func TestDiscoveryReplyNames(t *testing.T) {
	t.Parallel()
	name := discoveryReplyPrefix(7).AppendSeq(3)
	id, ok := isDiscoveryReply(name)
	if !ok || id != 7 {
		t.Fatalf("isDiscoveryReply(%s) = %d, %v", name, id, ok)
	}
	for _, bad := range []ndn.Name{
		ndn.ParseName("/dapes/discovery"),
		ndn.ParseName("/dapes/discovery/other/7/3"),
		ndn.ParseName("/dapes/discovery/reply/x/3"),
		ndn.ParseName("/other/discovery/reply/7/3"),
	} {
		if _, ok := isDiscoveryReply(bad); ok {
			t.Fatalf("%s wrongly recognized as discovery reply", bad)
		}
	}
}

// decodeOffers reads a discovery payload through the in-place reader and
// parses each offered URI.
func decodeOffers(buf []byte) ([]ndn.Name, error) {
	r, err := readOffers(buf)
	if err != nil {
		return nil, err
	}
	var out []ndn.Name
	for uri, ok := r.next(); ok; uri, ok = r.next() {
		out = append(out, ndn.ParseName(string(uri)))
	}
	return out, nil
}

func TestDiscoveryPayloadRoundTrip(t *testing.T) {
	t.Parallel()
	p := discoveryPayload{MetadataNames: []ndn.Name{
		ndn.ParseName("/coll-a/metadata-file/12ab34cd"),
		ndn.ParseName("/coll-b/metadata-file/99ff00aa"),
	}}
	out, err := decodeOffers(p.encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !out[0].Equal(p.MetadataNames[0]) || !out[1].Equal(p.MetadataNames[1]) {
		t.Fatalf("roundtrip = %+v", out)
	}
	// Empty list round-trips.
	empty, err := decodeOffers(discoveryPayload{}.encode())
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty roundtrip: %v %v", empty, err)
	}
}

func TestDiscoveryPayloadDecodeErrors(t *testing.T) {
	t.Parallel()
	cases := [][]byte{
		nil,
		{0},
		{0, 2, 0, 5, 'a'},       // claims 2 entries, truncated
		{0, 1, 0, 50, 'x', 'y'}, // length exceeds buffer
	}
	for i, buf := range cases {
		if _, err := readOffers(buf); err == nil {
			t.Fatalf("case %d decoded", i)
		}
	}
}

func TestBitmapPayloadRoundTrip(t *testing.T) {
	t.Parallel()
	bm := bitmap.New(100)
	bm.Set(1)
	bm.Set(99)
	coll := ndn.ParseName("/damaged-bridge-1533783192")
	p := bitmapPayload{Collection: coll.String(), Owner: 13, Bitmap: bm}
	var out advert
	if err := out.decode(p.encode()); err != nil {
		t.Fatal(err)
	}
	if !out.collection().Equal(coll) || out.owner != 13 || !out.bitmap.Equal(bm) {
		t.Fatalf("roundtrip = %+v", out)
	}
	if string(out.key) != string(coll.AppendKey(nil)) {
		t.Fatalf("key %q, want the collection's AppendKey", out.key)
	}
}

func TestBitmapPayloadDecodeErrors(t *testing.T) {
	t.Parallel()
	cases := [][]byte{nil, {0}, {0, 5, 'a', 'b'}, {0, 1, 'x', 0, 0, 0, 1}}
	for i, buf := range cases {
		var a advert
		if err := a.decode(buf); err == nil {
			t.Fatalf("case %d decoded", i)
		}
	}
}

func TestBitmapNamesRecognition(t *testing.T) {
	t.Parallel()
	coll := ndn.ParseName("/coll-x")
	in := bitmapInterestName(coll)
	if !isBitmapInterest(in) {
		t.Fatalf("bitmap interest %s not recognized", in)
	}
	data := bitmapDataPrefix(in, 5).AppendSeq(2)
	if !isBitmapData(data) {
		t.Fatalf("bitmap data %s not recognized", data)
	}
	if isBitmapData(in) || isBitmapInterest(data) {
		t.Fatal("interest/data names confused")
	}
	// The interest name must prefix the data name so intermediate nodes can
	// relay advertisements along the reverse path.
	if !in.IsPrefixOf(data) {
		t.Fatalf("%s is not a prefix of %s", in, data)
	}
	if !isProtocolName(in) || !isProtocolName(data) {
		t.Fatal("protocol namespace not recognized")
	}
	if isProtocolName(ndn.ParseName("/coll-x/file/0")) {
		t.Fatal("collection name recognized as protocol")
	}
}

func TestCollectionKeyStability(t *testing.T) {
	t.Parallel()
	a := collectionKey(ndn.ParseName("/coll-a"))
	b := collectionKey(ndn.ParseName("/coll-b"))
	if a == b {
		t.Fatal("distinct collections share a key")
	}
	if a != collectionKey(ndn.ParseName("/coll-a")) {
		t.Fatal("key not stable")
	}
	// Component boundaries matter: /ab/c vs /a/bc must differ.
	if collectionKey(ndn.ParseName("/ab/c")) == collectionKey(ndn.ParseName("/a/bc")) {
		t.Fatal("key ignores component boundaries")
	}
}

func TestBitmapPayloadRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(owner uint16, setBits []uint16) bool {
		bm := bitmap.New(256)
		for _, b := range setBits {
			bm.Set(int(b) % 256)
		}
		p := bitmapPayload{Collection: "/c", Owner: int(owner), Bitmap: bm}
		var out advert
		err := out.decode(p.encode())
		return err == nil && out.owner == int(owner) && out.bitmap.Equal(bm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
